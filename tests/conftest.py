import pytest

from aapdeploy import channel
from aapdeploy.params import EnvironmentParams, SystemParams, UavEnergyParams

# One line per acceptance criterion, echoed after the test summary so the
# pass/fail verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(config, terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def suburban_env():
    return EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)


@pytest.fixture
def edge_phi(suburban_env):
    """Edge elevation (deg) at which the suburban LoS probability is 0.9."""
    return channel.phi_from_delta(0.9, suburban_env)


def make_system(gamma=100.0, **overrides):
    kwargs = dict(
        num_interferers_m=6,
        circuit_power_pc=5.0,
        service_time_t=500.0,
        p_max=1e-3,
        ue_density_rho=1e-2,
        h_min=15.0,
        h_max=300.0,
        area_radius_r=180.48,
    )
    kwargs.update(overrides)
    noise, bandwidth = 4e-21, 20e6
    return SystemParams(
        bandwidth_w=bandwidth,
        noise_psd_sigma0sq=noise,
        p_target_pa=gamma * noise * bandwidth,  # gamma = P_a / (sigma0^2 W)
        **kwargs,
    )


@pytest.fixture
def baseline_system():
    return make_system()


@pytest.fixture
def baseline_uav():
    return UavEnergyParams(315.0, -211.261, 4.917, 275.204)
