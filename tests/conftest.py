import pytest

from aapdeploy import channel
from aapdeploy.params import EnvironmentParams, SystemParams, UavEnergyParams
from aapdeploy.scenario import builtin_scenario_path

# Baseline physics on coarse grids (4 altitudes, 12 elevation angles), so
# that a test running every verb stays fast.
COARSE_BASELINE = (
    builtin_scenario_path("baseline")
    .read_text()
    .replace("h_step_m = 1", "h_step_m = 95")
    .replace("phi_step_deg = 0.25", "phi_step_deg = 5")
)

# One line per acceptance criterion, echoed after the test summary so the
# pass/fail verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def config_error_line(capsys) -> str:
    """The one stderr line of a run that exited 2."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err
    return err[0]


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
        gamma=gamma,
        **kwargs,
    )


@pytest.fixture
def baseline_system():
    return make_system()


@pytest.fixture
def baseline_uav():
    return UavEnergyParams(315.0, -211.261, 4.917, 275.204)
