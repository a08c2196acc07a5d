import numpy as np
import pytest

from aapdeploy import energy
from aapdeploy.errors import ConfigError
from aapdeploy.params import UavEnergyParams

from conftest import make_system


def test_uav_energy_reference_value(baseline_system, baseline_uav):
    # (315*15 - 211.261) + (4.917*15 + 275.204)*500
    expected = (315.0 * 15.0 - 211.261) + (4.917 * 15.0 + 275.204) * 500.0
    assert expected == pytest.approx(178993.239, abs=1e-9)
    assert energy.uav_only_energy(15.0, baseline_system, baseline_uav) == pytest.approx(
        expected, abs=1e-9
    )


def test_total_energy_with_zero_comm_power(baseline_system, baseline_uav):
    total = energy.total_energy(15.0, 0.0, baseline_system, baseline_uav)
    assert total == pytest.approx(178993.239 + 5.0 * 500.0, abs=1e-9)


def test_zero_service_time_rejected():
    # with zero vehicle energy a zero service period makes the GEE 0/0
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigError, match="service_time_t must be strictly positive"):
            make_system(service_time_t=bad)


def test_ablation_zero_params(baseline_system):
    zero = UavEnergyParams.zero()
    assert energy.uav_only_energy(42.0, baseline_system, zero) == 0.0
    assert energy.total_energy(42.0, 3.0, baseline_system, zero) == pytest.approx(
        (3.0 + 5.0) * 500.0
    )


def test_affine_in_altitude(baseline_system, baseline_uav):
    h1, h2 = 20.0, 130.0
    slope = 315.0 + 4.917 * 500.0
    diff = energy.uav_only_energy(h2, baseline_system, baseline_uav) - energy.uav_only_energy(
        h1, baseline_system, baseline_uav
    )
    assert diff == pytest.approx(slope * (h2 - h1), rel=1e-12)


def test_decomposition(baseline_system, baseline_uav):
    p_t = 0.7
    total = energy.total_energy(60.0, p_t, baseline_system, baseline_uav)
    parts = energy.uav_only_energy(60.0, baseline_system, baseline_uav) + (
        p_t + baseline_system.circuit_power_pc
    ) * baseline_system.service_time_t
    assert total == parts


def test_altitude_out_of_range(baseline_system, baseline_uav):
    with pytest.raises(ValueError):
        energy.total_energy(10.0, 0.0, baseline_system, baseline_uav)
    with pytest.raises(ValueError):
        energy.uav_only_energy(301.0, baseline_system, baseline_uav)


def test_negative_comm_power_rejected(baseline_system, baseline_uav):
    with pytest.raises(ValueError):
        energy.total_energy(15.0, -1.0, baseline_system, baseline_uav)


def test_array_altitudes_checked_elementwise(baseline_system, baseline_uav):
    h = np.array([15.0, 60.0, 300.0])
    energies = energy.total_energy(h, np.zeros(3), baseline_system, baseline_uav)
    for h_i, e_i in zip(h, energies):
        assert e_i == energy.total_energy(float(h_i), 0.0, baseline_system, baseline_uav)
    with pytest.raises(ValueError, match="altitude 301 m"):
        energy.uav_only_energy(np.array([15.0, 301.0]), baseline_system, baseline_uav)
    with pytest.raises(ValueError):
        energy.total_energy(h, np.array([0.0, -1.0, 0.0]), baseline_system, baseline_uav)


def test_climb_energy_range_validation():
    bad = UavEnergyParams(alpha_cl=1.0, beta_cl=-100.0, alpha_ho=1.0, beta_ho=1.0)
    with pytest.raises(ConfigError):
        bad.validate_range(15.0, 300.0)
    good = UavEnergyParams(315.0, -211.261, 4.917, 275.204)
    good.validate_range(15.0, 300.0)
    UavEnergyParams.zero().validate_range(15.0, 300.0)


def test_hover_power_range_validation():
    # negative hover power lets total energy pass through 0, where GEE is unbounded
    bad = UavEnergyParams(315.0, -211.261, 4.917, -275.204)
    with pytest.raises(ConfigError, match="hover power negative at h=15"):
        bad.validate_range(15.0, 300.0)
    UavEnergyParams(315.0, -211.261, 0.0, 0.0).validate_range(15.0, 300.0)
