import math

import numpy as np
import pytest

from aapdeploy import channel, montecarlo, uplink
from aapdeploy.errors import DegenerateCoverageError
from aapdeploy.params import EnvironmentParams

from conftest import make_system


def test_cell_load_consistency(baseline_system):
    assert uplink.cell_ue_count(50.0, baseline_system) == pytest.approx(
        1e-2 * math.pi * 2500.0
    )


def ue_transmit_power(r, h, sys, env):
    """Power-controlled transmit power min{P_max, P_a B L^beta} of one UE, as
    the Monte-Carlo oracle computes it for every sampled UE."""
    return float(montecarlo._ue_powers(np.array([r]), h, sys, env)[1][0])


def test_ue_transmit_power_cap(baseline_system, suburban_env):
    # far UE: controlled power far above the cap
    assert (
        ue_transmit_power(5000.0, 300.0, baseline_system, suburban_env)
        == baseline_system.p_max
    )


def test_ue_transmit_power_unit_path_loss(baseline_system, suburban_env):
    # engineered unit mean path loss via a direct product check
    loss = float(channel.mean_path_loss_rh(10.0, 15.0, suburban_env))
    expected = min(baseline_system.p_max, baseline_system.p_target_pa * loss)
    assert ue_transmit_power(10.0, 15.0, baseline_system, suburban_env) == pytest.approx(
        expected
    )


def test_ue_transmit_power_direct_substitution(baseline_system, suburban_env):
    phi = math.degrees(math.atan2(15.0, 50.0))
    p = 1.0 / (1.0 + 4.88 * math.exp(-0.43 * (phi - 4.88)))
    eta_m = 10**2.1 + p * (10**0.01 - 10**2.1)
    loss = eta_m * (50.0**2 + 15.0**2) / 1.42e-4
    expected = min(1e-3, baseline_system.p_target_pa * loss)
    assert ue_transmit_power(50.0, 15.0, baseline_system, suburban_env) == pytest.approx(
        expected, rel=1e-12
    )


def test_sum_power_closed_form_scales_with_density(
    suburban_env, baseline_system, edge_phi
):
    sparse = make_system(ue_density_rho=1e-9)
    value = uplink.expected_sum_power_closed_form(15.0, edge_phi, sparse, suburban_env)
    dense = uplink.expected_sum_power_closed_form(
        15.0, edge_phi, baseline_system, suburban_env
    )
    assert value == pytest.approx(dense * 1e-9 / 1e-2, rel=1e-12)


def test_sum_power_closed_form_cot45(suburban_env, baseline_system):
    eta_m = float(channel.mean_additional_path_loss(45.0, suburban_env))
    h = 20.0
    expected = (
        2.0
        * math.pi
        * baseline_system.ue_density_rho
        * baseline_system.p_target_pa
        * eta_m
        * h**4
        * 3.0
        / (4.0 * suburban_env.g0)
    )
    assert uplink.expected_sum_power_closed_form(
        h, 45.0, baseline_system, suburban_env
    ) == pytest.approx(expected, rel=1e-9)


def test_sum_power_closed_form_increasing_in_h(baseline_system, suburban_env, edge_phi):
    values = [
        uplink.expected_sum_power_closed_form(h, edge_phi, baseline_system, suburban_env)
        for h in np.linspace(15, 300, 30)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_exact_bounded_by_closed_form(baseline_system, suburban_env):
    for h in (15.0, 60.0, 150.0):
        for delta in (0.5, 0.9, 0.99):
            phi = channel.phi_from_delta(delta, suburban_env)
            exact = uplink.expected_sum_power_exact(h, phi, baseline_system, suburban_env)
            closed = uplink.expected_sum_power_closed_form(
                h, phi, baseline_system, suburban_env
            )
            assert exact <= closed * (1.0 + 1e-12)
            assert closed - exact > 0.0


def test_exact_equals_closed_form_when_excess_loss_constant(baseline_system):
    env = EnvironmentParams(a=4.88, b=0.43, eta_los=5.0, eta_nlos=5.0, g0=1.42e-4)
    phi = channel.phi_from_delta(0.9, env)
    exact = uplink.expected_sum_power_exact(15.0, phi, baseline_system, env)
    closed = uplink.expected_sum_power_closed_form(15.0, phi, baseline_system, env)
    assert exact == pytest.approx(closed, rel=1e-9)


def test_per_ue_rate_no_interference_limit(suburban_env, edge_phi):
    sysp = make_system(num_interferers_m=0)
    r_a = channel.coverage_radius(15.0, edge_phi, suburban_env)
    n_ue = uplink.cell_ue_count(r_a, sysp)
    snr = sysp.p_target_pa * n_ue / (sysp.noise_psd_sigma0sq * sysp.bandwidth_w)
    expected = (sysp.bandwidth_w / n_ue) * math.log2(1.0 + snr)
    per_ue = uplink.sum_rate(15.0, edge_phi, sysp, suburban_env) / n_ue
    assert per_ue == pytest.approx(expected, rel=1e-12)


def test_per_ue_rate_interference_limited(suburban_env, edge_phi):
    # huge density: SINR -> 1/M
    sysp = make_system(ue_density_rho=1e3)
    r_a = channel.coverage_radius(15.0, edge_phi, suburban_env)
    n_ue = uplink.cell_ue_count(r_a, sysp)
    expected = (sysp.bandwidth_w / n_ue) * math.log2(7.0 / 6.0)
    per_ue = uplink.sum_rate(15.0, edge_phi, sysp, suburban_env) / n_ue
    assert per_ue == pytest.approx(expected, rel=1e-6)


def test_rate_equalization_reduction(baseline_system, suburban_env, edge_phi):
    """The general SINR form with power-controlled arrived powers reduces to
    the r-independent rate expression for any covered UE: W / n of the sum
    rate."""
    h = 15.0
    r_a = channel.coverage_radius(h, edge_phi, suburban_env)
    n_ue = uplink.cell_ue_count(r_a, baseline_system)
    noise = baseline_system.noise_psd_sigma0sq * baseline_system.bandwidth_w
    per_ue = uplink.sum_rate(h, edge_phi, baseline_system, suburban_env) / n_ue
    for r in (0.0, 0.3 * r_a, r_a):
        loss = float(channel.mean_path_loss_rh(r, h, suburban_env))
        arrived = baseline_system.p_target_pa * loss / loss  # P̄_i / L̄
        interference = baseline_system.num_interferers_m * baseline_system.p_target_pa
        general = (baseline_system.bandwidth_w / n_ue) * math.log2(
            1.0 + arrived / (interference + noise / n_ue)
        )
        assert general == pytest.approx(per_ue, rel=1e-12)


def test_sum_rate_equals_count_times_per_ue(baseline_system, suburban_env, edge_phi):
    h = 15.0
    r_a = channel.coverage_radius(h, edge_phi, suburban_env)
    n_ue = uplink.cell_ue_count(r_a, baseline_system)
    signal = baseline_system.p_target_pa * n_ue
    sinr = signal / (
        baseline_system.num_interferers_m * signal
        + baseline_system.noise_psd_sigma0sq * baseline_system.bandwidth_w
    )
    per_ue = baseline_system.bandwidth_w / n_ue * math.log2(1.0 + sinr)
    assert uplink.sum_rate(h, edge_phi, baseline_system, suburban_env) == pytest.approx(
        n_ue * per_ue, rel=1e-12
    )


def test_sum_rate_saturation(baseline_system, suburban_env, edge_phi):
    # large-cell limit W log2(1 + 1/M)
    limit = baseline_system.bandwidth_w * math.log2(
        1.0 + 1.0 / baseline_system.num_interferers_m
    )
    assert limit == pytest.approx(20e6 * math.log2(1 + 1 / 6))
    values = [
        uplink.sum_rate(h, edge_phi, baseline_system, suburban_env)
        for h in np.linspace(15, 300, 30)
    ]
    gaps = [limit - v for v in values]
    assert all(g > 0 for g in gaps)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))


def test_sum_rate_unbounded_without_interference_or_noise(suburban_env, edge_phi):
    sysp = make_system(num_interferers_m=0)
    small = uplink.sum_rate(15.0, edge_phi, sysp, suburban_env)
    large = uplink.sum_rate(150.0, edge_phi, sysp, suburban_env)
    assert large > small


def test_h_max_power_constraint_nadir_form(baseline_system, suburban_env):
    # phi = 90 deg: cot term vanishes
    eta_m = float(channel.mean_additional_path_loss(90.0, suburban_env))
    expected = math.sqrt(
        baseline_system.p_max
        * suburban_env.g0
        / (baseline_system.p_target_pa * eta_m)
    )
    assert uplink.h_max_power_constraint(
        90.0, baseline_system, suburban_env
    ) == pytest.approx(expected, rel=1e-15)


def test_h_max_power_constraint_engineered_unit(suburban_env, edge_phi):
    cot2 = 1.0 / math.tan(math.radians(edge_phi)) ** 2
    eta_m = float(channel.mean_additional_path_loss(edge_phi, suburban_env))
    sysp = make_system()
    # choose P_a so that h'_max is exactly 1 m
    p_a = sysp.p_max * suburban_env.g0 / (eta_m * (1.0 + cot2))
    engineered = make_system(
        gamma=p_a / (sysp.noise_psd_sigma0sq * sysp.bandwidth_w)
    )
    assert uplink.h_max_power_constraint(
        edge_phi, engineered, suburban_env
    ) == pytest.approx(1.0, rel=1e-12)


def test_edge_power_round_trip(baseline_system, suburban_env, edge_phi):
    h_lim = uplink.h_max_power_constraint(edge_phi, baseline_system, suburban_env)
    r_a = channel.coverage_radius(h_lim, edge_phi, suburban_env)
    loss = float(channel.mean_path_loss_rh(r_a, h_lim, suburban_env))
    assert baseline_system.p_target_pa * loss == pytest.approx(
        baseline_system.p_max, rel=1e-9
    )


def test_degenerate_coverage_raises(baseline_system, suburban_env):
    # an edge at the zenith leaves a nadir-only cell
    assert channel.coverage_radius(15.0, 90.0, suburban_env) == 0.0
    with pytest.raises(DegenerateCoverageError):
        uplink.sum_rate(15.0, 90.0, baseline_system, suburban_env)
    h = np.array([15.0, 30.0])
    assert list(channel.coverage_radius(h, 90.0, suburban_env)) == [0.0, 0.0]
    with pytest.raises(DegenerateCoverageError):
        uplink.sum_rate(h, 90.0, baseline_system, suburban_env)
