import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from aapdeploy import channel, montecarlo, uplink
from aapdeploy.errors import DegenerateCoverageError, QuadratureError
from aapdeploy.params import EnvironmentParams

from conftest import make_system


def test_cell_load_consistency(baseline_system):
    assert uplink.cell_ue_count(50.0, baseline_system) == pytest.approx(
        1e-2 * math.pi * 2500.0
    )


def ue_transmit_power(r, h, sys, env):
    """Power-controlled transmit power P_a L of one UE, as the Monte-Carlo
    oracle computes it for every sampled UE."""
    return float(montecarlo._ue_powers(np.array([r]), h, sys, env)[0])


def test_ue_transmit_power_unit_path_loss(baseline_system, suburban_env):
    # engineered unit mean path loss via a direct product check
    loss = float(channel.mean_path_loss_rh(10.0, 15.0, suburban_env))
    expected = baseline_system.p_target_pa * loss
    assert ue_transmit_power(10.0, 15.0, baseline_system, suburban_env) == pytest.approx(
        expected
    )


def test_ue_transmit_power_direct_substitution(baseline_system, suburban_env):
    phi = math.degrees(math.atan2(15.0, 50.0))
    p = 1.0 / (1.0 + 4.88 * math.exp(-0.43 * (phi - 4.88)))
    eta_m = 10**2.1 + p * (10**0.01 - 10**2.1)
    loss = eta_m * (50.0**2 + 15.0**2) / 1.42e-4
    expected = baseline_system.p_target_pa * loss
    assert ue_transmit_power(50.0, 15.0, baseline_system, suburban_env) == pytest.approx(
        expected, rel=1e-12
    )


def test_sum_power_closed_form_scales_with_density(
    suburban_env, baseline_system, edge_phi
):
    sparse = make_system(ue_density_per_m2=1e-9)
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
        * baseline_system.ue_density_per_m2
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
    env = EnvironmentParams(a=4.88, b=0.43, eta_los_db=7.0, eta_nlos_db=7.0, g0=1.42e-4)
    phi = channel.phi_from_delta(0.9, env)
    exact = uplink.expected_sum_power_exact(15.0, phi, baseline_system, env)
    closed = uplink.expected_sum_power_closed_form(15.0, phi, baseline_system, env)
    assert exact == pytest.approx(closed, rel=1e-9)


def reference_sum_power(h, r_a, eta_m, sys, env, breaks=()):
    """scipy's adaptive Gauss-Kronrod quadrature (QUADPACK) of the sum-power
    integrand, one float at a time, at 1e-13 relative: the reference for the
    package's Gauss-Legendre rule.  ``eta_m`` None takes each UE's own mean
    excess loss, as ``expected_sum_power_exact`` does; a float freezes it,
    as ``expected_sum_power_edge_quadrature`` does.  ``breaks`` start
    panels: a steep S-curve turns within metres of a cell kilometres wide,
    and a turn that falls between the first nodes is missed."""

    def integrand(r):
        if eta_m is None:
            loss = float(channel.mean_path_loss_rh(r, h, env))
        else:
            loss = eta_m * (r * r + h * h) / env.g0
        return sys.ue_density_per_m2 * 2.0 * math.pi * sys.p_target_pa * loss * r

    value, _ = quad(
        integrand, 0.0, r_a, epsabs=0.0, epsrel=1e-13, limit=1000, points=breaks or None
    )
    return value


# The steep S-curves of the CLI tests, at validate's cell (h_min, delta = 0.9).
STEEP_CELLS = [
    dict(h=15.0, phi=30.233267581624933, a=30.0, b=24.0),
    dict(h=15.0, phi=30.186614065299946, a=30.0, b=30.0),
]


@settings(max_examples=300, deadline=None)
@given(
    h=st.floats(min_value=1.0, max_value=1000.0),
    phi=st.floats(min_value=0.5, max_value=89.5),
    a=st.floats(min_value=0.5, max_value=80.0),
    b=st.floats(min_value=0.05, max_value=30.0),
    eta_los_db=st.floats(min_value=0.0, max_value=5.0),
    eta_gap_db=st.floats(min_value=0.0, max_value=40.0),
    gamma=st.floats(min_value=1e-3, max_value=1e4),
)
@example(**STEEP_CELLS[0], eta_los_db=0.1, eta_gap_db=20.9, gamma=100.0)
@example(**STEEP_CELLS[1], eta_los_db=0.1, eta_gap_db=20.9, gamma=100.0)
# A turn near the nadir of a wide cell: without panels started on the
# S-curve the exact quadrature missed it, 8e-10 and 2e-9 off.
@example(h=600.0, phi=0.5, a=75.0, b=20.0, eta_los_db=3.0, eta_gap_db=29.0, gamma=0.05)
@example(h=250.0, phi=0.7, a=78.0, b=26.0, eta_los_db=2.0, eta_gap_db=35.0, gamma=0.003)
def test_quadratures_match_the_scipy_reference(
    h, phi, a, b, eta_los_db, eta_gap_db, gamma
):
    env = EnvironmentParams(a, b, eta_los_db, eta_los_db + eta_gap_db, g0=1.42e-4)
    sysp = make_system(gamma=gamma)
    r_a = float(channel.coverage_radius(h, phi))
    eta_m = float(channel.mean_additional_path_loss(phi, env))
    edge = uplink.expected_sum_power_edge_quadrature(h, phi, sysp, env)
    reference = reference_sum_power(h, r_a, eta_m, sysp, env)
    assert abs(edge - reference) <= 1e-12 * reference
    exact = uplink.expected_sum_power_exact(h, phi, sysp, env)
    breaks = [x for x in uplink.los_break_radii(h, env) if 0.0 < x < r_a]
    reference = reference_sum_power(h, r_a, None, sysp, env, breaks)
    assert abs(exact - reference) <= 1e-10 * reference


def test_quadrature_of_a_steep_integrand_is_exact_to_1e_11():
    # the integral of sqrt over [0, 1] is 2/3; sqrt's slope is infinite at
    # 0, and a looser panel tolerance stops bisecting there early
    assert abs(uplink._sum_power_quadrature(1.0, np.sqrt) - 2.0 / 3.0) <= 1e-11 * 2.0 / 3.0


@pytest.mark.parametrize("cell", STEEP_CELLS, ids=["b24", "b30"])
def test_exhausted_panel_budget_raises(baseline_system, monkeypatch, cell):
    # one panel cannot resolve the S-curve's turn inside the cell
    env = EnvironmentParams(cell["a"], cell["b"], 0.1, 21.0, g0=1.42e-4)
    monkeypatch.setattr(uplink, "LOS_BREAKS", ())
    monkeypatch.setattr(uplink, "QUAD_MAX_PANELS", 1)
    with pytest.raises(QuadratureError, match="quadrature achieved only"):
        uplink.expected_sum_power_exact(cell["h"], cell["phi"], baseline_system, env)


def test_per_ue_rate_no_interference_limit(edge_phi):
    sysp = make_system(num_interferers=0)
    r_a = channel.coverage_radius(15.0, edge_phi)
    n_ue = uplink.cell_ue_count(r_a, sysp)
    snr = sysp.p_target_pa * n_ue / (sysp.noise_psd_w_per_hz * sysp.bandwidth_hz)
    expected = (sysp.bandwidth_hz / n_ue) * math.log2(1.0 + snr)
    per_ue = uplink.sum_rate(15.0, edge_phi, sysp) / n_ue
    assert per_ue == pytest.approx(expected, rel=1e-12)


def test_per_ue_rate_interference_limited(edge_phi):
    # huge density: SINR -> 1/M
    sysp = make_system(ue_density_per_m2=1e3)
    r_a = channel.coverage_radius(15.0, edge_phi)
    n_ue = uplink.cell_ue_count(r_a, sysp)
    expected = (sysp.bandwidth_hz / n_ue) * math.log2(7.0 / 6.0)
    per_ue = uplink.sum_rate(15.0, edge_phi, sysp) / n_ue
    assert per_ue == pytest.approx(expected, rel=1e-6)


def test_rate_equalization_reduction(baseline_system, suburban_env, edge_phi):
    """The general SINR form with power-controlled arrived powers reduces to
    the r-independent rate expression for any covered UE: W / n of the sum
    rate."""
    h = 15.0
    r_a = channel.coverage_radius(h, edge_phi)
    n_ue = uplink.cell_ue_count(r_a, baseline_system)
    noise = baseline_system.noise_psd_w_per_hz * baseline_system.bandwidth_hz
    per_ue = uplink.sum_rate(h, edge_phi, baseline_system) / n_ue
    for r in (0.0, 0.3 * r_a, r_a):
        loss = float(channel.mean_path_loss_rh(r, h, suburban_env))
        arrived = baseline_system.p_target_pa * loss / loss  # P̄_i / L̄
        interference = baseline_system.num_interferers * baseline_system.p_target_pa
        general = (baseline_system.bandwidth_hz / n_ue) * math.log2(
            1.0 + arrived / (interference + noise / n_ue)
        )
        assert general == pytest.approx(per_ue, rel=1e-12)


def test_sum_rate_equals_count_times_per_ue(baseline_system, edge_phi):
    h = 15.0
    r_a = channel.coverage_radius(h, edge_phi)
    n_ue = uplink.cell_ue_count(r_a, baseline_system)
    signal = baseline_system.p_target_pa * n_ue
    sinr = signal / (
        baseline_system.num_interferers * signal
        + baseline_system.noise_psd_w_per_hz * baseline_system.bandwidth_hz
    )
    per_ue = baseline_system.bandwidth_hz / n_ue * math.log2(1.0 + sinr)
    assert uplink.sum_rate(h, edge_phi, baseline_system) == pytest.approx(
        n_ue * per_ue, rel=1e-12
    )


def test_sum_rate_saturation(baseline_system, edge_phi):
    # large-cell limit W log2(1 + 1/M)
    limit = baseline_system.bandwidth_hz * math.log2(
        1.0 + 1.0 / baseline_system.num_interferers
    )
    assert limit == pytest.approx(20e6 * math.log2(1 + 1 / 6))
    values = [
        uplink.sum_rate(h, edge_phi, baseline_system)
        for h in np.linspace(15, 300, 30)
    ]
    gaps = [limit - v for v in values]
    assert all(g > 0 for g in gaps)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))


def test_sum_rate_unbounded_without_interference_or_noise(edge_phi):
    sysp = make_system(num_interferers=0)
    small = uplink.sum_rate(15.0, edge_phi, sysp)
    large = uplink.sum_rate(150.0, edge_phi, sysp)
    assert large > small


def test_h_max_power_constraint_nadir_form(baseline_system, suburban_env):
    # phi = 90 deg: cot term vanishes
    eta_m = float(channel.mean_additional_path_loss(90.0, suburban_env))
    expected = math.sqrt(
        baseline_system.p_max_w
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
    p_a = sysp.p_max_w * suburban_env.g0 / (eta_m * (1.0 + cot2))
    engineered = make_system(
        gamma=p_a / (sysp.noise_psd_w_per_hz * sysp.bandwidth_hz)
    )
    assert uplink.h_max_power_constraint(
        edge_phi, engineered, suburban_env
    ) == pytest.approx(1.0, rel=1e-12)


def test_edge_power_round_trip(baseline_system, suburban_env, edge_phi):
    h_lim = uplink.h_max_power_constraint(edge_phi, baseline_system, suburban_env)
    r_a = channel.coverage_radius(h_lim, edge_phi)
    loss = float(channel.mean_path_loss_rh(r_a, h_lim, suburban_env))
    assert baseline_system.p_target_pa * loss == pytest.approx(
        baseline_system.p_max_w, rel=1e-9
    )


def test_degenerate_coverage_raises(baseline_system):
    # an edge at the zenith leaves a nadir-only cell
    assert channel.coverage_radius(15.0, 90.0) == 0.0
    with pytest.raises(DegenerateCoverageError):
        uplink.sum_rate(15.0, 90.0, baseline_system)
    h = np.array([15.0, 30.0])
    assert list(channel.coverage_radius(h, 90.0)) == [0.0, 0.0]
    with pytest.raises(DegenerateCoverageError):
        uplink.sum_rate(h, 90.0, baseline_system)
