import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aapdeploy import channel, energy, gee, uplink
from aapdeploy.errors import InfeasibleError
from aapdeploy.params import EnvironmentParams, UavEnergyParams

from conftest import make_system


def test_gee_value_decomposition(
    suburban_env, baseline_system, baseline_uav, edge_phi
):
    h = 15.0
    rate = uplink.sum_rate(h, edge_phi, baseline_system)
    power = uplink.expected_sum_power_closed_form(
        h, edge_phi, baseline_system, suburban_env
    )
    total = energy.total_energy(h, power, baseline_system, baseline_uav)
    expected = baseline_system.service_time_t * rate / total
    assert gee.gee_value(h, edge_phi, baseline_system, suburban_env, baseline_uav) == (
        pytest.approx(expected, rel=1e-12)
    )


@settings(max_examples=60, deadline=None)
@given(
    phi=st.floats(min_value=5.0, max_value=80.0),
    gamma=st.sampled_from([0.01, 1.0, 100.0]),
    zero_uav=st.booleans(),
    heights=st.lists(st.floats(min_value=15.0, max_value=300.0), min_size=1, max_size=30),
)
def test_gee_value_broadcast_matches_scalar_calls(phi, gamma, zero_uav, heights):
    # one array call over h must equal the element-wise scalar calls
    env = EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = make_system(gamma=gamma)
    uav = (
        UavEnergyParams.zero()
        if zero_uav
        else UavEnergyParams(315.0, -211.261, 4.917, 275.204)
    )
    values = gee.gee_value(np.array(heights), phi, sysp, env, uav)
    assert values.shape == (len(heights),)
    for h, value in zip(heights, values):
        scalar = gee.gee_value(h, phi, sysp, env, uav)
        assert value == pytest.approx(scalar, rel=1e-12, abs=0.0)


def test_gee_decreasing_in_altitude_baseline(
    suburban_env, baseline_system, baseline_uav
):
    for delta in (0.5, 0.9):
        phi = channel.phi_from_delta(delta, suburban_env)
        values = [
            gee.gee_value(h, phi, baseline_system, suburban_env, baseline_uav)
            for h in np.linspace(15.0, 300.0, 40)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_solve_p1_baseline_pins_min_altitude(
    suburban_env, baseline_system, baseline_uav
):
    grid = np.arange(5.0, 60.0 + 1e-9, 0.25).tolist()
    sol = gee.solve_p1(baseline_system, suburban_env, baseline_uav, phi_grid=grid)
    assert sol.h_opt == baseline_system.h_min
    assert sol.binding_constraint is gee.BindingConstraint.MIN_ALTITUDE
    assert sol.monotone_audit_passed
    assert sol.r_a == sol.h_opt / math.tan(math.radians(sol.phi_opt_deg))
    assert sol.delta_opt == float(channel.los_probability(sol.phi_opt_deg, suburban_env))
    # the returned threshold really is the per-threshold argmax at h_min
    others = [
        gee.gee_value(sol.h_opt, phi, baseline_system, suburban_env, baseline_uav)
        for phi in grid
    ]
    assert sol.gee == pytest.approx(max(others), rel=1e-12)


def test_solve_p1_tie_break_toward_larger_phi(
    suburban_env, baseline_system, baseline_uav
):
    # duplicate thresholds: the reported optimum keeps a single phi but the
    # solver must not crash or prefer the first occurrence arbitrarily
    sol = gee.solve_p1(
        baseline_system, suburban_env, baseline_uav, phi_grid=[30.0, 30.0]
    )
    assert sol.phi_opt_deg == 30.0


def test_solve_p1_infeasible_empty_grid(suburban_env, baseline_system, baseline_uav):
    with pytest.raises(InfeasibleError):
        gee.solve_p1(baseline_system, suburban_env, baseline_uav, phi_grid=[])


def test_solve_p1_infeasible_power_limit(suburban_env, baseline_uav):
    # tiny P_max: every threshold's power ceiling drops below h_min
    sysp = make_system(p_max=1e-15)
    with pytest.raises(InfeasibleError):
        gee.solve_p1(sysp, suburban_env, baseline_uav, phi_grid=[20.0, 40.0, 60.0])


@pytest.mark.parametrize("bad_phi", [0.0, -20.0, 90.5, math.nan])
def test_solve_p1_rejects_phi_outside_domain(
    suburban_env, baseline_system, baseline_uav, bad_phi
):
    # only a degenerate cell is skipped; a bad threshold is an error, not a gap
    with pytest.raises(ValueError, match=r"\(0, 90\]"):
        gee.solve_p1(
            baseline_system, suburban_env, baseline_uav, phi_grid=[20.0, 40.0, bad_phi]
        )


def test_solve_p1_fallback_interior(suburban_env):
    # low SNR with zeroed vehicle energy: GEE is not decreasing in h, the
    # audit fails and the grid search finds an interior optimum
    sysp = make_system(gamma=0.01)
    sol = gee.solve_p1(
        sysp,
        suburban_env,
        UavEnergyParams.zero(),
        phi_grid=np.arange(5.0, 60.0 + 1e-9, 1.0).tolist(),
    )
    assert not sol.monotone_audit_passed
    assert sol.h_opt > sysp.h_min
    assert sol.binding_constraint in (
        gee.BindingConstraint.INTERIOR,
        gee.BindingConstraint.POWER_LIMIT,
        gee.BindingConstraint.MAX_ALTITUDE,
    )
    # the interior point genuinely beats both endpoint altitudes
    assert sol.gee > gee.gee_value(
        sysp.h_min, sol.phi_opt_deg, sysp, suburban_env, UavEnergyParams.zero()
    )


def test_solve_p1_fallback_matches_scalar_loop(suburban_env):
    # reference: the scalar (threshold, altitude) loop with a strict '>' that
    # the broadcast grid search replaced; same first maximum, same value
    sysp, uav = make_system(gamma=0.01), UavEnergyParams.zero()
    phis = np.arange(5.0, 60.0 + 1e-9, 5.0).tolist()
    sol = gee.solve_p1(sysp, suburban_env, uav, phis)
    best = None
    for phi in phis:
        ceiling = gee._feasible_altitude_ceiling(phi, sysp, suburban_env)
        for h in np.linspace(sysp.h_min, ceiling, gee.FALLBACK_POINTS):
            value = gee.gee_value(float(h), phi, sysp, suburban_env, uav)
            if best is None or value > best[0]:
                best = (value, float(h), phi)
    assert (sol.gee, sol.h_opt, sol.phi_opt_deg) == best


def sum_rate_slope(h, phi, sysp, rel_step=1e-5):
    """d(sum_rate)/dh / W two ways: the two-term analytic form
    2 kappa h log2(e) [1 / (kappa h^2 + N / (M + 1)) - 1 / (kappa h^2 + N / M)]
    with kappa = P_a rho pi cot^2(phi) and N = sigma0^2 W, and a central
    finite difference of uplink.sum_rate."""
    cot2 = 1.0 / math.tan(math.radians(phi)) ** 2
    kappa = sysp.p_target_pa * sysp.ue_density_rho * math.pi * cot2
    noise = sysp.noise_psd_sigma0sq * sysp.bandwidth_w
    m = sysp.num_interferers_m
    term = lambda divisor: (2.0 * kappa * h * math.log2(math.e)) / (
        kappa * h**2 + noise / divisor
    )
    dh = rel_step * h
    fd = (
        uplink.sum_rate(h + dh, phi, sysp)
        - uplink.sum_rate(h - dh, phi, sysp)
    ) / (2.0 * dh * sysp.bandwidth_w)
    return term(m + 1) - term(m), fd


def test_derivative_diag_matches_finite_difference(suburban_env, edge_phi):
    # low-SNR regimes where the FD of the saturating rate stays well
    # conditioned; the analytic two-term form must agree tightly
    for gamma in (0.1, 1.0):
        sysp = make_system(gamma=gamma)
        for h in (20.0, 80.0, 150.0):
            analytic, finite_difference = sum_rate_slope(h, edge_phi, sysp)
            assert finite_difference == pytest.approx(analytic, rel=2.5e-6)


def test_derivative_diag_sign(suburban_env, baseline_system, edge_phi):
    analytic, _ = sum_rate_slope(15.0, edge_phi, baseline_system)
    assert analytic > 0.0  # rate still climbing toward saturation


# -- the threshold column ---------------------------------------------------

# Angles on a 0.01 deg grid where numpy's tangent and math.tan disagree in
# the last bit (none where numpy has no SIMD tangent); the column chain must
# take tan from math, so these must still match the scalar calls exactly.
_GRID = np.round(np.arange(5.0, 60.0 + 1e-9, 0.01), 2)
NP_TAN_DIFFERS = [
    phi
    for phi, tan in zip(_GRID.tolist(), np.tan(np.radians(_GRID)).tolist())
    if tan != math.tan(math.radians(phi))
]


@settings(max_examples=60, deadline=None)
@given(
    phis=st.lists(st.floats(min_value=1.0, max_value=89.0), min_size=1, max_size=12),
    gamma=st.sampled_from([0.01, 1.0, 100.0]),
    zero_uav=st.booleans(),
    heights=st.lists(st.floats(min_value=15.0, max_value=300.0), min_size=1, max_size=8),
)
def test_gee_value_phi_column_is_bit_exact(phis, gamma, zero_uav, heights):
    # one call over a threshold column must give exactly the per-threshold
    # scalar calls, for a scalar, a row and a block of altitudes
    env = EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = make_system(gamma=gamma)
    uav = (
        UavEnergyParams.zero()
        if zero_uav
        else UavEnergyParams(315.0, -211.261, 4.917, 275.204)
    )
    phis = phis + NP_TAN_DIFFERS
    column = np.array(phis)
    h, row = heights[0], np.array(heights)
    block = np.outer(np.linspace(1.0, 0.5, len(phis)), row).clip(min=15.0)

    at_h = gee.gee_value(h, column, sysp, env, uav)
    at_row = gee.gee_value(row, column, sysp, env, uav)
    at_block = gee.gee_value(block, column, sysp, env, uav)
    assert at_h.shape == (len(phis), 1)
    assert at_row.shape == at_block.shape == (len(phis), len(heights))
    for i, phi in enumerate(phis):
        assert at_h[i, 0] == gee.gee_value(h, phi, sysp, env, uav)
        assert at_row[i].tolist() == gee.gee_value(row, phi, sysp, env, uav).tolist()
        assert at_block[i].tolist() == gee.gee_value(block[i], phi, sysp, env, uav).tolist()

    # the per-angle trigonometry is math's, one angle at a time
    tan = [math.tan(math.radians(phi)) for phi in phis]
    assert channel.coverage_radius(h, column)[:, 0].tolist() == [h / t for t in tan]
    assert channel.cot_squared(column)[:, 0].tolist() == [1.0 / t**2 for t in tan]
    ceilings = uplink.h_max_power_constraint(column, sysp, env)[:, 0].tolist()
    assert ceilings == [uplink.h_max_power_constraint(phi, sysp, env) for phi in phis]


def test_solve_p1_fallback_blocks_match_scalar_loop(suburban_env):
    # several fallback blocks, with the optimum's angle duplicated on both
    # sides of the second block edge; the blocks must pick what the scalar
    # (threshold, altitude) loop with a strict '>' picks
    sysp, uav = make_system(gamma=0.01), UavEnergyParams.zero()
    edge = 2 * gee.FALLBACK_BLOCK
    phis = np.arange(26.0 - 0.5 * (edge - 1), 60.0 + 1e-9, 0.5).tolist() + [26.0]
    ceilings = gee._feasible_altitude_ceiling(np.array(phis), sysp, suburban_env)
    assert np.all(ceilings >= sysp.h_min)  # every threshold feasible
    assert sorted(phis)[edge - 1] == sorted(phis)[edge] == 26.0
    assert len(phis) > edge + gee.FALLBACK_BLOCK

    sol = gee.solve_p1(sysp, suburban_env, uav, phis)
    best = None
    for phi in sorted(phis):
        ceiling = gee._feasible_altitude_ceiling(phi, sysp, suburban_env)
        for h in np.linspace(sysp.h_min, ceiling, gee.FALLBACK_POINTS):
            value = gee.gee_value(float(h), phi, sysp, suburban_env, uav)
            if best is None or value > best[0]:
                best = (value, float(h), phi)
    assert not sol.monotone_audit_passed
    assert (sol.gee, sol.h_opt, sol.phi_opt_deg) == best
    assert sol.phi_opt_deg == 26.0


def test_solve_p1_pinned_ties_break_toward_larger_phi(
    suburban_env, baseline_system, baseline_uav, monkeypatch
):
    # GEE rounded to 100 bit/J ties a run of thresholds at h_min; the pinned
    # search must return the largest tied angle, which sits (duplicated) on
    # both sides of the fallback block edge
    edge = gee.FALLBACK_BLOCK
    phis = np.arange(48.0 - edge + 1, 60.0 + 1e-9, 1.0).tolist() + [48.0]
    exact = gee.gee_value
    monkeypatch.setattr(gee, "gee_value", lambda *args: np.round(exact(*args), -2))

    sol = gee.solve_p1(baseline_system, suburban_env, baseline_uav, phis)
    values = [
        gee.gee_value(baseline_system.h_min, phi, baseline_system, suburban_env, baseline_uav)
        for phi in sorted(phis)
    ]
    assert sol.monotone_audit_passed
    assert values.count(max(values)) > 2  # a real tie across distinct angles
    expected = max(phi for phi, v in zip(sorted(phis), values) if v == max(values))
    assert sol.phi_opt_deg == expected == 48.0
    assert sorted(phis)[edge - 1] == sorted(phis)[edge] == 48.0


def test_solve_p1_fallback_ties_break_toward_larger_phi(suburban_env, monkeypatch):
    # GEE rounded to 100 bit/J ties the row maxima of phi = 25-28 deg on the
    # fallback path, with a block edge between 28 and 27 deg; as on the
    # pinned path the largest tied angle wins, then the lowest altitude
    sysp, uav = make_system(gamma=0.01), UavEnergyParams.zero()
    phis = np.arange(5.0, 59.0 + 1e-9, 1.0).tolist()
    exact = gee.gee_value
    monkeypatch.setattr(gee, "gee_value", lambda *args: np.round(exact(*args), -2))

    sol = gee.solve_p1(sysp, suburban_env, uav, phis)
    row_max = {}
    best = None
    for phi in sorted(phis, reverse=True):
        ceiling = gee._feasible_altitude_ceiling(phi, sysp, suburban_env)
        for h in np.linspace(sysp.h_min, ceiling, gee.FALLBACK_POINTS):
            value = gee.gee_value(float(h), phi, sysp, suburban_env, uav)
            row_max[phi] = max(row_max.get(phi, value), value)
            if best is None or value > best[0]:
                best = (value, float(h), phi)
    tied = [phi for phi, v in row_max.items() if v == best[0]]
    assert not sol.monotone_audit_passed
    assert sorted(tied) == [25.0, 26.0, 27.0, 28.0]  # a real tie across angles
    assert sorted(phis, reverse=True).index(27.0) == 2 * gee.FALLBACK_BLOCK
    assert (sol.gee, sol.h_opt, sol.phi_opt_deg) == best
    assert sol.phi_opt_deg == max(tied) == 28.0


@pytest.mark.parametrize("name", ["baseline", "no_vehicle_energy"])
def test_gee_call_counts_on_builtins(name, monkeypatch):
    # the solver evaluates thresholds in blocks and the sweep in two calls;
    # a return to one scalar call per threshold fails here
    from aapdeploy import cli
    from aapdeploy.scenario import builtin_scenario_path, load_scenario

    scn = load_scenario(builtin_scenario_path(name))
    sysp, env = scn.system, scn.environment
    phis = np.array(scn.sweeps.phi_grid())
    covered = channel.coverage_radius(sysp.h_min, phis)[:, 0] > 0.0
    ceilings = gee._feasible_altitude_ceiling(phis, sysp, env)[:, 0]
    feasible = int(np.count_nonzero(covered & (ceilings >= sysp.h_min)))

    calls = {"gee_value": 0, "audit": 0}

    def counted(attr, key):
        original = getattr(gee, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(gee, attr, wrapper)

    counted("gee_value", "gee_value")
    counted("_audit_monotone_decreasing", "audit")
    cli.solve_scenario(scn)
    assert 0 < calls["gee_value"] <= 2 + math.ceil(feasible / gee.FALLBACK_BLOCK)
    assert calls["audit"] == feasible  # every feasible threshold, no short-circuit

    calls["gee_value"] = 0
    cli.threshold_sweep_rows(scn)
    assert calls["gee_value"] == 2
