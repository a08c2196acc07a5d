import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aapdeploy import channel, energy, gee, uplink
from aapdeploy.errors import InfeasibleError
from aapdeploy.params import EnvironmentParams, UavEnergyParams

from conftest import calls_to, make_system

# The built-in scenarios' altitude grid, 15-300 m in steps of 1 m, and the
# thresholds in one block of a fallback search over it (16).
ALTITUDES = np.arange(15.0, 300.0 + 1e-9, 1.0)
BLOCK_ROWS = gee.BLOCK_POINTS // len(ALTITUDES)


def test_gee_value_decomposition(
    suburban_env, baseline_system, baseline_uav, edge_phi
):
    h = 15.0
    rate = uplink.sum_rate(h, edge_phi, baseline_system)
    power = uplink.expected_sum_power_closed_form(
        h, edge_phi, baseline_system, suburban_env
    )
    total = energy.total_energy(h, power, baseline_system, baseline_uav)
    expected = baseline_system.service_time_s * rate / total
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
    env = EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
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
    sol = gee.solve_p1(
        baseline_system, suburban_env, baseline_uav, phi_grid=grid, altitudes=ALTITUDES
    )
    assert sol.h_opt_m == baseline_system.h_min_m
    assert sol.binding_constraint is gee.BindingConstraint.MIN_ALTITUDE
    assert sol.monotone_audit_passed
    assert sol.r_a_m == sol.h_opt_m / math.tan(math.radians(sol.phi_opt_deg))
    assert sol.delta_opt == float(channel.los_probability(sol.phi_opt_deg, suburban_env))
    # the returned threshold really is the per-threshold argmax at h_min
    others = [
        gee.gee_value(sol.h_opt_m, phi, baseline_system, suburban_env, baseline_uav)
        for phi in grid
    ]
    assert sol.gee_bits_per_j == pytest.approx(max(others), rel=1e-12)


def test_solve_p1_tie_break_toward_larger_phi(
    suburban_env, baseline_system, baseline_uav
):
    # duplicate thresholds: the reported optimum keeps a single phi but the
    # solver must not crash or prefer the first occurrence arbitrarily
    sol = gee.solve_p1(
        baseline_system, suburban_env, baseline_uav, phi_grid=[30.0, 30.0], altitudes=ALTITUDES
    )
    assert sol.phi_opt_deg == 30.0


def test_solve_p1_infeasible_empty_grid(suburban_env, baseline_system, baseline_uav):
    with pytest.raises(InfeasibleError):
        gee.solve_p1(baseline_system, suburban_env, baseline_uav, phi_grid=[], altitudes=ALTITUDES)


@pytest.mark.parametrize("empty", [[], np.array([])], ids=["list", "ndarray"])
def test_solve_p1_refuses_an_empty_grid_of_any_type(
    suburban_env, baseline_system, baseline_uav, empty
):
    with pytest.raises(InfeasibleError, match="empty threshold grid"):
        gee.solve_p1(
            baseline_system, suburban_env, baseline_uav, phi_grid=empty, altitudes=ALTITUDES
        )


def test_solve_p1_takes_a_list_a_tuple_or_an_array(
    suburban_env, baseline_system, baseline_uav
):
    grid = np.arange(5.0, 60.0 + 1e-9, 0.25)
    solutions = [
        gee.solve_p1(baseline_system, suburban_env, baseline_uav, phi_grid=g, altitudes=ALTITUDES)
        for g in (grid.tolist(), tuple(grid.tolist()), grid)
    ]
    assert solutions[0] == solutions[1] == solutions[2]


def test_solve_p1_infeasible_power_limit(suburban_env, baseline_uav):
    # tiny P_max: every threshold's power ceiling drops below h_min
    sysp = make_system(p_max_w=1e-15)
    with pytest.raises(InfeasibleError):
        gee.solve_p1(
            sysp, suburban_env, baseline_uav, phi_grid=[20.0, 40.0, 60.0], altitudes=ALTITUDES
        )


@pytest.mark.parametrize("bad_phi", [0.0, -20.0, 90.5, math.nan])
def test_solve_p1_rejects_phi_outside_domain(
    suburban_env, baseline_system, baseline_uav, bad_phi
):
    # only a degenerate cell is skipped; a bad threshold is an error, not a gap
    with pytest.raises(ValueError, match=r"\(0, 90\]"):
        gee.solve_p1(
            baseline_system, suburban_env, baseline_uav, phi_grid=[20.0, 40.0, bad_phi],
            altitudes=ALTITUDES,
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
        altitudes=ALTITUDES,
    )
    assert not sol.monotone_audit_passed
    assert sol.h_opt_m > sysp.h_min_m
    assert sol.binding_constraint in (
        gee.BindingConstraint.INTERIOR,
        gee.BindingConstraint.POWER_LIMIT,
        gee.BindingConstraint.MAX_ALTITUDE,
    )
    # the interior point genuinely beats both endpoint altitudes
    assert sol.gee_bits_per_j > gee.gee_value(
        sysp.h_min_m, sol.phi_opt_deg, sysp, suburban_env, UavEnergyParams.zero()
    )


def test_solve_p1_fallback_reaches_h_min_and_the_power_ceiling(
    suburban_env, baseline_system, baseline_uav, monkeypatch
):
    # h_min and each threshold's ceiling are candidates where the altitude
    # grid holds neither, so both labels stay reachable on the fallback path
    phis = np.arange(5.0, 60.0 + 1e-9, 1.0).tolist()
    with monkeypatch.context() as patch:
        # GEE falls with h on the baseline physics; forced onto the fallback
        # over a grid from 20 m, the search must still return h_min
        patch.setattr(gee, "_audit_monotone_decreasing", lambda row: False)
        sol = gee.solve_p1(baseline_system, suburban_env, baseline_uav, phis, ALTITUDES[5:])
    assert not sol.monotone_audit_passed
    assert sol.h_opt_m == baseline_system.h_min_m
    assert sol.binding_constraint is gee.BindingConstraint.MIN_ALTITUDE

    # at P_max = 1e-6 W the ablation's GEE still rises at the power ceiling;
    # the best one, 185.05 m at 27 deg, lies above a grid that stops at 180 m
    sysp = make_system(gamma=0.01, p_max_w=1e-6)
    sol = gee.solve_p1(sysp, suburban_env, UavEnergyParams.zero(), phis, ALTITUDES[:-120])
    ceiling = gee.altitude_ceiling(27.0, sysp, suburban_env)
    assert (sol.phi_opt_deg, sol.h_opt_m) == (27.0, ceiling) and ceiling > ALTITUDES[-121]
    assert sol.binding_constraint is gee.BindingConstraint.POWER_LIMIT


def scalar_search(phis, sysp, env, uav):
    """The scalar (threshold, altitude) loop with a strict '>' that the
    broadcast grid search replaced, over phis in the given order and, for
    each, over h_min, ALTITUDES and h_max capped at its ceiling: the first
    maximum as (GEE, h, phi), and each threshold's largest GEE."""
    best, row_max = None, {}
    for phi in phis:
        ceiling = gee.altitude_ceiling(phi, sysp, env)
        for h in [min(h, ceiling) for h in (sysp.h_min_m, *ALTITUDES, sysp.h_max_m)]:
            value = gee.gee_value(float(h), phi, sysp, env, uav)
            row_max[phi] = max(row_max.get(phi, value), value)
            if best is None or value > best[0]:
                best = (value, float(h), phi)
    return best, row_max


def test_solve_p1_fallback_matches_scalar_loop(suburban_env):
    # same first maximum, same value as the scalar loop
    sysp, uav = make_system(gamma=0.01), UavEnergyParams.zero()
    phis = np.arange(5.0, 60.0 + 1e-9, 5.0).tolist()
    sol = gee.solve_p1(sysp, suburban_env, uav, phis, ALTITUDES)
    best, _ = scalar_search(phis, sysp, suburban_env, uav)
    assert (sol.gee_bits_per_j, sol.h_opt_m, sol.phi_opt_deg) == best


def sum_rate_slope(h, phi, sysp, rel_step=1e-5):
    """d(sum_rate)/dh / W two ways: the two-term analytic form
    2 kappa h log2(e) [1 / (kappa h^2 + N / (M + 1)) - 1 / (kappa h^2 + N / M)]
    with kappa = P_a rho pi cot^2(phi) and N = sigma0^2 W, and a central
    finite difference of uplink.sum_rate."""
    cot2 = 1.0 / math.tan(math.radians(phi)) ** 2
    kappa = sysp.p_target_pa * sysp.ue_density_per_m2 * math.pi * cot2
    noise = sysp.noise_psd_w_per_hz * sysp.bandwidth_hz
    m = sysp.num_interferers
    term = lambda divisor: (2.0 * kappa * h * math.log2(math.e)) / (
        kappa * h**2 + noise / divisor
    )
    dh = rel_step * h
    fd = (
        uplink.sum_rate(h + dh, phi, sysp)
        - uplink.sum_rate(h - dh, phi, sysp)
    ) / (2.0 * dh * sysp.bandwidth_hz)
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
    env = EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = make_system(gamma=gamma)
    uav = (
        UavEnergyParams.zero()
        if zero_uav
        else UavEnergyParams(315.0, -211.261, 4.917, 275.204)
    )
    phis = phis + NP_TAN_DIFFERS
    column = np.array(phis)[:, None]
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
    edge = 2 * BLOCK_ROWS
    phis = np.arange(26.0 - 0.5 * (edge - 1), 60.0 + 1e-9, 0.5).tolist() + [26.0]
    ceilings = gee.altitude_ceiling(np.array(phis), sysp, suburban_env)
    assert np.all(ceilings >= sysp.h_min_m)  # every threshold feasible
    assert sorted(phis)[edge - 1] == sorted(phis)[edge] == 26.0
    assert len(phis) > edge + BLOCK_ROWS

    sol = gee.solve_p1(sysp, suburban_env, uav, phis, ALTITUDES)
    best, _ = scalar_search(sorted(phis), sysp, suburban_env, uav)
    assert not sol.monotone_audit_passed
    assert (sol.gee_bits_per_j, sol.h_opt_m, sol.phi_opt_deg) == best
    assert sol.phi_opt_deg == 26.0


def test_solve_p1_pinned_ties_break_toward_larger_phi(
    suburban_env, baseline_system, baseline_uav, monkeypatch
):
    # GEE rounded to 100 bit/J ties a run of thresholds at h_min; the pinned
    # search must return the largest tied angle.  A pinned block holds
    # BLOCK_POINTS thresholds: at 14 the descending list splits 14/14/1, the
    # duplicated 48 deg ends the first block and the tied 47 deg starts the
    # second, which must not replace it
    monkeypatch.setattr(gee, "BLOCK_POINTS", 14)
    phis = np.arange(33.0, 60.0 + 1e-9, 1.0).tolist() + [48.0]
    exact = gee.gee_value
    monkeypatch.setattr(gee, "gee_value", lambda *args: np.round(exact(*args), -2))

    sol = gee.solve_p1(baseline_system, suburban_env, baseline_uav, phis, ALTITUDES)
    descending = sorted(phis, reverse=True)
    blocks = [descending[start:start + 14] for start in range(0, len(phis), 14)]
    assert [len(block) for block in blocks] == [14, 14, 1]
    assert blocks[0][-2:] == [48.0, 48.0] and blocks[1][0] == 47.0
    value = {
        phi: gee.gee_value(
            baseline_system.h_min_m, phi, baseline_system, suburban_env, baseline_uav
        )
        for phi in phis
    }
    assert sol.monotone_audit_passed
    assert value[47.0] == value[48.0] == max(value.values())  # a tie across the edge
    assert sol.phi_opt_deg == max(phi for phi in phis if value[phi] == value[48.0]) == 48.0


def test_solve_p1_fallback_ties_break_toward_larger_phi(suburban_env, monkeypatch):
    # GEE rounded to 100 bit/J ties the row maxima of phi = 25-28 deg on the
    # fallback path, with a block edge between 28 and 27 deg; as on the
    # pinned path the largest tied angle wins, then the lowest altitude
    sysp, uav = make_system(gamma=0.01), UavEnergyParams.zero()
    phis = np.arange(5.0, 59.0 + 1e-9, 1.0).tolist()
    exact = gee.gee_value
    monkeypatch.setattr(gee, "gee_value", lambda *args: np.round(exact(*args), -2))

    sol = gee.solve_p1(sysp, suburban_env, uav, phis, ALTITUDES)
    best, row_max = scalar_search(sorted(phis, reverse=True), sysp, suburban_env, uav)
    tied = [phi for phi, v in row_max.items() if v == best[0]]
    assert not sol.monotone_audit_passed
    assert sorted(tied) == [25.0, 26.0, 27.0, 28.0]  # a real tie across angles
    assert sorted(phis, reverse=True).index(27.0) == 2 * BLOCK_ROWS
    assert (sol.gee_bits_per_j, sol.h_opt_m, sol.phi_opt_deg) == best
    assert sol.phi_opt_deg == max(tied) == 28.0


@pytest.mark.parametrize("name", ["baseline", "no_vehicle_energy"])
def test_gee_call_counts_on_builtins(name):
    # the solver evaluates thresholds in blocks and the sweep in two calls;
    # a return to one scalar call per threshold fails here
    from aapdeploy import cli
    from aapdeploy.scenario import builtin_scenario_path, load_scenario

    scn = load_scenario(builtin_scenario_path(name))
    sysp, env = scn.system, scn.environment
    phis = np.array(scn.phis_deg)
    covered = channel.coverage_radius(sysp.h_min_m, phis) > 0.0
    ceilings = gee.altitude_ceiling(phis, sysp, env)
    feasible = int(np.count_nonzero(covered & (ceilings >= sysp.h_min_m)))

    with (
        calls_to("aapdeploy.gee.gee_value") as values,
        calls_to("aapdeploy.gee._audit_monotone_decreasing") as audits,
    ):
        cli.solve_scenario(scn)
        assert 0 < len(values) <= 2 + math.ceil(feasible / BLOCK_ROWS)
        assert len(audits) == feasible  # every feasible threshold, no short-circuit

        values.clear()
        cli.threshold_sweep_table(scn)
        assert len(values) == 2


@pytest.mark.parametrize("scale", [1e-300, 12252.943560297776, 1e300])
def test_audit_allows_a_rise_of_one_part_in_10_to_the_12_only(scale):
    # The slack is relative: GEE in any unit of energy audits alike.  A row
    # that rises by 1e-9 is not decreasing; a rise by 1e-13 is rounding.
    assert not gee._audit_monotone_decreasing(np.array([1.0, 1.0 + 1e-9, 0.5]) * scale)
    assert gee._audit_monotone_decreasing(np.array([1.0, 1.0 + 1e-13, 0.5]) * scale)
