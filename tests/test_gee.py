import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aapdeploy import channel, energy, gee, uplink
from aapdeploy.errors import InfeasibleError
from aapdeploy.params import EnvironmentParams, UavEnergyParams

from conftest import make_system


def test_gee_value_decomposition(suburban_env, baseline_system, baseline_uav):
    h, delta = 15.0, 0.9
    rate = uplink.sum_rate(h, delta, baseline_system, suburban_env)
    power = uplink.expected_sum_power_closed_form(
        h, delta, baseline_system, suburban_env
    )
    total = energy.total_energy(h, power, baseline_system, baseline_uav)
    expected = baseline_system.service_time_t * rate / total
    assert gee.gee_value(h, delta, baseline_system, suburban_env, baseline_uav) == (
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
    delta = float(channel.los_probability(phi, env))
    values = gee.gee_value(np.array(heights), delta, sysp, env, uav)
    assert values.shape == (len(heights),)
    for h, value in zip(heights, values):
        scalar = gee.gee_value(h, delta, sysp, env, uav)
        assert value == pytest.approx(scalar, rel=1e-12, abs=0.0)


def test_gee_decreasing_in_altitude_baseline(
    suburban_env, baseline_system, baseline_uav
):
    for delta in (0.5, 0.9):
        values = [
            gee.gee_value(h, delta, baseline_system, suburban_env, baseline_uav)
            for h in np.linspace(15.0, 300.0, 40)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_default_delta_grid_round_trip(suburban_env):
    # high elevations are excluded: 1 - delta underflows relative precision
    # there and the inversion is intrinsically ill-conditioned
    grid = gee.default_delta_grid(suburban_env, phi_grid_deg=[10.0, 45.0, 60.0])
    for phi, delta in zip([10.0, 45.0, 60.0], grid):
        assert channel.phi_from_delta(delta, suburban_env) == pytest.approx(
            phi, abs=1e-6
        )


def test_solve_p1_baseline_pins_min_altitude(
    suburban_env, baseline_system, baseline_uav
):
    grid = gee.default_delta_grid(
        suburban_env, phi_grid_deg=np.arange(5.0, 60.0 + 1e-9, 0.25)
    )
    sol = gee.solve_p1(baseline_system, suburban_env, baseline_uav, delta_grid=grid)
    assert sol.h_opt == baseline_system.h_min
    assert sol.binding_constraint is gee.BindingConstraint.MIN_ALTITUDE
    assert sol.monotone_audit_passed
    assert sol.r_a == pytest.approx(
        channel.coverage_radius(sol.h_opt, sol.delta_opt, suburban_env)
    )
    # the returned threshold really is the per-threshold argmax at h_min
    others = [
        gee.gee_value(sol.h_opt, d, baseline_system, suburban_env, baseline_uav)
        for d in grid
    ]
    assert sol.gee == pytest.approx(max(others), rel=1e-12)


def test_solve_p1_tie_break_toward_larger_phi(
    suburban_env, baseline_system, baseline_uav
):
    # duplicate thresholds: the reported optimum keeps a single phi but the
    # solver must not crash or prefer the first occurrence arbitrarily
    delta = float(channel.los_probability(30.0, suburban_env))
    sol = gee.solve_p1(
        baseline_system, suburban_env, baseline_uav, delta_grid=[delta, delta]
    )
    assert sol.phi_opt_deg == pytest.approx(30.0, abs=1e-9)


def test_solve_p1_infeasible_empty_grid(suburban_env, baseline_system, baseline_uav):
    with pytest.raises(InfeasibleError):
        gee.solve_p1(baseline_system, suburban_env, baseline_uav, delta_grid=[])


def test_solve_p1_infeasible_power_limit(suburban_env, baseline_uav):
    # tiny P_max: every threshold's power ceiling drops below h_min
    sysp = make_system(p_max=1e-15)
    grid = gee.default_delta_grid(suburban_env, phi_grid_deg=[20.0, 40.0, 60.0])
    with pytest.raises(InfeasibleError):
        gee.solve_p1(sysp, suburban_env, baseline_uav, delta_grid=grid)


@pytest.mark.parametrize("bad_delta", [0.001, 1.0, 1.5])
def test_solve_p1_rejects_threshold_outside_s_curve(
    suburban_env, baseline_system, baseline_uav, bad_delta
):
    # only a degenerate cell is skipped; a bad threshold is an error, not a gap
    grid = gee.default_delta_grid(suburban_env, phi_grid_deg=[20.0, 40.0]) + [bad_delta]
    with pytest.raises(ValueError):
        gee.solve_p1(baseline_system, suburban_env, baseline_uav, delta_grid=grid)


def test_solve_p1_fallback_interior(suburban_env):
    # low SNR with zeroed vehicle energy: GEE is not decreasing in h, the
    # audit fails and the grid search finds an interior optimum
    sysp = make_system(gamma=0.01)
    sol = gee.solve_p1(
        sysp,
        suburban_env,
        UavEnergyParams.zero(),
        delta_grid=gee.default_delta_grid(
            suburban_env, phi_grid_deg=np.arange(5.0, 60.0 + 1e-9, 1.0)
        ),
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
        sysp.h_min, sol.delta_opt, sysp, suburban_env, UavEnergyParams.zero()
    )


def test_solve_p1_fallback_matches_scalar_loop(suburban_env):
    # reference: the scalar (threshold, altitude) loop with a strict '>' that
    # the broadcast grid search replaced; same first maximum, same value
    sysp, uav = make_system(gamma=0.01), UavEnergyParams.zero()
    phis = np.arange(5.0, 60.0 + 1e-9, 5.0)
    sol = gee.solve_p1(
        sysp, suburban_env, uav, gee.default_delta_grid(suburban_env, phis), 40
    )
    best = None
    for phi in phis:
        delta = float(channel.los_probability(phi, suburban_env))
        ceiling = gee._feasible_altitude_ceiling(delta, sysp, suburban_env)
        for h in np.linspace(sysp.h_min, ceiling, 40):
            value = gee.gee_value(float(h), delta, sysp, suburban_env, uav)
            if best is None or value > best[0]:
                best = (value, float(h), delta)
    assert (sol.gee, sol.h_opt, sol.delta_opt) == best


def test_derivative_diag_matches_finite_difference(suburban_env):
    # low-SNR regimes where the FD of the saturating rate stays well
    # conditioned; the analytic two-term form must agree tightly
    for gamma in (0.1, 1.0):
        sysp = make_system(gamma=gamma)
        for h in (20.0, 80.0, 150.0):
            diag = gee.sum_rate_derivative_diag(h, 0.9, sysp, suburban_env)
            assert diag.finite_difference == pytest.approx(
                diag.analytic, rel=2.5e-6
            )


def test_derivative_diag_sign(suburban_env, baseline_system):
    diag = gee.sum_rate_derivative_diag(15.0, 0.9, baseline_system, suburban_env)
    assert diag.analytic > 0.0  # rate still climbing toward saturation


def test_derivative_diag_requires_interferers(suburban_env):
    sysp = make_system(num_interferers_m=0)
    with pytest.raises(ValueError):
        gee.sum_rate_derivative_diag(15.0, 0.9, sysp, suburban_env)
