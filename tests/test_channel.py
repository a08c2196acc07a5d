import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aapdeploy import channel
from aapdeploy.errors import ConfigError
from aapdeploy.params import EnvironmentParams


def bisect_phi(delta, env, lo=1e-6, hi=90.0, iters=200):
    """Independent inversion oracle: bisection on the LoS S-curve."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if float(channel.los_probability(mid, env)) < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_db_conversion(suburban_env):
    assert suburban_env.eta_los == pytest.approx(1.02329, rel=1e-4)
    assert suburban_env.eta_nlos == pytest.approx(125.893, rel=1e-4)


def test_environment_invariants():
    with pytest.raises(ConfigError):
        EnvironmentParams(a=-1, b=0.43, eta_los=1.0, eta_nlos=2.0, g0=1e-4)
    with pytest.raises(ConfigError):
        EnvironmentParams(a=4.88, b=0.43, eta_los=3.0, eta_nlos=2.0, g0=1e-4)
    with pytest.raises(ConfigError):
        EnvironmentParams(a=4.88, b=0.43, eta_los=1.0, eta_nlos=2.0, g0=1.5)


def test_geometry_validation(suburban_env):
    assert float(channel.elevation_deg(0.0, 1.0)) == pytest.approx(90.0)  # nadir UE
    assert float(channel.elevation_deg(3.0, 4.0)) == pytest.approx(
        math.degrees(math.atan2(4.0, 3.0)), rel=1e-15
    )
    with pytest.raises(ValueError):
        channel.coverage_radius(0.0, 30.0, suburban_env)


def path_loss(r, h, eta, g0):
    """Mean path loss in an environment whose LoS and NLoS excess losses are
    both eta: the fixed-excess-loss path loss eta * d^2 / g0."""
    env = EnvironmentParams(a=4.88, b=0.43, eta_los=eta, eta_nlos=eta, g0=g0)
    return float(channel.mean_path_loss_rh(r, h, env))


def test_path_loss_unit_distance():
    assert path_loss(0.0, 1.0, 1.0, 1.42e-4) == pytest.approx(1.0 / 1.42e-4)


def test_path_loss_345_triangle():
    assert path_loss(3.0, 4.0, 2.0, 0.5) == pytest.approx(100.0)


def test_path_loss_direct_substitution():
    # eta * (r^2 + h^2) / g0 written out from the raw numbers
    expected = 10**2.1 * (100.0**2 + 15.0**2) / 1.42e-4
    assert path_loss(100.0, 15.0, 10**2.1, 1.42e-4) == pytest.approx(
        expected, rel=1e-12
    )


def test_path_loss_monotone():
    base = path_loss(10, 20, 2.0, 1.42e-4)
    assert path_loss(11, 20, 2.0, 1.42e-4) > base
    assert path_loss(10, 21, 2.0, 1.42e-4) > base


def test_los_probability_at_a(suburban_env):
    # exponent vanishes at phi = a
    assert float(channel.los_probability(4.88, suburban_env)) == pytest.approx(
        1.0 / 5.88, rel=1e-12
    )


def test_los_probability_near_one_at_zenith(suburban_env):
    value = float(channel.los_probability(90.0, suburban_env))
    assert 0.0 < 1.0 - value < 1e-15


def test_los_probability_monotone(suburban_env):
    assert channel.los_probability(60.0, suburban_env) > channel.los_probability(
        30.0, suburban_env
    )


def test_los_probability_domain(suburban_env):
    with pytest.raises(ValueError):
        channel.los_probability(0.0, suburban_env)
    with pytest.raises(ValueError):
        channel.los_probability(90.5, suburban_env)


def test_phi_from_delta_trivial_inverse(suburban_env):
    assert channel.phi_from_delta(1.0 / 5.88, suburban_env) == pytest.approx(
        4.88, rel=1e-12
    )


def test_phi_from_delta_matches_bisection(suburban_env):
    closed = channel.phi_from_delta(0.9, suburban_env)
    assert closed == pytest.approx(bisect_phi(0.9, suburban_env), abs=1e-9)


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.99])
def test_phi_from_delta_round_trip(suburban_env, delta):
    phi = channel.phi_from_delta(delta, suburban_env)
    assert abs(float(channel.los_probability(phi, suburban_env)) - delta) < 1e-9


def test_phi_from_delta_domain(suburban_env):
    with pytest.raises(ValueError):
        channel.phi_from_delta(0.01, suburban_env)  # below the reachable image
    with pytest.raises(ValueError):
        channel.phi_from_delta(1.0, suburban_env)


@given(st.floats(min_value=0.2, max_value=0.999))
def test_round_trip_property(delta):
    env = EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    phi = channel.phi_from_delta(delta, env)
    assert abs(float(channel.los_probability(phi, env)) - delta) < 1e-9


def test_mean_additional_path_loss_limits(suburban_env):
    # P_l -> 1 drives the mean excess loss to the LoS value
    near_one = float(channel.mean_additional_path_loss(90.0, suburban_env))
    assert near_one == pytest.approx(suburban_env.eta_los, rel=1e-12)
    # midpoint at the angle where P_l = 0.5
    phi_half = channel.phi_from_delta(0.5, suburban_env)
    mid = float(channel.mean_additional_path_loss(phi_half, suburban_env))
    assert mid == pytest.approx(
        0.5 * (suburban_env.eta_los + suburban_env.eta_nlos), rel=1e-9
    )


def test_mean_additional_path_loss_at_45(suburban_env):
    p = 1.0 / (1.0 + 4.88 * math.exp(-0.43 * (45.0 - 4.88)))
    expected = 10**2.1 + p * (10**0.01 - 10**2.1)
    assert float(
        channel.mean_additional_path_loss(45.0, suburban_env)
    ) == pytest.approx(expected, rel=1e-12)


def test_mean_additional_path_loss_decreasing(suburban_env):
    phis = np.linspace(1.0, 90.0, 200)
    values = np.asarray(channel.mean_additional_path_loss(phis, suburban_env))
    assert np.all(np.diff(values) <= 0)
    # strictly decreasing away from the float-saturated zenith tail
    strict = np.asarray(
        channel.mean_additional_path_loss(np.linspace(1.0, 70.0, 200), suburban_env)
    )
    assert np.all(np.diff(strict) < 0)


def test_mean_path_loss_nadir(suburban_env):
    expected = (20.0**2 / suburban_env.g0) * float(
        channel.mean_additional_path_loss(90.0, suburban_env)
    )
    assert float(channel.mean_path_loss_rh(0.0, 20.0, suburban_env)) == pytest.approx(
        expected
    )


def test_mean_path_loss_between_los_and_nlos(suburban_env):
    mean = float(channel.mean_path_loss_rh(40.0, 25.0, suburban_env))
    d2_over_g0 = (40.0**2 + 25.0**2) / suburban_env.g0
    assert (
        suburban_env.eta_los * d2_over_g0 <= mean <= suburban_env.eta_nlos * d2_over_g0
    )


def test_mean_path_loss_recomputation(suburban_env):
    phi = math.degrees(math.atan2(22.1, 57.3))
    p = 1.0 / (1.0 + 4.88 * math.exp(-0.43 * (phi - 4.88)))
    eta_m = 10**2.1 + p * (10**0.01 - 10**2.1)
    expected = eta_m * (57.3**2 + 22.1**2) / 1.42e-4
    assert float(channel.mean_path_loss_rh(57.3, 22.1, suburban_env)) == pytest.approx(
        expected, rel=1e-12
    )


def test_coverage_radius_cot_identities(suburban_env):
    assert channel.coverage_radius(20.0, 45.0, suburban_env) == pytest.approx(
        20.0, rel=1e-15
    )
    assert channel.coverage_radius(15.0, 30.0, suburban_env) == pytest.approx(
        15.0 * math.sqrt(3.0), rel=1e-15
    )


def test_coverage_radius_composition(suburban_env):
    phi = bisect_phi(0.9, suburban_env)
    expected = 15.0 / math.tan(math.radians(phi))
    assert channel.coverage_radius(
        15.0, channel.phi_from_delta(0.9, suburban_env), suburban_env
    ) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("phi", [0.0, -30.0, 90.5, math.nan])
def test_coverage_radius_rejects_angle_outside_domain(suburban_env, phi):
    with pytest.raises(ValueError, match=r"\(0, 90\]"):
        channel.coverage_radius(15.0, phi, suburban_env)


def test_coverage_radius_broadcasts_over_altitude(suburban_env):
    h = np.array([15.0, 40.0, 300.0])
    radii = channel.coverage_radius(h, 30.0, suburban_env)
    assert list(radii) == [channel.coverage_radius(float(x), 30.0, suburban_env) for x in h]
    with pytest.raises(ValueError):
        channel.coverage_radius(np.array([15.0, 0.0]), 30.0, suburban_env)


def test_boundary_ue_property(suburban_env):
    h, delta = 15.0, 0.9
    edge_phi = channel.phi_from_delta(delta, suburban_env)
    r_a = channel.coverage_radius(h, edge_phi, suburban_env)
    for r in np.linspace(0.0, r_a, 50):
        phi = channel.elevation_deg(r, h)
        assert float(channel.los_probability(phi, suburban_env)) >= delta - 1e-12
    for r in np.linspace(r_a * 1.0001, 3 * r_a, 50):
        phi = channel.elevation_deg(r, h)
        assert float(channel.los_probability(phi, suburban_env)) < delta
