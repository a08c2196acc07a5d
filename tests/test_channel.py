import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aapdeploy import channel, montecarlo
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


def test_db_conversion_refuses_overflow():
    values = dict(a=4.88, b=0.43, eta_los_db=0.1, eta_nlos_db=21.0, g0=1e-4)
    for key in ("eta_los_db", "eta_nlos_db"):
        with pytest.raises(ConfigError, match=f"^{key} = 4000 dB overflows"):
            EnvironmentParams(**{**values, key: 4000.0})


def test_environment_invariants():
    with pytest.raises(ConfigError):
        EnvironmentParams(a=-1, b=0.43, eta_los_db=0.0, eta_nlos_db=3.0, g0=1e-4)
    with pytest.raises(ConfigError):
        EnvironmentParams(a=4.88, b=0.43, eta_los_db=5.0, eta_nlos_db=3.0, g0=1e-4)
    with pytest.raises(ConfigError):
        EnvironmentParams(a=4.88, b=0.43, eta_los_db=0.0, eta_nlos_db=3.0, g0=1.5)


@pytest.mark.parametrize("field", ["a", "b", "eta_los_db", "eta_nlos_db", "g0"])
def test_environment_refuses_nan(field):
    # infinities too: a range check written with <= lets NaN through, and
    # one side of it lets an infinity through
    values = dict(a=4.88, b=0.43, eta_los_db=0.0, eta_nlos_db=3.0, g0=1e-4)
    EnvironmentParams(**values)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            EnvironmentParams(**{**values, field: bad})


def test_geometry_validation():
    assert channel.elevation_deg(0.0, 1.0) == 90.0  # nadir UE
    assert float(channel.elevation_deg(3.0, 4.0)) == pytest.approx(
        math.degrees(math.atan2(4.0, 3.0)), rel=1e-15
    )
    with pytest.raises(ValueError):
        channel.coverage_radius(0.0, 30.0)


@pytest.mark.parametrize("h", [15, 15.0, 68.70273494722166])
def test_elevation_deg_is_numpys_arctan2_in_degrees(h):
    # elevation_deg fills h out to r's shape and multiplies by 180 / pi;
    # the floats must be those of the plain broadcast arctan2 and np.degrees,
    # for a scalar, a row and a block of quadrature nodes alike.
    r = np.random.default_rng(3).uniform(0.0, 300.0, (64, 16))
    for radii in (r, r[0], r[0, 0], float(r[0, 0]), 0.0):
        assert np.array_equal(
            channel.elevation_deg(radii, h), np.degrees(np.arctan2(h, radii))
        )


def test_elevation_deg_is_numpys_arctan2_over_random_pairs():
    # 10^6 (r, h) pairs: one row of UE distances per altitude, as the
    # Monte-Carlo oracle passes them.
    rng = np.random.default_rng(4)
    altitudes = rng.uniform(1.0, 1000.0, 1000).tolist()
    radii = rng.uniform(0.0, 3000.0, (1000, 1000))
    for h, row in zip(altitudes, radii):
        assert np.array_equal(
            channel.elevation_deg(row, h), np.degrees(np.arctan2(h, row))
        )


def reference_elevation_deg(r, h):
    """elevation_deg's floats as one out-of-place expression."""
    r = np.asarray(r, dtype=float)
    if r.ndim:
        h = np.full_like(r, h)
    return np.arctan2(h, r) * (180.0 / math.pi)


def reference_los_probability(phi_deg, env):
    """los_probability's floats as one out-of-place expression."""
    with np.errstate(over="ignore"):
        tail = env.a * np.exp(-env.b * (np.asarray(phi_deg, dtype=float) - env.a))
    return 1.0 / (1.0 + tail)


def reference_mean_path_loss_rh(r, h, env):
    """mean_path_loss_rh's floats as out-of-place expressions."""
    r = np.asarray(r, dtype=float)
    p_los = reference_los_probability(reference_elevation_deg(r, h), env)
    eta_m = env.eta_nlos + p_los * (env.eta_los - env.eta_nlos)
    return eta_m * (r * r + h * h) / env.g0


def assert_in_place_path_is_the_reference(r, h, env):
    """Each array function gives its reference's floats and shape, and
    leaves the arrays it is given as they were; so does each scalar."""
    kept = r.copy()
    angles = channel.elevation_deg(r, h)
    kept_angles = angles.copy()
    cases = [
        (angles, reference_elevation_deg(r, h)),
        (channel.los_probability(angles, env), reference_los_probability(angles, env)),
        (channel.mean_path_loss_rh(r, h, env), reference_mean_path_loss_rh(r, h, env)),
    ]
    for value, expected in cases:
        assert value.shape == expected.shape
        assert (value == expected).all()
    assert (r == kept).all() and (angles == kept_angles).all()
    for x in r[:2].tolist():
        assert channel.mean_path_loss_rh(x, h, env) == reference_mean_path_loss_rh(x, h, env)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 1, 2, montecarlo.BLOCK_UES - 1, montecarlo.BLOCK_UES + 1]),
    st.integers(min_value=0, max_value=2**64),
    st.floats(min_value=1e-3, max_value=1e5),
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=0.05, max_value=30.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=40.0),
)
def test_array_path_equals_the_out_of_place_expressions(
    size, seed, r_max, h, a, b, eta_los_db, eta_gap_db
):
    # The array path works in place in buffers of its own; the Monte-Carlo
    # reference calls mean_path_loss_rh itself, so only this test would see
    # the in-place arithmetic drift from these expressions.  A UE at the
    # centre sits at 90 deg.
    env = EnvironmentParams(a, b, eta_los_db, eta_los_db + eta_gap_db, g0=1.42e-4)
    r = np.random.default_rng(seed).uniform(0.0, r_max, size)
    r[:1] = 0.0
    assert_in_place_path_is_the_reference(r, h, env)


def test_steep_curve_overflows_quietly_in_place():
    # Below the knee of a steep curve exp and a * exp overflow to inf, and
    # the LoS probability is 0 there; no flag may escape to a caller that
    # raises on every one.  The angles step around the knee at 20 deg and
    # stay clear of the band near 5.9 deg where 1 / (1 + a exp) is subnormal,
    # which the reference flags as well.
    env = EnvironmentParams(a=20.0, b=50.0, eta_los_db=0.1, eta_nlos_db=21.0, g0=1.42e-4)
    angles = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    h = 10.0
    r = h / np.tan(np.radians(angles))
    with np.errstate(all="raise"):
        assert channel.los_probability(angles, env)[:4].tolist() == [0.0] * 4
        assert_in_place_path_is_the_reference(r, h, env)


def path_loss(r, h, eta_db, g0):
    """Mean path loss in an environment whose LoS and NLoS excess losses are
    both eta_db: the fixed-excess-loss path loss eta * d^2 / g0."""
    env = EnvironmentParams(a=4.88, b=0.43, eta_los_db=eta_db, eta_nlos_db=eta_db, g0=g0)
    return float(channel.mean_path_loss_rh(r, h, env))


TWO_DB = 10.0 * math.log10(2.0)  # a linear excess loss of 2


def test_path_loss_unit_distance():
    assert path_loss(0.0, 1.0, 0.0, 1.42e-4) == pytest.approx(1.0 / 1.42e-4)


def test_path_loss_345_triangle():
    assert path_loss(3.0, 4.0, TWO_DB, 0.5) == pytest.approx(100.0)


def test_path_loss_direct_substitution():
    # eta * (r^2 + h^2) / g0 written out from the raw numbers
    expected = 10**2.1 * (100.0**2 + 15.0**2) / 1.42e-4
    assert path_loss(100.0, 15.0, 21.0, 1.42e-4) == pytest.approx(
        expected, rel=1e-12
    )


def test_path_loss_monotone():
    base = path_loss(10, 20, TWO_DB, 1.42e-4)
    assert path_loss(11, 20, TWO_DB, 1.42e-4) > base
    assert path_loss(10, 21, TWO_DB, 1.42e-4) > base


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
    # NaN fails both "<= 0" and "> 90", so it must be rejected as not inside
    for bad in (math.nan, np.array([30.0, math.nan])):
        with pytest.raises(ValueError):
            channel.los_probability(bad, suburban_env)
        with pytest.raises(ValueError):
            channel.mean_additional_path_loss(bad, suburban_env)


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
    env = EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
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


def test_coverage_radius_cot_identities():
    assert channel.coverage_radius(20.0, 45.0) == pytest.approx(
        20.0, rel=1e-15
    )
    assert channel.coverage_radius(15.0, 30.0) == pytest.approx(
        15.0 * math.sqrt(3.0), rel=1e-15
    )


def test_coverage_radius_composition(suburban_env):
    phi = bisect_phi(0.9, suburban_env)
    expected = 15.0 / math.tan(math.radians(phi))
    assert channel.coverage_radius(
        15.0, channel.phi_from_delta(0.9, suburban_env)
    ) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("phi", [0.0, -30.0, 90.5, math.nan])
def test_coverage_radius_rejects_angle_outside_domain(phi):
    with pytest.raises(ValueError, match=r"\(0, 90\]"):
        channel.coverage_radius(15.0, phi)


def test_coverage_radius_broadcasts_over_altitude():
    h = np.array([15.0, 40.0, 300.0])
    radii = channel.coverage_radius(h, 30.0)
    assert list(radii) == [channel.coverage_radius(float(x), 30.0) for x in h]
    with pytest.raises(ValueError):
        channel.coverage_radius(np.array([15.0, 0.0]), 30.0)


@pytest.mark.parametrize("h", [math.nan, np.array([15.0, math.nan])])
def test_coverage_radius_rejects_a_nan_altitude(h):
    # a check written h <= 0 lets NaN through
    with pytest.raises(ValueError, match="altitude"):
        channel.coverage_radius(h, 30.0)


def test_boundary_ue_property(suburban_env):
    h, delta = 15.0, 0.9
    edge_phi = channel.phi_from_delta(delta, suburban_env)
    r_a = channel.coverage_radius(h, edge_phi)
    for r in np.linspace(0.0, r_a, 50):
        phi = channel.elevation_deg(r, h)
        assert float(channel.los_probability(phi, suburban_env)) >= delta - 1e-12
    for r in np.linspace(r_a * 1.0001, 3 * r_a, 50):
        phi = channel.elevation_deg(r, h)
        assert float(channel.los_probability(phi, suburban_env)) < delta
