import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aapdeploy import channel, montecarlo, uplink
from aapdeploy.params import EnvironmentParams

from conftest import make_system


def reference_draws(r_a, rho, seed, fixed_count=None):
    """The per-trial sampler's uniforms: Poisson count, then two separate
    uniform draws, area first and angle second."""
    rng = np.random.default_rng(seed)
    if fixed_count is None:
        count = int(rng.poisson(rho * math.pi * r_a**2))
    else:
        count = int(fixed_count)
    return rng.random(count), rng.random(count)


def reference_positions(r_a, rho, seed, fixed_count=None):
    """The reference draws as an (n, 2) array of cell-centred positions."""
    u, v = reference_draws(r_a, rho, seed, fixed_count)
    radii = r_a * np.sqrt(u)
    angles = v * 2.0 * math.pi
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def reference_mean_sum_power(h, phi, sys, env, trials, base_seed=0, fixed_count=None):
    """The per-trial loop: sample, power and fsum one population at a time,
    then fsum the per-trial sums."""
    r_a = channel.require_coverage(h, phi, env)
    uncapped = []
    capped = []
    for i in range(trials):
        positions = reference_positions(
            r_a, sys.ue_density_rho, base_seed + i, fixed_count
        )
        if len(positions) == 0:
            uncapped.append(0.0)
            capped.append(0.0)
            continue
        radii = np.hypot(positions[:, 0], positions[:, 1])
        loss = np.asarray(channel.mean_path_loss_rh(radii, h, env))
        powers = sys.p_target_pa * sys.resource_blocks_b * loss**sys.tpc_beta
        uncapped.append(math.fsum(powers))
        capped.append(math.fsum(np.minimum(powers, sys.p_max)))
    return montecarlo.SumPower(math.fsum(uncapped) / trials, math.fsum(capped) / trials)


# Fixed counts on both sides of the batched pass's block edge.
BLOCK_EDGE_COUNTS = [
    None, 0, 1, montecarlo.BLOCK_UES - 1, montecarlo.BLOCK_UES + 1, 5000
]


def _system_with_mean_count(h, phi, env, mean_ues):
    """The baseline system with the UE density that puts mean_ues UEs in the
    cell, so Poisson populations stay small at any (h, phi)."""
    r_a = channel.require_coverage(h, phi, env)
    return make_system(ue_density_rho=mean_ues / (math.pi * r_a**2))


def test_sample_determinism():
    a = montecarlo.sample_ues(40.0, 1e-2, seed=7)
    b = montecarlo.sample_ues(40.0, 1e-2, seed=7)
    assert a.realized_count == b.realized_count
    assert np.array_equal(a.draws, b.draws)
    c = montecarlo.sample_ues(40.0, 1e-2, seed=8)
    assert not np.array_equal(a.draws, c.draws)


def test_sample_counts_poisson_mean():
    r_a, rho = 40.0, 1e-2
    lam = rho * math.pi * r_a**2
    counts = [
        montecarlo.sample_ues(r_a, rho, seed=s).realized_count for s in range(400)
    ]
    mean = np.mean(counts)
    # 3-sigma band around the Poisson mean
    assert abs(mean - lam) < 3.0 * math.sqrt(lam / len(counts))


def test_sample_fixed_count():
    sample = montecarlo.sample_ues(40.0, 1e-2, seed=1, fixed_count=123)
    assert sample.realized_count == 123
    assert sample.draws.shape == (2, 123)


def test_sample_radial_distribution_uniform_in_area():
    # P(r <= r_a / 2) = 1/4 for area-uniform points
    sample = montecarlo.sample_ues(40.0, 1e-2, seed=3, fixed_count=20000)
    frac = np.mean(sample.radii() <= 20.0)
    sigma = math.sqrt(0.25 * 0.75 / 20000)
    assert abs(frac - 0.25) < 3.0 * sigma
    assert sample.radii().max() <= 40.0


def test_sample_rejects_bad_inputs():
    with pytest.raises(ValueError):
        montecarlo.sample_ues(0.0, 1e-2, seed=1)
    with pytest.raises(ValueError):
        montecarlo.sample_ues(40.0, 0.0, seed=1)


@pytest.mark.parametrize(
    "r_a,rho",
    [
        (math.inf, 1e-2),
        (-math.inf, 1e-2),
        (math.nan, 1e-2),
        (40.0, math.inf),
        (40.0, math.nan),
    ],
)
def test_sample_rejects_non_finite_inputs(r_a, rho):
    with pytest.raises(ValueError, match="finite"):
        montecarlo.sample_ues(r_a, rho, seed=1, fixed_count=3)


def test_sample_rejects_negative_fixed_count():
    with pytest.raises(ValueError, match="non-negative"):
        montecarlo.sample_ues(40.0, 1e-2, seed=1, fixed_count=-1)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=5000.0),
    st.floats(min_value=0.1, max_value=3000.0),
    st.integers(min_value=0, max_value=2**62),
    st.sampled_from(BLOCK_EDGE_COUNTS),
)
def test_sample_positions_equal_the_reference(r_a, mean_ues, seed, fixed_count):
    rho = mean_ues / (math.pi * r_a**2)
    sample = montecarlo.sample_ues(r_a, rho, seed, fixed_count)
    u, v = reference_draws(r_a, rho, seed, fixed_count)
    assert sample.realized_count == len(u)
    assert np.array_equal(sample.draws[0], u)
    assert np.array_equal(sample.draws[1], v)
    expected = reference_positions(r_a, rho, seed, fixed_count)
    assert np.array_equal(sample.radii(), np.hypot(expected[:, 0], expected[:, 1]))


def test_empirical_sum_power_empty_population(suburban_env, baseline_system):
    sample = montecarlo.sample_ues(40.0, 1e-2, seed=1, fixed_count=0)
    result = montecarlo.empirical_sum_power(sample, 15.0, baseline_system, suburban_env)
    assert result == montecarlo.SumPower(0.0, 0.0)


def test_empirical_capped_below_uncapped(suburban_env):
    # push far UEs above the cap with a large altitude
    sysp = make_system()
    sample = montecarlo.sample_ues(80.0, 1e-2, seed=5, fixed_count=500)
    result = montecarlo.empirical_sum_power(sample, 250.0, sysp, suburban_env)
    assert result.capped < result.uncapped
    assert result.capped <= 500 * sysp.p_max + 1e-15


def test_mean_sum_power_matches_quadrature(suburban_env, baseline_system, edge_phi):
    h = 15.0
    exact = uplink.expected_sum_power_exact(h, edge_phi, baseline_system, suburban_env)
    mc = montecarlo.mean_sum_power(
        h, edge_phi, baseline_system, suburban_env, trials=2000, base_seed=11
    )
    assert mc.uncapped == pytest.approx(exact, rel=0.03)


def test_mean_sum_power_deterministic(suburban_env, baseline_system, edge_phi):
    a = montecarlo.mean_sum_power(
        15.0, edge_phi, baseline_system, suburban_env, trials=50, base_seed=4
    )
    b = montecarlo.mean_sum_power(
        15.0, edge_phi, baseline_system, suburban_env, trials=50, base_seed=4
    )
    assert a == b  # bit-exact


def test_mean_sum_power_rejects_no_trials(suburban_env, baseline_system, edge_phi):
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trial"):
            montecarlo.mean_sum_power(
                15.0, edge_phi, baseline_system, suburban_env, trials
            )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=15.0, max_value=300.0),
    st.floats(min_value=1.0, max_value=89.0),
    st.floats(min_value=0.1, max_value=3000.0),
    st.integers(min_value=0, max_value=2**62),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(BLOCK_EDGE_COUNTS),
)
def test_mean_sum_power_equals_the_per_trial_loop(
    h, phi, mean_ues, seed, trials, fixed_count
):
    env = EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = _system_with_mean_count(h, phi, env, mean_ues)
    args = (h, phi, sysp, env, trials, seed, fixed_count)
    assert montecarlo.mean_sum_power(*args) == reference_mean_sum_power(*args)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(BLOCK_EDGE_COUNTS), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**62),
)
def test_block_sums_equal_each_trials_own_sum(fixed_counts, seed):
    # Every trial's sums, not only their mean, are the per-population sums.
    env = EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = make_system()
    block = [
        montecarlo.sample_ues(40.0, sysp.ue_density_rho, seed + i, count)
        for i, count in enumerate(fixed_counts)
    ]
    sums = [montecarlo.empirical_sum_power(sample, 15.0, sysp, env) for sample in block]
    assert montecarlo._block_sums(block, 40.0, 15.0, sysp, env) == (
        [s.uncapped for s in sums],
        [s.capped for s in sums],
    )


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**62])
def test_mean_sum_power_equals_the_per_trial_loop_at_10k_trials(
    suburban_env, baseline_system, edge_phi, seed
):
    args = (15.0, edge_phi, baseline_system, suburban_env, 10_000, seed)
    assert montecarlo.mean_sum_power(*args) == reference_mean_sum_power(*args)


@pytest.mark.parametrize("fixed_count", [None, 0, montecarlo.BLOCK_UES + 1])
def test_traced_sampler_sees_every_trial_and_ue(
    monkeypatch, suburban_env, baseline_system, edge_phi, fixed_count
):
    # An outside tracer counts trials and UEs by wrapping the module's
    # sample_ues attribute; those counts must match the UEs that are powered.
    args = (15.0, edge_phi, baseline_system, suburban_env, 300, 7, fixed_count)
    expected = montecarlo.mean_sum_power(*args)
    sampled = []
    powered = []
    sample_ues, ue_powers = montecarlo.sample_ues, montecarlo._ue_powers

    def counting_sample_ues(*a, **kw):
        sample = sample_ues(*a, **kw)
        sampled.append(sample.realized_count)
        return sample

    def counting_ue_powers(radii, *a):
        powered.append(len(radii))
        return ue_powers(radii, *a)

    monkeypatch.setattr(montecarlo, "sample_ues", counting_sample_ues)
    monkeypatch.setattr(montecarlo, "_ue_powers", counting_ue_powers)
    assert montecarlo.mean_sum_power(*args) == expected
    assert len(sampled) == 300
    assert sum(sampled) == sum(powered)


def test_error_shrinks_with_trials(suburban_env, baseline_system, edge_phi):
    """Monte-Carlo error roughly follows 1/sqrt(trials)."""
    h = 15.0
    exact = uplink.expected_sum_power_exact(h, edge_phi, baseline_system, suburban_env)

    def rms_error(trials, reps=12):
        errors = []
        for rep in range(reps):
            mc = montecarlo.mean_sum_power(
                h,
                edge_phi,
                baseline_system,
                suburban_env,
                trials=trials,
                base_seed=1000 * rep + trials,
            )
            errors.append((mc.uncapped - exact) ** 2)
        return math.sqrt(np.mean(errors))

    small, large = rms_error(20), rms_error(2000)
    # 100x the trials: expect about 10x the accuracy, allow a factor of 2.5
    assert large < small / 4.0
