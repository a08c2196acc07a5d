import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from numpy.random import default_rng
from hypothesis import assume, given, settings, strategies as st

from aapdeploy import channel, montecarlo, uplink
from aapdeploy.errors import ConfigError
from aapdeploy.params import EnvironmentParams
from aapdeploy.scenario import builtin_scenario_path, load_scenario

from conftest import make_system


def reference_draws(mean_ues, rng):
    """The sampler's uniforms: Poisson(mean_ues) count, then one area uniform
    per UE, drawn from rng where its last draw stopped."""
    count = int(rng.poisson(mean_ues))
    return rng.random(count)


def reference_radii(r_a, sys, rng):
    """The reference draws of a cell of radius r_a, holding
    uplink.cell_ue_count(r_a, sys) UEs on average, as distances from the
    cell centre."""
    return r_a * np.sqrt(reference_draws(uplink.cell_ue_count(r_a, sys), rng))


def trial_sum(powers):
    """One trial's sum: numpy's reduction over that trial's powers alone."""
    return float(np.add.reduceat(powers, [0])[0]) if len(powers) else 0.0


def reference_mean_sum_power(h, phi, sys, env, trials, base_seed=0):
    """The per-trial loop over one stream, default_rng(base_seed): sample,
    power and sum one population at a time, then fsum the per-trial sums;
    the standard error is the sample SD of those sums over sqrt(trials)."""
    r_a = channel.require_coverage(h, phi)
    rng = np.random.default_rng(base_seed)
    sums = []
    for _ in range(trials):
        radii = reference_radii(r_a, sys, rng)
        if len(radii) == 0:
            sums.append(0.0)
            continue
        loss = np.asarray(channel.mean_path_loss_rh(radii, h, env))
        sums.append(trial_sum(sys.p_target_pa * loss))
    mean = math.fsum(sums) / trials
    stderr = math.inf
    if trials > 1:
        variance = math.fsum((x - mean) ** 2 for x in sums) / (trials - 1)
        stderr = math.sqrt(variance / trials)
    return montecarlo.MeanSumPower(mean, stderr)


# Mean UEs per trial: mostly empty trials, small ones, and populations on
# both sides of the default block edge.
MEAN_COUNTS = [
    0.05, 1.0, 50.0, montecarlo.BLOCK_UES - 1, montecarlo.BLOCK_UES + 1, 5000.0
]

# Block sizes for the batched power pass: every non-empty trial its own block,
# blocks of a few UEs, and the default.
BLOCK_SIZES = [1, 2, 7, montecarlo.BLOCK_UES]


def _system_with_mean_count(h, phi, mean_ues):
    """The baseline system with the UE density that puts mean_ues UEs in the
    cell, so Poisson populations stay small at any (h, phi)."""
    r_a = channel.require_coverage(h, phi)
    return make_system(ue_density_rho=mean_ues / (math.pi * r_a**2))


def test_sample_determinism():
    a = montecarlo.sample_ues(50.0, default_rng(7))
    b = montecarlo.sample_ues(50.0, default_rng(7))
    assert a.realized_count == b.realized_count
    assert np.array_equal(a.draws, b.draws)
    c = montecarlo.sample_ues(50.0, default_rng(8))
    assert not np.array_equal(a.draws, c.draws)


def test_sample_counts_poisson_mean():
    lam = 50.0
    counts = [
        montecarlo.sample_ues(lam, default_rng(s)).realized_count for s in range(400)
    ]
    mean = np.mean(counts)
    # 3-sigma band around the Poisson mean
    assert abs(mean - lam) < 3.0 * math.sqrt(lam / len(counts))


def test_sample_radial_distribution_uniform_in_area():
    # P(r <= r_a / 2) = 1/4 for area-uniform points; a mean of 20,000 UEs
    sample = montecarlo.sample_ues(20000.0, default_rng(3))
    assert sample.draws.shape == (sample.realized_count,)
    radii = 40.0 * np.sqrt(sample.draws)
    frac = np.mean(radii <= 20.0)
    sigma = math.sqrt(0.25 * 0.75 / sample.realized_count)
    assert abs(frac - 0.25) < 3.0 * sigma
    assert radii.max() <= 40.0


def test_sample_rejects_bad_inputs():
    # numpy's Poisson draw rejects a negative mean
    for mean_ues in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="lam < 0"):
            montecarlo.sample_ues(mean_ues, default_rng(1))


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
    # The mean that mean_sum_power would form for a cell of this radius and
    # density is infinite or NaN, and numpy's Poisson draw rejects it.
    mean_ues = uplink.cell_ue_count(r_a, SimpleNamespace(ue_density_rho=rho))
    assert not math.isfinite(mean_ues)
    with pytest.raises(ValueError, match="lam"):
        montecarlo.sample_ues(mean_ues, default_rng(1))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=3000.0),
    st.integers(min_value=0, max_value=2**140),
)
def test_sample_positions_equal_the_reference(mean_ues, seed):
    sample = montecarlo.sample_ues(mean_ues, default_rng(seed))
    u = reference_draws(mean_ues, default_rng(seed))
    assert sample.realized_count == len(u)
    assert np.array_equal(sample.draws, u)


def test_empirical_sum_power_empty_population(suburban_env, baseline_system):
    empty = montecarlo.UeSample(np.empty(0), 0)
    result = montecarlo.empirical_sum_power(
        [empty, empty], 40.0, 15.0, baseline_system, suburban_env
    )
    assert result == [0.0, 0.0]


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
    st.integers(min_value=0, max_value=2**140),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(BLOCK_SIZES),
)
def test_mean_sum_power_equals_the_per_trial_loop(
    h, phi, mean_ues, seed, trials, block_ues
):
    # Small block sizes put block edges inside and between small populations;
    # means near 0.1 give runs of empty trials.
    env = EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = _system_with_mean_count(h, phi, mean_ues)
    args = (h, phi, sysp, env, trials, seed)
    with mock.patch.object(montecarlo, "BLOCK_UES", block_ues):
        result = montecarlo.mean_sum_power(*args)
    assert result == reference_mean_sum_power(*args)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(MEAN_COUNTS), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**140),
)
def test_block_sums_equal_each_trials_own_sum(mean_counts, seed):
    # Every trial's sum, not only their mean, is numpy's sum of P_a L(r, h)
    # over that population's own UEs.
    env = EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = make_system()
    rng = default_rng(seed)
    block = [montecarlo.sample_ues(mean, rng) for mean in mean_counts]
    def power(u):
        loss = channel.mean_path_loss_rh(40.0 * math.sqrt(u), 15.0, env)
        return sysp.p_target_pa * float(loss)

    sums = [
        trial_sum(np.array([power(u) for u in sample.draws.tolist()])) for sample in block
    ]
    assert montecarlo.empirical_sum_power(block, 40.0, 15.0, sysp, env) == sums


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(MEAN_COUNTS), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**140),
)
def test_block_sums_are_within_1e_13_of_compensated_sums(mean_counts, seed):
    # Every power is positive, so no sum cancels: numpy's sum of a trial
    # stays within 1e-13 of the compensated one, nothing the oracle's 3% or
    # five-standard-error bound could see.
    env = EnvironmentParams.from_db(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = make_system()
    rng = default_rng(seed)
    block = [montecarlo.sample_ues(mean, rng) for mean in mean_counts]
    sums = montecarlo.empirical_sum_power(block, 40.0, 15.0, sysp, env)
    for sample, total in zip(block, sums):
        powers = montecarlo._ue_powers(40.0 * np.sqrt(sample.draws), 15.0, sysp, env)
        assert total == pytest.approx(math.fsum(powers.tolist()), rel=1e-13, abs=0.0)


def test_per_trial_work_is_array_work(monkeypatch):
    # On the cell that validate samples on baseline, the compensated sums are
    # the mean and the variance alone, and the power pass runs once per block:
    # a per-trial Python loop would show in either count.
    scn = load_scenario(builtin_scenario_path("baseline"))
    env, sysp = scn.environment, scn.system
    h, phi = sysp.h_min, channel.phi_from_delta(scn.sweeps.delta, env)
    mean_ues = uplink.cell_ue_count(channel.coverage_radius(h, phi), sysp)
    block = max(1, int(montecarlo.BLOCK_UES / max(mean_ues, 1.0)))
    fsum, power = math.fsum, montecarlo.empirical_sum_power
    calls = {"fsum": 0, "power": 0}

    def counting_fsum(values):
        calls["fsum"] += 1
        return fsum(values)

    def counting_power(*args):
        calls["power"] += 1
        return power(*args)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    monkeypatch.setattr(montecarlo, "empirical_sum_power", counting_power)
    assert block > 1
    fsum_calls = []
    for trials in (10, 1000):
        calls.update(fsum=0, power=0)
        montecarlo.mean_sum_power(h, phi, sysp, env, trials, 3)
        assert calls["power"] == math.ceil(trials / block)
        fsum_calls.append(calls["fsum"])
    assert fsum_calls[0] == fsum_calls[1]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=89.5),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=1000.0),
    st.floats(min_value=1.0, max_value=20.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=30.0),
)
def test_no_ue_of_a_deployable_cell_exceeds_p_max(
    phi, h_frac, r_frac, gamma, a, b, eta_los_db, eta_gap_db
):
    # The oracle applies no P_max cap.  None is needed where the planner
    # deploys, h <= h'_max(phi): the edge UE transmits P_max there, and the
    # mean path loss grows with r because eta_los <= eta_nlos.
    env = EnvironmentParams.from_db(a, b, eta_los_db, eta_los_db + eta_gap_db, g0=1.42e-4)
    sysp = make_system(gamma=gamma)
    ceiling = min(sysp.h_max, uplink.h_max_power_constraint(phi, sysp, env))
    assume(ceiling >= sysp.h_min)
    h = sysp.h_min + h_frac * (ceiling - sysp.h_min)
    radii = channel.coverage_radius(h, phi) * np.array([0.0, r_frac, 1.0])
    powers = montecarlo._ue_powers(radii, h, sysp, env)
    assert np.all(powers <= sysp.p_max * (1.0 + 1e-12))


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**62])
def test_mean_sum_power_equals_the_per_trial_loop_at_10k_trials(
    suburban_env, baseline_system, edge_phi, seed
):
    args = (15.0, edge_phi, baseline_system, suburban_env, 10_000, seed)
    assert montecarlo.mean_sum_power(*args) == reference_mean_sum_power(*args)


@pytest.mark.parametrize("edge", [2**32, 2**64, 2**128, 2**200])
def test_mean_sum_power_equals_the_per_trial_loop_across_seed_edges(
    suburban_env, baseline_system, edge_phi, edge
):
    # Seeds at the edges of 32-bit words: from 2**128 on, numpy's
    # SeedSequence hashes more than its four pool words.
    args = (15.0, edge_phi, baseline_system, suburban_env, 300, edge)
    assert montecarlo.mean_sum_power(*args) == reference_mean_sum_power(*args)


def test_mean_sum_power_needs_no_scalar_overflow(
    suburban_env, baseline_system, edge_phi
):
    # A seed beyond 64 bits goes to numpy's seeding as a Python int, and the
    # power pass runs on float arrays; a numpy scalar that overflowed would
    # raise here.
    args = (15.0, edge_phi, baseline_system, suburban_env, 30, 2**130 + 7)
    expected = reference_mean_sum_power(*args)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert montecarlo.mean_sum_power(*args) == expected


def test_mean_sum_power_refuses_a_population_it_cannot_draw(
    monkeypatch, suburban_env, edge_phi
):
    # numpy's Poisson draw fails above ~9.2e18; far below that, one trial's
    # UEs would not fit in memory
    def never(*_args):
        raise AssertionError("sampled a refused cell")

    monkeypatch.setattr(montecarlo, "sample_ues", never)
    for mean_ues in (montecarlo.MAX_MEAN_UES * 1.01, 1e300):
        sysp = _system_with_mean_count(15.0, edge_phi, mean_ues)
        with pytest.raises(ConfigError, match="UEs on average"):
            montecarlo.mean_sum_power(15.0, edge_phi, sysp, suburban_env, 10)


def test_mean_sum_power_rejects_negative_seed(suburban_env, baseline_system, edge_phi):
    # numpy's default_rng refuses the seed ("expected non-negative integer")
    with pytest.raises(ValueError, match="non-negative"):
        montecarlo.mean_sum_power(
            15.0, edge_phi, baseline_system, suburban_env, 3, base_seed=-1
        )


# Mean UEs per trial: the baseline density (None), mostly empty trials (0,
# drawn at a mean of 0.05), a few large trials sharing a block (2049) and
# trials that each fill a block.
@pytest.mark.parametrize("mean_ues", [None, 0, 2049, montecarlo.BLOCK_UES + 1])
def test_traced_sampler_sees_every_trial_and_ue(
    monkeypatch, suburban_env, baseline_system, edge_phi, mean_ues
):
    # An outside tracer counts trials and UEs by wrapping the module's
    # sample_ues attribute; those counts must match the UEs that are powered.
    sysp = baseline_system
    if mean_ues is not None:
        sysp = _system_with_mean_count(15.0, edge_phi, mean_ues or 0.05)
    args = (15.0, edge_phi, sysp, suburban_env, 300, 7)
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
