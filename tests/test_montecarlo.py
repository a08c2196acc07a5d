import collections
import contextlib
import dataclasses
import math
import tracemalloc
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

from conftest import calls_to, make_system


def reference_radii(r_a, sys, trials, rng):
    """The stream of trials populations in a cell of radius r_a, holding
    uplink.cell_ue_count(r_a, sys) UEs on average: every trial's Poisson
    count with one scalar draw each, then each trial's own area uniforms,
    trial by trial; returned as each trial's distances from the centre."""
    mean_ues = uplink.cell_ue_count(r_a, sys)
    counts = [int(rng.poisson(mean_ues)) for _ in range(trials)]
    return [r_a * np.sqrt(rng.random(count)) for count in counts]


@contextlib.contextmanager
def powered_radii():
    """Yield the list of the radii that each call to montecarlo._ue_powers
    receives in the block, copied."""
    radii, ue_powers = [], montecarlo._ue_powers

    def spy(r, *args):
        radii.append(r.copy())
        return ue_powers(r, *args)

    with mock.patch.object(montecarlo, "_ue_powers", spy):
        yield radii


class CountingGenerator:
    """A numpy Generator that counts the calls to each of its methods."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


def trial_sum(powers):
    """One trial's sum: numpy's reduction over that trial's powers alone."""
    return float(np.add.reduceat(powers, [0])[0]) if len(powers) else 0.0


def reference_mean_sum_power(h, phi, sys, env, trials, base_seed=0):
    """The per-trial loop over one stream, default_rng(base_seed): draw every
    count, then power and sum one population at a time as its uniforms are
    drawn, then fsum the per-trial sums; the standard error is the sample SD
    of those sums over sqrt(trials)."""
    r_a = channel.require_coverage(h, phi)
    rng = np.random.default_rng(base_seed)
    sums = []
    for radii in reference_radii(r_a, sys, trials, rng):
        if len(radii) == 0:
            sums.append(0.0)
            continue
        loss = np.asarray(channel.mean_path_loss_rh(radii, h, env))
        sums.append(trial_sum(sys.p_target_pa * loss))
    mean = math.fsum(sums) / trials
    stderr = math.inf
    if trials > 1:
        variance = math.fsum((x - mean) * (x - mean) for x in sums) / (trials - 1)
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
    return make_system(ue_density_per_m2=mean_ues / (math.pi * r_a**2))


def test_sample_determinism():
    def counts(seed):
        rng = default_rng(seed)
        return [montecarlo.sample_ues(50.0, rng).realized_count for _ in range(20)]

    assert counts(7) == counts(7)
    assert counts(7) != counts(8)


def test_sample_counts_poisson_mean():
    lam = 50.0
    counts = [
        montecarlo.sample_ues(lam, default_rng(s)).realized_count for s in range(400)
    ]
    mean = np.mean(counts)
    # 3-sigma band around the Poisson mean
    assert abs(mean - lam) < 3.0 * math.sqrt(lam / len(counts))


def test_sample_radial_distribution_uniform_in_area(suburban_env, edge_phi):
    # P(r <= r_a / 2) = 1/4 for area-uniform points; one trial of a mean of
    # 20,000 UEs
    r_a = channel.require_coverage(15.0, edge_phi)
    sysp = _system_with_mean_count(15.0, edge_phi, 20000.0)
    with (
        calls_to("aapdeploy.montecarlo.sample_ues") as samples,
        powered_radii() as blocks,
    ):
        montecarlo.mean_sum_power(15.0, edge_phi, sysp, suburban_env, 1, 3)
    (radii,) = blocks
    assert radii.shape == (samples[0].realized_count,)
    frac = np.mean(radii <= r_a / 2.0)
    sigma = math.sqrt(0.25 * 0.75 / len(radii))
    assert abs(frac - 0.25) < 3.0 * sigma
    assert radii.max() <= r_a


# Poisson means on both sides of numpy's switch between its two Poisson
# algorithms at 10, up to MAX_MEAN_UES.
POISSON_MEANS = [0.0, 0.3, 5.0, 9.99, 10.0, 119.4, 6450.0, montecarlo.MAX_MEAN_UES]


@pytest.mark.parametrize("mean_ues", POISSON_MEANS)
@pytest.mark.parametrize("seed", [0, 2**64 + 1])
def test_scalar_and_vector_draws_give_one_stream(mean_ues, seed):
    # The stream does not depend on how its draws are grouped: k scalar
    # Poisson draws are one vector draw of k and leave the generator in the
    # same state, and back-to-back uniform draws of a and b are one draw of
    # a + b.  So the counts can be drawn in one call, and each block's
    # uniforms with one call of any size, with every result unchanged.
    scalar, vector = default_rng(seed), default_rng(seed)
    counts = [scalar.poisson(mean_ues) for _ in range(50)]
    assert counts == vector.poisson(mean_ues, 50).tolist()
    assert scalar.random() == vector.random()
    for a, b in ((0, 7), (7, 0), (1, 1), (300, 8191)):
        assert np.array_equal(
            np.concatenate([scalar.random(a), scalar.random(b)]), vector.random(a + b)
        )
    assert scalar.random() == vector.random()


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
    mean_ues = uplink.cell_ue_count(r_a, SimpleNamespace(ue_density_per_m2=rho))
    assert not math.isfinite(mean_ues)
    with pytest.raises(ValueError, match="lam"):
        montecarlo.sample_ues(mean_ues, default_rng(1))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=3000.0),
    st.integers(min_value=0, max_value=2**140),
    st.integers(min_value=1, max_value=20),
    st.sampled_from(BLOCK_SIZES),
)
def test_sample_positions_equal_the_reference(mean_ues, seed, trials, block_ues):
    # Every count, then every UE's radius, as the reference's one stream
    # draws them, whatever the block size.  A mean of 0.01 leaves most
    # trials empty; the cell needs a positive UE density.
    env = EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = _system_with_mean_count(15.0, 30.0, mean_ues)
    expected = reference_radii(channel.require_coverage(15.0, 30.0), sysp, trials,
                               default_rng(seed))
    with (
        mock.patch.object(montecarlo, "BLOCK_UES", block_ues),
        calls_to("aapdeploy.montecarlo.sample_ues") as samples,
        powered_radii() as blocks,
    ):
        montecarlo.mean_sum_power(15.0, 30.0, sysp, env, trials, seed)
    assert [sample.realized_count for sample in samples] == list(map(len, expected))
    assert np.array_equal(np.concatenate(blocks), np.concatenate(expected))


def test_empirical_sum_power_empty_population(suburban_env, baseline_system):
    result = montecarlo.empirical_sum_power(
        np.zeros(2, np.intp), np.empty(0), 40.0, 15.0, baseline_system, suburban_env
    )
    assert result == [0.0, 0.0]


def test_mean_sum_power_matches_quadrature(suburban_env, baseline_system, edge_phi):
    h = 15.0
    exact = uplink.expected_sum_power_exact(h, edge_phi, baseline_system, suburban_env)
    mc = montecarlo.mean_sum_power(
        h, edge_phi, baseline_system, suburban_env, trials=2000, base_seed=11
    )
    assert mc.mean == pytest.approx(exact, rel=0.03)


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
    env = EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = _system_with_mean_count(h, phi, mean_ues)
    args = (h, phi, sysp, env, trials, seed)
    with mock.patch.object(montecarlo, "BLOCK_UES", block_ues):
        result = montecarlo.mean_sum_power(*args)
    assert result == reference_mean_sum_power(*args)


def _block(mean_counts, seed):
    """One block of trials at these means, from default_rng(seed): their
    counts, then all their area uniforms."""
    rng = default_rng(seed)
    counts = np.array([montecarlo.sample_ues(mean, rng).realized_count for mean in mean_counts])
    return counts, rng.random(counts.sum())


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(MEAN_COUNTS), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**140),
)
def test_block_sums_equal_each_trials_own_sum(mean_counts, seed):
    # Every trial's sum, not only their mean, is numpy's sum of P_a L(r, h)
    # over that population's own UEs.
    env = EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = make_system()
    counts, draws = _block(mean_counts, seed)
    def power(u):
        loss = channel.mean_path_loss_rh(40.0 * math.sqrt(u), 15.0, env)
        return sysp.p_target_pa * float(loss)

    sums = [
        trial_sum(np.array([power(u) for u in trial.tolist()]))
        for trial in np.split(draws, np.cumsum(counts)[:-1])
    ]
    assert montecarlo.empirical_sum_power(counts, draws, 40.0, 15.0, sysp, env) == sums


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(MEAN_COUNTS), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**140),
)
def test_block_sums_are_within_1e_13_of_compensated_sums(mean_counts, seed):
    # Every power is positive, so no sum cancels: numpy's sum of a trial
    # stays within 1e-13 of the compensated one, nothing the oracle's 3% or
    # five-standard-error bound could see.
    env = EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    sysp = make_system()
    counts, draws = _block(mean_counts, seed)
    trials = np.split(draws, np.cumsum(counts)[:-1])
    sums = montecarlo.empirical_sum_power(counts, draws.copy(), 40.0, 15.0, sysp, env)
    for trial, total in zip(trials, sums):
        powers = montecarlo._ue_powers(40.0 * np.sqrt(trial), 15.0, sysp, env)
        assert total == pytest.approx(math.fsum(powers.tolist()), rel=1e-13, abs=0.0)


def test_per_trial_work_is_array_work(monkeypatch):
    # On the cell that validate samples on baseline, the compensated sums are
    # the mean and the variance alone, and the power pass and the uniform
    # draw run once per block: a per-trial Python loop would show in any of
    # these counts.  The Poisson count alone is drawn once per trial.
    scn = load_scenario(builtin_scenario_path("baseline"))
    env, sysp = scn.environment, scn.system
    h, phi = sysp.h_min_m, scn.phi_deg
    mean_ues = uplink.cell_ue_count(channel.coverage_radius(h, phi), sysp)
    block = max(1, int(montecarlo.BLOCK_UES / max(mean_ues, 1.0)))
    assert block > 1
    generators = []

    def counting_rng(seed):
        generators.append(CountingGenerator(default_rng(seed)))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    fsum_calls = []
    for trials in (10, 1000):
        with (
            calls_to("math.fsum") as fsums,
            calls_to("aapdeploy.montecarlo.empirical_sum_power") as powers,
        ):
            montecarlo.mean_sum_power(h, phi, sysp, env, trials, 3)
        assert len(powers) == math.ceil(trials / block)
        assert generators[-1].calls == {"poisson": trials, "random": math.ceil(trials / block)}
        fsum_calls.append(len(fsums))
    assert len(generators) == 2
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
    env = EnvironmentParams(a, b, eta_los_db, eta_los_db + eta_gap_db, g0=1.42e-4)
    sysp = make_system(gamma=gamma)
    ceiling = min(sysp.h_max_m, uplink.h_max_power_constraint(phi, sysp, env))
    assume(ceiling >= sysp.h_min_m)
    h = sysp.h_min_m + h_frac * (ceiling - sysp.h_min_m)
    radii = channel.coverage_radius(h, phi) * np.array([0.0, r_frac, 1.0])
    powers = montecarlo._ue_powers(radii, h, sysp, env)
    assert np.all(powers <= sysp.p_max_w * (1.0 + 1e-12))


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**62])
def test_mean_sum_power_equals_the_per_trial_loop_at_10k_trials(
    suburban_env, baseline_system, edge_phi, seed
):
    args = (15.0, edge_phi, baseline_system, suburban_env, 10_000, seed)
    assert montecarlo.mean_sum_power(*args) == reference_mean_sum_power(*args)


def test_oracle_peak_memory_at_10k_trials():
    # Every block draws its uniforms into one buffer, sized for the largest
    # block, and the power pass works in place in buffers of its own.  With
    # a fresh array per block's uniforms and out-of-place arithmetic, the
    # peak of this call was ~714-731 KB; the trials' sums and their
    # deviations alone hold ~480 KB.  A short call first does the lazy
    # set-up that is not the oracle's.
    scn = load_scenario(builtin_scenario_path("baseline"))
    args = (scn.system.h_min_m, scn.phi_deg, scn.system, scn.environment)
    montecarlo.mean_sum_power(*args, 10, 0)
    tracemalloc.start()
    try:
        montecarlo.mean_sum_power(*args, 10_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 700_000


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


def test_mean_sum_power_refuses_a_population_it_cannot_draw(suburban_env, edge_phi):
    # numpy's Poisson draw fails above ~9.2e18; far below that, one trial's
    # UEs would not fit in memory
    for mean_ues in (montecarlo.MAX_MEAN_UES * 1.01, 1e300):
        sysp = _system_with_mean_count(15.0, edge_phi, mean_ues)
        with (
            calls_to("aapdeploy.montecarlo.sample_ues", forbid=True),
            pytest.raises(ConfigError, match="UEs on average"),
        ):
            montecarlo.mean_sum_power(15.0, edge_phi, sysp, suburban_env, 10)


def test_mean_sum_power_rejects_negative_seed(suburban_env, baseline_system, edge_phi):
    # numpy's default_rng refuses the seed ("expected non-negative integer")
    with pytest.raises(ValueError, match="non-negative"):
        montecarlo.mean_sum_power(
            15.0, edge_phi, baseline_system, suburban_env, 3, base_seed=-1
        )


@pytest.mark.parametrize("seed,j", [(220, -3), (548, -3), (220, 4)])
def test_mean_and_stderr_scale_with_the_unit_of_power(seed, j):
    # Every power scales by k = 2^j with the noise PSD, so the mean and the
    # standard error must too, bit for bit.  A variance squared with **
    # (libm pow) moved the standard error in the last bit at these seeds.
    k = 2.0**j
    scn = load_scenario(builtin_scenario_path("baseline"))
    sysp, env, cell = scn.system, scn.environment, (scn.system.h_min_m, scn.phi_deg)
    scaled = dataclasses.replace(
        sysp, noise_psd_w_per_hz=sysp.noise_psd_w_per_hz * k, p_max_w=sysp.p_max_w * k,
        circuit_power_w=sysp.circuit_power_w * k,
    )
    mean, stderr = montecarlo.mean_sum_power(*cell, sysp, env, 3, seed)
    assert montecarlo.mean_sum_power(*cell, scaled, env, 3, seed) == (mean * k, stderr * k)


# Mean UEs per trial: the baseline density (None), mostly empty trials (0,
# drawn at a mean of 0.05), a few large trials sharing a block (2049) and
# trials that each fill a block.
@pytest.mark.parametrize("mean_ues", [None, 0, 2049, montecarlo.BLOCK_UES + 1])
def test_traced_sampler_sees_every_trial_and_ue(
    suburban_env, baseline_system, edge_phi, mean_ues
):
    # An outside tracer counts trials and UEs by wrapping the module's
    # sample_ues attribute; those counts must match the UEs that are powered.
    sysp = baseline_system
    if mean_ues is not None:
        sysp = _system_with_mean_count(15.0, edge_phi, mean_ues or 0.05)
    args = (15.0, edge_phi, sysp, suburban_env, 300, 7)
    expected = montecarlo.mean_sum_power(*args)
    with (
        calls_to("aapdeploy.montecarlo.sample_ues") as samples,
        calls_to("aapdeploy.montecarlo._ue_powers") as powers,
    ):
        assert montecarlo.mean_sum_power(*args) == expected
    assert len(samples) == 300
    assert sum(sample.realized_count for sample in samples) == sum(map(len, powers))


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
            errors.append((mc.mean - exact) ** 2)
        return math.sqrt(np.mean(errors))

    small, large = rms_error(20), rms_error(2000)
    # 100x the trials: expect about 10x the accuracy, allow a factor of 2.5
    assert large < small / 4.0
