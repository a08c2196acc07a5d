import math

import numpy as np
import pytest

from aapdeploy import channel, montecarlo, uplink

from conftest import make_system


def test_sample_determinism():
    a = montecarlo.sample_ues(40.0, 1e-2, seed=7)
    b = montecarlo.sample_ues(40.0, 1e-2, seed=7)
    assert a.realized_count == b.realized_count
    assert np.array_equal(a.positions, b.positions)
    c = montecarlo.sample_ues(40.0, 1e-2, seed=8)
    assert not np.array_equal(a.positions, c.positions)


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
    assert sample.positions.shape == (123, 2)


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


def test_mean_sum_power_matches_quadrature(suburban_env, baseline_system):
    h, delta = 15.0, 0.9
    exact = uplink.expected_sum_power_exact(h, delta, baseline_system, suburban_env)
    mc = montecarlo.mean_sum_power(
        h, delta, baseline_system, suburban_env, trials=2000, base_seed=11
    )
    assert mc.uncapped == pytest.approx(exact, rel=0.03)


def test_mean_sum_power_deterministic(suburban_env, baseline_system):
    a = montecarlo.mean_sum_power(
        15.0, 0.9, baseline_system, suburban_env, trials=50, base_seed=4
    )
    b = montecarlo.mean_sum_power(
        15.0, 0.9, baseline_system, suburban_env, trials=50, base_seed=4
    )
    assert a == b  # bit-exact


def test_error_shrinks_with_trials(suburban_env, baseline_system):
    """Monte-Carlo error roughly follows 1/sqrt(trials)."""
    h, delta = 15.0, 0.9
    exact = uplink.expected_sum_power_exact(h, delta, baseline_system, suburban_env)

    def rms_error(trials, reps=12):
        errors = []
        for rep in range(reps):
            mc = montecarlo.mean_sum_power(
                h,
                delta,
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


def test_approximation_gap_report(suburban_env, baseline_system):
    report = montecarlo.approximation_gap_report(
        15.0, 0.9, baseline_system, suburban_env, trials=500, base_seed=2
    )
    assert report.relative_gap > 0.0  # closed form is a strict upper bound
    assert report.closed_form > report.exact_quadrature
    assert report.empirical_mean == pytest.approx(report.exact_quadrature, rel=0.05)
    # every UE in the cell meets the LoS threshold; the edge UE is the worst
    assert report.min_ue_los_probability >= report.delta - 1e-9
    assert report.max_ue_los_probability <= 1.0
    assert report.edge_los_probability == pytest.approx(0.9, abs=1e-9)


def test_approximation_gap_report_rejects_zero_trials(suburban_env, baseline_system):
    with pytest.raises(ValueError):
        montecarlo.approximation_gap_report(
            15.0, 0.9, baseline_system, suburban_env, trials=0
        )
