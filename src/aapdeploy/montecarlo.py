"""Monte-Carlo oracle: explicit UE populations validating the closed-form
expectations and the edge-UE approximation.

Sampling uses numpy's default PCG64 bit generator so that a (seed, params)
pair reproduces bit-identical populations on any platform.  Aggregation uses
compensated summation (math.fsum) so results do not depend on evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel, uplink
from .params import EnvironmentParams, SystemParams


@dataclass(frozen=True)
class UeSample:
    """One realized UE population inside a cell disk."""

    positions: np.ndarray  # shape (n, 2), metres, cell-centred
    seed: int
    realized_count: int

    def radii(self) -> np.ndarray:
        return np.hypot(self.positions[:, 0], self.positions[:, 1])


def sample_ues(
    r_a: float,
    rho: float,
    seed: int,
    fixed_count: int | None = None,
) -> UeSample:
    """Sample a UE population uniformly on the disk of radius r_a.

    The count is Poisson(rho * pi * r_a^2) unless fixed_count is given.
    Radial positions use r = r_a * sqrt(u) so the distribution is uniform in
    area.
    """
    if r_a <= 0 or rho <= 0:
        raise ValueError("cell radius and UE density must be strictly positive")
    rng = np.random.default_rng(seed)
    if fixed_count is None:
        count = int(rng.poisson(rho * math.pi * r_a**2))
    else:
        count = int(fixed_count)
    u = rng.random(count)
    angles = rng.random(count) * 2.0 * math.pi
    radii = r_a * np.sqrt(u)
    positions = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return UeSample(positions=positions, seed=seed, realized_count=count)


class SumPower(NamedTuple):
    """Sum transmit power of one population, with and without the power cap."""

    uncapped: float
    capped: float


def empirical_sum_power(
    sample: UeSample, h: float, sys: SystemParams, env: EnvironmentParams
) -> SumPower:
    """Sum of power-controlled UE transmit powers for one population (W)."""
    if sample.realized_count == 0:
        return SumPower(0.0, 0.0)
    loss = np.asarray(channel.mean_path_loss_rh(sample.radii(), h, env))
    powers = sys.p_target_pa * sys.resource_blocks_b * loss**sys.tpc_beta
    return SumPower(
        uncapped=math.fsum(powers),
        capped=math.fsum(np.minimum(powers, sys.p_max)),
    )


def mean_sum_power(
    h: float,
    delta: float,
    sys: SystemParams,
    env: EnvironmentParams,
    trials: int,
    base_seed: int = 0,
    fixed_count: int | None = None,
) -> SumPower:
    """Mean empirical sum power over seeded trials (seeds base_seed + i)."""
    r_a = channel.require_coverage(h, delta, env)
    uncapped = []
    capped = []
    for i in range(trials):
        sample = sample_ues(r_a, sys.ue_density_rho, base_seed + i, fixed_count)
        result = empirical_sum_power(sample, h, sys, env)
        uncapped.append(result.uncapped)
        capped.append(result.capped)
    return SumPower(math.fsum(uncapped) / trials, math.fsum(capped) / trials)


@dataclass(frozen=True)
class ApproximationGapReport:
    """Closed-form vs exact sum power, and the per-UE LoS-probability spread
    relative to the cell-edge value."""

    h: float
    delta: float
    closed_form: float
    exact_quadrature: float
    empirical_mean: float
    relative_gap: float  # (closed_form - exact) / exact
    edge_los_probability: float
    min_ue_los_probability: float
    max_ue_los_probability: float
    trials: int


def approximation_gap_report(
    h: float,
    delta: float,
    sys: SystemParams,
    env: EnvironmentParams,
    trials: int,
    base_seed: int = 0,
) -> ApproximationGapReport:
    """Quantify the edge-UE approximation error for one (h, delta) point."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    r_a = channel.require_coverage(h, delta, env)
    closed = uplink.expected_sum_power_closed_form(h, delta, sys, env)
    exact = uplink.expected_sum_power_exact(h, delta, sys, env)
    empirical = mean_sum_power(h, delta, sys, env, trials, base_seed).uncapped

    p_edge = float(channel.los_probability(channel.phi_from_delta(delta, env), env))
    p_min, p_max = p_edge, p_edge
    for i in range(min(trials, 16)):  # spread needs only a few populations
        sample = sample_ues(r_a, sys.ue_density_rho, base_seed + i)
        if sample.realized_count == 0:
            continue
        p = np.asarray(
            channel.los_probability(channel.elevation_deg(sample.radii(), h), env)
        )
        p_min = min(p_min, float(p.min()))
        p_max = max(p_max, float(p.max()))

    return ApproximationGapReport(
        h=h,
        delta=delta,
        closed_form=closed,
        exact_quadrature=exact,
        empirical_mean=empirical,
        relative_gap=(closed - exact) / exact,
        edge_los_probability=p_edge,
        min_ue_los_probability=p_min,
        max_ue_los_probability=p_max,
        trials=trials,
    )
