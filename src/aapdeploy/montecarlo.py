"""Monte-Carlo oracle: explicit UE populations validating the expected sum
transmit power.

Sampling uses numpy's default PCG64 bit generator so that a (seed, params)
pair reproduces bit-identical populations on any platform.  Each trial draws,
in this order, its Poisson UE count and then one (2, count) array of
uniforms: the first row sets the radius r_a sqrt(u), the second the angle.

``mean_sum_power`` samples the cell of altitude ``h`` and edge elevation
``phi_deg``, both scalars.  It seeds one generator per trial (seed
base_seed + i), but runs the power arithmetic once per block of trials
holding at least ``BLOCK_UES`` UEs (the last block may hold fewer), so the
per-trial Python work is the draw alone.  Every step is elementwise, so a
UE's power is the same float whichever block it lands in.  Aggregation uses compensated
summation (math.fsum): each trial's sum over its own UEs, then the sum over
trials, so results do not depend on evaluation order or on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel
from .params import EnvironmentParams, SystemParams

# Minimum UEs per block of the batched power pass: large enough that numpy's
# per-call overhead is spread over many UEs, small enough that the block's
# arrays stay a few tens of kilobytes.
BLOCK_UES = 2048


@dataclass(frozen=True)
class UeSample:
    """One realized UE population inside a cell disk."""

    r_a: float
    draws: np.ndarray  # shape (2, n): area uniforms, then angle uniforms
    realized_count: int

    def radii(self) -> np.ndarray:
        return np.hypot(*_cartesian(self.r_a, self.draws))


def _cartesian(r_a: float, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the UEs whose uniforms are the columns of draws."""
    radii = r_a * np.sqrt(draws[0])
    angles = draws[1] * 2.0 * math.pi
    return radii * np.cos(angles), radii * np.sin(angles)


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
    if not (math.isfinite(r_a) and math.isfinite(rho)):
        raise ValueError("cell radius and UE density must be finite")
    if r_a <= 0 or rho <= 0:
        raise ValueError("cell radius and UE density must be strictly positive")
    if fixed_count is not None and fixed_count < 0:
        raise ValueError(f"fixed UE count must be non-negative, got {fixed_count}")
    rng = np.random.default_rng(seed)
    if fixed_count is None:
        count = int(rng.poisson(rho * math.pi * r_a**2))
    else:
        count = int(fixed_count)
    draws = rng.random((2, count))
    return UeSample(r_a=r_a, draws=draws, realized_count=count)


class SumPower(NamedTuple):
    """Sum transmit power of one population, with and without the power cap."""

    uncapped: float
    capped: float


def _ue_powers(
    radii: np.ndarray, h: float, sys: SystemParams, env: EnvironmentParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE power-controlled transmit power P_a B L^beta (W), and the same
    capped at P_max."""
    loss = np.asarray(channel.mean_path_loss_rh(radii, h, env))
    powers = sys.p_target_pa * sys.resource_blocks_b * loss**sys.tpc_beta
    return powers, np.minimum(powers, sys.p_max)


def empirical_sum_power(
    sample: UeSample, h: float, sys: SystemParams, env: EnvironmentParams
) -> SumPower:
    """Sum of power-controlled UE transmit powers for one population (W)."""
    powers, capped = _ue_powers(sample.radii(), h, sys, env)
    return SumPower(uncapped=math.fsum(powers), capped=math.fsum(capped))


def _block_sums(
    block: list[UeSample],
    r_a: float,
    h: float,
    sys: SystemParams,
    env: EnvironmentParams,
) -> tuple[list[float], list[float]]:
    """Each trial's uncapped and capped sum power for a block of samples,
    with one array pass."""
    draws = np.concatenate([sample.draws for sample in block], axis=1)
    powers, capped = _ue_powers(np.hypot(*_cartesian(r_a, draws)), h, sys, env)
    powers, capped = powers.tolist(), capped.tolist()
    uncapped_sums, capped_sums = [], []
    start = 0
    for sample in block:
        stop = start + sample.realized_count
        uncapped_sums.append(math.fsum(powers[start:stop]))
        capped_sums.append(math.fsum(capped[start:stop]))
        start = stop
    return uncapped_sums, capped_sums


def mean_sum_power(
    h: float,
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
    trials: int,
    base_seed: int = 0,
    fixed_count: int | None = None,
) -> SumPower:
    """Mean empirical sum power over seeded trials (seeds base_seed + i).

    Equal, float for float, to the mean of ``empirical_sum_power`` over the
    trials' samples.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    r_a = channel.require_coverage(h, phi_deg)
    uncapped: list[float] = []
    capped: list[float] = []
    block: list[UeSample] = []
    pending = 0
    for i in range(trials):
        sample = sample_ues(r_a, sys.ue_density_rho, base_seed + i, fixed_count)
        block.append(sample)
        pending += sample.realized_count
        if pending >= BLOCK_UES or i == trials - 1:
            block_uncapped, block_capped = _block_sums(block, r_a, h, sys, env)
            uncapped += block_uncapped
            capped += block_capped
            block, pending = [], 0
    return SumPower(math.fsum(uncapped) / trials, math.fsum(capped) / trials)
