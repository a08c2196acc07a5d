"""Monte-Carlo oracle: explicit UE populations validating the expected sum
transmit power.

Sampling uses numpy's default PCG64 bit generator so that a (seed, params)
pair reproduces bit-identical populations on any platform.  A trial is a
Poisson UE count and one area uniform u per UE; the UE lies at distance
r_a sqrt(u) from the cell centre.  No angle is drawn: a UE's power under
full power control depends on its distance alone.

``mean_sum_power`` samples the cell of altitude ``h`` and edge elevation
``phi_deg``, both scalars, with ``uplink.cell_ue_count`` UEs on average, as
the sum rate counts them; the cell and the UE budget are checked once,
before the first draw.  One stream, ``np.random.default_rng(base_seed)``,
feeds every trial, in this order: first every trial's Poisson count, in
trial order, then every UE's area uniform, in trial order.  The trials go
in blocks of about ``BLOCK_UES`` expected UEs; each block takes its
uniforms with one ``rng.random`` call, where the previous block stopped,
into one buffer that every block reuses, and ``empirical_sum_power`` powers
and sums them with one array pass, in place there and in the channel's own
two buffers.  Back-to-back ``rng.random(a)`` and ``rng.random(b)`` give the
floats of one ``rng.random(a + b)``, so the draws do not depend on the block
size.  ``sample_ues`` draws one trial's count; it stays one call per trial
because a tracer counts trials and UEs through it, so the per-trial Python
work is that one Poisson draw.
Every step is elementwise, so a UE's power is the same float whichever block
it lands in.  Each trial's sum is numpy's reduction over its own UEs alone
(``np.add.reduceat``), the same float as that trial reduced by itself; the
mean and the variance are compensated sums (math.fsum) over trials.  So a
(seed, trials, cell) triple gives the same result on a given numpy, whatever
the block size.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import channel, uplink
from .errors import ConfigError
from .params import EnvironmentParams, SystemParams

# Expected UEs per block of the batched power pass: large enough that numpy's
# per-call overhead is spread over many UEs, small enough that each of the
# block's arrays stays near 64 kB.  A block holds at least one trial.
BLOCK_UES = 8192

# Largest expected UE count per trial that mean_sum_power samples: 150 times
# the most populous cell either built-in deploys (6,450 UEs), and far below
# the ~9.2e18 at which numpy's Poisson draw fails.  One trial's draws and
# powers must fit in memory at once.
MAX_MEAN_UES = 1e6

# Most UEs mean_sum_power draws in one call, trials x mean UEs per trial:
# about 36 s at 36 ns per UE.  Both built-ins at validate's 10^6 trials
# draw 1.2e8.
MAX_UES = 1e9


class UeSample:
    """One trial's realized UE count; its UEs' uniforms are drawn later,
    with the rest of its block's."""

    __slots__ = ("realized_count",)

    def __init__(self, realized_count: int) -> None:
        self.realized_count = realized_count


def sample_ues(mean_ues: float, rng: np.random.Generator) -> UeSample:
    """Draw one trial's Poisson(mean_ues) UE count from rng.  numpy rejects
    a negative, NaN or infinite mean with a ValueError."""
    return UeSample(rng.poisson(mean_ues))


class MeanSumPower(NamedTuple):
    """Mean sum transmit power over trials, with no P_max cap (the planner
    deploys at or below the ceiling h'_max, where no UE exceeds it), and its
    standard error (inf for a single trial, which has no spread)."""

    mean: float
    stderr: float


def _ue_powers(
    radii: np.ndarray, h: float, sys: SystemParams, env: EnvironmentParams
) -> np.ndarray:
    """Per-UE transmit power P_a L(r, h) under full power control (W)."""
    powers = channel.mean_path_loss_rh(radii, h, env)
    powers *= sys.p_target_pa
    return powers


def empirical_sum_power(
    counts: np.ndarray,
    draws: np.ndarray,
    r_a: float,
    h: float,
    sys: SystemParams,
    env: EnvironmentParams,
) -> list[float]:
    """Sum of power-controlled UE transmit powers (W) for each population
    on the disk of radius r_a, from one array pass over them all.

    ``counts`` holds each population's UE count and ``draws`` their area
    uniforms, population after population; the radii are formed in place
    in ``draws``.  Each population's sum is numpy's reduction over its own
    UEs alone, and 0.0 for a population without UEs.
    """
    starts = np.cumsum(counts) - counts
    radii = np.sqrt(draws, out=draws)
    radii *= r_a
    powers = _ue_powers(radii, h, sys, env)
    sums = np.zeros(len(counts))
    nonempty = counts > 0
    sums[nonempty] = np.add.reduceat(powers, starts[nonempty])
    return sums.tolist()


def mean_sum_power(
    h: float,
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
    trials: int,
    base_seed: int = 0,
) -> MeanSumPower:
    """Mean empirical sum power over trials drawn in order from one stream,
    ``np.random.default_rng(base_seed)``: every trial's count, by
    ``sample_ues``, then each block's uniforms into one reused buffer.

    Each trial's sum is numpy's reduction (``np.add.reduceat``) over its own
    UEs alone.  More than ``MAX_UES`` expected UEs in all is refused.  The
    mean is the ``fsum`` of the trials' sums over ``trials``; the standard
    error is their sample standard deviation, from an ``fsum`` of products
    d * d, over sqrt(trials).
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    r_a = channel.require_coverage(h, phi_deg)
    mean_ues = uplink.cell_ue_count(r_a, sys)
    if mean_ues > MAX_MEAN_UES:
        raise ConfigError(
            f"the Monte-Carlo cell holds {mean_ues:.3g} UEs on average, "
            f"more than the {MAX_MEAN_UES:.0e} the oracle samples"
        )
    if trials * mean_ues > MAX_UES:
        raise ConfigError(
            f"the Monte-Carlo check would draw {trials:,} trials x {mean_ues:.3g} UEs "
            f"= {trials * mean_ues:.3g} UEs on average, more than the {MAX_UES:.0e} "
            f"the oracle samples"
        )
    rng = np.random.default_rng(base_seed)
    counts = np.array(
        [sample_ues(mean_ues, rng).realized_count for _ in range(trials)], np.intp
    )
    block = max(1, int(BLOCK_UES / max(mean_ues, 1.0)))
    starts = range(0, trials, block)
    totals = np.add.reduceat(counts, starts).tolist()
    buffer = np.empty(max(totals))
    sums: list[float] = []
    for start, total in zip(starts, totals):
        draws = rng.random(out=buffer[:total])
        sums += empirical_sum_power(counts[start : start + block], draws, r_a, h, sys, env)
    mean = math.fsum(sums) / trials
    stderr = math.inf
    if trials > 1:
        d = np.subtract(sums, mean)
        variance = math.fsum(d * d) / (trials - 1)
        stderr = math.sqrt(variance / trials)
    return MeanSumPower(mean, stderr)
