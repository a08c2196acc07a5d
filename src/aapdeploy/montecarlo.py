"""Monte-Carlo oracle: explicit UE populations validating the expected sum
transmit power.

Sampling uses numpy's default PCG64 bit generator so that a (seed, params)
pair reproduces bit-identical populations on any platform.  Each trial draws,
in this order, its Poisson UE count and then one area uniform u per UE; the
UE lies at distance r_a sqrt(u) from the cell centre.  No angle is drawn: a
UE's power under full power control depends on its distance alone.

``mean_sum_power`` samples the cell of altitude ``h`` and edge elevation
``phi_deg``, both scalars, with ``uplink.cell_ue_count`` UEs on average, as
the sum rate counts them; the cell is checked once, before the first draw.
One stream, ``np.random.default_rng(base_seed)``, feeds every trial: trials
draw from it in order, each taking its count and then its uniforms where the
previous trial stopped.  The trials go in blocks of about ``BLOCK_UES``
expected UEs, and ``empirical_sum_power`` powers and sums each block with
one array pass, so the per-trial Python work is the draw alone.
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


class UeSample(NamedTuple):
    """One realized UE population inside a cell disk."""

    draws: np.ndarray  # shape (n,): one area uniform per UE
    realized_count: int


def sample_ues(mean_ues: float, rng: np.random.Generator) -> UeSample:
    """Sample a UE population on a cell disk from rng: a Poisson(mean_ues)
    count, then one area uniform per UE.  numpy rejects a negative, NaN or
    infinite mean with a ValueError."""
    count = int(rng.poisson(mean_ues))
    return UeSample(draws=rng.random(count), realized_count=count)


class MeanSumPower(NamedTuple):
    """Mean sum transmit power over trials and its standard error (inf for a
    single trial, which has no spread).

    No P_max cap is applied: the planner keeps h at or below the power
    ceiling h'_max, where the cell-edge UE transmits exactly P_max, and the
    mean path loss grows with r, so no UE of a deployed cell exceeds the cap.
    """

    uncapped: float
    stderr: float


def _ue_powers(
    radii: np.ndarray, h: float, sys: SystemParams, env: EnvironmentParams
) -> np.ndarray:
    """Per-UE transmit power P_a L(r, h) under full power control (W)."""
    return sys.p_target_pa * np.asarray(channel.mean_path_loss_rh(radii, h, env))


def empirical_sum_power(
    samples: list[UeSample],
    r_a: float,
    h: float,
    sys: SystemParams,
    env: EnvironmentParams,
) -> list[float]:
    """Sum of power-controlled UE transmit powers (W) for each population
    drawn on the disk of radius r_a, from one array pass over them all.

    Each population's sum is numpy's reduction over its own UEs alone, and
    0.0 for a population without UEs.
    """
    counts = np.fromiter(
        (sample.realized_count for sample in samples), dtype=np.intp, count=len(samples)
    )
    starts = np.cumsum(counts) - counts
    draws = np.concatenate([sample.draws for sample in samples])
    powers = _ue_powers(r_a * np.sqrt(draws), h, sys, env)
    sums = np.zeros(len(samples))
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
    ``np.random.default_rng(base_seed)``.

    Each trial is drawn by ``sample_ues`` from that one generator, and its sum
    is numpy's reduction (``np.add.reduceat``) over its own UEs alone.  The
    mean is the ``fsum`` of the trials' sums over ``trials``; the standard
    error is their sample standard deviation, from an ``fsum`` too, over
    sqrt(trials).
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
    rng = np.random.default_rng(base_seed)
    block = max(1, int(BLOCK_UES / max(mean_ues, 1.0)))
    sums: list[float] = []
    for start in range(0, trials, block):
        samples = [sample_ues(mean_ues, rng) for _ in range(min(block, trials - start))]
        sums += empirical_sum_power(samples, r_a, h, sys, env)
    mean = math.fsum(sums) / trials
    stderr = math.inf
    if trials > 1:
        variance = math.fsum((x - mean) ** 2 for x in sums) / (trials - 1)
        stderr = math.sqrt(variance / trials)
    return MeanSumPower(mean, stderr)
