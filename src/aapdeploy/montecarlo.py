"""Monte-Carlo oracle: explicit UE populations validating the expected sum
transmit power.

Sampling uses numpy's default PCG64 bit generator so that a (seed, params)
pair reproduces bit-identical populations on any platform.  Each trial draws,
in this order, its Poisson UE count and then one area uniform u per UE; the
UE lies at distance r_a sqrt(u) from the cell centre.  No angle is drawn: a
UE's power under full power control depends on its distance alone.

``mean_sum_power`` samples the cell of altitude ``h`` and edge elevation
``phi_deg``, both scalars.  Trial i draws from the exact state that
``np.random.default_rng(base_seed + i)`` starts from, but no generator is
built per trial: one generator is reused and set to that state before each
trial, and the states are computed ``SEED_CHUNK`` seeds at a time, with
numpy's SeedSequence hash run as uint32 array passes over the chunk.  The
power arithmetic runs once per block of trials holding at least
``BLOCK_UES`` UEs (the last block may hold fewer), so the per-trial Python
work is the draw alone.  Every step is elementwise, so a UE's power is the
same float whichever block it lands in.  Aggregation uses compensated
summation (math.fsum): each trial's sum over its own UEs, then the sum over
trials, so results do not depend on evaluation order or on the block size.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel
from .errors import ConfigError
from .params import EnvironmentParams, SystemParams

# Minimum UEs per block of the batched power pass: large enough that numpy's
# per-call overhead is spread over many UEs, small enough that the block's
# arrays stay a few tens of kilobytes.
BLOCK_UES = 2048

# Largest expected UE count per trial that mean_sum_power samples: 150 times
# the most populous cell either built-in deploys (6,450 UEs), and far below
# the ~9.2e18 at which numpy's Poisson draw fails.  One trial's draws and
# powers must fit in memory at once.
MAX_MEAN_UES = 1e6

# Seeds whose generator states are computed in one array pass: enough to
# spread numpy's per-call overhead, few enough that memory does not grow
# with the trial count.
SEED_CHUNK = 256

# np.random.default_rng(seed) hashes the seed's 32-bit words into a pool of
# four uint32 words (numpy's SeedSequence, after O'Neill's seed_seq), then
# seeds PCG64 from the pool's first four uint64 outputs.  These are the
# constants of both steps; none depends on the seed.
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class UeSample:
    """One realized UE population inside a cell disk."""

    r_a: float
    draws: np.ndarray  # shape (n,): one area uniform per UE
    realized_count: int

    def radii(self) -> np.ndarray:
        return self.r_a * np.sqrt(self.draws)


def sample_ues(r_a: float, rho: float, rng: np.random.Generator) -> UeSample:
    """Sample a UE population uniformly on the disk of radius r_a, drawing
    from rng.

    The count is Poisson(rho * pi * r_a^2).  Radial positions use
    r = r_a * sqrt(u) so the distribution is uniform in area.
    """
    if not (math.isfinite(r_a) and math.isfinite(rho)):
        raise ValueError("cell radius and UE density must be finite")
    if r_a <= 0 or rho <= 0:
        raise ValueError("cell radius and UE density must be strictly positive")
    count = int(rng.poisson(rho * math.pi * r_a**2))
    return UeSample(r_a=r_a, draws=rng.random(count), realized_count=count)


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
    sample: UeSample, h: float, sys: SystemParams, env: EnvironmentParams
) -> float:
    """Sum of power-controlled UE transmit powers for one population (W)."""
    return math.fsum(_ue_powers(sample.radii(), h, sys, env))


def _block_sums(
    block: list[UeSample],
    r_a: float,
    h: float,
    sys: SystemParams,
    env: EnvironmentParams,
) -> list[float]:
    """Each trial's sum power for a block of samples, with one array pass."""
    draws = np.concatenate([sample.draws for sample in block])
    powers = _ue_powers(r_a * np.sqrt(draws), h, sys, env).tolist()
    sums = []
    start = 0
    for sample in block:
        stop = start + sample.realized_count
        sums.append(math.fsum(powers[start:stop]))
        start = stop
    return sums


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The (xor, multiplier) pair of each successive SeedSequence hashmix
    call: the running hash constant before and after its update."""
    while True:
        updated = init * mult & _MASK32
        yield init, updated
        init = updated


def _hashmix(words: np.ndarray, constants: tuple[int, int]) -> np.ndarray:
    xor, mult = constants
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_MULT_L - y * _MIX_MULT_R
    return mixed ^ (mixed >> 16)


def _pcg64_states(first_seed: int, count: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that np.random.default_rng(s) starts from, for
    each seed s = first_seed, ..., first_seed + count - 1.

    SeedSequence's pool mixing and generate_state(4, uint64) run as uint32
    array passes over the seeds, where wrapping is the arithmetic the hash
    defines; PCG64's seeding runs on Python ints.
    """
    states = []
    stop = first_seed + count
    while first_seed < stop:
        # A seed enters as its little-endian 32-bit words.  A missing pool
        # word is hashed as 0, so every seed below 2**128 takes the same
        # four-word path; each further word adds one mixing round.
        width = max(_POOL_WORDS, -(-first_seed.bit_length() // 32))
        end = min(stop, 1 << (32 * width))
        seeds = range(first_seed, end)
        raw = b"".join(seed.to_bytes(4 * width, "little") for seed in seeds)
        words = np.frombuffer(raw, "<u4").reshape(-1, width).T.astype(np.uint32)
        hashes = _hash_constants(_INIT_A, _MULT_A)
        pool = [_hashmix(word, next(hashes)) for word in words[:_POOL_WORDS]]
        for src in range(_POOL_WORDS):
            for dst in range(_POOL_WORDS):
                if dst != src:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
        for word in words[_POOL_WORDS:]:
            for dst in range(_POOL_WORDS):
                pool[dst] = _mix(pool[dst], _hashmix(word, next(hashes)))
        hashes = _hash_constants(_INIT_B, _MULT_B)
        out = [
            _hashmix(pool[i % _POOL_WORDS], next(hashes)).astype(np.uint64)
            for i in range(8)
        ]
        # Little-endian word pairs: the high and low halves of the initial
        # state, then of the stream selector.
        halves = [(out[i] | out[i + 1] << 32).tolist() for i in range(0, 8, 2)]
        for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
            # PCG64 srandom: state 0, inc = 2 seq + 1, one LCG step, add the
            # initial state, one more LCG step.
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = (inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc
            states.append((state & _MASK128, inc))
        first_seed = end
    return states


def _trial_generators(base_seed: int, trials: int) -> Iterator[np.random.Generator]:
    """For each trial i, one shared Generator set to the state that
    np.random.default_rng(base_seed + i) starts from; each yielded state
    holds until the next is drawn."""
    bit_generator = np.random.PCG64(0)  # placeholder state, replaced per trial
    rng = np.random.Generator(bit_generator)
    stop = base_seed + trials
    for first in range(base_seed, stop, SEED_CHUNK):
        for state, inc in _pcg64_states(first, min(SEED_CHUNK, stop - first)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def mean_sum_power(
    h: float,
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
    trials: int,
    base_seed: int = 0,
) -> MeanSumPower:
    """Mean empirical sum power over seeded trials (seeds base_seed + i).

    Equal, float for float, to the mean of ``empirical_sum_power`` over the
    trials' samples, each drawn by ``np.random.default_rng(base_seed + i)``.
    The standard error is the sample standard deviation of the trials' sums
    over sqrt(trials).
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    if base_seed < 0:
        raise ValueError(f"the base seed must be non-negative, got {base_seed}")
    r_a = channel.require_coverage(h, phi_deg)
    mean_ues = sys.ue_density_rho * math.pi * r_a**2
    if mean_ues > MAX_MEAN_UES:
        raise ConfigError(
            f"the Monte-Carlo cell holds {mean_ues:.3g} UEs on average, "
            f"more than the {MAX_MEAN_UES:.0e} the oracle samples"
        )
    sums: list[float] = []
    block: list[UeSample] = []
    pending = 0
    for i, rng in enumerate(_trial_generators(base_seed, trials)):
        sample = sample_ues(r_a, sys.ue_density_rho, rng)
        block.append(sample)
        pending += sample.realized_count
        if pending >= BLOCK_UES or i == trials - 1:
            sums += _block_sums(block, r_a, h, sys, env)
            block, pending = [], 0
    mean = math.fsum(sums) / trials
    stderr = math.inf
    if trials > 1:
        variance = math.fsum((x - mean) ** 2 for x in sums) / (trials - 1)
        stderr = math.sqrt(variance / trials)
    return MeanSumPower(mean, stderr)
