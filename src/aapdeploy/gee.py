"""Global energy efficiency: objective and altitude optimization.

The altitude solver does not blindly trust the decreasing-GEE argument: it
audits monotonicity on a coarse altitude grid and falls back to a grid search
over the caller's altitude grid when the audit fails (which happens for
zeroed vehicle energy at low SNR).

``gee_value`` is the one GEE formula.  It broadcasts the edge elevation
``phi_deg`` against an altitude ``h`` by numpy's rules, so the solver passes
an (n, 1) column of thresholds (row i belongs to threshold i) against a
(threshold x altitude) block and evaluates its thresholds in a few array
calls: the audit block, then one search loop over blocks of about
``BLOCK_POINTS`` points of a (threshold x altitude) grid, which keeps peak
memory near that of one altitude row and makes a pinned search on a built-in
grid one call.  A column call gives exactly the floats of the per-threshold
scalar calls (see ``channel``), so the grid search picks the same optimum as a
scalar loop.  The LoS threshold delta is derived once, for the reported
optimum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channel, energy, uplink
from .errors import ConfigError, InfeasibleError
from .params import EnvironmentParams, SystemParams, UavEnergyParams

# Altitudes on the coarse grid of the decreasing-GEE audit.
AUDIT_POINTS = 24
# Grid points per block, 16 rows of the built-in 286-point altitude grid: one
# block of all 221 rows raised a solve's peak RSS by ~3.5 MB, 16 by ~0.2 MB.
BLOCK_POINTS = 4576
# GEE points one search may evaluate: ~4 s at the cap on a 2-core Xeon.
MAX_SEARCH_POINTS = 10**8


class BindingConstraint(str, enum.Enum):
    MIN_ALTITUDE = "min_altitude"
    POWER_LIMIT = "power_limit"
    MAX_ALTITUDE = "max_altitude"
    INTERIOR = "interior"  # grid-search fallback found an interior optimum


@dataclass(frozen=True)
class DeploymentSolution:
    """Optimal altitude, LoS threshold and the resulting cell geometry; each
    field is the ``solution.json`` key of the same name."""

    h_opt_m: float
    delta_opt: float
    phi_opt_deg: float
    r_a_m: float
    gee_bits_per_j: float
    binding_constraint: BindingConstraint
    monotone_audit_passed: bool


def gee_value(
    h,
    phi_deg,
    sys: SystemParams,
    env: EnvironmentParams,
    uav: UavEnergyParams,
):
    """Global energy efficiency T * sum_rate / total_energy (bit/J).

    The result has the broadcast shape of ``h`` and ``phi_deg``.
    """
    rate = uplink.sum_rate(h, phi_deg, sys)
    comm_power = uplink.expected_sum_power_closed_form(h, phi_deg, sys, env)
    total = energy.total_energy(h, comm_power, sys, uav)
    return sys.service_time_s * rate / total


def altitude_ceiling(phi_deg, sys: SystemParams, env: EnvironmentParams):
    """min(h_max, power-translated altitude bound), one per angle of ``phi_deg``."""
    return np.minimum(sys.h_max_m, uplink.h_max_power_constraint(phi_deg, sys, env))


def _audit_monotone_decreasing(values: np.ndarray) -> bool:
    """True when one threshold's audit row of GEE values is non-increasing."""
    return bool((values[1:] <= values[:-1] * (1.0 + 1e-12)).all())


def solve_p1(
    sys: SystemParams,
    env: EnvironmentParams,
    uav: UavEnergyParams,
    phi_grid: Sequence[float] | np.ndarray,
    altitudes: Sequence[float] | np.ndarray,
) -> DeploymentSolution:
    """Energy-efficiency-optimal altitude and edge elevation threshold.

    ``phi_grid`` holds the candidate edge elevation angles in degrees.
    Thresholds whose cell degenerates to the nadir at h_min, or whose
    power-translated altitude ceiling lies below h_min, are excluded as
    infeasible; an angle outside (0, 90] raises ValueError.  When the
    decreasing-GEE audit passes for every feasible threshold the altitude is
    pinned at h_min and only the threshold is searched; otherwise each
    threshold searches h_min, the ascending grid ``altitudes`` (metres, in
    [h_min, h_max]) and h_max, each capped at its ceiling.  A search of more
    than ``MAX_SEARCH_POINTS`` points raises ConfigError.  Either way the
    search is the same loop over blocks of a (threshold x altitude) grid, and
    one tie rule holds: the larger elevation angle (smaller cell) wins, then
    the lower altitude.
    """
    # Sorted by descending elevation angle, so the first maximum in (phi, h)
    # order is the larger phi, then the lower h.
    phis = np.sort(np.asarray(phi_grid, dtype=float))[::-1]
    if not phis.size:
        raise InfeasibleError("empty threshold grid")
    covered = channel.coverage_radius(sys.h_min_m, phis) > 0.0
    ceilings = altitude_ceiling(phis, sys, env)
    feasible = covered & (ceilings >= sys.h_min_m)
    phis, ceilings = phis[feasible], ceilings[feasible]
    if not phis.size:
        raise InfeasibleError(
            "no LoS threshold admits an altitude within both the regulatory "
            "range and the per-UE power limit"
        )

    # Row i of np.linspace(h_min, ceilings, n, axis=1) is np.linspace(h_min,
    # ceilings[i], n) float for float, unless some but not all ceilings equal
    # h_min exactly (a zero step changes numpy's formula for every row).
    audit_grid = np.linspace(sys.h_min_m, ceilings, AUDIT_POINTS, axis=1)
    audit = gee_value(audit_grid, phis[:, None], sys, env, uav)
    # A list, not a generator: every feasible threshold gets its verdict, so
    # perfbench's gee.audit_pass_ratio covers them all.
    audit_passed = all([_audit_monotone_decreasing(row) for row in audit])

    # A passed audit pins h at h_min: the one-point case of the search.
    points = 1 if audit_passed else max(1, len(altitudes))
    heights = np.r_[sys.h_min_m] if audit_passed else np.r_[sys.h_min_m, altitudes, sys.h_max_m]
    rows = max(1, BLOCK_POINTS // points)
    if len(phis) * heights.size > MAX_SEARCH_POINTS:
        raise ConfigError(
            f"solve would search {len(phis):,} feasible thresholds x {heights.size:,} "
            f"candidate altitudes = {len(phis) * heights.size:.3g} GEE points, "
            f"more than {MAX_SEARCH_POINTS:,}"
        )
    best: tuple[float, float, int] | None = None  # (gee, h, threshold index)
    for start in range(0, len(phis), rows):
        block = slice(start, start + rows)
        grid = np.minimum(heights, ceilings[block, None])
        values = gee_value(grid, phis[block, None], sys, env, uav)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        if best is None or values[i, j] > best[0]:
            best = (float(values[i, j]), float(grid[i, j]), start + int(i))
    gee_opt, h_opt, k = best
    phi_opt, ceiling_opt = float(phis[k]), float(ceilings[k])

    tol = 1e-9 * h_opt
    if abs(h_opt - sys.h_min_m) <= tol:
        binding = BindingConstraint.MIN_ALTITUDE
    elif ceiling_opt < sys.h_max_m and abs(h_opt - ceiling_opt) <= tol:
        binding = BindingConstraint.POWER_LIMIT
    elif abs(h_opt - sys.h_max_m) <= tol:
        binding = BindingConstraint.MAX_ALTITUDE
    else:
        binding = BindingConstraint.INTERIOR

    return DeploymentSolution(
        h_opt_m=h_opt,
        delta_opt=float(channel.los_probability(phi_opt, env)),
        phi_opt_deg=phi_opt,
        r_a_m=channel.coverage_radius(h_opt, phi_opt),
        gee_bits_per_j=gee_opt,
        binding_constraint=binding,
        monotone_audit_passed=audit_passed,
    )
