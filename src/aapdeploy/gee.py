"""Global energy efficiency: objective and altitude optimization.

The altitude solver does not blindly trust the decreasing-GEE argument: it
audits monotonicity on a coarse altitude grid and falls back to a fine grid
search when the audit fails (which happens for zeroed vehicle energy at low
SNR).

``gee_value`` is the one GEE formula.  It takes the edge elevation
``phi_deg`` as a scalar or as a 1-D column (row i belongs to threshold i)
and broadcasts it against an altitude ``h`` that may be a scalar, a row or a
(threshold x altitude) block, so the solver evaluates its thresholds in a few
array calls: the audit block, then one search loop over blocks of a
(threshold x altitude) grid with one point per threshold (h_min) when the
audit passes and ``FALLBACK_POINTS`` when it fails.  A block holds
``FALLBACK_BLOCK * FALLBACK_POINTS`` grid points, which keeps peak memory
near that of one altitude row and makes a pinned search on a built-in grid
one call.  A column call gives exactly the floats of the per-threshold scalar
calls (see ``channel``), so the grid search picks the same optimum as a
scalar loop.  The LoS threshold delta is derived once, for the reported
optimum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channel, energy, uplink
from .errors import InfeasibleError
from .params import EnvironmentParams, SystemParams, UavEnergyParams

# Altitudes on the coarse grid of the decreasing-GEE audit, and on each
# threshold's row of the fallback grid search.
AUDIT_POINTS = 24
FALLBACK_POINTS = 286
# Thresholds per block of the fallback grid search.  On a built-in grid of
# 221 thresholds, one block of all rows raised a solve's peak RSS by ~3.5 MB
# over one row at a time; blocks of 16 raise it by ~0.2 MB.
FALLBACK_BLOCK = 16


class BindingConstraint(enum.Enum):
    MIN_ALTITUDE = "min_altitude"
    POWER_LIMIT = "power_limit"
    MAX_ALTITUDE = "max_altitude"
    INTERIOR = "interior"  # grid-search fallback found an interior optimum


@dataclass(frozen=True)
class DeploymentSolution:
    """Optimal altitude, LoS threshold and the resulting cell geometry."""

    h_opt: float
    delta_opt: float
    phi_opt_deg: float
    r_a: float
    gee: float
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

    ``h`` may be a scalar or an altitude array, and ``phi_deg`` a scalar or a
    1-D column; the result has their broadcast shape, so a scalar ``h`` with
    n thresholds gives (n, 1) and an (n, m) block gives (n, m).
    """
    rate = uplink.sum_rate(h, phi_deg, sys)
    comm_power = uplink.expected_sum_power_closed_form(h, phi_deg, sys, env)
    total = energy.total_energy(h, comm_power, sys, uav)
    return sys.service_time_t * rate / total


def _feasible_altitude_ceiling(phi_deg, sys: SystemParams, env: EnvironmentParams):
    """min(h_max, power-translated altitude bound): a scalar for one
    threshold, an (n, 1) column for a 1-D ``phi_deg``."""
    return np.minimum(sys.h_max, uplink.h_max_power_constraint(phi_deg, sys, env))


def _audit_monotone_decreasing(values: np.ndarray) -> bool:
    """True when one threshold's audit row of GEE values is non-increasing."""
    return bool((values[1:] <= values[:-1] * (1.0 + 1e-12)).all())


def solve_p1(
    sys: SystemParams,
    env: EnvironmentParams,
    uav: UavEnergyParams,
    phi_grid: Sequence[float],
) -> DeploymentSolution:
    """Energy-efficiency-optimal altitude and edge elevation threshold.

    ``phi_grid`` holds the candidate edge elevation angles in degrees.
    Thresholds whose cell degenerates to the nadir at h_min, or whose
    power-translated altitude ceiling lies below h_min, are excluded as
    infeasible; an angle outside (0, 90] raises ValueError.  When the
    decreasing-GEE audit passes for every feasible threshold the altitude is
    pinned at h_min and only the threshold is searched; otherwise both are
    grid searched.  Either way the search is the same loop over blocks of a
    (threshold x altitude) grid, and one tie rule holds: the larger elevation
    angle (smaller cell) wins, then the lower altitude.
    """
    if not phi_grid:
        raise InfeasibleError("empty threshold grid")

    # Sorted by descending elevation angle, so the first maximum in (phi, h)
    # order is the larger phi, then the lower h.
    phis = np.sort(np.asarray(phi_grid, dtype=float))[::-1]
    covered = channel.coverage_radius(sys.h_min, phis)[:, 0] > 0.0
    ceilings = _feasible_altitude_ceiling(phis, sys, env)[:, 0]
    feasible = covered & (ceilings >= sys.h_min)
    phis, ceilings = phis[feasible], ceilings[feasible]
    if not phis.size:
        raise InfeasibleError(
            "no LoS threshold admits an altitude within both the regulatory "
            "range and the per-UE power limit"
        )

    # Row i of np.linspace(h_min, ceilings, n, axis=1) is np.linspace(h_min,
    # ceilings[i], n) float for float, unless some but not all ceilings equal
    # h_min exactly (a zero step changes numpy's formula for every row).
    audit_grid = np.linspace(sys.h_min, ceilings, AUDIT_POINTS, axis=1)
    audit = gee_value(audit_grid, phis, sys, env, uav)
    # A list, not a generator: every feasible threshold gets its verdict, so
    # perfbench's gee.audit_pass_ratio covers them all.
    audit_passed = all([_audit_monotone_decreasing(row) for row in audit])

    # A passed audit pins h at h_min: the one-point case of the grid search,
    # whose blocks then hold FALLBACK_POINTS times as many thresholds.
    points = 1 if audit_passed else FALLBACK_POINTS
    rows = FALLBACK_BLOCK * FALLBACK_POINTS // points
    best: tuple[float, float, int] | None = None  # (gee, h, threshold index)
    for start in range(0, len(phis), rows):
        block = slice(start, start + rows)
        grid = np.linspace(sys.h_min, ceilings[block], points, axis=1)
        values = gee_value(grid, phis[block], sys, env, uav)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        if best is None or values[i, j] > best[0]:
            best = (float(values[i, j]), float(grid[i, j]), start + int(i))
    gee_opt, h_opt, k = best
    phi_opt, ceiling_opt = float(phis[k]), float(ceilings[k])

    tol = 1e-9 * max(1.0, h_opt)
    if abs(h_opt - sys.h_min) <= tol:
        binding = BindingConstraint.MIN_ALTITUDE
    elif ceiling_opt < sys.h_max and abs(h_opt - ceiling_opt) <= tol:
        binding = BindingConstraint.POWER_LIMIT
    elif abs(h_opt - sys.h_max) <= tol:
        binding = BindingConstraint.MAX_ALTITUDE
    else:
        binding = BindingConstraint.INTERIOR

    return DeploymentSolution(
        h_opt=h_opt,
        delta_opt=float(channel.los_probability(phi_opt, env)),
        phi_opt_deg=phi_opt,
        r_a=channel.coverage_radius(h_opt, phi_opt),
        gee=gee_opt,
        binding_constraint=binding,
        monotone_audit_passed=audit_passed,
    )
