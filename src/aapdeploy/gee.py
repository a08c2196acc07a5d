"""Global energy efficiency: objective and altitude optimization.

The altitude solver does not blindly trust the decreasing-GEE argument: it
audits monotonicity on a coarse altitude grid and falls back to a fine grid
search when the audit fails (which happens for zeroed vehicle energy at low
SNR).

``gee_value`` broadcasts over an altitude array ``h`` with the elevation
threshold ``phi_deg`` a scalar, so the solver evaluates each threshold's
audit grid and fallback grid in one array call.  Thresholds are still visited
one at a time, which keeps memory at one altitude row rather than the full
(threshold x altitude) matrix.  The LoS threshold delta is derived once, for
the reported optimum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channel, energy, uplink
from .errors import DegenerateCoverageError, InfeasibleError
from .params import EnvironmentParams, SystemParams, UavEnergyParams

# Altitudes on the coarse grid of the decreasing-GEE audit, and on each
# threshold's row of the fallback grid search.
AUDIT_POINTS = 24
FALLBACK_POINTS = 286


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
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
    uav: UavEnergyParams,
):
    """Global energy efficiency T * sum_rate / total_energy (bit/J).

    ``h`` may be a scalar or an altitude array; the result has its shape.
    """
    rate = uplink.sum_rate(h, phi_deg, sys, env)
    comm_power = uplink.expected_sum_power_closed_form(h, phi_deg, sys, env)
    total = energy.total_energy(h, comm_power, sys, uav)
    return sys.service_time_t * rate / total


def _feasible_altitude_ceiling(
    phi_deg: float, sys: SystemParams, env: EnvironmentParams
) -> float:
    """min(h_max, power-translated altitude bound) for one threshold."""
    return min(sys.h_max, uplink.h_max_power_constraint(phi_deg, sys, env))


def _audit_monotone_decreasing(
    phi_deg: float,
    sys: SystemParams,
    env: EnvironmentParams,
    uav: UavEnergyParams,
    h_ceiling: float,
) -> bool:
    """True when GEE is non-increasing on a coarse altitude grid."""
    grid = np.linspace(sys.h_min, h_ceiling, AUDIT_POINTS)
    values = gee_value(grid, phi_deg, sys, env, uav)
    return bool(np.all(values[1:] <= values[:-1] * (1.0 + 1e-12)))


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
    grid searched, one array call per threshold over its altitude row.
    Threshold ties break toward the larger elevation angle (smaller cell);
    within the grid search the first maximum in (threshold, altitude) order
    wins.
    """
    if not phi_grid:
        raise InfeasibleError("empty threshold grid")

    feasible: list[tuple[float, float]] = []  # (phi, altitude ceiling)
    for phi in phi_grid:
        try:
            channel.require_coverage(sys.h_min, phi, env)
        except DegenerateCoverageError:
            continue
        ceiling = _feasible_altitude_ceiling(phi, sys, env)
        if ceiling >= sys.h_min:
            feasible.append((phi, ceiling))
    if not feasible:
        raise InfeasibleError(
            "no LoS threshold admits an altitude within both the regulatory "
            "range and the per-UE power limit"
        )

    audit_passed = all(
        _audit_monotone_decreasing(phi, sys, env, uav, ceiling)
        for phi, ceiling in feasible
    )

    # Sort by elevation angle so >= comparisons break ties toward larger phi.
    feasible.sort()

    best: tuple[float, float, float] | None = None  # (gee, h, phi)
    if audit_passed:
        for phi, _ceiling in feasible:
            value = float(gee_value(sys.h_min, phi, sys, env, uav))
            if best is None or value >= best[0]:
                best = (value, sys.h_min, phi)
    else:
        for phi, ceiling in feasible:
            grid = np.linspace(sys.h_min, ceiling, FALLBACK_POINTS)
            values = gee_value(grid, phi, sys, env, uav)
            i = int(np.argmax(values))
            if best is None or values[i] > best[0]:
                best = (float(values[i]), float(grid[i]), phi)

    gee_opt, h_opt, phi_opt = best
    ceiling_opt = _feasible_altitude_ceiling(phi_opt, sys, env)
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
        r_a=channel.coverage_radius(h_opt, phi_opt, env),
        gee=gee_opt,
        binding_constraint=binding,
        monotone_audit_passed=audit_passed,
    )
