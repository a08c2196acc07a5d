"""Global energy efficiency: objective, altitude optimization and the
sum-rate derivative diagnostic.

The altitude solver does not blindly trust the decreasing-GEE argument: it
audits monotonicity on a coarse altitude grid and falls back to a fine grid
search when the audit fails (which happens for zeroed vehicle energy at low
SNR).

``gee_value`` broadcasts over an altitude array ``h`` with the threshold
``delta`` a scalar, so the solver evaluates each threshold's audit grid and
fallback grid in one array call.  Thresholds are still visited one at a time,
which keeps memory at one altitude row rather than the full
(threshold x altitude) matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import channel, energy, uplink
from .errors import DegenerateCoverageError, InfeasibleError
from .params import EnvironmentParams, SystemParams, UavEnergyParams

LOG2_E = math.log2(math.e)

DEFAULT_PHI_GRID_DEG = np.arange(5.0, 89.0 + 1e-9, 0.25)


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
    delta: float,
    sys: SystemParams,
    env: EnvironmentParams,
    uav: UavEnergyParams,
):
    """Global energy efficiency T * sum_rate / total_energy (bit/J).

    ``h`` may be a scalar or an altitude array; the result has its shape.
    """
    rate = uplink.sum_rate(h, delta, sys, env)
    comm_power = uplink.expected_sum_power_closed_form(h, delta, sys, env)
    total = energy.total_energy(h, comm_power, sys, uav)
    return sys.service_time_t * rate / total


def default_delta_grid(env: EnvironmentParams, phi_grid_deg=None) -> list[float]:
    """LoS thresholds corresponding to a uniform elevation-angle grid."""
    if phi_grid_deg is None:
        phi_grid_deg = DEFAULT_PHI_GRID_DEG
    return [float(channel.los_probability(phi, env)) for phi in phi_grid_deg]


def _feasible_altitude_ceiling(
    delta: float, sys: SystemParams, env: EnvironmentParams
) -> float:
    """min(h_max, power-translated altitude bound) for one threshold."""
    return min(sys.h_max, uplink.h_max_power_constraint(delta, sys, env))


def _audit_monotone_decreasing(
    delta: float,
    sys: SystemParams,
    env: EnvironmentParams,
    uav: UavEnergyParams,
    h_ceiling: float,
    points: int = 24,
) -> bool:
    """True when GEE is non-increasing on a coarse altitude grid."""
    values = gee_value(np.linspace(sys.h_min, h_ceiling, points), delta, sys, env, uav)
    return bool(np.all(values[1:] <= values[:-1] * (1.0 + 1e-12)))


def solve_p1(
    sys: SystemParams,
    env: EnvironmentParams,
    uav: UavEnergyParams,
    delta_grid: Sequence[float] | None = None,
    fallback_points: int = 286,
) -> DeploymentSolution:
    """Energy-efficiency-optimal altitude and LoS threshold.

    Thresholds whose cell degenerates to the nadir at h_min, or whose
    power-translated altitude ceiling lies below h_min, are excluded as
    infeasible; a threshold outside the LoS S-curve's image raises
    ValueError.  When the decreasing-GEE audit passes for every
    feasible threshold the altitude is pinned at h_min and only the threshold
    is searched; otherwise both are grid searched, one array call per
    threshold over its altitude row.  Threshold ties break toward the larger
    elevation angle (smaller cell); within the grid search the first maximum
    in (threshold, altitude) order wins.
    """
    if delta_grid is None:
        delta_grid = default_delta_grid(env)
    if not delta_grid:
        raise InfeasibleError("empty threshold grid")

    feasible: list[tuple[float, float]] = []  # (delta, altitude ceiling)
    for delta in delta_grid:
        try:
            channel.require_coverage(sys.h_min, delta, env)
        except DegenerateCoverageError:
            continue
        ceiling = _feasible_altitude_ceiling(delta, sys, env)
        if ceiling >= sys.h_min:
            feasible.append((delta, ceiling))
    if not feasible:
        raise InfeasibleError(
            "no LoS threshold admits an altitude within both the regulatory "
            "range and the per-UE power limit"
        )

    audit_passed = all(
        _audit_monotone_decreasing(delta, sys, env, uav, ceiling)
        for delta, ceiling in feasible
    )

    # Sort by elevation angle so >= comparisons break ties toward larger phi.
    feasible.sort(key=lambda dc: channel.phi_from_delta(dc[0], env))

    best: tuple[float, float, float] | None = None  # (gee, h, delta)
    if audit_passed:
        for delta, _ceiling in feasible:
            value = float(gee_value(sys.h_min, delta, sys, env, uav))
            if best is None or value >= best[0]:
                best = (value, sys.h_min, delta)
    else:
        for delta, ceiling in feasible:
            grid = np.linspace(sys.h_min, ceiling, fallback_points)
            values = gee_value(grid, delta, sys, env, uav)
            i = int(np.argmax(values))
            if best is None or values[i] > best[0]:
                best = (float(values[i]), float(grid[i]), delta)

    gee_opt, h_opt, delta_opt = best
    ceiling_opt = _feasible_altitude_ceiling(delta_opt, sys, env)
    tol = 1e-9 * max(1.0, h_opt)
    if abs(h_opt - sys.h_min) <= tol:
        binding = BindingConstraint.MIN_ALTITUDE
    elif ceiling_opt < sys.h_max and abs(h_opt - ceiling_opt) <= tol:
        binding = BindingConstraint.POWER_LIMIT
    elif abs(h_opt - sys.h_max) <= tol:
        binding = BindingConstraint.MAX_ALTITUDE
    else:
        binding = BindingConstraint.INTERIOR

    phi_opt = channel.phi_from_delta(delta_opt, env)
    return DeploymentSolution(
        h_opt=h_opt,
        delta_opt=delta_opt,
        phi_opt_deg=phi_opt,
        r_a=channel.coverage_radius(h_opt, delta_opt, env),
        gee=gee_opt,
        binding_constraint=binding,
        monotone_audit_passed=audit_passed,
    )


@dataclass(frozen=True)
class SumRateDerivative:
    """Analytic sum-rate derivative diagnostic and its numeric cross-check.

    Both quantities are d(sum_rate)/dh divided by the bandwidth W
    (dimensionless per metre).
    """

    analytic: float
    finite_difference: float


def sum_rate_derivative_diag(
    h: float,
    delta: float,
    sys: SystemParams,
    env: EnvironmentParams,
    rel_step: float = 1e-5,
) -> SumRateDerivative:
    """Two-term analytic derivative of the sum rate plus a central finite
    difference of sum_rate / W for cross-checking."""
    if sys.num_interferers_m < 1:
        raise ValueError("derivative diagnostic requires at least one interferer")
    phi = channel.phi_from_delta(delta, env)
    cot2 = 1.0 / math.tan(math.radians(phi)) ** 2
    kappa = sys.p_target_pa * sys.ue_density_rho * math.pi * cot2
    noise = sys.noise_psd_sigma0sq * sys.bandwidth_w
    m = sys.num_interferers_m
    term = lambda divisor: (2.0 * kappa * h * LOG2_E) / (
        kappa * h**2 + noise / divisor
    )
    analytic = term(m + 1) - term(m)

    dh = rel_step * h
    fd = (
        uplink.sum_rate(h + dh, delta, sys, env)
        - uplink.sum_rate(h - dh, delta, sys, env)
    ) / (2.0 * dh * sys.bandwidth_w)
    return SumRateDerivative(analytic=analytic, finite_difference=fd)
