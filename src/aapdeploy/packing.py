"""Multilevel regular-polygon circle packing for AAP placement.

Each level places equal circles of radius r_a tangent to the inside of the
current ring of radius R_l; the next ring has radius R_l - 2 r_a.  One count
rule (``ring_count``) gives every ring's count: 0, 1 or 2 below the
three-circle ratio 2.1547, otherwise the area (void-algebra) bound clamped by
the geometric pairwise-distance bound, so that emitted plans always satisfy
the non-overlap constraint.  Levels stop at the first ring with count 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InfeasibleError

# Smallest ring-to-circle radius ratio admitting three circles: 1 + sec(30 deg).
THREE_CIRCLE_RATIO = 1.0 + 1.0 / math.cos(math.pi / 6.0)

GEOMETRY_REL_TOL = 1e-9

# Slack, in multiples of r_a, on the one- and two-circle thresholds of the
# count rule.  A ring R - 2 (l - 1) r_a that is exactly r_a or 2 r_a in real
# arithmetic can round a few ulps below it, which would drop the last
# level's circles at whole-number R/R_a.  Well inside GEOMETRY_REL_TOL, so the
# verifier still accepts the resulting plans.
RING_COUNT_SLACK = 1e-10


def polygon_half_angle(n: int) -> float:
    """Half interior angle theta = (n - 2) pi / (2 n) of the n-gon, radians."""
    if n < 3:
        raise ValueError("polygon requires at least 3 vertices")
    return (n - 2) * math.pi / (2.0 * n)


def prop2_bracket(n: int) -> float:
    """Per-circle area budget factor (multiples of r_a^2) for an n-circle ring.

    pi + alpha (1 + sec theta)^2 - sqrt(3) (pi + 2 alpha) / pi - theta with
    alpha = pi/2 - theta; positive for all n >= 3.
    """
    theta = polygon_half_angle(n)
    alpha = math.pi / 2.0 - theta
    return (
        math.pi
        + alpha * (1.0 + 1.0 / math.cos(theta)) ** 2
        - math.sqrt(3.0) * (math.pi + 2.0 * alpha) / math.pi
        - theta
    )


def void_edge(n: int) -> float:
    """Void area around one boundary circle, in multiples of r_a^2."""
    theta = polygon_half_angle(n)
    alpha = math.pi / 2.0 - theta
    return (
        alpha * (1.0 + 1.0 / math.cos(theta)) ** 2
        - math.tan(theta)
        - math.sqrt(3.0) * (math.pi + 2.0 * alpha) / math.pi
    )


def void_center(n: int) -> float:
    """Void area toward the ring centre per circle, in multiples of r_a^2."""
    theta = polygon_half_angle(n)
    return math.tan(theta) - theta


class LevelCountBounds(NamedTuple):
    """Area-budget and pairwise-distance bounds on a ring's circle count."""

    area_bound: int
    geometric_bound: int


def count_bounds(ring_radius: float, r_a: float) -> LevelCountBounds:
    """Both count bounds for a ring of radius ring_radius (>= 2.1547 r_a)."""
    ratio = ring_radius / r_a
    if ratio < THREE_CIRCLE_RATIO:
        raise ValueError("ring too small for a three-circle level")
    budget = math.pi * ratio**2 * (1.0 + 1e-12)
    n = 3
    while (n + 1) * prop2_bracket(n + 1) <= budget:
        n += 1
    # Centres sit on a circle of radius ring_radius - r_a; adjacent chord
    # length 2 (ring_radius - r_a) sin(pi/n) must be >= 2 r_a.
    geometric = int(
        math.pi / math.asin(r_a / (ring_radius - r_a)) + GEOMETRY_REL_TOL
    )
    return LevelCountBounds(area_bound=n, geometric_bound=geometric)


def ring_count(ring_radius: float, r_a: float) -> tuple[int, LevelCountBounds | None]:
    """The count rule: circles of radius r_a placeable along a ring of the
    given radius (0 degenerate, 1 at the centre, 2 opposite, else the clamped
    area bound) and, for three or more, both count bounds."""
    if r_a <= 0:
        raise ValueError("circle radius must be strictly positive")
    if ring_radius >= THREE_CIRCLE_RATIO * r_a:
        bounds = count_bounds(ring_radius, r_a)
        return min(bounds), bounds
    ring = ring_radius + RING_COUNT_SLACK * r_a
    return int(ring >= r_a) + int(ring >= 2.0 * r_a), None


def max_count_per_level(ring_radius: float, r_a: float) -> int:
    """Circle count of a ring under the count rule."""
    return ring_count(ring_radius, r_a)[0]


@dataclass(frozen=True)
class PackingLevel:
    """One ring of equally spaced circle centres."""

    index: int  # 1-based
    ring_radius: float
    count: int
    center_radius: float
    centers: tuple[tuple[float, float], ...]
    area_count_bound: int | None = None
    geometric_count_bound: int | None = None


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint check results for a placement plan.

    Margins are signed: negative means violated.  The pairwise margin is
    min over pairs of (distance - 2 r_a); the containment margin is min over
    centres of (limit radius - ||c|| - r_a), evaluated against both the outer
    area radius and each level's own ring radius.
    """

    pairwise_ok: bool
    containment_ok: bool
    worst_pairwise_margin: float
    worst_containment_margin: float
    tolerance: float

    @property
    def all_ok(self) -> bool:
        return self.pairwise_ok and self.containment_ok


@dataclass(frozen=True)
class PlacementPlan:
    """Full multilevel placement with its density and feasibility report."""

    levels: tuple[PackingLevel, ...]
    r_a: float
    area_radius: float
    total_aaps: int
    packing_density: float
    feasibility: FeasibilityReport


def _level_centers(count: int, center_radius: float) -> tuple[tuple[float, float], ...]:
    return tuple(
        (
            center_radius * math.cos(2.0 * math.pi * m / count),
            center_radius * math.sin(2.0 * math.pi * m / count),
        )
        for m in range(count)
    )


def _build_levels(area_radius: float, r_a: float) -> list[PackingLevel]:
    """Levels ring by ring until the first ring that holds no circle.  A ring
    with two or fewer circles is below 2.1547 r_a, so the next one is empty."""
    levels: list[PackingLevel] = []
    for index in itertools.count(1):
        ring = area_radius - 2.0 * (index - 1) * r_a
        count, bounds = ring_count(ring, r_a)
        if count == 0:
            return levels
        center_radius = ring - r_a if count > 1 else 0.0
        area_bound, geometric_bound = bounds or (None, None)
        levels.append(
            PackingLevel(
                index=index,
                ring_radius=ring,
                count=count,
                center_radius=center_radius,
                centers=_level_centers(count, center_radius),
                area_count_bound=area_bound,
                geometric_count_bound=geometric_bound,
            )
        )


def verify_levels(
    levels: Sequence[PackingLevel],
    r_a: float,
    area_radius: float,
    tolerance: float | None = None,
) -> FeasibilityReport:
    """Check pairwise separation and containment for a set of levels."""
    tol = GEOMETRY_REL_TOL * r_a if tolerance is None else tolerance
    centers = [(c, level.ring_radius) for level in levels for c in level.centers]

    worst_pair = math.inf
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            (xi, yi), _ = centers[i]
            (xj, yj), _ = centers[j]
            worst_pair = min(
                worst_pair, math.hypot(xi - xj, yi - yj) - 2.0 * r_a
            )

    worst_contain = math.inf
    for (x, y), ring in centers:
        norm = math.hypot(x, y)
        worst_contain = min(
            worst_contain,
            area_radius - norm - r_a,
            ring - norm - r_a,
        )

    return FeasibilityReport(
        pairwise_ok=worst_pair >= -tol,
        containment_ok=worst_contain >= -tol,
        worst_pairwise_margin=worst_pair if worst_pair != math.inf else 0.0,
        worst_containment_margin=worst_contain if worst_contain != math.inf else 0.0,
        tolerance=tol,
    )


def verify_plan(plan: PlacementPlan, tolerance: float | None = None) -> FeasibilityReport:
    """Re-run the feasibility checks on an existing plan."""
    return verify_levels(plan.levels, plan.r_a, plan.area_radius, tolerance)


def packing_density(total_aaps: int, r_a: float, area_radius: float) -> float:
    """Fraction of the target disk covered: total_aaps * r_a^2 / R^2."""
    return total_aaps * r_a**2 / area_radius**2


def run_algorithm1(area_radius: float, r_a: float) -> PlacementPlan:
    """Multilevel regular-polygon placement of equal coverage circles.

    Levels shrink by 2 r_a per step; each multi-circle level's centres sit on
    a circle of radius R_l - r_a at uniform angles starting on the +x axis.
    A terminal ring smaller than 2.1547 r_a holds two diametrically opposite
    circles or a single one at the origin.
    """
    if r_a <= 0:
        raise ValueError("coverage radius must be strictly positive")
    if area_radius < r_a:
        raise InfeasibleError(
            f"target radius {area_radius:g} m smaller than the coverage "
            f"radius {r_a:g} m"
        )
    levels = _build_levels(area_radius, r_a)
    total = sum(level.count for level in levels)
    report = verify_levels(levels, r_a, area_radius)
    return PlacementPlan(
        levels=tuple(levels),
        r_a=r_a,
        area_radius=area_radius,
        total_aaps=total,
        packing_density=packing_density(total, r_a, area_radius),
        feasibility=report,
    )
