"""Multilevel regular-polygon circle packing for AAP placement.

Each level places equal circles of radius r_a tangent to the inside of the
current ring of radius R_l; the next ring has radius R_l - 2 r_a.  One count
rule (``ring_count``) gives every ring's count: 0, 1 or 2 below the
three-circle ratio 2.1547, otherwise the area (void-algebra) bound clamped by
the geometric pairwise-distance bound, so that emitted plans always satisfy
the non-overlap constraint.  Levels stop at the first ring with count 0.  A
plan stores its centres once, each level's as a read-only (n, 2) array built
in one vector pass; every count and its density derive from them.  Every
other length a record holds names its unit (``r_a_m``, ``ring_radius_m``,
``tolerance_m``, ...), so that its fields are ``plan.json``'s keys.

Every plan is re-verified by ``verify_levels``, a uniform-grid neighbour
search (the cell list of Bentley, Stanat and Williams, 1977) in numpy alone,
one pass of O(N log N) in the number of circles, that reports the same
margins as an np.hypot loop over every pair.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, InfeasibleError, PlannerError

# Smallest ring-to-circle radius ratio admitting three circles: 1 + sec(30 deg).
THREE_CIRCLE_RATIO = 1.0 + 1.0 / math.cos(math.pi / 6.0)

GEOMETRY_REL_TOL = 1e-9

# The neighbour grid of verify_levels.  A grid has at most GRID_MAX_CELLS
# cells per axis: cell keys stay far inside int64, a cell coordinate
# (x - lo) / cell stays finite, and its rounding, under
# GRID_MAX_CELLS * 2^-51 cells, stays below GRID_ROUNDING.  The same
# relative slack covers the few ulps between a computed distance and the
# true one.
GRID_MAX_CELLS = 2**20
GRID_ROUNDING = 1e-9

# Slack, in multiples of r_a, on the one- and two-circle thresholds of the
# count rule.  A ring R - 2 (l - 1) r_a that is exactly r_a or 2 r_a in real
# arithmetic can round a few ulps below it, which would drop the last
# level's circles at whole-number R/R_a.  Well inside GEOMETRY_REL_TOL, so the
# verifier still accepts the resulting plans.
RING_COUNT_SLACK = 1e-10

# Largest target-to-coverage radius ratio R / r_a that run_algorithm1 plans
# for: at most about 10^6 AAPs by area.  A larger ratio (a mistyped --ra or
# target radius) would build tens of millions of centres and exhaust memory.
MAX_AREA_RATIO = 1000.0


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


def count_bounds(ring_radius: float, r_a: float) -> tuple[int, int]:
    """The (area, geometric) count bounds for a ring of radius ring_radius (>= 2.1547 r_a)."""
    # The same comparison as ring_count's: the quotient ring_radius / r_a can
    # round below THREE_CIRCLE_RATIO where this product does not.
    if ring_radius < THREE_CIRCLE_RATIO * r_a:
        raise ValueError("ring too small for a three-circle level")
    ratio = ring_radius / r_a
    budget = math.pi * ratio**2 * (1.0 + 1e-12)
    # Largest n >= 3 (which always fits) with n * prop2_bracket(n) <= budget.
    # The product increases with n, and prop2_bracket(n) >= prop2_bracket(4)
    # for n >= 3 (checked to n = 8e5, past a ring at MAX_AREA_RATIO), so no n
    # above budget / prop2_bracket(4) fits.
    top = int(budget / prop2_bracket(4)) + 1
    n = bisect.bisect_right(range(top), budget, lo=4, key=lambda m: m * prop2_bracket(m)) - 1
    # Centres sit on a circle of radius ring_radius - r_a; adjacent chord
    # length 2 (ring_radius - r_a) sin(pi/n) must be >= 2 r_a.
    geometric = int(
        math.pi / math.asin(r_a / (ring_radius - r_a)) + GEOMETRY_REL_TOL
    )
    return n, geometric


def ring_count(ring_radius: float, r_a: float) -> tuple[int, tuple[int, int] | None]:
    """The count rule: circles of radius r_a placeable along a ring of the
    given radius (0 degenerate, 1 at the centre, 2 opposite, else the clamped
    area bound) and, for three or more, both count bounds."""
    if not r_a > 0:
        raise ValueError("circle radius must be strictly positive")
    if ring_radius >= THREE_CIRCLE_RATIO * r_a:
        bounds = count_bounds(ring_radius, r_a)
        return min(bounds), bounds
    ring = ring_radius + RING_COUNT_SLACK * r_a
    return int(ring >= r_a) + int(ring >= 2.0 * r_a), None


@dataclass(frozen=True)
class PackingLevel:
    """One ring of equally spaced circle centres, held as a read-only (n, 2)
    array of (x, y) rows, whatever sequence of pairs it is given."""

    index: int  # 1-based
    ring_radius_m: float
    center_radius_m: float
    centers: np.ndarray
    area_count_bound: int | None = None
    geometric_count_bound: int | None = None

    def __post_init__(self) -> None:
        centers = np.array(self.centers, dtype=float).reshape(-1, 2)
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    def __eq__(self, other: object) -> bool:
        # field by field, the centres by value: every float compared exactly
        return isinstance(other, PackingLevel) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @property
    def count(self) -> int:
        return len(self.centers)


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
    worst_pairwise_margin_m: float
    worst_containment_margin_m: float
    tolerance_m: float

    @property
    def all_ok(self) -> bool:
        return self.pairwise_ok and self.containment_ok


@dataclass(frozen=True)
class PlacementPlan:
    """Full multilevel placement with its feasibility report; the AAP count
    and the packing density total_aaps * r_a^2 / R^2 derive from the levels."""

    levels: tuple[PackingLevel, ...]
    r_a_m: float
    area_radius_m: float
    feasibility: FeasibilityReport

    @property
    def total_aaps(self) -> int:
        return sum(level.count for level in self.levels)

    @property
    def packing_density(self) -> float:
        r_a, radius = self.r_a_m, self.area_radius_m
        return self.total_aaps * (r_a * r_a) / (radius * radius)


def _level_centers(count: int, center_radius: float) -> np.ndarray:
    """Centre m at c (cos, sin)(2 pi m / n): numpy forms the angles by the
    scalar formula's operations in its order, and ``math`` takes cos and sin,
    so every float is the scalar formula's on any numpy build."""
    angles = (2.0 * math.pi * np.arange(count) / count).tolist()
    unit = np.array([list(map(math.cos, angles)), list(map(math.sin, angles))])
    return center_radius * unit.T


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
                ring_radius_m=ring,
                center_radius_m=center_radius,
                centers=_level_centers(count, center_radius),
                area_count_bound=area_bound,
                geometric_count_bound=geometric_bound,
            )
        )


def _grid_pairs(rel: np.ndarray, cell: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of the points in the same or in adjacent cells of
    a uniform grid, each unordered pair once.

    rel holds the points' (x, y) rows, shifted to be non-negative.  Every
    pair within cell / (1 + GRID_ROUNDING) of each other is among them.
    Cells are keyed row by row, so two runs of the sorted keys hold a
    point's partners: the later points of its own cell with the cell
    (1, 0), and the cells (-1, 1), (0, 1) and (1, 1) of the row ahead.
    """
    col, row = (rel / cell).astype(np.int64)  # truncation floors rel >= 0
    # A spare column, which holds no point, takes the neighbours past
    # either end of a row.
    width = int(col.max()) + 2
    keys = row * width + col
    order = keys.argsort(kind="stable")
    keys = keys[order]
    n = len(keys)
    starts = np.concatenate((np.arange(1, n + 1), keys.searchsorted(keys + (width - 1))))
    ends = keys.searchsorted(np.concatenate((keys + 1, keys + (width + 1))), "right")
    counts = ends - starts
    # The k-th pair of a run pairs its point with sorted position start + k.
    ranks = np.arange(counts.sum()) + (starts - counts.cumsum() + counts).repeat(counts)
    return np.tile(order, 2).repeat(counts), order[ranks]


def verify_levels(
    levels: Sequence[PackingLevel],
    r_a: float,
    area_radius: float,
) -> FeasibilityReport:
    """Check pairwise separation and containment for a set of levels.

    One np.hypot pass measures the candidate pairs of a uniform-grid
    neighbour search (a cell list), and one every centre's norm against the
    smaller of the area radius and its level's ring radius.  Rounding is
    monotone, so both margins are the same floats as the minima over every
    pair and every centre.

    The closest consecutive centres, d_up apart, bound the minimum pair
    distance, so cells a little wider than d_up hold every pair whose
    computed distance is at most d_up, the closest among them.  The cost is
    in that bound: centres whose consecutive pairs all lie far apart while
    many of them cluster together get a coarse grid, and the search is
    quadratic in the cluster.  A plan lists each ring's centres in angular
    order, so its d_up is a ring's chord.
    """
    if not r_a > 0:
        raise ValueError("circle radius must be strictly positive")
    tol = GEOMETRY_REL_TOL * r_a
    counts = [level.count for level in levels]
    n = sum(counts)
    xy = np.concatenate([np.empty((2, 0)), *(level.centers.T for level in levels)], axis=1)
    x, y = xy
    limit = np.repeat([min(area_radius, level.ring_radius_m) for level in levels], counts)

    worst_pair = worst_contain = math.inf
    # A cell coordinate, a distance or a norm of tiny values can underflow
    # to zero, which changes neither a cell nor a minimum.
    with np.errstate(under="ignore"):
        if n:
            worst_contain = float((limit - np.hypot(x, y)).min()) - r_a
        if n > 1:
            rel = xy - xy.min(axis=1, keepdims=True)
            d_up = float(np.hypot(x[1:] - x[:-1], y[1:] - y[:-1]).min())
            # r_a keeps the cell positive where d_up is zero
            cell = max(
                d_up * (1.0 + GRID_ROUNDING) ** 2,
                float(rel.max()) / GRID_MAX_CELLS,
                r_a,
            )
            i, j = _grid_pairs(rel, cell)
            worst_pair = float(np.hypot(x[i] - x[j], y[i] - y[j]).min()) - 2.0 * r_a

    return FeasibilityReport(
        pairwise_ok=worst_pair >= -tol,
        containment_ok=worst_contain >= -tol,
        worst_pairwise_margin_m=worst_pair if worst_pair != math.inf else 0.0,
        worst_containment_margin_m=worst_contain if worst_contain != math.inf else 0.0,
        tolerance_m=tol,
    )


def run_algorithm1(area_radius: float, r_a: float) -> PlacementPlan:
    """Multilevel regular-polygon placement of equal coverage circles.

    Levels shrink by 2 r_a per step; each multi-circle level's centres sit on
    a circle of radius R_l - r_a at uniform angles starting on the +x axis.
    A terminal ring smaller than 2.1547 r_a holds two diametrically opposite
    circles or a single one at the origin.  A ratio R / r_a above
    MAX_AREA_RATIO is refused before any level is built, and a plan that
    fails ``verify_levels`` raises PlannerError.
    """
    if not r_a > 0:
        raise ValueError("coverage radius must be strictly positive")
    if math.isnan(area_radius):
        raise ValueError("target radius must be a number, got nan")
    if not area_radius >= r_a:
        raise InfeasibleError(
            f"target radius {area_radius:g} m smaller than the coverage "
            f"radius {r_a:g} m"
        )
    if area_radius > MAX_AREA_RATIO * r_a:
        raise ConfigError(
            f"target radius {area_radius:g} m is more than {MAX_AREA_RATIO:g} "
            f"coverage radii ({r_a:g} m): too many AAPs to plan"
        )
    levels = _build_levels(area_radius, r_a)
    report = verify_levels(levels, r_a, area_radius)
    if not report.all_ok:
        raise PlannerError(
            f"plan for R={area_radius:g} m, R_a={r_a:g} m fails its own "
            f"verification: worst pairwise margin {report.worst_pairwise_margin_m:g} m, "
            f"containment margin {report.worst_containment_margin_m:g} m"
        )
    return PlacementPlan(
        levels=tuple(levels),
        r_a_m=r_a,
        area_radius_m=area_radius,
        feasibility=report,
    )
