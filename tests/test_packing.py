import math

import pytest
from hypothesis import given, settings, strategies as st

from aapdeploy import packing
from aapdeploy.errors import InfeasibleError


def test_three_circle_ratio_constant():
    assert packing.THREE_CIRCLE_RATIO == pytest.approx(
        1.0 + 1.0 / math.cos(math.radians(30.0)), rel=1e-15
    )
    assert packing.THREE_CIRCLE_RATIO == pytest.approx(2.1547, abs=1e-4)


def test_polygon_half_angle_examples():
    assert packing.polygon_half_angle(3) == pytest.approx(math.pi / 6.0)
    assert packing.polygon_half_angle(4) == pytest.approx(math.pi / 4.0)
    assert packing.polygon_half_angle(6) == pytest.approx(math.pi / 3.0)
    with pytest.raises(ValueError):
        packing.polygon_half_angle(2)


def test_bracket_hand_value_n3():
    # theta = pi/6, alpha = pi/3
    theta = math.pi / 6.0
    alpha = math.pi / 3.0
    expected = (
        math.pi
        + alpha * (1.0 + 2.0 / math.sqrt(3.0)) ** 2
        - math.sqrt(3.0) * (math.pi + 2.0 * alpha) / math.pi
        - theta
    )
    assert packing.prop2_bracket(3) == pytest.approx(expected, rel=1e-15)
    assert packing.prop2_bracket(3) == pytest.approx(4.5931, abs=1e-4)


def test_bracket_hand_value_n4():
    theta = math.pi / 4.0
    alpha = math.pi / 4.0
    expected = (
        math.pi
        + alpha * (1.0 + math.sqrt(2.0)) ** 2
        - math.sqrt(3.0) * (math.pi + 2.0 * alpha) / math.pi
        - theta
    )
    assert packing.prop2_bracket(4) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("n", range(3, 51))
def test_void_identity(n):
    # pi + V_e + V_c recomposes the per-circle area budget exactly
    total = math.pi + packing.void_edge(n) + packing.void_center(n)
    assert total == pytest.approx(packing.prop2_bracket(n), abs=1e-12)


@pytest.mark.parametrize("n", range(3, 51))
def test_voids_positive(n):
    assert packing.void_edge(n) > 0.0
    assert packing.void_center(n) > 0.0


def test_void_center_closed_form():
    # tan(theta) - theta with theta = pi/6
    assert packing.void_center(3) == pytest.approx(
        1.0 / math.sqrt(3.0) - math.pi / 6.0, rel=1e-15
    )


@pytest.mark.parametrize(
    "ratio,expected",
    [
        (1.5, 1),
        (2.1, 2),
        (2.16, 3),
        (3.0, 6),
        (0.5, 0),
    ],
)
def test_max_count_examples(ratio, expected):
    assert packing.ring_count(ratio, 1.0)[0] == expected


def test_max_count_scale_invariance():
    for scale in (0.01, 1.0, 38.57, 1e4):
        assert packing.ring_count(3.0 * scale, scale)[0] == 6


def test_count_bounds_respect_geometry():
    for ratio in (2.2, 3.0, 4.5, 7.7, 10.0):
        bounds = packing.count_bounds(ratio, 1.0)
        n = min(bounds.area_bound, bounds.geometric_bound)
        # chord between adjacent centres must fit two radii
        chord = 2.0 * (ratio - 1.0) * math.sin(math.pi / n)
        assert chord >= 2.0 * (1.0 - 1e-9)


def reference_area_bound(ring_radius, r_a):
    """The linear count scan: raise n from 3 while the next count fits."""
    budget = math.pi * (ring_radius / r_a) ** 2 * (1.0 + 1e-12)
    n = 3
    while (n + 1) * packing.prop2_bracket(n + 1) <= budget:
        n += 1
    return n


def _edge_ratios(n):
    """Ring ratios at the float edge where the area bound reaches n."""
    edge = math.sqrt(n * packing.prop2_bracket(n) / (math.pi * (1.0 + 1e-12)))
    below = math.nextafter(edge, 0.0)
    return [math.nextafter(below, 0.0), below, edge, math.nextafter(edge, math.inf)]


@pytest.mark.parametrize("n_range", [range(3, 200), range(200, 1000, 7)])
def test_area_bound_equals_the_linear_scan_at_every_edge(n_range):
    # n up to 1000 covers ring ratios up to about 300.
    for n in n_range:
        for ratio in _edge_ratios(n):
            if ratio >= packing.THREE_CIRCLE_RATIO:
                assert packing.count_bounds(ratio, 1.0).area_bound == (
                    reference_area_bound(ratio, 1.0)
                )


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=packing.THREE_CIRCLE_RATIO, max_value=300.0),
    st.floats(min_value=0.01, max_value=500.0),
)
def test_area_bound_equals_the_linear_scan(ratio, r_a):
    ring = ratio * r_a
    if ring >= packing.THREE_CIRCLE_RATIO * r_a:
        assert packing.count_bounds(ring, r_a).area_bound == (
            reference_area_bound(ring, r_a)
        )


def test_gold_case_three_to_one():
    # R = 3 r_a: outer hexagon ring plus a single centre circle
    plan = packing.run_algorithm1(3.0, 1.0)
    assert [level.count for level in plan.levels] == [6, 1]
    assert plan.total_aaps == 7
    assert plan.packing_density == pytest.approx(7.0 / 9.0, abs=1e-12)
    assert plan.feasibility.all_ok
    # tangency: adjacent outer circles touch to within geometric tolerance
    assert abs(plan.feasibility.worst_pairwise_margin) < 1e-9


def test_two_circle_terminal_ring():
    # ratio just below the three-circle threshold after one shrink step
    plan = packing.run_algorithm1(2.1, 1.0)
    assert [level.count for level in plan.levels] == [2]
    (c1, c2) = plan.levels[0].centers
    assert math.hypot(c1[0] - c2[0], c1[1] - c2[1]) == pytest.approx(2.2)


def test_single_circle_plan():
    plan = packing.run_algorithm1(1.2, 1.0)
    assert plan.total_aaps == 1
    assert plan.levels[0].centers == ((0.0, 0.0),)


def test_infeasible_when_area_too_small():
    with pytest.raises(InfeasibleError):
        packing.run_algorithm1(0.5, 1.0)
    with pytest.raises(ValueError):
        packing.run_algorithm1(3.0, 0.0)


def test_levels_shrink_by_two_radii():
    plan = packing.run_algorithm1(10.0, 1.0)
    rings = [level.ring_radius for level in plan.levels]
    for a, b in zip(rings, rings[1:]):
        assert b == pytest.approx(a - 2.0)


def test_verify_levels_detects_overlap():
    bad = packing.PackingLevel(
        index=1,
        ring_radius=4.0,
        count=2,
        center_radius=0.5,
        centers=((0.5, 0.0), (-0.5, 0.0)),
    )
    report = packing.verify_levels([bad], 1.0, 4.0)
    assert not report.pairwise_ok
    assert report.worst_pairwise_margin == pytest.approx(-1.0)


def test_verify_levels_detects_containment_violation():
    bad = packing.PackingLevel(
        index=1,
        ring_radius=4.0,
        count=1,
        center_radius=3.8,
        centers=((3.8, 0.0),),
    )
    report = packing.verify_levels([bad], 1.0, 4.0)
    assert not report.containment_ok
    assert report.worst_containment_margin == pytest.approx(-0.8)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.0, max_value=12.0))
def test_plans_always_feasible(ratio):
    plan = packing.run_algorithm1(ratio, 1.0)
    report = packing.verify_levels(plan.levels, plan.r_a, plan.area_radius)
    assert report.all_ok
    assert plan.total_aaps >= 1
    assert plan.packing_density <= 1.0


def test_density_matches_definition():
    plan = packing.run_algorithm1(7.3, 1.0)
    assert plan.packing_density == pytest.approx(
        plan.total_aaps * 1.0 / 7.3**2, rel=1e-15
    )


# (count, area bound, geometric bound) of every level at R/R_a = ratio.
# Levels with two or fewer circles carry no bounds.
PINNED_LEVELS = [
    (1.0, [(1, None, None)]),
    (1.5, [(1, None, None)]),
    (2.0, [(2, None, None)]),
    (2.1, [(2, None, None)]),
    (packing.THREE_CIRCLE_RATIO, [(3, 3, 3)]),
    (2.16, [(3, 3, 3)]),
    (3.0, [(6, 6, 6), (1, None, None)]),
    (3.9, [(8, 9, 8), (1, None, None)]),
    (180.48 / 38.5724, [(11, 11, 11), (4, 5, 4)]),
    (10.0, [(28, 28, 28), (21, 22, 21), (15, 15, 15), (9, 9, 9), (2, None, None)]),
    (
        30.0,
        [(91, 91, 91), (84, 85, 84), (78, 78, 78), (72, 72, 72), (65, 66, 65),
         (59, 59, 59), (53, 53, 53), (47, 47, 47), (40, 41, 40), (34, 34, 34),
         (28, 28, 28), (21, 22, 21), (15, 15, 15), (9, 9, 9), (2, None, None)],
    ),
    (
        80.0,
        [(248, 248, 248), (241, 242, 241), (235, 235, 235), (229, 229, 229),
         (223, 223, 223), (216, 217, 216), (210, 210, 210), (204, 204, 204),
         (197, 198, 197), (191, 191, 191), (185, 185, 185), (179, 179, 179),
         (172, 173, 172), (166, 166, 166), (160, 160, 160), (153, 154, 153),
         (147, 147, 147), (141, 141, 141), (135, 135, 135), (128, 129, 128),
         (122, 122, 122), (116, 116, 116), (109, 110, 109), (103, 103, 103),
         (97, 97, 97), (91, 91, 91), (84, 85, 84), (78, 78, 78), (72, 72, 72),
         (65, 66, 65), (59, 59, 59), (53, 53, 53), (47, 47, 47), (40, 41, 40),
         (34, 34, 34), (28, 28, 28), (21, 22, 21), (15, 15, 15), (9, 9, 9),
         (2, None, None)],
    ),
]


@pytest.mark.parametrize("ratio,expected", PINNED_LEVELS)
def test_pinned_level_counts_and_bounds(ratio, expected):
    levels = packing._build_levels(ratio, 1.0)
    got = [
        (level.count, level.area_count_bound, level.geometric_count_bound)
        for level in levels
    ]
    assert got == expected
    assert packing.ring_count(ratio, 1.0)[0] == expected[0][0]


@pytest.mark.parametrize("r_a", [341.8936712461485, 0.1, 38.5724, 123.456789])
@pytest.mark.parametrize("ratio,last_count", [(3, 1), (5, 1), (7, 1), (4, 2), (6, 2), (8, 2)])
def test_whole_ratio_keeps_the_last_level(ratio, last_count, r_a):
    # R - 2 (l - 1) r_a can round just below r_a or 2 r_a; the last level
    # must still hold its centre circle or its opposite pair.
    plan = packing.run_algorithm1(ratio * r_a, r_a)
    assert plan.levels[-1].count == last_count
    assert plan.feasibility.all_ok


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=40.0),
    st.floats(min_value=0.01, max_value=500.0),
)
def test_levels_follow_the_count_rule(ratio, r_a):
    levels = packing._build_levels(ratio * r_a, r_a)
    for level in levels:
        assert level.count == packing.ring_count(level.ring_radius, r_a)[0]
        assert len(level.centers) == level.count
        if level.count >= 3:
            bounds = packing.count_bounds(level.ring_radius, r_a)
            assert level.area_count_bound == bounds.area_bound
            assert level.geometric_count_bound == bounds.geometric_bound
    next_ring = levels[-1].ring_radius - 2.0 * r_a
    assert packing.ring_count(next_ring, r_a)[0] == 0


def reference_report(levels, r_a, area_radius):
    """The brute-force verifier: math.hypot over all N (N - 1) / 2 pairs and
    over every centre against both the area radius and its ring radius."""
    tol = packing.GEOMETRY_REL_TOL * r_a
    centers = [(c, level.ring_radius) for level in levels for c in level.centers]

    worst_pair = math.inf
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            (xi, yi), _ = centers[i]
            (xj, yj), _ = centers[j]
            worst_pair = min(worst_pair, math.hypot(xi - xj, yi - yj) - 2.0 * r_a)

    worst_contain = math.inf
    for (x, y), ring in centers:
        norm = math.hypot(x, y)
        worst_contain = min(
            worst_contain, area_radius - norm - r_a, ring - norm - r_a
        )

    return packing.FeasibilityReport(
        pairwise_ok=worst_pair >= -tol,
        containment_ok=worst_contain >= -tol,
        worst_pairwise_margin=worst_pair if worst_pair != math.inf else 0.0,
        worst_containment_margin=worst_contain if worst_contain != math.inf else 0.0,
        tolerance=tol,
    )


def _level(centers, ring_radius=4.0):
    return packing.PackingLevel(
        index=1,
        ring_radius=ring_radius,
        count=len(centers),
        center_radius=0.0,
        centers=tuple(centers),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=30.0),
    st.floats(min_value=0.01, max_value=500.0),
)
def test_verifier_equals_the_pair_loop(ratio, r_a):
    # bit-identical margins: plan.json writes them at 12 significant digits
    levels = packing._build_levels(ratio * r_a, r_a)
    assert packing.verify_levels(levels, r_a, ratio * r_a) == reference_report(
        levels, r_a, ratio * r_a
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-6.0, max_value=6.0),
            st.floats(min_value=-6.0, max_value=6.0),
        ),
        max_size=40,
    ),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_verifier_equals_the_pair_loop_on_any_centres(points, r_a):
    levels = [_level(points[: len(points) // 2], 4.0), _level(points[len(points) // 2 :], 7.0)]
    assert packing.verify_levels(levels, r_a, 5.0) == reference_report(levels, r_a, 5.0)


@pytest.mark.parametrize(
    "centers,pairwise,containment",
    [
        # an overlap: centres 1.5 apart, circles of radius 1
        ([(0.0, 0.0), (1.5, 0.0), (0.0, 2.5)], -0.5, 0.5),
        # duplicate centres
        ([(1.0, 1.0), (-2.0, 0.5), (1.0, 1.0)], -2.0, 4.0 - math.hypot(-2.0, 0.5) - 1.0),
        # a single centre: no pair
        ([(0.5, 0.0)], 0.0, 2.5),
        # no centre
        ([], 0.0, 0.0),
    ],
)
def test_verifier_hand_cases(centers, pairwise, containment):
    levels = [_level(centers)]
    report = packing.verify_levels(levels, 1.0, 4.0)
    assert report == reference_report(levels, 1.0, 4.0)
    assert report.worst_pairwise_margin == pairwise
    assert report.worst_containment_margin == pytest.approx(containment, abs=1e-15)
    assert report.pairwise_ok == (len(centers) < 2 or pairwise >= 0)


@pytest.mark.parametrize("r_a", [0.1, 38.5724, 341.8936712461485])
def test_duplicate_centres_give_minus_two_radii(r_a):
    centers = [(3.0 * r_a, 0.0), (0.0, 0.0), (3.0 * r_a, 0.0)]
    report = packing.verify_levels([_level(centers, 5.0 * r_a)], r_a, 5.0 * r_a)
    assert report.worst_pairwise_margin == -2.0 * r_a
    assert not report.pairwise_ok


def test_verifier_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        packing.verify_levels([_level([(0.0, 0.0), (3.0, 0.0)])], 0.0, 4.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=packing.THREE_CIRCLE_RATIO, max_value=60.0),
    st.floats(min_value=0.01, max_value=500.0),
)
def test_verifier_agrees_with_the_adjacent_chord(ratio, r_a):
    # Adjacent centres of an n-circle ring are 2 (R_l - r_a) sin(pi / n)
    # apart, a closed form independent of the neighbour search.
    plan = packing.run_algorithm1(ratio * r_a, r_a)
    tol = plan.feasibility.tolerance
    chord_margins = [
        2.0 * (level.ring_radius - r_a) * math.sin(math.pi / level.count) - 2.0 * r_a
        for level in plan.levels
        if level.count >= 3
    ]
    assert chord_margins
    assert min(chord_margins) >= -tol
    assert plan.feasibility.worst_pairwise_margin <= min(chord_margins) + 1e-9 * r_a


@pytest.mark.parametrize("ratio,total", [(100, 7828), (300, 70609)])
def test_fleet_scale_plans(ratio, total):
    # A pair loop would need minutes at 70,609 AAPs; the neighbour search
    # takes a fraction of a second.
    plan = packing.run_algorithm1(1000.0, 1000.0 / ratio)
    assert plan.total_aaps == total
    assert plan.feasibility.all_ok
