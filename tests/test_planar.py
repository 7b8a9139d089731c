"""Planar primitives: hulls, paths, configurations and near-edges."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from tripoly.planar import (
    Configuration,
    NearEdge,
    convex_polygon_points,
    convex_profile,
    extremal_points,
    factorize,
    hull_host,
    load_points,
    lower_hull,
    on_segment,
    order_type_equivalent,
    orient,
    parse_points,
    path_corners,
    point_on_path,
    point_vs_path,
    profile_realization,
    sweep_key,
    upper_hull,
    vertical_mirror,
)

from corpus import CATALOG_FACTOR_COUNTS, CATALOG_HEIGHTS, EDGE_A, SQUEEZE, catalog_edge
from reference import all_pairs_factorize

points_st = st.tuples(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


class TestOrient:
    def test_signs(self):
        assert orient((0, 0), (1, 0), (0, 1)) == 1
        assert orient((0, 0), (1, 0), (0, -1)) == -1
        assert orient((0, 0), (1, 0), (2, 0)) == 0

    @given(points_st, points_st, points_st)
    def test_antisymmetry(self, a, b, c):
        assert orient(a, b, c) == -orient(b, a, c)
        assert orient(a, b, c) == orient(b, c, a)


class TestSweepOrder:
    def test_key_orders_left_to_right_top_to_bottom(self):
        pts = [(1, 0), (0, 1), (0, 3), (2, 5)]
        assert sorted(pts, key=sweep_key) == [(0, 3), (0, 1), (1, 0), (2, 5)]

    def test_compare(self):
        assert sweep_key((0, 3)) < sweep_key((0, 1))
        assert sweep_key((1, 9)) > sweep_key((0, 0))


class TestHulls:
    def test_square_with_center(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
        assert lower_hull(pts) == ((0, 2), (0, 0), (2, 0))
        assert upper_hull(pts) == ((0, 2), (2, 2), (2, 0))
        assert extremal_points(pts) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_collinear_interior_points_are_not_corners(self):
        pts = [(0, 0), (1, 0), (2, 0), (1, 1)]
        assert lower_hull(pts) == ((0, 0), (2, 0))
        assert extremal_points(pts) == {(0, 0), (2, 0), (1, 1)}

    def test_all_collinear(self):
        pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert extremal_points(pts) == {(0, 0), (3, 3)}

    def test_vertical_and_horizontal_runs(self):
        # a vertical run sorts top down in sweep order
        assert extremal_points([(1, 2), (1, 0), (1, 3), (1, 1)]) == {(1, 3), (1, 0)}
        assert extremal_points([(2, 5), (0, 5), (1, 5)]) == {(0, 5), (2, 5)}
        assert extremal_points([(4, 4), (4, 4), (4, 7)]) == {(4, 7), (4, 4)}

    def test_empty_and_single_point_sets(self):
        assert extremal_points([]) == set()
        assert extremal_points([(3, -1)]) == {(3, -1)}
        assert extremal_points([(3, -1), (3, -1)]) == {(3, -1)}

    def test_hull_host(self):
        cfg = Configuration([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
        assert hull_host(cfg) == (
            ((0, 2), (0, 0), (1, 1), (2, 2), (2, 0)),
            ((0, 2), (0, 0), (2, 0)),
            ((0, 2), (2, 2), (2, 0)),
        )

    def test_near_edge_boundaries(self):
        e = NearEdge(EDGE_A)
        assert lower_hull(e.points) == ((0, 0), (2, -1), (4, -1), (5, 0))
        assert upper_hull(e.points) == ((0, 0), (1, 1), (3, 1), (5, 0))

    @given(st.lists(points_st, min_size=1, max_size=12, unique=True))
    def test_extremal_points_are_hull_points(self, pts):
        assert extremal_points(pts) <= set(pts)


class TestSegmentsAndPaths:
    def test_on_segment(self):
        assert on_segment((1, 1), (0, 0), (2, 2))
        assert on_segment((0, 0), (0, 0), (2, 2))
        assert not on_segment((3, 3), (0, 0), (2, 2))
        assert not on_segment((1, 0), (0, 0), (2, 2))

    def test_point_on_path(self):
        path = ((0, 0), (2, 0), (4, 2))
        assert point_on_path((1, 0), path)
        assert point_on_path((3, 1), path)
        assert not point_on_path((1, 1), path)

    def test_point_vs_path(self):
        path = ((0, 0), (2, 0), (4, 2))
        assert point_vs_path((1, 1), path) == 1
        assert point_vs_path((1, -1), path) == -1
        assert point_vs_path((1, 0), path) == 0
        assert point_vs_path((3, 1), path) == 0

    def test_point_vs_path_vertical_segment(self):
        path = ((0, 2), (0, 0), (2, 0))
        assert point_vs_path((0, 3), path) == 1
        assert point_vs_path((0, -1), path) == -1
        assert point_vs_path((0, 1), path) == 0

    def test_point_vs_path_outside_range(self):
        with pytest.raises(ValueError):
            point_vs_path((5, 0), ((0, 0), (2, 0)))

    def test_path_corners(self):
        path = ((0, 0), (1, 0), (2, 0), (3, 1), (4, 2))
        assert path_corners(path) == ((0, 0), (2, 0), (4, 2))
        assert path_corners(((0, 0), (1, 1))) == ((0, 0), (1, 1))
        # a vertical run
        path = ((0, 3), (0, 2), (0, 0), (2, 0))
        assert path_corners(path) == ((0, 3), (0, 0), (2, 0))
        # a run of five points
        path = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 3))
        assert path_corners(path) == ((0, 0), (4, 4), (5, 3))
        # runs at both ends
        path = ((0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (5, 3))
        assert path_corners(path) == ((0, 0), (2, 0), (5, 3))
        # two runs meeting at a corner in the middle
        path = ((0, 2), (1, 1), (2, 0), (3, 1), (4, 2), (5, 2), (6, 2))
        assert path_corners(path) == ((0, 2), (2, 0), (4, 2), (6, 2))
        # every point on one line
        path = ((0, 0), (1, 2), (2, 4), (3, 6))
        assert path_corners(path) == ((0, 0), (3, 6))


class TestConfiguration:
    def test_sweep_sorted_storage(self):
        c = Configuration([(1, 0), (0, 1), (0, 3)])
        assert c.points == ((0, 3), (0, 1), (1, 0))
        assert len(c) == 3
        assert list(c) == list(c.points)

    def test_input_order_is_irrelevant(self):
        a = Configuration(SQUEEZE)
        b = Configuration(reversed(SQUEEZE))
        assert a == b
        assert hash(a) == hash(b)

    def test_repeated_points_raise(self):
        with pytest.raises(ValueError, match="repeated"):
            Configuration([(0, 0), (0, 0)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Configuration([])

    def test_non_integer_coordinates_raise(self):
        # a float coordinate used to be truncated: 1.7 became 1
        with pytest.raises(ValueError, match="coordinate 1.7 is not an integer"):
            Configuration([(0, 0), (1.7, 0), (0, 2)])
        with pytest.raises(ValueError, match="coordinate '2' is not an integer"):
            Configuration([(0, 0), (1, 0), (0, "2")])

    def test_boundaries_and_extremal(self):
        c = Configuration([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
        assert c.lower_boundary() == lower_hull(c.points) == ((0, 2), (0, 0), (2, 0))
        assert c.upper_boundary() == upper_hull(c.points) == ((0, 2), (2, 2), (2, 0))
        assert extremal_points(c.points) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_all_collinear(self):
        assert Configuration([(0, 0), (1, 1), (2, 2)]).all_collinear()
        assert Configuration([(0, 0), (1, 1)]).all_collinear()
        assert not Configuration([(0, 0), (1, 1), (2, 0)]).all_collinear()


class TestNearEdge:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            NearEdge([(0, 0)])

    def test_non_integer_coordinates_raise(self):
        # float coordinates used to be truncated to ((0,0),(1,1),(2,0))
        with pytest.raises(ValueError, match="coordinate 1.5 is not an integer"):
            NearEdge([(0, 0), (1.5, 1), (2.9, 0)])

    def test_abscissas_must_increase(self):
        with pytest.raises(ValueError):
            NearEdge([(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            NearEdge([(1, 0), (0, 0)])

    def test_weight(self):
        assert NearEdge(EDGE_A).weight == 5
        assert NearEdge([(0, 0), (7, 0)]).weight == 1

    def test_is_straight_and_convex(self):
        assert NearEdge([(0, 0), (1, 0), (2, 0)]).is_straight()
        assert not NearEdge(EDGE_A).is_straight()
        assert NearEdge(EDGE_A).is_convex()
        assert not NearEdge([(0, 0), (1, 0), (2, 0)]).is_convex()

    def test_translate_to_origin(self):
        e = NearEdge([(3, 2), (4, 5)]).translate_to_origin()
        assert e.points == ((0, 0), (1, 3))

    def test_mirror_keeps_abscissa_range(self):
        e = NearEdge(EDGE_A)
        m = vertical_mirror(e)
        assert m.points[0][0] == e.points[0][0]
        assert m.points[-1][0] == e.points[-1][0]
        assert m.points == ((0, 0), (1, -1), (2, 1), (3, -1), (4, 1), (5, 0))
        assert vertical_mirror(m) == e

    def test_built_from_any_iterable(self):
        e = NearEdge(EDGE_A)
        assert e.points == EDGE_A
        assert NearEdge(list(EDGE_A)) == e == NearEdge(iter(EDGE_A))


class TestConvexProfile:
    def test_zigzag_profile(self):
        assert convex_profile(NearEdge(EDGE_A)) == (1, -1, 1, -1)

    def test_two_point_edge_has_empty_profile(self):
        assert convex_profile(NearEdge([(0, 0), (3, 1)])) == ()

    def test_non_convex_edges_have_none(self):
        assert convex_profile(NearEdge([(0, 0), (1, 0), (2, 0)])) is None
        assert convex_profile(NearEdge([(0, 0), (1, 1), (2, 3), (3, 0)])) is None

    def test_realization_round_trip(self):
        for profile in [(1,), (-1,), (1, -1), (-1, -1, 1), (1, 1, 1, -1)]:
            edge = profile_realization(profile)
            assert convex_profile(edge) == profile

    def test_realization_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            profile_realization((1, 0))

    @given(st.lists(st.sampled_from([1, -1]), max_size=6))
    def test_realization_is_always_convex(self, profile):
        edge = profile_realization(profile)
        assert edge.is_convex()
        assert edge.weight == len(profile) + 1


class TestFactorize:
    def test_prime_edges_do_not_split(self):
        assert factorize(NearEdge(EDGE_A)) == [NearEdge(EDGE_A)]

    def test_catalog_factor_counts(self):
        for key, count in CATALOG_FACTOR_COUNTS.items():
            assert len(factorize(catalog_edge(key))) == count, key

    def test_factor_heights(self):
        low = factorize(catalog_edge((3, 6)))
        assert [f.points for f in low] == [
            ((0, 0), (1, -3)),
            ((0, 0), (1, 2), (2, 3)),
        ]
        run = factorize(catalog_edge((3, 10)))
        assert [f.points for f in run] == [
            ((0, 0), (1, -1), (2, -2)),
            ((0, 0), (1, 2)),
        ]

    def test_factors_start_at_origin_and_chain(self):
        for key in CATALOG_HEIGHTS:
            factors = factorize(catalog_edge(key))
            assert all(f.points[0] == (0, 0) for f in factors)
            assert sum(f.weight for f in factors) == catalog_edge(key).weight

    def test_consecutive_pairs_match_all_pairs(self):
        # noise from small ranges puts many points on one line (collinear
        # runs on and off the chord, straight edges at span 0); an upward
        # bend makes edges of many factors
        rng = random.Random(60)
        several = 0
        for trial in range(1500):
            n = rng.randrange(2, 11)
            span, bend = rng.choice((0, 1, 2, 4)), rng.choice((0, 1, 2, 4))
            xs = sorted(rng.sample(range(3 * n), n))
            pts = [(x, rng.randint(-span, span) + bend * x * x // (3 * n)) for x in xs]
            if trial % 3 == 0:
                pts = [(x * 10**40, y * 10**40) for x, y in pts]
            edge = NearEdge(pts)
            want = all_pairs_factorize(edge)
            assert factorize(edge) == want, pts
            several += len(want) > 1
        assert several > 600


class TestOrderType:
    def test_identity(self):
        assert order_type_equivalent(EDGE_A, EDGE_A)

    def test_scaling_preserves_order_type(self):
        doubled = [(2 * x, 2 * y) for x, y in EDGE_A]
        assert order_type_equivalent(EDGE_A, doubled)

    def test_reflection_changes_order_type(self):
        flipped = [(x, -y) for x, y in EDGE_A]
        assert not order_type_equivalent(EDGE_A, flipped)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            order_type_equivalent([(0, 0)], [(0, 0), (1, 1)])


class TestConvexPolygonPoints:
    def test_small_polygons_are_strictly_convex(self):
        for l in (3, 4, 5, 7, 12):
            pts = convex_polygon_points(l)
            assert len(pts) == l
            assert len(set(pts)) == l
            assert extremal_points(pts) == set(pts)
            assert all(
                orient(pts[i], pts[(i + 1) % l], pts[(i + 2) % l]) > 0
                for i in range(l)
            )

    def test_too_few_corners(self):
        with pytest.raises(ValueError):
            convex_polygon_points(2)


class TestPointIO:
    def test_parse_basic(self):
        assert parse_points("0 0\n1 2\n") == [(0, 0), (1, 2)]

    def test_parse_commas_and_comments(self):
        text = "# header\n0, 0\n1,2  # inline\n\n3 4\n"
        assert parse_points(text) == [(0, 0), (1, 2), (3, 4)]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_points("0 0\n1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_points("a b\n")

    def test_parse_only_signed_ascii_digits(self):
        assert parse_points("+1 -2\n-0 007\n") == [(1, -2), (0, 7)]
        # int() reads the first two as (10, 1) and (1, 1)
        for line in ("1_0 1", "\u0661 1", "+-1 2", "1.0 2", "1 \u00b2"):
            with pytest.raises(ValueError) as err:
                parse_points(f"0 0\n{line}\n")
            assert str(err.value) == f"line 2: coordinates must be integers: {line!r}"

    def test_load_points(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0 0\n5 -3\n")
        assert load_points(str(path)) == [(0, 0), (5, -3)]

    def test_load_points_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0 0\n5 -3\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_points(str(path)) == [(0, 0), (5, -3)]
