"""Brute-force oracle: independent counts and agreement with the fast routes."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tripoly.exactmath import PolyS, catalan
from tripoly.oracle import (
    GuardExceeded,
    oracle_complete_poly,
    oracle_region_poly,
    point_in_closed_triangle,
    segments_conflict,
)
from tripoly.planar import Configuration, convex_polygon_points
from tripoly.transfer import complete_config_poly, max_config_count, region_poly
from tripoly.weighted import weighted_complete_poly, weighted_polygon_config

from corpus import (
    COLLINEAR_RUN,
    COLLINEAR_RUN_POLY,
    COLUMNS11,
    COLUMNS11_POLY,
    PENTAGON_POLY,
    QUAD,
    SQUEEZE,
    SQUEEZE_CEILING,
    SQUEEZE_FLOOR,
    TRIANGLE_PLUS_CENTER,
    small_configs,
)


class TestSegmentsConflict:
    def test_proper_crossing(self):
        assert segments_conflict((0, 0), (2, 2), (0, 2), (2, 0))

    def test_shared_endpoint_only(self):
        assert not segments_conflict((0, 0), (2, 2), (2, 2), (4, 0))

    def test_endpoint_touching_an_interior_point(self):
        assert segments_conflict((0, 0), (4, 0), (2, 0), (2, 3))
        assert segments_conflict((0, 0), (4, 0), (2, -3), (2, 3))

    def test_collinear_overlap(self):
        assert segments_conflict((0, 0), (3, 0), (1, 0), (5, 0))
        assert segments_conflict((0, 0), (4, 0), (1, 0), (3, 0))

    def test_collinear_meeting_at_an_endpoint(self):
        assert not segments_conflict((0, 0), (2, 0), (2, 0), (5, 0))

    def test_same_segment_twice(self):
        assert segments_conflict((0, 0), (2, 2), (0, 0), (2, 2))
        assert segments_conflict((0, 0), (2, 2), (2, 2), (0, 0))

    def test_disjoint(self):
        assert not segments_conflict((0, 0), (1, 0), (0, 1), (1, 1))
        assert not segments_conflict((0, 0), (1, 1), (3, 0), (4, 4))


class TestPointInClosedTriangle:
    def test_interior_boundary_and_outside(self):
        a, b, c = (0, 0), (4, 0), (0, 4)
        assert point_in_closed_triangle((1, 1), a, b, c)
        assert point_in_closed_triangle((2, 0), a, b, c)
        assert point_in_closed_triangle((2, 2), a, b, c)
        assert point_in_closed_triangle(a, a, b, c)
        assert not point_in_closed_triangle((3, 3), a, b, c)
        assert not point_in_closed_triangle((-1, 0), a, b, c)

    def test_degenerate_triangle(self):
        a, b, c = (0, 0), (2, 0), (4, 0)
        assert point_in_closed_triangle((3, 0), a, b, c)
        assert not point_in_closed_triangle((3, 1), a, b, c)

    def test_orientation_independent(self):
        a, b, c = (0, 0), (4, 0), (0, 4)
        assert point_in_closed_triangle((1, 1), a, c, b)


class TestGuard:
    def test_guard_is_a_runtime_error(self):
        assert issubclass(GuardExceeded, RuntimeError)

    def test_default_limit(self):
        cfg = Configuration([(i, 0) for i in range(13)])
        with pytest.raises(
            GuardExceeded, match=r"13 points exceed the brute-force limit 12"
        ):
            oracle_complete_poly(cfg)

    def test_guard_fires_before_degeneracy(self):
        # the same thirteen collinear points pass a raised limit and then
        # fail the degeneracy check instead
        cfg = Configuration([(i, 0) for i in range(13)])
        with pytest.raises(ValueError, match="non-collinear"):
            oracle_complete_poly(cfg, limit=13)

    def test_tightened_limit(self):
        cfg = Configuration(QUAD)
        with pytest.raises(GuardExceeded, match="limit 3"):
            oracle_complete_poly(cfg, limit=3)
        assert oracle_complete_poly(cfg, limit=4).c == {4: 2}

    def test_region_guard_counts_participants(self):
        cfg = Configuration(SQUEEZE)
        with pytest.raises(
            GuardExceeded, match=r"8 points exceed the brute-force limit 5"
        ):
            oracle_region_poly(cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING, limit=5)


class TestHullRefusal:
    """The oracle and the transfer routes refuse a degenerate hull by the
    one check of :func:`tripoly.planar.hull_host`."""

    @pytest.mark.parametrize(
        "count", [complete_config_poly, max_config_count, oracle_complete_poly]
    )
    @pytest.mark.parametrize("pts", [[(0, 0), (1, 2), (2, 4)], [(0, 0), (1, 1)]])
    def test_same_message_everywhere(self, count, pts):
        with pytest.raises(ValueError) as info:
            count(Configuration(pts))
        assert str(info.value) == (
            "the configuration must have at least three non-collinear points"
        )


class TestCompleteOracle:
    def test_quad(self):
        assert oracle_complete_poly(Configuration(QUAD)).c == {4: 2}

    def test_triangle_with_an_interior_point(self):
        cfg = Configuration(TRIANGLE_PLUS_CENTER)
        assert oracle_complete_poly(cfg).c == {3: 1, 4: 1}

    def test_collinear_run(self):
        cfg = Configuration(COLLINEAR_RUN)
        assert oracle_complete_poly(cfg).c == COLLINEAR_RUN_POLY

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError, match="non-collinear"):
            oracle_complete_poly(Configuration([(0, 0), (1, 0), (2, 0)]))

    def test_columns(self):
        cfg = Configuration(COLUMNS11)
        assert oracle_complete_poly(cfg).c == COLUMNS11_POLY

    def test_agrees_with_the_transfer_route_on_small_configs(self):
        for pts in small_configs():
            cfg = Configuration(pts)
            assert oracle_complete_poly(cfg).c == complete_config_poly(cfg).c, pts

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=4,
            max_size=6,
            unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_agreement_with_the_transfer_route(self, pts):
        cfg = Configuration(pts)
        if cfg.all_collinear():
            return
        assert oracle_complete_poly(cfg).c == complete_config_poly(cfg).c


class TestRegionOracle:
    def test_squeeze_region(self):
        cfg = Configuration(SQUEEZE)
        got = oracle_region_poly(cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING)
        assert got.c == {8: 12, 7: 16, 6: 5}
        assert got.c == region_poly(cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING).c

    def test_flat_region(self):
        cfg = Configuration(SQUEEZE)
        for route in (oracle_region_poly, region_poly):
            with pytest.raises(ValueError, match="same corners"):
                route(cfg, (0, 1), (0, 1))

    def test_full_region_equals_the_complete_polynomial(self):
        cfg = Configuration(COLLINEAR_RUN)
        lower = tuple(cfg.points.index(p) for p in cfg.lower_boundary())
        upper = tuple(cfg.points.index(p) for p in cfg.upper_boundary())
        assert oracle_region_poly(cfg, lower, upper).c == COLLINEAR_RUN_POLY

    def test_agrees_with_the_transfer_route_on_sub_regions(self):
        cfg = Configuration(SQUEEZE)
        for floor, ceiling in [
            ((0, 1, 7), (0, 3, 7)),
            ((0, 4, 7), (0, 2, 3, 5, 6, 7)),
            ((0, 1, 7), (0, 4, 7)),
        ]:
            assert (
                oracle_region_poly(cfg, floor, ceiling).c
                == region_poly(cfg, floor, ceiling).c
            ), (floor, ceiling)

    def test_path_validation(self):
        cfg = Configuration(SQUEEZE)
        with pytest.raises(ValueError, match="floor path needs at least two"):
            oracle_region_poly(cfg, (0,), SQUEEZE_CEILING)
        with pytest.raises(ValueError, match="ceiling path index out of range"):
            oracle_region_poly(cfg, SQUEEZE_FLOOR, (0, 99))
        with pytest.raises(ValueError, match="strictly increasing"):
            oracle_region_poly(cfg, (0, 1, 1, 7), SQUEEZE_CEILING)
        with pytest.raises(ValueError, match="share their endpoints"):
            oracle_region_poly(cfg, (0, 1, 7), (0, 2, 3))


@pytest.mark.slow
class TestSlowCrossChecks:
    def test_fifteen_point_pentagon(self):
        cfg = weighted_polygon_config((1, 5, 2, 3, 4))
        assert len(cfg) == 15
        got = oracle_complete_poly(cfg, limit=15)
        assert got.c == PENTAGON_POLY
        assert got.c == weighted_complete_poly((1, 5, 2, 3, 4)).c

    def test_convex_thirteen_gon(self):
        cfg = Configuration(convex_polygon_points(13))
        got = oracle_complete_poly(cfg, limit=13)
        assert max(got.c, default=-1) == 13
        assert got.leading() == catalan(11) == 58786
        assert got.c == weighted_complete_poly((1,) * 13).c
