"""Weighted convex polygons: closed forms, pairings and realizations."""
from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tripoly.exactmath import catalan, complete_edge_basis, edge_product_bound
from tripoly.planar import extremal_points
from tripoly.transfer import complete_config_poly, max_config_count
from tripoly.weighted import (
    digon_max_count,
    weighted_complete_poly,
    weighted_max_count,
    weighted_polygon_config,
)

from corpus import PENTAGON_POLY, TRIANGLE_POLY, straight_edge
from reference import (
    lcm_polygon_points,
    residue_max_count,
    substituted_complete_poly,
    substituted_max_count,
)

weights_st = st.lists(
    st.integers(min_value=1, max_value=3), min_size=2, max_size=5
)


class TestDigon:
    def test_binomial_form(self):
        assert digon_max_count(9, 7) == 792
        assert digon_max_count(2, 2) == 1
        assert digon_max_count(3, 3) == 2
        assert digon_max_count(2, 8) == 1

    def test_degenerate_weights(self):
        assert digon_max_count(0, 0) == 1
        assert digon_max_count(0, 4) == 0
        assert digon_max_count(1, 1) == 1
        assert digon_max_count(1, 6) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            digon_max_count(-1, 3)

    def test_symmetry(self):
        for a in range(0, 8):
            for b in range(0, 8):
                assert digon_max_count(a, b) == digon_max_count(b, a)

    @given(
        st.integers(min_value=3, max_value=12),
        st.integers(min_value=3, max_value=12),
    )
    def test_pascal_recurrence(self, a, b):
        assert digon_max_count(a, b) == digon_max_count(a - 1, b) + digon_max_count(
            a, b - 1
        )

    def test_matches_the_edge_basis_pairing(self):
        for a in range(1, 9):
            for b in range(1, 9):
                assert weighted_max_count((a, b)) == digon_max_count(a, b), (a, b)


class TestWeightedCounts:
    def test_pentagon(self):
        assert weighted_max_count((1, 5, 2, 3, 4)) == 8046

    def test_unit_polygons_count_polygon_triangulations(self):
        # all weights 1: plain convex polygons, counted by Catalan numbers
        for l in range(2, 10):
            assert weighted_max_count([1] * l) == catalan(l - 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two sides"):
            weighted_max_count((4,))
        with pytest.raises(ValueError, match=">= 1"):
            weighted_max_count((2, 0, 2))

    def test_non_integer_weights_raise(self):
        # a float weight used to be truncated: (2.7, 3, 3) counted (2, 3, 3)
        with pytest.raises(ValueError, match="side weight 2.7 is not an integer"):
            weighted_max_count((2.7, 3, 3))
        with pytest.raises(ValueError, match="side weight 1.5 is not an integer"):
            weighted_complete_poly((1, 1.5, 1))
        with pytest.raises(ValueError, match="side weight 2.0 is not an integer"):
            digon_max_count(2.0, 3)
        with pytest.raises(ValueError, match="side weight 2.5 is not an integer"):
            weighted_polygon_config((1, 2.5, 1))

    @given(weights_st)
    def test_permutation_invariance(self, ws):
        rev = list(reversed(ws))
        rot = ws[1:] + ws[:1]
        assert weighted_max_count(ws) == weighted_max_count(rev)
        assert weighted_max_count(ws) == weighted_max_count(rot)

    def test_hexagon_by_residue(self):
        ws = (20, 22, 17, 21, 20, 18)
        want = 75098475640700197827962587644701620676
        assert residue_max_count(ws) == want
        assert substituted_max_count(ws) == want
        assert weighted_max_count(ws) == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(1), st.integers(1, 25)), min_size=2, max_size=6
        )
    )
    def test_kernel_matches_the_residue(self, ws):
        # the residue shares no code with pair_edge_product
        assert weighted_max_count(ws) == residue_max_count(ws)

    def test_kernel_matches_the_z_substitution(self):
        # t = (1 + z)^2 / z turns both pairings into binomial sums that
        # share nothing with the edge basis or the packed fields; sums of
        # weights below 4 take the binomial series of a negative power
        rng = random.Random(35)
        for _ in range(1000):
            ws = [rng.randint(1, 9) for _ in range(rng.randint(2, 7))]
            assert weighted_max_count(ws) == substituted_max_count(ws), ws
        for _ in range(200):
            ws = [rng.randint(1, 7) for _ in range(rng.randint(2, 5))]
            assert weighted_complete_poly(ws).c == substituted_complete_poly(ws), ws
        for ws in ((1, 1), (1, 2), (2, 1, 1)):
            assert substituted_complete_poly(ws) == weighted_complete_poly(ws).c
        assert substituted_complete_poly((1, 5, 2, 3, 4)) == PENTAGON_POLY


class TestWeightedCompletePoly:
    def test_pentagon_polynomial(self):
        assert weighted_complete_poly((1, 5, 2, 3, 4)).c == PENTAGON_POLY

    def test_triangle_polynomial(self):
        assert weighted_complete_poly((5, 4, 5)).c == TRIANGLE_POLY

    def test_small_polygons(self):
        assert weighted_complete_poly((1, 1, 1)).c == {3: 1}
        assert weighted_complete_poly((1, 1, 1, 1)).c == {4: 2}

    def test_leading_is_the_maximal_count(self):
        for ws in ((1, 5, 2, 3, 4), (5, 4, 5), (2, 2, 2), (3, 1, 4)):
            poly = weighted_complete_poly(ws)
            assert poly.leading() == weighted_max_count(ws)

    def test_lowest_term_is_the_corner_polygon(self):
        for ws in ((1, 5, 2, 3, 4), (5, 4, 5), (2, 2, 2, 2)):
            poly = weighted_complete_poly(ws)
            assert min(poly.c) == len(ws)
            assert poly.c[len(ws)] == catalan(len(ws) - 2)

    def test_degree_counts_all_points(self):
        for ws in ((1, 5, 2, 3, 4), (5, 4, 5), (2, 2, 2)):
            poly = weighted_complete_poly(ws)
            assert max(poly.c, default=-1) == len(ws) + sum(w - 1 for w in ws)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two sides"):
            weighted_complete_poly(())
        with pytest.raises(ValueError, match=">= 1"):
            weighted_complete_poly((0, 3))

    def test_field_bound_is_the_l1_norm_of_the_complete_basis(self):
        for a in range(1, 31):
            norm = sum(map(abs, complete_edge_basis(a).c.values()))
            pbar = {(k, k): comb(a - 1, k - 1) for k in range(1, a + 1)}
            assert edge_product_bound([pbar]) == norm, a

    def test_hands_out_a_fresh_polynomial(self):
        first = weighted_complete_poly((2, 3, 2))
        first.c[99] = 7
        assert 99 not in weighted_complete_poly((2, 3, 2)).c

    @given(weights_st)
    def test_permutation_invariance(self, ws):
        assert (
            weighted_complete_poly(ws)
            == weighted_complete_poly(list(reversed(ws)))
            == weighted_complete_poly(ws[1:] + ws[:1])
        )


class TestRealization:
    def test_point_count(self):
        for ws in ((1, 2, 2), (2, 2, 2), (1, 1, 1, 2)):
            cfg = weighted_polygon_config(ws)
            assert len(cfg) == len(ws) + sum(w - 1 for w in ws)

    def test_corners_are_extremal_and_subdivisions_are_not(self):
        cfg = weighted_polygon_config((2, 3, 2))
        assert len(extremal_points(cfg.points)) == 3

    def test_needs_three_sides(self):
        with pytest.raises(ValueError, match="three sides"):
            weighted_polygon_config((4, 4))

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError, match=">= 1"):
            weighted_polygon_config((1, 1, 0))

    def test_points_are_a_positive_multiple_of_the_lcm_placement(self):
        # both split side i of one convex polygon into a_i equal parts,
        # so they can differ only by a common positive factor, which
        # keeps the sweep order: point k matches point k
        rng = random.Random(33)
        for i in range(60):
            ws = [rng.randint(1, 6) for _ in range(rng.randint(3, 7))]
            if i % 3 == 0:
                ws[rng.randrange(len(ws))] = 1
            got = weighted_polygon_config(ws).points
            want = lcm_polygon_points(ws).points
            assert len(got) == len(want), ws
            factor = Fraction(got[0][0], want[0][0])
            assert factor > 0, ws
            assert all(
                (gx, gy) == (factor * wx, factor * wy)
                for (gx, gy), (wx, wy) in zip(got, want)
            ), ws

    def test_realizations_agree_with_the_transfer_engine(self):
        for ws in ((1, 2, 2), (2, 2, 2), (1, 1, 1, 2), (1, 3, 2)):
            cfg = weighted_polygon_config(ws)
            assert complete_config_poly(cfg).c == weighted_complete_poly(ws).c, ws
            assert max_config_count(cfg) == weighted_max_count(ws), ws


class TestStraightEdge:
    def test_points(self):
        assert straight_edge(3).points == ((0, 0), (1, 0), (2, 0), (3, 0))
        assert straight_edge(1).points == ((0, 0), (1, 0))
