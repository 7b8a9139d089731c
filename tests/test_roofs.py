"""Decorated roofs: codes, skylines, covering roofs and moves."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tripoly.planar import NearEdge, lower_hull
from tripoly.roofs import (
    DecoratedRoof,
    closed_triangle_empty,
    covering_roofs,
    decode,
    sub_edges,
    successors,
)

from corpus import EDGE8, EDGE12, EDGE_A
from reference import encode, is_covering, skyline_points

heights_st = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=6
)


def all_roofs(n):
    """Every decorated roof over P_0..P_n, by brute force."""
    from itertools import combinations

    out = []
    interior = range(1, n)
    for r in range(n):
        for mid in combinations(interior, r):
            idx = (0,) + mid + (n,)
            for d in range(len(idx) - 1):
                out.append(DecoratedRoof(idx, d))
    return out


class TestRender:
    def test_marked_segment_in_brackets(self):
        assert DecoratedRoof((0, 1, 4, 5), 1).render() == "(0 [1 4] 5)"
        assert DecoratedRoof((0, 1, 3, 6, 7), 2).render() == "(0 1 [3 6] 7)"
        assert DecoratedRoof((0, 5), 0).render() == "([0 5])"


class TestCodes:
    def test_pinned_codes(self):
        assert encode(DecoratedRoof((0, 2, 3, 5), 0), 5) == 6
        assert encode(DecoratedRoof((0, 1, 3, 4, 5), 2), 5) == 45
        assert encode(DecoratedRoof((0, 1, 3, 5), 0), 5) == 5
        assert encode(DecoratedRoof((0, 1, 4, 5), 1), 5) == 25

    def test_decode_is_inverse(self):
        for n in range(1, 7):
            for roof in all_roofs(n):
                code = encode(roof, n)
                assert decode(code, n) == roof

    def test_count_matches_enumeration(self):
        # decode accepts exactly the enumerated roofs' codes
        for n in range(1, 8):
            valid = 0
            for code in range(n << (n - 1)):
                try:
                    decode(code, n)
                except ValueError:
                    continue
                valid += 1
            assert valid == len(all_roofs(n)) == (n + 1) * (1 << (n - 1)) // 2

    def test_codes_are_not_contiguous(self):
        # the largest valid code exceeds the number of valid codes
        top = max(encode(r, 5) for r in all_roofs(5))
        assert top == 79
        assert len(all_roofs(5)) == 48

    def test_encode_validation(self):
        with pytest.raises(ValueError):
            encode(DecoratedRoof((1, 5), 0), 5)
        with pytest.raises(ValueError):
            encode(DecoratedRoof((0, 4), 0), 5)
        with pytest.raises(ValueError):
            encode(DecoratedRoof((0, 5), 1), 5)

    def test_decode_validation(self):
        with pytest.raises(ValueError):
            decode(-1, 5)
        with pytest.raises(ValueError):
            decode(16, 5)  # chord roof cannot carry marker 1


class TestSkyline:
    def test_skyline_points(self):
        roof = DecoratedRoof((0, 2, 5), 0)
        assert skyline_points(EDGE_A, roof) == ((0, 0), (2, -1), (5, 0))

    def test_skyline_points_of_a_near_edge_host(self):
        sky = ((0, 0), (2, -1), (5, 0))
        host = NearEdge(EDGE_A).points
        for d in (0, 1):
            assert skyline_points(host, DecoratedRoof((0, 2, 5), d)) == sky


class TestCovering:
    def test_is_covering(self):
        assert is_covering(EDGE_A, (0, 1, 3, 5))
        assert not is_covering(EDGE_A, (0, 5))
        assert not is_covering(EDGE_A, (0, 2, 4, 5))
        assert is_covering(EDGE_A, (0, 1, 2, 3, 4, 5))

    def test_covering_roofs_of_zigzag(self):
        assert covering_roofs(EDGE_A) == [
            (0, 1, 2, 3, 4, 5),
            (0, 1, 2, 3, 5),
            (0, 1, 3, 4, 5),
            (0, 1, 3, 5),
        ]

    def test_covering_roofs_all_cover(self):
        for pts in (EDGE_A, EDGE8, EDGE12):
            roofs = covering_roofs(pts)
            assert roofs
            assert all(is_covering(pts, idx) for idx in roofs)
            assert all(idx[0] == 0 and idx[-1] == len(pts) - 1 for idx in roofs)

    @given(heights_st)
    def test_covering_roofs_match_filtered_subsets(self, heights):
        from itertools import combinations

        pts = tuple(enumerate([0] + heights + [0]))
        n = len(pts) - 1
        expect = sorted(
            (0,) + mid + (n,)
            for r in range(n)
            for mid in combinations(range(1, n), r)
            if is_covering(pts, (0,) + mid + (n,))
        )
        assert sorted(covering_roofs(pts)) == expect


class TestSubEdges:
    def test_zigzag_sub_edges(self):
        assert sub_edges(EDGE_A) == [
            (0, 1, 2, 3, 4, 5),
            (0, 1, 2, 4, 5),
            (0, 2, 3, 4, 5),
            (0, 2, 4, 5),
        ]

    def test_eight_gap_edge_has_32(self):
        subs = sub_edges(EDGE8)
        assert len(subs) == 32
        assert (0, 1, 3, 4, 5, 7, 8) in subs

    def test_sub_edges_keep_lower_corners(self):
        pts = list(EDGE_A)
        corner_idx = {pts.index(c) for c in lower_hull(EDGE_A)}
        for idx in sub_edges(EDGE_A):
            assert corner_idx <= set(idx)


class TestTriangles:
    def test_closed_triangle_empty(self):
        pts = ((0, 0), (4, 0), (0, 4), (1, 1))
        assert not closed_triangle_empty(pts, 0, 1, 2)
        assert closed_triangle_empty(pts, 0, 1, 3)

    def test_boundary_point_blocks_emptiness(self):
        pts = ((0, 0), (2, 0), (4, 0), (2, 2))
        assert not closed_triangle_empty(pts, 0, 2, 3)
        assert closed_triangle_empty(pts, 0, 1, 3)

    def test_degenerate_triangle_is_not_empty(self):
        pts = ((0, 0), (1, 0), (2, 0))
        assert not closed_triangle_empty(pts, 0, 1, 2)

    def test_closed_triangle_empty_over_a_near_edge(self):
        host = NearEdge(EDGE_A).points
        assert closed_triangle_empty(host, 0, 1, 2)
        assert not closed_triangle_empty(((0, 0), (2, 0), (4, 0), (2, 2)), 0, 2, 3)


class TestSuccessors:
    def test_insert_needs_point_above_chord(self):
        up = ((0, 0), (1, 1), (2, 0))
        down = ((0, 0), (1, -1), (2, 0))
        assert successors(up, DecoratedRoof((0, 2), 0)) == [
            DecoratedRoof((0, 1, 2), 0)
        ]
        assert successors(down, DecoratedRoof((0, 2), 0)) == []

    def test_merge_needs_point_below_chord(self):
        up = ((0, 0), (1, 1), (2, 0))
        down = ((0, 0), (1, -1), (2, 0))
        assert successors(up, DecoratedRoof((0, 1, 2), 0)) == []
        assert successors(down, DecoratedRoof((0, 1, 2), 0)) == [
            DecoratedRoof((0, 2), 0)
        ]

    def test_moves_left_of_marker_are_frozen(self):
        roof = DecoratedRoof((0, 1, 3, 6, 7, 9, 10, 12), 2)
        got = {(r.indices, r.d) for r in successors(EDGE12, roof)}
        assert got == {
            ((0, 1, 3, 4, 6, 7, 9, 10, 12), 2),
            ((0, 1, 3, 6, 7, 8, 9, 10, 12), 4),
            ((0, 1, 3, 6, 7, 9, 10, 11, 12), 6),
            ((0, 1, 6, 7, 9, 10, 12), 1),
            ((0, 1, 3, 6, 9, 10, 12), 3),
            ((0, 1, 3, 6, 7, 9, 12), 5),
        }

    def test_immediate_mode_requires_minimal_triangles(self):
        pts = ((0, 0), (1, 2), (2, 1), (3, 0))
        roof = DecoratedRoof((0, 3), 0)
        assert successors(pts, roof) == [
            DecoratedRoof((0, 1, 3), 0),
            DecoratedRoof((0, 2, 3), 0),
        ]
        assert successors(pts, roof, immediate=True) == [
            DecoratedRoof((0, 2, 3), 0)
        ]

    def test_new_marker_freezes_everything_left(self):
        # after a move at position k every successor's marker equals k
        roof = DecoratedRoof((0, 1, 3, 6, 7, 9, 10, 12), 0)
        for nxt in successors(EDGE12, roof):
            k = nxt.d
            if len(nxt.indices) > len(roof.indices):
                assert nxt.indices[: k + 1] == roof.indices[: k + 1]
            else:
                assert nxt.indices[: k + 1] == roof.indices[: k + 1]
                assert nxt.indices[k + 1 :] == roof.indices[k + 2 :]
