"""Transfer iteration: state vectors, regions and whole configurations."""
from __future__ import annotations

import io
import random
import sys

import pytest

from tripoly.cli import run as run_cli
from tripoly.exactmath import PolyST, PolyS, catalan, maximal_edge_basis
from tripoly.planar import (
    Configuration,
    NearEdge,
    extremal_points,
    lower_hull,
    region_host,
    upper_hull,
)
from tripoly.roofs import DecoratedRoof, covering_roofs, sub_edges
from tripoly.transfer import (
    _Sweep,
    _floor_roofs,
    _payoffs,
    complete_config_poly,
    complete_edge_poly_tm,
    max_config_count,
    max_region_count_points,
    region_poly,
    render_vector,
)

from corpus import (
    COLLINEAR_RUN,
    COLLINEAR_RUN_POLY,
    COLUMNS11,
    COLUMNS11_POLY,
    EDGE_A,
    EDGE_A_PCOEFFS,
    EDGE_B,
    EDGE_B_PCOEFFS,
    EDGE_C,
    EDGE_C_PCOEFFS,
    QUAD,
    SQUEEZE,
    SQUEEZE_CEILING,
    SQUEEZE_FLOOR,
    TRIANGLE_PLUS_CENTER,
    all_codes,
    sweep_code,
)
from reference import encode, from_t, skyline_points, unfold, unpruned_sweep

# successor table of the decorated-roof codes over the six-point edge,
# derived once by hand from the insertion and merge rules
EDGE_C_SUCCESSORS = {
    0: [1, 2, 8],
    1: [25],
    2: [3, 26],
    3: [17, 43],
    4: [0, 5, 6, 28],
    5: [17, 23, 45],
    6: [7, 18, 46],
    7: [35, 63],
    8: [9, 10],
    9: [],
    10: [11],
    11: [25],
    17: [25],
    18: [26],
    23: [35, 63],
    25: [],
    26: [],
    28: [8],
    35: [17, 43],
    43: [25],
    45: [25],
    46: [26],
    63: [43],
}


def st_from_pcoeffs(pcoeffs):
    out = PolyST()
    for s, layer in pcoeffs.items():
        for j, c in layer.items():
            out = out + c * from_t(maximal_edge_basis(j), s)
    return out


def squeeze_paths():
    cfg = Configuration(SQUEEZE)
    floor = tuple(cfg.points[i] for i in SQUEEZE_FLOOR)
    ceiling = tuple(cfg.points[i] for i in SQUEEZE_CEILING)
    return cfg, floor, ceiling


class TestInitialVectors:
    def test_squeeze_floor_is_a_single_state(self):
        cfg, floor, _ = squeeze_paths()
        assert list(_floor_roofs(cfg.points, floor, False)) == [(1, 0)]

    def test_optional_floor_points_enter_at_later_steps(self):
        # a floor roof of length L enters the step iteration at step L
        cfg = Configuration(COLUMNS11)
        roofs = _floor_roofs(cfg.points, cfg.lower_boundary(), False)
        dist = {}
        for bits, skipped in roofs:
            key = (bits.bit_count() + 1, skipped)
            dist[key] = dist.get(key, 0) + 1
        assert dist == {(2, 2): 1, (3, 1): 2, (4, 0): 1}
        maximal = _floor_roofs(cfg.points, cfg.lower_boundary(), True)
        assert list(maximal) == [(0b111, 0)]

    def test_floor_corner_must_be_a_host_point(self):
        with pytest.raises(ValueError, match="not a host point"):
            max_region_count_points(
                EDGE_A, ((0, 0), (2, 7), (5, 0)), upper_hull(EDGE_A)
            )

    def test_floor_must_span_the_host(self):
        with pytest.raises(ValueError, match="first and last"):
            max_region_count_points(
                EDGE_A, ((0, 0), (2, -1)), upper_hull(EDGE_A)
            )

    def test_markers_start_at_zero(self):
        floor = ((0, 0), (2, -1), (4, -1), (5, 0))
        n = len(EDGE_A) - 1
        for maximal in (False, True):
            for bits, _ in _floor_roofs(EDGE_A, floor, maximal):
                assert bits >> (n - 1) == 0


def apply_transfer(points, vec, fold=True, **mode):
    """One transfer step of a state vector of :func:`encode` codes, summed
    from the moves of ``_Sweep.successors`` whatever points they skip;
    without ``fold``, from the unfolded walk of a pruned complete sweep."""
    sweep = _Sweep(points, **mode)
    if not fold:
        sweep = unfold(sweep)
    codes = (1 << sweep.skip_shift) - 1
    out = {}
    for code, mult in vec.items():
        code = sweep_code(sweep, code)
        for move in sweep.successors(code):
            # a move is the code it reaches less the roof bits
            succ = sweep.roof_code((code & sweep.mask) + move & codes)
            out[succ] = out.get(succ, 0) + mult
    return out


class TestApplyTransfer:
    def test_edge_c_successor_table(self):
        for code, expected in EDGE_C_SUCCESSORS.items():
            got = sorted(apply_transfer(EDGE_C, {code: 1}))
            assert got == expected, f"code {code}"

    def test_multiplicities_accumulate(self):
        out = apply_transfer(EDGE_C, {0: 2, 4: 1})
        assert out == {1: 2, 2: 2, 8: 2, 0: 1, 5: 1, 6: 1, 28: 1}

    def test_empty_vector(self):
        assert apply_transfer(EDGE_C, {}) == {}
        assert apply_transfer(EDGE_C, {25: 1}) == {}

    def test_pruning_drops_dead_ends(self):
        cfg, _, ceiling = squeeze_paths()
        rows = {4: {6}, 153: {81}, 101: {36, 103}, 103: {38}}
        for code, expected in rows.items():
            pruned = apply_transfer(cfg.points, {code: 1}, fold=False, ceiling=ceiling)
            assert set(pruned) == expected, f"code {code}"
            unpruned = apply_transfer(cfg.points, {code: 1})
            assert set(pruned) <= set(unpruned)
        # the insertion reaching 103, whose only move is the forced merge
        # to 38, is folded into that merge
        folded = apply_transfer(cfg.points, {101: 1}, ceiling=ceiling)
        assert folded == {36: 1, 38: 1}

    def test_immediate_mode_is_a_subset(self):
        for code in EDGE_C_SUCCESSORS:
            fast = apply_transfer(EDGE_C, {code: 1}, immediate=True)
            assert set(fast) <= set(apply_transfer(EDGE_C, {code: 1}))
            sweep = _Sweep(EDGE_C, immediate=True)
            ours = sweep_code(sweep, code)
            moves = [(ours & sweep.mask) + m for m in sweep.successors(ours)]
            assert max(moves, default=0) >> sweep.skip_shift == 0


class TestSweepCodes:
    def test_round_trip_with_encode(self):
        for host in (EDGE_A, EDGE_C, Configuration(COLUMNS11).points):
            sweep = _Sweep(host)
            n, shift = sweep.n, sweep.shift
            codes = all_codes(n)
            ours = [sweep_code(sweep, code) for code in codes]
            assert [sweep.roof_code(code) for code in ours] == codes
            # the marker field of a sweep code is P_0 or a roof point
            assert set(ours) == {
                m << shift | bits
                for bits in range(1 << (n - 1))
                for m in range(n)
                if m == 0 or bits >> (m - 1) & 1
            }


class TestRenderVector:
    def test_renders_sorted_terms(self):
        text = render_vector(EDGE_C, {4: 1})
        assert text == "1*R4([0 3] 5)"
        two = render_vector(EDGE_C, {0: 2, 4: 1})
        assert two == "2*R0([0 5]) + 1*R4([0 3] 5)"

    def test_empty_vector_renders_zero(self):
        assert render_vector(EDGE_C, {}) == "0"


class TestRegionPoly:
    def test_squeeze_polynomial(self):
        cfg, _, _ = squeeze_paths()
        poly = region_poly(cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING)
        assert poly.c == {8: 12, 7: 16, 6: 5}

    def test_squeeze_maximal_count_matches_leading(self):
        cfg, _, _ = squeeze_paths()
        count = region_poly(cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING, maximal=True)
        assert count == 12

    def test_pruning_does_not_change_the_polynomial(self):
        cfg, _, _ = squeeze_paths()
        assert unpruned_sweep(
            cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING
        ) == region_poly(cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING)

    def test_maximal_pruning_is_transparent(self):
        cfg, _, _ = squeeze_paths()
        for run in (region_poly, unpruned_sweep):
            count = run(cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING, maximal=True)
            assert count == 12

    def test_library_maximal_traces_are_the_cli_traces(self, point_file):
        # a traced maximal sweep is the unpruned one, dead ends included,
        # whether the library or the command line runs it
        cfg, _, _ = squeeze_paths()
        path = point_file(SQUEEZE)
        flags = ["--floor", "0,1,7", "--ceiling", "0,2,3,5,6,7", "--maximal"]
        for argv, paths in (
            (["maxcount", path], ()),
            (["region", path, *flags], (SQUEEZE_FLOOR, SQUEEZE_CEILING)),
        ):
            host = region_host(cfg, *paths)[0] if paths else cfg.points

            def count(**kw):
                if paths:
                    return region_poly(cfg, *paths, maximal=True, **kw)
                return max_config_count(cfg, **kw)

            lines, sizes = [], []

            def tap(k, vec, w):
                lines.append(f"V_{k} = {render_vector(host, vec)}")
                sizes.append(len(vec))

            traced = count(trace=tap)
            assert traced == count() == unpruned_sweep(cfg, *paths, maximal=True)
            out = io.StringIO()
            assert run_cli([*argv, "--trace"], out=out) == 0
            assert out.getvalue().splitlines() == lines + [str(traced)]
        # the region's pruned sweep met 1, 1, 3, 5, 4, 4, 5, 4, 2 of these
        assert sizes == [1, 1, 3, 7, 10, 10, 8, 5, 2]

    def test_trace_w_images(self):
        cfg, _, _ = squeeze_paths()
        seen = {}
        region_poly(
            cfg,
            SQUEEZE_FLOOR,
            SQUEEZE_CEILING,
            trace=lambda k, vec, w: seen.setdefault(k, w),
        )
        assert seen[6] == {4: 5}
        assert seen[7] == {5: 7}
        assert seen[8] == {4: 9}
        assert seen[9] == {5: 12}

    def test_trace_reconstructs_the_polynomial(self):
        cfg, _, _ = squeeze_paths()
        acc = {}

        def tap(k, vec, w):
            for length, coeff in w.items():
                h = 2 + k + length
                acc[h // 2] = acc.get(h // 2, 0) + coeff

        poly = region_poly(cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING, trace=tap)
        assert acc == poly.c


class TestRegionValidation:
    def make(self):
        return Configuration([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])

    # sweep order: 0=(0,2) 1=(0,0) 2=(1,1) 3=(2,2) 4=(2,0)

    def test_short_path(self):
        with pytest.raises(ValueError, match="at least two indices"):
            region_poly(self.make(), (0,), (0, 3, 4))

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            region_poly(self.make(), (0, 9), (0, 3, 4))

    def test_non_increasing_path(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            region_poly(self.make(), (0, 3, 2, 4), (0, 4))

    def test_endpoints_must_match(self):
        with pytest.raises(ValueError, match="share their endpoints"):
            region_poly(self.make(), (0, 2, 4), (0, 3))

    def test_shared_interior_point(self):
        with pytest.raises(ValueError, match="share an interior point"):
            region_poly(self.make(), (0, 2, 4), (0, 2, 3, 4))

    def test_floor_above_ceiling(self):
        with pytest.raises(ValueError, match="lies above the ceiling"):
            region_poly(self.make(), (0, 3, 4), (0, 2, 4))

    def test_ceiling_below_floor(self):
        with pytest.raises(ValueError, match="lies below the floor"):
            region_poly(self.make(), (0, 4), (0, 1, 4))

    # region_host checks the paths first, so only a direct sweep reaches
    # the floor checks of the sweep itself
    def test_floor_corner_off_the_host(self):
        host = ((0, 0), (1, 1), (2, 0))
        with pytest.raises(ValueError, match="not a host point"):
            _payoffs(host, ((0, 0), (1, -1), (2, 0)))

    def test_floor_must_join_the_host_ends(self):
        host = ((0, 0), (1, 1), (2, 0))
        with pytest.raises(ValueError, match="first and last host points"):
            _payoffs(host, ((0, 0), (1, 1)))

    def test_valid_region_between_center_and_top(self):
        poly = region_poly(self.make(), (0, 2, 4), (0, 3, 4))
        assert isinstance(poly, PolyS)
        assert poly.leading() == region_poly(
            self.make(), (0, 2, 4), (0, 3, 4), maximal=True
        )


class TestConfigPolynomials:
    def test_columns_polynomial(self):
        poly = complete_config_poly(Configuration(COLUMNS11))
        assert poly.c == COLUMNS11_POLY

    def test_columns_maximal_count(self):
        assert max_config_count(Configuration(COLUMNS11)) == 1196

    def test_collinear_interior_run(self):
        poly = complete_config_poly(Configuration(COLLINEAR_RUN))
        assert poly.c == COLLINEAR_RUN_POLY

    def test_quad_and_triangle(self):
        assert complete_config_poly(Configuration(QUAD)).c == {4: 2}
        assert complete_config_poly(
            Configuration(TRIANGLE_PLUS_CENTER)
        ).c == {3: 1, 4: 1}

    def test_lowest_term_counts_extremal_fillings(self):
        for pts in (COLUMNS11, SQUEEZE, QUAD, TRIANGLE_PLUS_CENTER):
            cfg = Configuration(pts)
            m = len(extremal_points(cfg.points))
            poly = complete_config_poly(cfg)
            assert min(poly.c) == m
            assert poly.c[m] == catalan(m - 2)

    def test_leading_term_is_the_maximal_count(self):
        for pts in (COLUMNS11, SQUEEZE, COLLINEAR_RUN):
            cfg = Configuration(pts)
            poly = complete_config_poly(cfg)
            assert max(poly.c, default=-1) == len(cfg)
            assert poly.leading() == max_config_count(cfg)

    def test_degenerate_configurations_are_rejected(self):
        with pytest.raises(ValueError, match="non-collinear"):
            complete_config_poly(Configuration([(0, 0), (1, 1)]))
        with pytest.raises(ValueError, match="non-collinear"):
            complete_config_poly(Configuration([(0, 0), (1, 1), (2, 2)]))
        with pytest.raises(ValueError, match="non-collinear"):
            max_config_count(Configuration([(0, 0), (1, 0), (2, 0)]))

    def test_prune_flag_is_transparent(self):
        cfg = Configuration(SQUEEZE)
        assert unpruned_sweep(cfg) == complete_config_poly(cfg)


class TestSweepOrder:
    def expansions(self, monkeypatch, run):
        """Codes passed to ``_Sweep.successors``, as :func:`encode` codes,
        and the state vectors traced by ``run``."""
        calls, vectors = [], []
        real = _Sweep.successors

        def counting(self, code):
            calls.append(self.roof_code(code))
            return real(self, code)

        monkeypatch.setattr(_Sweep, "successors", counting)
        run(lambda k, vec, w: vectors.append(vec))
        return calls, vectors

    def test_complete_mode_expands_each_code_once(self, monkeypatch):
        # a code whose move list is memoised under its roof suffix is
        # expanded without a call; test_differential compares the
        # vectors with a loop that calls successors on every code
        cfg = Configuration(COLUMNS11)
        calls, vectors = self.expansions(
            monkeypatch, lambda tap: complete_config_poly(cfg, trace=tap)
        )
        codes = {code for vec in vectors for code in vec}
        assert calls and len(set(calls)) == len(calls)
        assert set(calls) < codes
        # the step-by-step iteration meets most codes at several steps
        assert sum(map(len, vectors)) > 2 * len(codes)

    def test_edge_and_region_runs_expand_each_code_once(self, monkeypatch):
        cfg, _, _ = squeeze_paths()
        for run in (
            lambda tap: complete_edge_poly_tm(NearEdge(EDGE_C), trace=tap),
            lambda tap: unpruned_sweep(
                cfg, SQUEEZE_FLOOR, SQUEEZE_CEILING, trace=tap
            ),
        ):
            calls, vectors = self.expansions(monkeypatch, run)
            assert calls and len(set(calls)) == len(calls)
            assert set(calls) <= {c for vec in vectors for c in vec}


def capacity_set(n):
    """The n-point configuration that ``bench/capacity.py`` draws."""
    rng = random.Random(n)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(60), rng.randrange(60)))
    return Configuration(sorted(pts))


class TestCensus:
    # the codes an untraced maximal count expands, summed over the
    # buckets it pays off, so that a regression of pruning or folding
    # shows as a count; unfolded, the sweeps expanded 3,926 and 67,363
    CODES = {16: (6_196_777, 3_318), 22: (58_236_027_758, 50_284)}

    @pytest.mark.parametrize("n", sorted(CODES))
    def test_maximal_codes_expanded(self, monkeypatch, n):
        count, codes = self.CODES[n]
        sizes = []
        real = _Sweep.payoff

        def payoff(self, vec):
            sizes.append(len(vec))
            return real(self, vec)

        monkeypatch.setattr(_Sweep, "payoff", payoff)
        assert max_config_count(capacity_set(n)) == count
        assert sum(sizes) == codes

    # the walks (successors calls) of untraced maximal and complete sweeps;
    # a marker-0 code whose twin is in its bucket walks no further than its
    # first segment, and without that merge they were 1,976 and 3,276 at
    # n = 16, 12,013 and 24,713 at n = 22
    WALKS = {16: (1_802, 2_839), 22: (10_950, 22_316)}

    @pytest.mark.parametrize("n", sorted(WALKS))
    def test_walks(self, monkeypatch, n):
        calls = []
        real = _Sweep.successors

        def counting(sweep, code):
            calls.append(code)
            return real(sweep, code)

        monkeypatch.setattr(_Sweep, "successors", counting)
        cfg = capacity_set(n)
        count = max_config_count(cfg)
        maximal = len(calls)
        assert complete_config_poly(cfg).leading() == count == self.CODES[n][0]
        assert (maximal, len(calls) - maximal) == self.WALKS[n]


class TestMemo:
    def test_equal_move_lists_share_one_tuple(self, monkeypatch):
        # _run interns its memo's move tuples; without it, the peak RSS of
        # poly on 30 points rose from 389 to 501 MiB
        memos = []
        real = _Sweep.payoff

        def payoff(self, vec):
            memos.append(sys._getframe(1).f_locals["memo"])
            return real(self, vec)

        monkeypatch.setattr(_Sweep, "payoff", payoff)
        complete_config_poly(capacity_set(20))
        moves = memos[-1].values()
        assert len({id(m) for m in moves}) == len(set(moves)) < len(moves)


class TestRegionRows:
    # maximal counts of the regions below the covering roofs of the
    # sub-edges of the six-point zigzag, with the roof segment counts
    ROWS = {
        (0, 1, 2, 3, 4, 5): [(1, 5), (2, 4), (5, 4), (14, 3)],
        (0, 1, 2, 4, 5): [(1, 3), (1, 4), (2, 3), (5, 2)],
        (0, 2, 3, 4, 5): [(1, 4), (2, 3), (2, 3), (5, 2)],
        (0, 2, 4, 5): [(1, 2), (1, 2), (1, 3), (2, 1)],
    }

    def test_zigzag_region_rows(self):
        for sub, expected in self.ROWS.items():
            pts = tuple(EDGE_A[i] for i in sub)
            rows = sorted(
                (
                    max_region_count_points(
                        pts,
                        lower_hull(pts),
                        skyline_points(pts, DecoratedRoof(roof, 0)),
                    ),
                    len(roof) - 1,
                )
                for roof in covering_roofs(pts)
            )
            assert rows == expected, sub

    def test_rows_assemble_the_maximal_layers(self):
        # summing count * p_length over the covering roofs of each
        # sub-edge with k gaps gives the s^k layer of the edge polynomial
        by_weight = {}
        for sub in sub_edges(EDGE_A):
            pts = tuple(EDGE_A[i] for i in sub)
            layer = by_weight.setdefault(len(sub) - 1, {})
            for roof in covering_roofs(pts):
                count = max_region_count_points(
                    pts,
                    lower_hull(pts),
                    skyline_points(pts, DecoratedRoof(roof, 0)),
                )
                length = len(roof) - 1
                layer[length] = layer.get(length, 0) + count
        assert by_weight == EDGE_A_PCOEFFS


class TestCompleteEdgeTM:
    def test_six_point_edge_polynomial(self):
        got = complete_edge_poly_tm(NearEdge(EDGE_C))
        assert got == st_from_pcoeffs(EDGE_C_PCOEFFS)

    def test_other_edges(self):
        assert complete_edge_poly_tm(NearEdge(EDGE_A)) == st_from_pcoeffs(
            EDGE_A_PCOEFFS
        )
        assert complete_edge_poly_tm(NearEdge(EDGE_B)) == st_from_pcoeffs(
            EDGE_B_PCOEFFS
        )

    def test_state_vectors_along_the_run(self):
        vectors = {}
        complete_edge_poly_tm(
            NearEdge(EDGE_C),
            trace=lambda k, vec, step: vectors.setdefault(k, vec),
        )
        assert vectors[2] == {4: 1}
        assert vectors[3] == {0: 1, 5: 1, 6: 1, 28: 1}
        assert vectors[4] == {
            1: 1, 2: 1, 7: 1, 8: 2, 17: 1, 18: 1, 23: 1, 45: 1, 46: 1
        }
        assert vectors[5] == {3: 1, 9: 2, 10: 2, 25: 3, 26: 3, 35: 2, 63: 2}
        assert vectors[6] == {11: 2, 17: 3, 43: 5}
        assert vectors[7] == {25: 10}

    def test_trace_length_distribution(self):
        steps = {}
        complete_edge_poly_tm(
            NearEdge(EDGE_C),
            trace=lambda k, vec, step: steps.setdefault(k, step),
        )
        assert steps[2] == {2: 1}
        assert steps[3] == {1: 1, 3: 3}
        assert steps[4] == {2: 6, 4: 4}
        assert steps[5] == {3: 13, 5: 2}
        assert steps[6] == {2: 3, 4: 7}
        assert steps[7] == {3: 10}

    def test_straight_edge_reduces_to_the_basis(self):
        from tripoly.exactmath import complete_edge_basis

        edge = NearEdge([(i, 0) for i in range(5)])
        assert complete_edge_poly_tm(edge) == complete_edge_basis(4)
