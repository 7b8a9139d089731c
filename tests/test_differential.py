"""Differential checks of the transfer sweep on generated configurations.

The sweep is compared with the brute-force oracle on small degenerate and
random point sets, with its own maximal mode on larger ones, and with
itself on copies scaled by 10^40.  Maximal counts with dead-end pruning
are compared with unpruned ones and the oracle, also under ceilings with
collinear runs and with valley corners.  Its bitmask moves are compared,
state by state, with the tuple-based moves of
:func:`tripoly.roofs.successors`, together with the number of points
each move skips, counted from the decoded roof paths, in immediate mode
on the states an immediate sweep can meet; the moves of every live state
must depend only on its memo key.  The memoised sweep is compared with a
loop that expands every state by ``successors`` and keeps plain-int
multiplicities keyed by (code, points skipped), so it shares no field
packing with the sweep.  Every sweep route must give the same results
and traced vectors when the complete-mode fields start at 1 or 2 data
bits and widen many times.
Realized weighted polygons are compared with the weighted closed form,
and the closed form's packed three-term recurrence with the schoolbook
product of the edge polynomials, also where its field width changes by
a byte.
The covering-roofs route of a near-edge is compared with the transfer
route, and its counts by roof length with one ceiling sweep per covering
roof.  No traced roof of an immediate sweep, over a near-edge or a
maximal region, may have a host point inside one of its segments: by
that rule the route finds covering roofs, and an immediate move that
skips no point sweeps an empty triangle.  No successor that the pruned
walk drops may reach a ceiling payoff in the full move DAG.  No code
that an untraced or a traced complete-mode sweep reaches may have a bad
bit before an on-ceiling roof point at or before the walk's start.
Each move a pruned sweep folds, complete or maximal, must be an
insertion followed by its child's only move, a forced merge, as the
unfolded walk makes them.  An untraced sweep under a ceiling that walks a
marker-0 code and its twin once must give the payoffs of the same sweep
without that merge and of the traced sweep, on lattice, grid, random,
ceiling-run, valley and scaled hosts.  On the same hosts every bucket
that a sweep pays off or replays, whether it looks up the ceiling's
codes or scans, must give the payoffs of ``reference.scan_payoff``, also
when 1-bit fields widen.  At 1 data bit every field of every bucket a
traced complete sweep keeps must fit its data bits: the one overflow
check of a bucket reads every code, whether it pays off or not.
Traced runs must give the results of untraced and of unpruned ones: a
traced complete run keeps only the on-ceiling part of the cascade rule and
folds nothing, and a traced maximal run is unpruned.  So must the
images of a configuration under the integer symmetries and of a region
under the mirrors, each of which sweeps in its own order.  The generators are
seeded, so every run checks the same configurations.
"""
from __future__ import annotations

import random
from itertools import product

import pytest

from tripoly.exactmath import PolyST, catalan_pair_st, complete_edge_basis
from tripoly.neargon import compose, covering_roof_edge_poly, edge_poly
from tripoly.oracle import (
    _count_fillings,
    oracle_complete_poly,
    oracle_region_poly,
    point_in_closed_triangle,
)
from tripoly.planar import (
    Configuration,
    NearEdge,
    factorize,
    lower_hull,
    on_segment,
    orient,
    path_corners,
    point_on_path,
    point_vs_path,
    region_host,
    upper_hull,
)
from tripoly import transfer
from tripoly.roofs import (
    DecoratedRoof,
    covering_roofs,
    decode,
    sub_edges,
    successors,
)
from tripoly.transfer import (
    _Sweep,
    _floor_roofs,
    _run,
    complete_config_poly,
    complete_edge_poly_tm,
    covering_roof_counts,
    max_config_count,
    max_region_count_points,
    region_poly,
)
from tripoly.weighted import weighted_complete_poly, weighted_polygon_config

from corpus import (
    COLUMNS11,
    SQUEEZE,
    SQUEEZE_CEILING,
    SQUEEZE_FLOOR,
    all_codes,
    small_configs,
    sweep_code,
    valley_regions,
)
from reference import encode, scan_payoff, unfold, unpruned, unpruned_sweep

HUGE = 10**40


def lattice_subsets(count: int, seed: int) -> list[tuple[tuple[int, int], ...]]:
    """Subsets of a 4x4 lattice: collinear runs and shared x columns."""
    rng = random.Random(seed)
    grid = [(x, y) for x in range(4) for y in range(4)]
    out = []
    while len(out) < count:
        pts = tuple(rng.sample(grid, rng.randint(5, 9)))
        if not Configuration(pts).all_collinear():
            out.append(pts)
    return out


def random_sets(
    count: int, seed: int, lo: int, hi: int, box: int
) -> list[tuple[tuple[int, int], ...]]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pts: set[tuple[int, int]] = set()
        size = rng.randint(lo, hi)
        while len(pts) < size:
            pts.add((rng.randrange(box), rng.randrange(box)))
        if not Configuration(pts).all_collinear():
            out.append(tuple(pts))
    return out


def scaled(pts):
    return tuple((x * HUGE, y * HUGE) for x, y in pts)


def hull_regions(cfg: Configuration) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Regions between the lower hull and the upper hull with one of its
    points dropped, as sweep-order index paths."""
    index = {p: i for i, p in enumerate(cfg.points)}
    floor = tuple(index[p] for p in cfg.lower_boundary())
    upper = tuple(index[p] for p in cfg.upper_boundary())
    return [(floor, upper[:j] + upper[j + 1 :]) for j in range(1, len(upper) - 1)]


def flat(cfg: Configuration, floor, ceiling) -> bool:
    """True when both paths have the same corners, enclosing no area."""
    pts = cfg.points
    return path_corners([pts[i] for i in floor]) == path_corners(
        [pts[i] for i in ceiling]
    )


SMALL = lattice_subsets(12, seed=1) + random_sets(12, seed=2, lo=5, hi=9, box=12)
LARGE = random_sets(4, seed=3, lo=12, hi=13, box=40)


@pytest.mark.parametrize("pts", SMALL)
def test_poly_and_regions_match_the_oracle(pts):
    cfg = Configuration(pts)
    poly = complete_config_poly(cfg)
    assert poly == oracle_complete_poly(cfg)
    assert poly.leading() == max_config_count(cfg)
    big = Configuration(scaled(pts))
    assert complete_config_poly(big) == poly
    for floor, ceiling in hull_regions(cfg):
        got = region_poly(cfg, floor, ceiling)
        assert got == oracle_region_poly(cfg, floor, ceiling), (floor, ceiling)
        assert region_poly(cfg, floor, ceiling, maximal=True) == got.leading()
        assert region_poly(big, floor, ceiling) == got


@pytest.mark.parametrize("pts", LARGE)
def test_leading_coefficient_is_the_maximal_count(pts):
    cfg = Configuration(pts)
    count = max_config_count(cfg)
    assert complete_config_poly(cfg).leading() == count
    assert max_config_count(Configuration(scaled(pts))) == count


def ceiling_runs(count: int, seed: int) -> list[tuple[tuple[int, int], ...]]:
    """Points under a row of at least three collinear points spanning the
    x range, sheared to slope 1 on every other draw; 5-10 points with
    shared x columns."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        w = rng.randint(3, 6)
        row = {0, w, *rng.sample(range(1, w), rng.randint(1, min(w - 1, 4)))}
        pts = {(x, w) for x in row}
        size = rng.randint(len(pts) + 2, 10)
        while len(pts) < size:
            pts.add((rng.randint(0, w), rng.randrange(w)))
        out.append(tuple((x, y + x * (i % 2)) for x, y in pts))
    return out


MAXIMAL = SMALL + ceiling_runs(12, seed=6)
MAXIMAL_LARGE = random_sets(3, seed=7, lo=13, hi=15, box=6) + random_sets(
    3, seed=8, lo=13, hi=15, box=40
)


def test_a_flat_hull_region_is_generated():
    # the 26th maximal set drops the one interior point of its upper hull,
    # leaving the hull region (0, 7)/(0, 7)
    cfg = Configuration(MAXIMAL[25])
    assert ((0, 7), (0, 7)) in hull_regions(cfg)
    assert flat(cfg, (0, 7), (0, 7))


@pytest.mark.parametrize("pts", MAXIMAL)
def test_pruned_maximal_counts_match_unpruned_and_oracle(pts):
    cfg = Configuration(pts)
    big = Configuration(scaled(pts))
    host = cfg.points
    want = _count_fillings(host, lower_hull(host), upper_hull(host))
    for c in (cfg, big):
        assert max_config_count(c) == unpruned_sweep(c, maximal=True) == want
    regions = hull_regions(cfg) + valley_regions(cfg, 3, seed=len(pts))
    for floor, ceiling in regions:
        if flat(cfg, floor, ceiling):
            # a region of no area: both routes refuse it
            with pytest.raises(ValueError, match="same corners"):
                oracle_region_poly(cfg, floor, ceiling)
            for c in (cfg, big):
                for maximal in (True, False):
                    with pytest.raises(ValueError, match="same corners"):
                        region_poly(c, floor, ceiling, maximal=maximal)
            continue
        want = oracle_region_poly(cfg, floor, ceiling).leading()
        for c in (cfg, big):
            pruned = region_poly(c, floor, ceiling, maximal=True)
            unpruned = unpruned_sweep(c, floor, ceiling, maximal=True)
            assert pruned == unpruned == want, (floor, ceiling)


@pytest.mark.parametrize("pts", MAXIMAL_LARGE)
def test_pruned_maximal_counts_match_unpruned_on_larger_sets(pts):
    cfg = Configuration(pts)
    assert max_config_count(cfg) == unpruned_sweep(cfg, maximal=True)
    for floor, ceiling in hull_regions(cfg)[:2] + valley_regions(cfg, 3, seed=9):
        assert region_poly(cfg, floor, ceiling, maximal=True) == unpruned_sweep(
            cfg, floor, ceiling, maximal=True
        ), (floor, ceiling)


def _path_prefix(part, corners):
    """True when the corner path ``part`` is an initial piece of ``corners``:
    all corners coincide except that the last point of ``part`` may lie
    anywhere on the corresponding segment of the longer path."""
    if len(part) > len(corners):
        return False
    if len(part) == 1:
        return part[0] == corners[0]
    j = len(part) - 1
    return list(part[:j]) == list(corners[:j]) and (
        part[j] == corners[j] or on_segment(part[j], corners[j - 1], corners[j])
    )


def covered(points, roof):
    """Host points on or under the path through a roof's points."""
    path = tuple(points[i] for i in roof.indices)
    return {i for i, p in enumerate(points) if point_vs_path(p, path) <= 0}


def dead_end(points, roof, ceiling, immediate):
    """True when the frozen prefix of a decoded roof, up to its last
    on-ceiling point at or before the marker, is a dead end: in complete
    mode when that prefix leaves the ceiling's path, in immediate mode
    when its points are not exactly the ceiling's points up to there."""
    on = [i for i, p in enumerate(points) if ceiling and point_on_path(p, ceiling)]
    for pos in range(roof.d, -1, -1):
        c = roof.indices[pos]
        if c in on:
            if immediate:
                return list(roof.indices[: pos + 1]) != [i for i in on if i <= c]
            part = path_corners(tuple(points[i] for i in roof.indices[: pos + 1]))
            return not _path_prefix(part, path_corners(ceiling))
    return False


def stuck(points, roof, a, ceiling, immediate):
    """True when the walk from roof point a stops before the marker of
    ``roof``: at a step (u, v) along its roof points from a to the marker,
    v must be merged from u but never is.  v must be merged once a change
    is needed before it: a host point lies strictly above a segment
    walked from a up to v, an interior roof point up to u is off the
    ceiling path, or a host point before v that a ceiling roof needs is
    off the roof.  v is never merged when it lies on the ceiling path, or
    when no host point P_r with r > v puts P_v strictly below the line
    P_u P_r; in immediate mode such an r counts only when the closed
    triangle (u, v, r) holds no other host point."""
    n = len(points) - 1
    idx = roof.indices
    on = {i for i in range(1, n) if point_on_path(points[i], ceiling)}
    need = on if immediate else {
        i for i in range(1, n) if points[i] in path_corners(ceiling)
    }
    walk = idx[idx.index(a) : roof.d + 1]
    seen = False
    for u, v in zip(walk, walk[1:]):
        pu, pv = points[u], points[v]
        seen = (
            seen
            or any(orient(pu, pv, points[r]) > 0 for r in range(u + 1, v))
            or any(0 < i <= u and i not in on for i in idx)
            or any(i < v and i not in idx for i in need)
        )
        merged = any(
            orient(pu, points[r], pv) < 0
            and not (
                immediate
                and any(
                    q not in (u, v, r)
                    and point_in_closed_triangle(points[q], pu, pv, points[r])
                    for q in range(n + 1)
                )
            )
            for r in range(v + 1, n + 1)
        )
        if seen and (v in on or not merged):
            return True
    return False


def reference_successors(
    points, code, ceiling=None, immediate=False, prune=False, fold=False
):
    """(code, step) of the moves from decoded roofs, step being twice the
    host points newly covered besides the moved point, dropping with
    ``prune`` every roof that is a dead end and, under a ceiling, every
    merge of an on-ceiling point and every roof the walk from a, the roof
    point before the marker, stops short of.  With ``fold``, an inserted
    roof whose moves are one merge of its marker point from its left
    neighbour, and whose walk from that neighbour stops by the step from
    the marker point to the next, is replaced by that merge's result,
    with step 2(e₁ + e₂) + 1."""
    n = len(points) - 1
    roof = decode(code, n)
    a = roof.indices[roof.d - 1] if roof.d else 0
    before = covered(points, roof)
    out = []
    for r in successors(points, roof, immediate=immediate):
        if prune and dead_end(points, r, ceiling, immediate):
            continue
        if prune and ceiling is not None:
            # a merged point lies strictly under every later roof
            lost = set(roof.indices) - set(r.indices)
            if any(point_on_path(points[v], ceiling) for v in lost):
                continue
            if stuck(points, r, a, ceiling, immediate):
                continue
        moved = set(roof.indices) ^ set(r.indices)
        step = 2 * len(covered(points, r) - before - moved)
        if fold and r.d and len(r.indices) > len(roof.indices):
            nxt = reference_successors(
                points, encode(r, n), ceiling, immediate, prune=True
            )
            merged = r.indices[: r.d] + r.indices[r.d + 1 :]
            ahead = DecoratedRoof(r.indices, r.d + 1)  # its marker at q
            if (
                len(nxt) == 1
                and decode(nxt[0][0], n) == (merged, r.d - 1)
                and stuck(points, ahead, r.indices[r.d - 1], ceiling, immediate)
            ):
                out.append((nxt[0][0], step + nxt[0][1] + 1))
                continue
        out.append((encode(r, n), step))
    return sorted(out)


def segment_hits(points, indices) -> int:
    """Host points lying inside a segment of the roof through ``indices``."""
    return sum(
        r not in (a, b) and on_segment(p, points[a], points[b])
        for a, b in zip(indices, indices[1:])
        for r, p in enumerate(points)
    )


def check_moves(host, ceiling):
    """Compare the moves of every code a sweep can meet with the decoded
    moves, folded in a pruned sweep as the sweep folds them.  The moves of
    a code that is no dead end, each the code it reaches less the roof
    bits, must depend only on its memo key: the walk's first roof point a,
    the roof points past it and whether the marker is at P_0.  A pruned
    sweep meets no code with a bad bit before an on-ceiling roof point at
    or before a, so a bad bit lies before a only when a is off the
    ceiling, and the key needs no more; such codes are skipped, as the
    walk does not check for them.  Immediate modes skip the codes with a
    host point inside a roof segment: an immediate sweep never meets
    them, and only on them may a move skip no point yet sweep a non-empty
    triangle."""
    n = len(host) - 1
    for build, mode in (
        (_Sweep, {"ceiling": ceiling, "prune": True}),
        (unpruned, {"ceiling": ceiling}),
        (_Sweep, {"ceiling": ceiling, "immediate": True, "prune": True}),
        (unpruned, {"ceiling": ceiling, "immediate": True}),
        (_Sweep, {}),
    ):
        prune = mode.pop("prune", False)
        sweep = build(host, **mode)
        shift = sweep.skip_shift
        keys = {}
        for code in all_codes(n):
            roof = decode(code, n)
            if mode.get("immediate") and segment_hits(host, roof.indices):
                continue
            ours = sweep_code(sweep, code)
            if prune and unmet(sweep, ours):
                continue
            moves = sweep.successors(ours)
            bits = ours & sweep.mask
            got = sorted(
                (sweep.roof_code(bits + m & ((1 << shift) - 1)), bits + m >> shift)
                for m in moves
            )
            immediate = mode.get("immediate", False)
            want = reference_successors(host, code, **mode, prune=prune, fold=prune)
            assert got == want, (mode, code)
            if prune and dead_end(host, roof, ceiling, immediate):
                continue
            a = roof.indices[roof.d - 1] if roof.d else 0
            key = (a, bits >> a, roof.d == 0)
            moves = sorted(moves)
            assert keys.setdefault(key, moves) == moves, (mode, code)


# the lattice sets again scaled by 10^40, so that the counts behind every
# move's skip come from orientation tests on huge coordinates
@pytest.mark.parametrize("pts", SMALL[::3] + [scaled(pts) for pts in SMALL[:12:3]])
def test_bitmask_moves_match_the_decoded_moves(pts):
    cfg = Configuration(pts)
    check_moves(cfg.points, cfg.upper_boundary())


@pytest.mark.parametrize("pts", ceiling_runs(6, seed=10))
def test_bitmask_moves_match_under_ceiling_runs_and_valleys(pts):
    cfg = Configuration(pts)
    check_moves(cfg.points, cfg.upper_boundary())
    for floor, ceiling in valley_regions(cfg, 2, seed=11):
        host, _, path = region_host(cfg, floor, ceiling)
        check_moves(host, path)


def memo_free_run(sweep, floor):
    """The sweep loop of ``_run`` with ``successors`` called on every
    code and plain-int multiplicities keyed by (code, points skipped), so
    that it shares no field packing with ``_run``: payoffs keyed by
    (vertices used, roof length) and the non-empty vectors V_k of
    :func:`encode` codes."""
    shift = sweep.skip_shift
    buckets = {}
    for bits, skipped in _floor_roofs(sweep.points, floor, sweep.immediate):
        phi = bits.bit_count() + 2 + 2 * skipped
        buckets.setdefault(phi, {})[bits, skipped] = 1
    paid, steps = {}, {}
    while buckets:
        phi = min(buckets)
        for (code, j), mult in buckets.pop(phi).items():
            steps.setdefault(phi - 2 * j - 1, {})[sweep.roof_code(code)] = mult
            for length, total in sweep.payoff({code: mult}).items():
                key = ((phi + length + 1) // 2 - j, length)
                paid[key] = paid.get(key, 0) + total
            for move in sweep.successors(code):
                move += code & sweep.mask  # a move is less the roof bits
                step = move >> shift  # 2e, or 2(e₁ + e₂) + 1 for a folded pair
                succ = (move & ((1 << shift) - 1), j + step // 2)
                out = buckets.setdefault(phi + 1 + step, {})
                out[succ] = out.get(succ, 0) + mult
    return paid, steps


def memo_hosts():
    """(host, floor, ceiling) of lattice sets, of sets under ceiling runs,
    of valley regions in both, and of two 12-13 point sets."""
    out = []
    for pts in lattice_subsets(12, seed=1)[::3] + ceiling_runs(6, seed=10)[::2] + LARGE[:2]:
        cfg = Configuration(pts)
        out.append((cfg.points, cfg.lower_boundary(), cfg.upper_boundary()))
        for floor, ceiling in valley_regions(cfg, 1, seed=13):
            out.append(region_host(cfg, floor, ceiling))
    return out


@pytest.mark.parametrize("host,floor,ceiling", memo_hosts())
def test_memoised_sweep_matches_a_memo_free_loop(host, floor, ceiling):
    # moves are memoised under the roof from the walk's first point on
    expanded = codes = 0
    for build, mode in (
        (_Sweep, {"ceiling": ceiling, "immediate": True}),
        (unpruned, {"ceiling": ceiling, "immediate": True}),
        (_Sweep, {"ceiling": ceiling}),
        (unpruned, {"ceiling": ceiling}),
        (_Sweep, {"immediate": True}),
        (_Sweep, {}),
    ):
        sweep = build(host, **mode)
        real = sweep.successors
        calls = []
        sweep.successors = lambda code: calls.append(code) or real(code)
        vectors = {}
        paid = _run(sweep, floor, lambda k, vec, w: vec and vectors.setdefault(k, vec))
        assert (paid, vectors) == memo_free_run(build(host, **mode), floor), (build, mode)
        expanded += len(calls)
        codes += len({code for vec in vectors.values() for code in vec})
    assert expanded > 0
    if len(host) > 11:
        assert expanded < codes


def widening_runs():
    """Calls of every sweep route on the generated sets: complete and
    maximal configurations and regions, ``tm`` edges and near-gons of
    them, weighted polygons, and the traced vectors of memo hosts."""
    calls = []
    for pts in SMALL[::2] + LARGE[:2] + ceiling_runs(6, seed=10):
        cfg = Configuration(pts)
        calls += [
            lambda c=cfg: complete_config_poly(c),
            lambda c=cfg: max_config_count(c),
        ]
        for floor, ceiling in hull_regions(cfg)[:2] + valley_regions(cfg, 2, seed=26):
            if not flat(cfg, floor, ceiling):
                for maximal in (False, True):
                    calls.append(
                        lambda c=cfg, f=floor, g=ceiling, m=maximal: region_poly(
                            c, f, g, maximal=m
                        )
                    )
    edges = [edge_poly(NearEdge(pts), "tm") for pts in random_edges(24, seed=27)]
    calls += [lambda e=e: e.complete for e in edges]
    calls += [lambda i=i: compose(edges[i : i + 3]) for i in range(0, 24, 3)]
    calls += [
        lambda ws=ws: complete_config_poly(weighted_polygon_config(ws))
        for ws in weight_tuples(4, seed=28)
    ]
    for host, floor, ceiling in memo_hosts()[::2]:
        for mode in ({"ceiling": ceiling}, {}):
            def traced(host=host, floor=floor, mode=mode):
                vectors = {}
                trace = lambda k, vec, w: vectors.update({k: (vec, w)})  # noqa: E731
                return _run(unpruned(host, **mode), floor, trace), vectors

            calls.append(traced)
    return calls


@pytest.mark.parametrize("data", [1, 2])
def test_forced_widening_keeps_every_result(monkeypatch, data):
    # complete-mode fields starting at 1 or 2 data bits widen in nearly
    # every run, several times; every result and traced vector must stay
    widened = []
    real = transfer._layout
    calls = widening_runs()
    want = [call() for call in calls]
    monkeypatch.setattr(transfer, "_DATA_BITS", data)
    monkeypatch.setattr(transfer, "_layout", lambda *a: widened.append(a) or real(*a))
    for call, result in zip(calls, want):
        assert call() == result
    assert len(calls) > 150 and sum(d > data for d, _, _ in widened) > 100


def test_every_kept_field_fits_its_data_bits(monkeypatch):
    # _run checks each bucket once, on the OR of its multiplicities, before
    # it pays the bucket off or expands it: a headroom bit in any code,
    # whether it pays off or not, must widen the fields first.  So every
    # field of every bucket a traced complete sweep keeps is below 2^data,
    # data the data bits of the layout the bucket was paid off with
    layouts = []  # (data, headroom) of the current run's layouts
    checked = widths = 0
    real_layout, real_replay = transfer._layout, transfer._replay

    def layout(data, headroom, fields):
        layouts.append((data, headroom))
        return real_layout(data, headroom, fields)

    def replay(sweep, kept, trace):
        nonlocal checked, widths
        data = {d + h: d for d, h in layouts}  # one headroom per run
        for phi, width, bucket in kept:
            for code, packed in bucket.items():
                for j, value in transfer._fields(packed, width):
                    assert value < 1 << data[width], (sweep.points, phi, code, j)
                    checked += 1
        widths += len(data)
        layouts.clear()
        real_replay(sweep, kept, trace)

    monkeypatch.setattr(transfer, "_DATA_BITS", 1)
    monkeypatch.setattr(transfer, "_layout", layout)
    monkeypatch.setattr(transfer, "_replay", replay)
    trace = lambda k, vec, paid: None  # noqa: E731
    runs = 0
    for pts in LARGE[:2] + SMALL[:12:4] + SMALL[12::4]:
        for cfg in (Configuration(pts), Configuration(scaled(pts))):
            complete_config_poly(cfg, trace=trace)
            runs += 1
            for floor, ceiling in valley_regions(cfg, 1, seed=31):
                region_poly(cfg, floor, ceiling, trace=trace)
                runs += 1
    assert runs > 12 and widths > 3 * runs and checked > 5_000, (runs, widths, checked)


def weight_tuples(count: int, seed: int) -> list[tuple[int, ...]]:
    """Side weights of convex polygons with 3-6 sides and at most 13
    points: long sides put collinear runs on the hull."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ws = tuple(rng.randint(1, 6) for _ in range(rng.randint(3, 6)))
        if sum(ws) <= 13:
            out.append(ws)
    return out


@pytest.mark.parametrize("ws", weight_tuples(10, seed=12))
def test_weighted_polygons_match_the_closed_form(ws):
    # a triangulation may skip any side point, so the sweep fills many
    # skip-count fields of its packed multiplicities
    cfg = weighted_polygon_config(ws)
    assert complete_config_poly(cfg).c == weighted_complete_poly(ws).c


def schoolbook_poly(ws):
    """The weighted polygon's polynomial as a near-gon of straight edges:
    the schoolbook ``PolyST`` product of the complete edge bases, paired
    by ``catalan_pair_st``.  It shares no code with the packed kernel."""
    prod = PolyST({(0, 0): 1})
    for a in ws:
        prod = prod * complete_edge_basis(a)
    return catalan_pair_st(prod)


def weight_multisets(count: int, seed: int, top: int = 25):
    rng = random.Random(seed)
    return [
        tuple(rng.randint(1, top) for _ in range(rng.randint(2, 7)))
        for _ in range(count)
    ]


def bound_bits(ws) -> int:
    """Bit length of the product of the l1 norms of the complete edge
    bases, the bound that fixes the packed field width."""
    bound = 1
    for a in ws:
        bound *= sum(map(abs, complete_edge_basis(a).c.values()))
    return bound.bit_length()


def test_weighted_recurrence_matches_the_schoolbook_product():
    for ws in weight_multisets(180, seed=14):
        assert weighted_complete_poly(ws) == schoolbook_poly(ws), ws


def test_weighted_recurrence_with_unit_and_two_sides():
    cases = [(1, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 2), (1, 25), (2, 25)]
    for i, ws in enumerate(weight_multisets(20, seed=15, top=12)):
        cases.append(ws + (1 + i % 2,))
    for ws in cases:
        assert weighted_complete_poly(ws) == schoolbook_poly(ws), ws


def test_weighted_recurrence_on_both_sides_of_a_byte_edge():
    # a bound of 8m - 1 bits packs into m bytes a field, one of 8m bits
    # into m + 1: the width is tightest just below the edge
    below, above = [], []
    for ws in weight_multisets(400, seed=16, top=12):
        bits = bound_bits(ws)
        side = {7: below, 0: above}.get(bits % 8)
        if side is not None and len(side) < 10:
            side.append(ws)
    assert len(below) == len(above) == 10
    for ws in below + above:
        assert weighted_complete_poly(ws) == schoolbook_poly(ws), ws


def random_edges(count: int, seed: int) -> list[tuple[tuple[int, int], ...]]:
    """Near-edges of weight 1-8 with heights in [-2, 2]: collinear runs on
    and off the chord, and every fourth edge scaled by 10^40."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        w = rng.randint(1, 8)
        pts = [(0, 0)] + [(x, rng.randint(-2, 2)) for x in range(1, w)] + [(w, 0)]
        out.append(scaled(pts) if i % 4 == 3 else tuple(pts))
    return out


def test_covering_roofs_route_matches_the_transfer_route():
    factors = [f for pts in random_edges(400, seed=4) for f in factorize(NearEdge(pts))]
    assert len(factors) > 400
    for f in factors:
        assert covering_roof_edge_poly(f).complete == complete_edge_poly_tm(f), f.points


@pytest.mark.parametrize("pts", [e for e in random_edges(12, seed=5) if len(e) > 6][:4])
def test_roof_table_matches_one_ceiling_sweep_per_roof(pts):
    for idxs in sub_edges(pts):
        sub = tuple(pts[i] for i in idxs)
        floor = lower_hull(sub)
        want: dict[int, int] = {}
        for r in covering_roofs(sub):
            tau = max_region_count_points(sub, floor, tuple(sub[i] for i in r))
            if tau:
                want[len(r) - 1] = want.get(len(r) - 1, 0) + tau
        assert covering_roof_counts(sub) == want, sub


def roof_segment_hits(host, floor, ceiling=None) -> tuple[int, int]:
    """(traced states, host points lying inside a roof segment of one) of
    an unpruned immediate sweep from ``floor``."""
    n = len(host) - 1
    seen = [0, 0]

    def trace(k, vec, paid):
        for code in vec:
            seen[0] += 1
            seen[1] += segment_hits(host, decode(code, n).indices)

    _run(unpruned(host, ceiling=ceiling, immediate=True), floor, trace)
    return seen[0], seen[1]


def test_no_host_point_lies_inside_a_roof_segment_of_an_immediate_sweep():
    # the invariant behind both the immediate move rule and the covering
    # roofs route; it fails when an immediate sweep keeps the merges that
    # skip a point
    hosts = [
        tuple(pts[i] for i in idxs)
        for pts in random_edges(120, seed=13)
        for idxs in sub_edges(pts)
    ]
    assert any(x >= HUGE for host in hosts for x, _ in host)
    runs = [(host, lower_hull(host), None) for host in hosts]
    for pts in lattice_subsets(40, seed=14):
        host = Configuration(pts).points
        floor = lower_hull(host)
        runs += [(host, floor, None), (host, floor, upper_hull(host))]
    # maximal region sweeps, every third set scaled by 10^40
    for i, pts in enumerate(ceiling_runs(12, seed=15) + lattice_subsets(12, seed=16)):
        cfg = Configuration(scaled(pts) if i % 3 == 2 else pts)
        for floor, ceiling in hull_regions(cfg) + valley_regions(cfg, 3, seed=i):
            if not flat(cfg, floor, ceiling):
                runs.append(region_host(cfg, floor, ceiling))
    states = 0
    for host, floor, ceiling in runs:
        traced, hits = roof_segment_hits(host, floor, ceiling)
        assert hits == 0, (host, floor, ceiling)
        states += traced
    assert states > 20_000


def move_dag(sweep, floor, expand=None):
    """Every code the moves of ``sweep`` (or of ``expand``) reach from the
    floor roofs, and those from which a ceiling payoff can still be
    reached."""
    expand = expand or sweep.successors
    codes = (1 << sweep.skip_shift) - 1
    into: dict[int, set[int]] = {}
    todo = [bits for bits, _ in _floor_roofs(sweep.points, floor, sweep.immediate)]
    for code in todo:
        into.setdefault(code, set())
    while todo:
        code = todo.pop()
        for move in expand(code):
            succ = (code & sweep.mask) + move & codes
            if succ not in into:
                into[succ] = set()
                todo.append(succ)
            into[succ].add(code)
    live = {code for code in into if sweep.payoff({code: 1})}
    todo = list(live)
    while todo:
        for code in into[todo.pop()] - live:
            live.add(code)
            todo.append(code)
    return set(into), live


def stuck_hosts():
    """(host, floor, ceiling) of lattice subsets, of sets on a 6x6 grid
    (collinear runs and vertical ties), of sets under ceiling runs, and of
    valley regions in each."""
    out = []
    for pts in (
        lattice_subsets(64, seed=15)
        + random_sets(64, seed=16, lo=6, hi=10, box=6)
        + ceiling_runs(64, seed=17)
    ):
        cfg = Configuration(pts)
        out.append((cfg.points, cfg.lower_boundary(), cfg.upper_boundary()))
        for floor, ceiling in valley_regions(cfg, 2, seed=18):
            out.append(region_host(cfg, floor, ceiling))
    return out


def test_the_cascade_rule_drops_no_live_code():
    # the full move DAG, unpruned, marks the codes that can still pay
    # off; no successor the pruned walk drops may be one of them.  A
    # traced complete-mode walk keeps the on-ceiling part of the rule
    # only, and an untraced one drops the merges of on-ceiling points and
    # folds its forced merges
    sweeps = dropped = 0
    walked = {}  # (immediate, walk) -> codes the walks reach
    for host, floor, ceiling in stuck_hosts():
        for immediate in (True, False):
            mode = {"ceiling": ceiling, "immediate": immediate}
            full = unpruned(host, **mode)
            pruned = _Sweep(host, **mode)
            on, n = full.ceiling_bits, full.n
            assert all(fixed & on == on for fixed in pruned.fixed)
            unfolded = unfold(pruned).successors
            walks = [
                ("unpruned", full, None),
                ("pruned", pruned, unfolded),
                ("folded", pruned, None),
            ]
            traced = full  # a traced maximal sweep is the unpruned one
            if not immediate:
                traced = _Sweep(host, **mode, traced=True)
                assert traced.exposed == [0] * n and traced.fixed == [on] * n
                walks.append(("traced", traced, None))
            codes = (1 << full.skip_shift) - 1
            reached, live = move_dag(full, floor)
            for code in reached:
                bits = code & full.mask  # a move is less the roof bits
                every = {bits + m & codes for m in full.successors(code)}
                part = {bits + m & codes for m in traced.successors(code)}
                new = {bits + m & codes for m in unfolded(code)}
                assert new <= part <= every
                assert not (every - new) & live, (host, ceiling, immediate, code)
                dropped += len(every - new)
            for walk, sweep, expand in walks:
                key = (immediate, walk)
                reach = len(move_dag(sweep, floor, expand)[0])
                walked[key] = walked.get(key, 0) + reach
            sweeps += 1
    assert sweeps > 800 and dropped > 3000
    assert walked[True, "unpruned"] == 21_004 and walked[False, "unpruned"] == 34_443
    # the frozen-prefix and stuck rules that this rule merges reached
    # 13,475 codes in immediate mode and 23,651 in complete mode; without
    # dropping the merges of on-ceiling points the rule reached 12,264 and
    # 22,724, and folding skipped to 10,055 and 16,684
    assert walked[False, "traced"] == 25_230
    assert walked[True, "pruned"] == 11_594 and walked[False, "pruned"] == 22_700
    # folding skips the children whose only move is a forced merge
    assert walked[True, "folded"] == 9_415 and walked[False, "folded"] == 16_660


def unmet(sweep, code) -> bool:
    """True when a bad bit of a sweep code lies before its last on-ceiling
    roof point at or before a, the roof point before the marker: the bad
    bits are the roof points off the ceiling path and the ceiling points
    that a ceiling roof needs and this one lacks.  No pruned sweep meets
    such a code."""
    bits = code & sweep.mask
    a = (bits & sweep.low[code >> sweep.shift]).bit_length()
    last = (bits & sweep.ceiling_bits & ((1 << a) - 1)).bit_length()
    bad = (bits ^ sweep.required) & sweep.care
    return bool(bad & ((1 << last) - 1))


def hull_sets():
    """(host, floor, ceiling) of random sets of 5-18 points between their
    lower and upper hulls."""
    out = []
    for pts in random_sets(8, seed=29, lo=5, hi=18, box=40):
        cfg = Configuration(pts)
        out.append((cfg.points, cfg.lower_boundary(), cfg.upper_boundary()))
    return out


def test_no_met_code_has_a_bad_bit_before_an_on_ceiling_point():
    # the last walk that moved the marker past an on-ceiling roof point
    # checked it and went on, so no bad bit lies before it; the walk
    # relies on this without checking it.  The unpruned sweeps meet such
    # codes, so the check is not empty
    met = flagged = 0
    for host, floor, ceiling in stuck_hosts() + hull_sets():
        for immediate in (True, False):
            mode = {"ceiling": ceiling, "immediate": immediate}
            sweeps = [_Sweep(host, **mode)]
            if not immediate:
                sweeps.append(_Sweep(host, **mode, traced=True))
            for sweep in sweeps:
                for code in move_dag(sweep, floor)[0]:
                    assert not unmet(sweep, code), (host, ceiling, mode, code)
                    met += 1
            full = unpruned(host, **mode)
            flagged += sum(unmet(full, code) for code in move_dag(full, floor)[0])
    assert met > 150_000 and flagged > 150_000


def fold_hosts():
    """The (host, floor, ceiling) of :func:`stuck_hosts`, every fourth
    scaled by 10^40."""
    return [
        tuple(scaled(path) for path in region) if i % 4 == 0 else region
        for i, region in enumerate(stuck_hosts())
    ]


def test_each_forced_merge_is_folded_into_its_insertion():
    # on every code a pruned sweep meets, complete or immediate, its moves
    # are the unfolded walk's, except that an insertion whose child does
    # not pay off and whose only move is the merge of the child's marker
    # point a from its left neighbour p is that merge's result, with
    # potential step 2(e₁ + e₂) + 1.  The child's walk stops by the step
    # from a to the inserted point q, so the rule sees every such merge
    pairs = {}
    for host, floor, ceiling in fold_hosts():
        for immediate in (False, True):
            sweep = _Sweep(host, ceiling=ceiling, immediate=immediate)
            plain = unfold(sweep).successors
            n, shift, mask = sweep.n, sweep.skip_shift, sweep.mask
            codes = (1 << shift) - 1
            reached = move_dag(sweep, floor)[0]
            # the memo-key argument still holds
            assert reached <= move_dag(sweep, floor, plain)[0]
            for code in reached:
                # moves are less the roof bits; these are the codes reached
                # plus their high fields
                bits = code & mask
                want = []
                for move in plain(code):
                    move += bits
                    child = move & codes
                    a = child >> sweep.shift  # the child's marker point
                    inserted = (
                        child & mask & ~code and a and not sweep.payoff({child: 1})
                    )
                    nxt = []
                    if inserted:
                        nxt = [(child & mask) + m for m in plain(child)]
                    if len(nxt) == 1 and nxt[0] & mask == child & mask ^ 1 << (a - 1):
                        roof = decode(sweep.roof_code(child), n)
                        ahead = DecoratedRoof(roof.indices, roof.d + 1)
                        p = roof.indices[roof.d - 1]
                        assert stuck(host, ahead, p, ceiling, immediate)
                        step = (move >> shift) + (nxt[0] >> shift) + 1
                        want.append(nxt[0] & codes | step << shift)
                        pairs[immediate] = pairs.get(immediate, 0) + 1
                        continue
                    want.append(move)
                got = sorted(bits + m for m in sweep.successors(code))
                assert got == sorted(want), (host, immediate, code)
    assert pairs == {False: 8_970, True: 3_097}


def twin_hosts():
    """The (host, floor, ceiling) of :func:`fold_hosts` and
    :func:`hull_sets`, and of the 12-13 point sets scaled by 10^40."""
    out = fold_hosts() + hull_sets()
    for pts in LARGE:
        cfg = Configuration(scaled(pts))
        out.append((cfg.points, cfg.lower_boundary(), cfg.upper_boundary()))
    return out


def test_merged_twins_match_unmerged_and_traced_sweeps():
    # an untraced sweep under a ceiling walks a marker-0 code and its
    # first-point twin once when both are in a bucket; its payoffs must
    # be those of the same sweep with the merge off, and of the traced
    # sweep, which neither merges nor folds
    walks = {True: 0, False: 0}
    for host, floor, ceiling in twin_hosts():
        for immediate in (False, True):
            mode = {"ceiling": ceiling, "immediate": immediate}
            paid = {}
            for merge in (True, False):
                sweep = _Sweep(host, **mode)
                sweep.twins = merge
                real = sweep.successors
                sweep.successors = lambda code, real=real, merge=merge: (
                    walks.__setitem__(merge, walks[merge] + 1) or real(code)
                )
                paid[merge] = _run(sweep, floor, None)
            traced = _run(
                _Sweep(host, **mode, traced=True), floor, lambda k, vec, paid: None
            )
            assert paid[True] == paid[False] == traced, (host, mode)
    # the merged sweeps walked 8,660 marker-0 codes no further than their
    # first segment
    assert (walks[True], walks[False]) == (55_660, 64_320)



@pytest.mark.parametrize("data", [transfer._DATA_BITS, 1])
def test_payoff_matches_a_scan_of_every_code(monkeypatch, data):
    # a ceiling sweep without optional points reads its payoffs from the
    # codes with the ceiling's bits, one per marker-field value; every
    # bucket that maximal and complete sweeps, untraced and traced, pay
    # off or replay must give the payoffs of a scan of every code.  At 1
    # data bit nearly every run widens, so widened buckets are compared too
    monkeypatch.setattr(transfer, "_DATA_BITS", data)
    seen = {}  # (the lookup or the scan, whether it paid) -> buckets
    for host, floor, ceiling in twin_hosts():
        for immediate in (False, True):
            for trace in (None, lambda k, vec, paid: None):
                sweep = _Sweep(
                    host, ceiling=ceiling, immediate=immediate, traced=bool(trace)
                )
                real = sweep.payoff

                def payoff(vec, sweep=sweep, real=real):
                    got = real(vec)
                    assert got == scan_payoff(sweep, vec), (host, ceiling)
                    key = (sweep.paying is not None, bool(got))
                    seen[key] = seen.get(key, 0) + 1
                    return got

                sweep.payoff = payoff
                _run(sweep, floor, trace)
    # both ways pay off some buckets and not others (5,083 buckets take the
    # scan and 16,240 the lookup)
    assert all(seen.get(key) for key in product((True, False), repeat=2))


def test_payoff_reads_codes_under_every_marker():
    # a code with the ceiling's bits pays off whatever its marker field
    # holds: the host index n past the last segment, where a broken move
    # could park a roof, or a point that is not on the roof
    cfg = Configuration([(0, 0), (1, 3), (2, 1), (3, 4), (4, 0), (5, 2)])
    for immediate in (True, False):
        sweep = _Sweep(cfg.points, ceiling=cfg.upper_boundary(), immediate=immediate)
        n, need, shift = sweep.n, sweep.required, sweep.shift
        stray = next(m for m in range(1, n) if not need >> (m - 1) & 1)
        vec = {
            need: 2,
            n << shift | need: 3,
            stray << shift | need: 5,
            stray << shift | need | 1 << (stray - 1): 8,  # not the ceiling's bits
        }
        assert sweep.paying is not None
        want = {need.bit_count() + 1: 10}
        assert sweep.payoff(vec) == scan_payoff(sweep, vec) == want


def traced_hosts():
    """Configurations of the pinned examples and of 12-14 random points,
    with the regions of their hulls and valleys."""
    sets = small_configs() + [COLUMNS11] + random_sets(4, seed=19, lo=12, hi=14, box=40)
    out = [(Configuration(SQUEEZE), SQUEEZE_FLOOR, SQUEEZE_CEILING)]
    for pts in sets:
        cfg = Configuration(pts)
        out.append((cfg, None, None))
        for floor, ceiling in hull_regions(cfg)[:2] + valley_regions(cfg, 2, seed=20):
            if not flat(cfg, floor, ceiling):
                out.append((cfg, floor, ceiling))
    return out


@pytest.mark.parametrize("cfg,floor,ceiling", traced_hosts())
def test_traced_runs_match_untraced_runs(cfg, floor, ceiling):
    # a traced complete run keeps only the on-ceiling part of the cascade
    # rule, and a traced maximal run none of it
    for maximal in (True, False):
        if floor is None:
            run = max_config_count if maximal else complete_config_poly
        else:
            def run(c, **kw):
                return region_poly(c, floor, ceiling, maximal=maximal, **kw)
        traced = run(cfg, trace=lambda k, vec, paid: None)
        unpruned = unpruned_sweep(cfg, floor, ceiling, maximal=maximal)
        assert traced == run(cfg) == unpruned


SYMMETRIES = [
    lambda x, y: (x, y), lambda x, y: (-x, y), lambda x, y: (x, -y),
    lambda x, y: (-x, -y), lambda x, y: (y, x), lambda x, y: (-y, x),
    lambda x, y: (y, -x), lambda x, y: (-y, -x),
]


@pytest.mark.parametrize(
    "pts",
    random_sets(1, seed=21, lo=18, hi=18, box=60)
    + random_sets(1, seed=22, lo=16, hi=17, box=9)
    + [
        pytest.param(pts, marks=pytest.mark.slow)
        for pts in random_sets(3, seed=25, lo=20, hi=22, box=60)
    ],
)
def test_symmetric_configurations_give_equal_counts(pts):
    # each symmetry sweeps in a different order and prunes a different
    # move DAG
    cfg = Configuration(pts)
    count, poly = max_config_count(cfg), complete_config_poly(cfg)
    assert poly.leading() == count
    for sym in SYMMETRIES[1:]:
        image = Configuration([sym(x, y) for x, y in pts])
        assert max_config_count(image) == count, sym
        assert complete_config_poly(image) == poly, sym


def mirrored_region(cfg, floor, ceiling, sym):
    """The image of a region under a mirror: its configuration and its
    paths as sweep-order index paths, floor and ceiling swapped when the
    mirror turns the region upside down."""
    image = Configuration([sym(*p) for p in cfg.points])
    index = {p: i for i, p in enumerate(image.points)}

    def path(idx):
        return tuple(sorted(index[sym(*cfg.points[i])] for i in idx))

    if sym(0, 1)[1] < 0:
        floor, ceiling = ceiling, floor
    return image, path(floor), path(ceiling)


@pytest.mark.parametrize("pts", random_sets(4, seed=23, lo=12, hi=14, box=40))
def test_mirrored_regions_give_equal_polynomials(pts):
    cfg = Configuration(pts)
    regions = hull_regions(cfg)[:2] + valley_regions(cfg, 2, seed=24)
    checked = 0
    for floor, ceiling in regions:
        # a vertical path segment runs the other way in a mirror's sweep
        xs = [[cfg.points[i][0] for i in path] for path in (floor, ceiling)]
        if flat(cfg, floor, ceiling) or any(len(set(x)) < len(x) for x in xs):
            continue
        poly = region_poly(cfg, floor, ceiling)
        count = region_poly(cfg, floor, ceiling, maximal=True)
        for sym in SYMMETRIES[1:3]:
            image = mirrored_region(cfg, floor, ceiling, sym)
            assert region_poly(*image) == poly, (floor, ceiling, sym)
            assert region_poly(*image, maximal=True) == count, (floor, ceiling, sym)
        checked += 1
    assert checked
