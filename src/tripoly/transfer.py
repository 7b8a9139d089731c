"""Transfer iteration sweeping a region by decorated roofs.

The host is a sequence of points P_0..P_n in sweep order.  A state
vector maps decorated-roof codes to multiplicities; one transfer step
replaces every state by the sum of its successor states.  Fresh states
are injected from the floor of the region, and whenever a state's
skyline reaches the ceiling it pays off into the accumulating result.

A state is the integer code ``d << (n - 1) | bits`` of
:mod:`tripoly.roofs`: bit i - 1 of ``bits`` flags interior point i as a
roof point, and d is the roof position of the marked segment.  The sweep
never decodes a state.  It walks the interior bits with ``bits & -bits``
and ``bit_length()`` from position d - 1 onwards, and a successor is one
bit set (an insertion into a segment) or cleared (a merge of a wedge)
plus its new marker.  Two tables, filled lazily per host, decide the
moves: the insertion candidates of each segment (a, b) and the merge
legality of each triple (a, m, b).  In immediate mode both also demand
that the swept triangle holds no other host point.

One loop serves three modes, which differ in the tables they keep:

* maximal (immediate moves, all points used): every move adds one
  triangle, so by Euler's formula a code can be reached at one step
  only and is expanded exactly once.  This mode keeps no successor and
  no match table; a state matches the ceiling when its bits equal the
  ceiling's bits, so a payoff reads the few codes with those bits.
  Its dead-end test is one compare: with c the last on-ceiling roof
  point at or before the start of the move walk, the state is dead when
  its bits up to c differ from the ceiling's.  This is exact: the roof
  before c changes only after c is merged away, and a merged point lies
  strictly under the roof from then on, so it is never inserted again
  and the roof can never become the ceiling.  The compared prefix only
  grows along the walk, so the walk stops at the first dead position.
  By Euler's formula such a run pays off at one step only, which
  :func:`max_region_count_points` checks.
* complete (any moves, optional points): codes recur at many steps, so
  the successor tuple of each code is kept.  A table keyed by ``bits``
  decides the ceiling match, and a table keyed by the roof prefix up to
  the last on-ceiling point at or before the marker decides whether a
  successor is a dead end, i.e. touches the ceiling along a path the
  ceiling does not follow.  Both compare corner paths exactly.
* edge (complete moves, no ceiling): every state pays off with its
  length ``popcount(bits) + 1``; the successor table is kept.

An immediate sweep without a ceiling is the maximal mode run for every
ceiling at once.  Its payoff also adds each state's multiplicity to a
table keyed by ``bits``: as each code is reached at one step only, the
entry of a roof, summed over its markers, is the maximal count of the
region between the floor and that roof.  One sweep from a floor thus
gives the count under every roof it reaches.

Exponent bookkeeping runs in half units of s: a state reached at step k
with a roof of length L (segments) accounts for (2 + k + L)/2 used
vertices, an even half because every move changes k + L by zero or two.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable, Mapping, Sequence

from . import roofs as roofmod
from .exactmath import PolyS, PolyST, maximal_edge_basis
from .planar import (
    Configuration,
    NearEdge,
    Point,
    lower_hull,
    on_segment,
    orient,
    path_corners,
    point_on_path,
    point_vs_path,
    sweep_key,
    upper_hull,
)
from .roofs import DecoratedRoof, decode, encode

TraceFn = Callable[[int, dict[int, int], dict[int, int]], None]


def _path_prefix(part: Sequence[Point], corners: Sequence[Point]) -> bool:
    """True when the corner path ``part`` is an initial piece of ``corners``.

    All corners must coincide except that the last point of ``part`` may
    lie anywhere on the corresponding segment of the longer path.
    """
    if len(part) > len(corners):
        return False
    if len(part) == 1:
        return part[0] == corners[0]
    for i in range(len(part) - 1):
        if part[i] != corners[i]:
            return False
    last = part[-1]
    j = len(part) - 1
    return last == corners[j] or on_segment(last, corners[j - 1], corners[j])


class _Sweep:
    """Bitmask successor machine over a fixed host point sequence."""

    def __init__(
        self,
        points: Sequence[Point],
        *,
        ceiling: Sequence[Point] | None = None,
        immediate: bool = False,
        prune: bool = False,
    ):
        self.points = tuple(points)
        n = self.n = len(self.points) - 1
        self.shift = n - 1
        self.mask = (1 << (n - 1)) - 1
        self.immediate = immediate
        size = n + 1
        self._ins: list[tuple[int, ...] | None] = [None] * (size * size)
        self._merge: list[bool | None] = [None] * (size * size * size)
        self._succ: dict[int, tuple[int, ...]] = {}
        self.ceiling_bits: int | None = None
        # roof bits -> maximal count, filled by an immediate run without
        # a ceiling
        self.reached: dict[int, int] | None = (
            {} if immediate and ceiling is None else None
        )
        if ceiling is not None:
            self.ceiling_bits = sum(
                1 << (i - 1)
                for i in range(1, n)
                if point_on_path(self.points[i], ceiling)
            )
            if not immediate:
                self.ceiling_corners = path_corners(tuple(ceiling))
                self._match: dict[int, int] = {}
                self._dead: dict[int, bool] = {}
        # with no interior point on the ceiling no prefix is ever a dead end
        self.prune = bool(prune and self.ceiling_bits)

    # -- lazily filled tables --------------------------------------------

    def _insertions(self, a: int, b: int) -> tuple[int, ...]:
        """Bits of the points q that may be inserted into segment (a, b)."""
        p = self.points
        return tuple(
            1 << (q - 1)
            for q in range(a + 1, b)
            if orient(p[a], p[b], p[q]) > 0
            and (not self.immediate or roofmod.closed_triangle_empty(p, a, q, b))
        )

    def _mergeable(self, a: int, m: int, b: int) -> bool:
        p = self.points
        return orient(p[a], p[b], p[m]) < 0 and (
            not self.immediate or roofmod.closed_triangle_empty(p, a, m, b)
        )

    def _roof_points(self, bits: int) -> tuple[Point, ...]:
        return tuple(self.points[i] for i in decode(bits, self.n).indices)

    def _match_length(self, bits: int) -> int:
        """Roof length when the skyline is the ceiling, else 0."""
        if path_corners(self._roof_points(bits)) != self.ceiling_corners:
            return 0
        return bits.bit_count() + 1

    def _dead_prefix(self, prefix: int) -> bool:
        """Frozen-prefix test: the roof points up to the highest bit of
        ``prefix``, an on-ceiling point (or P_0 when ``prefix`` is 0),
        leave the ceiling's path."""
        part = path_corners(self._roof_points(prefix)[:-1])
        return not _path_prefix(part, self.ceiling_corners)

    # -- moves ---------------------------------------------------------------

    def successors(self, code: int) -> tuple[int, ...]:
        """Codes reachable by one move at or past the marker.

        Inserting q into the segment at position k >= d gives marker k;
        merging the middle point of the wedge at position k >= d - 1
        gives marker k.  With pruning, moves at positions whose frozen
        prefix is a dead end are dropped; in immediate mode the frozen
        prefix only grows along the walk, so the walk stops at the first
        dead one.
        """
        n = self.n
        size = n + 1
        d = code >> self.shift
        bits = code & self.mask
        ins, merge = self._ins, self._merge
        # a is the roof point at position k; b the next one, with bit lowb
        k = d - 1 if d else 0
        a = 0
        rest = bits
        for _ in range(k):
            low = rest & -rest
            rest ^= low
            a = low.bit_length()
        lowb = rest & -rest
        b = lowb.bit_length() if lowb else n
        head = (k << self.shift) | bits  # this roof with marker k
        step = 1 << self.shift
        dead = False
        watch = 0  # roof bits at which the frozen prefix changes
        if self.prune:
            on = self.ceiling_bits
            # the frozen prefix ends at the last on-ceiling roof point at
            # or before a, or at P_0 when there is none
            last = (bits & on & ((1 << a) - 1)).bit_length()
            if self.immediate:
                # a maximal payoff needs bits == on exactly: the walk is
                # dead from the first on-ceiling roof point at or past
                # the lowest mismatch
                diff = bits ^ on
                if diff & ((1 << last) - 1):
                    return ()
                watch = bits & on & -(diff & -diff)
                watch &= -watch
            else:
                watch = on
                table = self._dead
                prefix = bits & ((1 << last) - 1)
                dead = table.get(prefix)
                if dead is None:
                    dead = table[prefix] = self._dead_prefix(prefix)
        out = []
        while True:
            if k >= d and not dead:
                key = a * size + b
                cand = ins[key]
                if cand is None:
                    cand = ins[key] = self._insertions(a, b)
                for qbit in cand:
                    out.append(head | qbit)
            if b == n:
                break
            rest ^= lowb
            lowc = rest & -rest
            c = lowc.bit_length() if lowc else n
            if not dead:
                key = (a * size + b) * size + c
                ok = merge[key]
                if ok is None:
                    ok = merge[key] = self._mergeable(a, b, c)
                if ok:
                    out.append(head ^ lowb)
            if lowb & watch:
                if self.immediate:
                    break
                # b becomes the last on-ceiling point of the prefix
                prefix = bits & ((lowb << 1) - 1)
                dead = table.get(prefix)
                if dead is None:
                    dead = table[prefix] = self._dead_prefix(prefix)
            a, b, lowb = b, c, lowc
            k += 1
            head += step
        return tuple(out)

    def apply(self, vec: Mapping[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        get = out.get
        table = self._succ
        keep = not self.immediate  # maximal mode reaches each code once
        for code, mult in vec.items():
            succ = table.get(code)
            if succ is None:
                succ = self.successors(code)
                if keep:
                    table[code] = succ
            for nxt in succ:
                out[nxt] = get(nxt, 0) + mult
        return out

    def payoff(self, vec: Mapping[int, int]) -> dict[int, int]:
        """Roof length -> total multiplicity of the states that pay off."""
        out: dict[int, int] = {}
        mask = self.mask
        if self.ceiling_bits is None:
            reached = self.reached
            for code, mult in vec.items():
                bits = code & mask
                length = bits.bit_count() + 1
                out[length] = out.get(length, 0) + mult
                if reached is not None:
                    reached[bits] = reached.get(bits, 0) + mult
        elif self.immediate:
            bits = self.ceiling_bits
            length = bits.bit_count() + 1
            total = 0
            for d in range(length):
                total += vec.get((d << self.shift) | bits, 0)
            if total:
                out[length] = total
        else:
            # a roof through a point off the ceiling path cannot have the
            # ceiling's corners: dropping a corner on the segment joining
            # its neighbours keeps the path's point set
            off = mask ^ self.ceiling_bits
            table = self._match
            for code, mult in vec.items():
                bits = code & mask
                if bits & off:
                    continue
                length = table.get(bits)
                if length is None:
                    length = table[bits] = self._match_length(bits)
                if length:
                    out[length] = out.get(length, 0) + mult
        return out


def _floor_indices(
    points: Sequence[Point], floor: Sequence[Point]
) -> tuple[list[int], list[int]]:
    """Host indices of the floor corners and of the other floor points."""
    pts = tuple(points)
    n = len(pts) - 1
    pos = {p: i for i, p in enumerate(pts)}
    corners = path_corners(tuple(floor))
    corner_idx = []
    for c in corners:
        if c not in pos:
            raise ValueError(f"floor corner {c} is not a host point")
        corner_idx.append(pos[c])
    if corner_idx[0] != 0 or corner_idx[-1] != n:
        raise ValueError("floor must join the first and last host points")
    optional = [
        i
        for i, p in enumerate(pts)
        if i not in corner_idx and point_on_path(p, floor)
    ]
    return corner_idx, optional


def initial_vectors(
    points: Sequence[Point], floor: Sequence[Point]
) -> dict[int, dict[int, int]]:
    """Floor states by injection step.

    Every roof made of the floor corners plus any subset of the other
    host points lying on the floor path starts the iteration with marker
    0, entering at the step equal to its length.
    """
    n = len(points) - 1
    corner_idx, optional = _floor_indices(points, floor)
    out: dict[int, dict[int, int]] = {}
    for r in range(len(optional) + 1):
        for extra in combinations(optional, r):
            idx = tuple(sorted(corner_idx + list(extra)))
            code = encode(DecoratedRoof(idx, 0), n)
            k = len(idx) - 1
            level = out.setdefault(k, {})
            level[code] = level.get(code, 0) + 1
    return out


def apply_transfer(
    points: Sequence[Point],
    vec: Mapping[int, int],
    *,
    ceiling: Sequence[Point] | None = None,
    immediate: bool = False,
    prune: bool = False,
) -> dict[int, int]:
    """One transfer step applied to a state vector (codes -> counts)."""
    sweep = _Sweep(points, ceiling=ceiling, immediate=immediate, prune=prune)
    return sweep.apply(vec)


def render_vector(points: Sequence[Point], vec: Mapping[int, int]) -> str:
    n = len(points) - 1
    parts = [
        f"{mult}*R{code}{decode(code, n).render()}"
        for code, mult in sorted(vec.items())
    ]
    return " + ".join(parts) if parts else "0"


def _step_bound(points: Sequence[Point], kmax: int) -> int:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return kmax + 2 * (max(xs) - min(xs)) * (max(ys) - min(ys)) + 4


def _run(
    sweep: _Sweep,
    init: Mapping[int, Mapping[int, int]],
    trace: TraceFn | None,
) -> dict[tuple[int, int], int]:
    """The transfer loop: payoffs keyed by (step, roof length).

    Complete and edge runs report every step from 1 until the vector
    empties, that last empty step included.  A maximal run starts at
    its single floor state and stops at its last non-empty vector.
    """
    kmax = max(init)
    bound = _step_bound(sweep.points, kmax)
    paid: dict[tuple[int, int], int] = {}
    vec: dict[int, int] = {}
    k = kmax - 1 if sweep.immediate else 0
    while vec or k < kmax:
        k += 1
        if k > bound:
            raise AssertionError("transfer iteration failed to terminate")
        vec = sweep.apply(vec)
        for code, mult in init.get(k, {}).items():
            vec[code] = vec.get(code, 0) + mult
        if not vec and sweep.immediate:
            break
        w = sweep.payoff(vec)
        if trace is not None:
            trace(k, dict(vec), dict(w))
        for length, mult in w.items():
            if (k + length) % 2:
                raise AssertionError("odd vertex count in a paid-off state")
            paid[k, length] = mult
    return paid


def _run_complete(
    host: Sequence[Point],
    floor: Sequence[Point],
    ceiling: Sequence[Point],
    *,
    prune: bool | None = None,
    trace: TraceFn | None = None,
) -> PolyS:
    sweep = _Sweep(host, ceiling=ceiling, prune=prune is not False)
    total: dict[int, int] = {}
    for (k, length), coeff in _run(sweep, initial_vectors(host, floor), trace).items():
        h = (2 + k + length) // 2
        total[h] = total.get(h, 0) + coeff
    return PolyS(total)


def _maximal_start(
    sweep: _Sweep, floor: Sequence[Point]
) -> dict[int, dict[int, int]]:
    """The single floor state of a maximal run: every floor point used."""
    corner_idx, optional = _floor_indices(sweep.points, floor)
    start = tuple(sorted(corner_idx + optional))
    return {len(start) - 1: {encode(DecoratedRoof(start, 0), sweep.n): 1}}


def max_region_count_points(
    points: Sequence[Point],
    floor: Sequence[Point],
    ceiling: Sequence[Point],
    *,
    prune: bool | None = None,
    trace: TraceFn | None = None,
) -> int:
    """Maximal triangulations of the region between two paths, hosting
    exactly the given points (all of which must be used).

    Dead-end pruning is on unless ``prune`` is False.
    """
    sweep = _Sweep(
        points, ceiling=ceiling, immediate=True, prune=prune is not False
    )
    paid = _run(sweep, _maximal_start(sweep, floor), trace)
    # Euler's formula fixes the triangle count under the ceiling
    if len(paid) > 1:
        steps = sorted(k for k, _ in paid)
        raise AssertionError(f"maximal payoffs at several steps {steps}")
    return sum(paid.values())


def max_roof_counts(
    points: Sequence[Point],
    floor: Sequence[Point],
    roofs: Sequence[Sequence[int]],
    *,
    trace: TraceFn | None = None,
) -> list[int]:
    """Maximal counts of the regions between the floor and each roof.

    Each roof is a covering roof over the points, an index sequence from
    0 to n; its count equals that of :func:`max_region_count_points`
    with the roof's points as ceiling.  One sweep without a ceiling
    yields all of them.
    """
    sweep = _Sweep(points, immediate=True)
    _run(sweep, _maximal_start(sweep, floor), trace)
    reached, n = sweep.reached, sweep.n
    return [reached.get(encode(DecoratedRoof(tuple(r), 0), n), 0) for r in roofs]


def _region_host(
    config: Configuration,
    floor_idx: Sequence[int],
    ceiling_idx: Sequence[int],
) -> tuple[tuple[Point, ...], tuple[Point, ...], tuple[Point, ...]]:
    """Validate a region of a configuration.

    Returns the participating points in sweep order together with the
    floor and ceiling as point paths.
    """
    pts = config.points
    for name, idxs in (("floor", floor_idx), ("ceiling", ceiling_idx)):
        if len(idxs) < 2:
            raise ValueError(f"{name} path needs at least two indices")
        if any(i < 0 or i >= len(pts) for i in idxs):
            raise ValueError(f"{name} path index out of range")
        if any(a >= b for a, b in zip(idxs, idxs[1:])):
            raise ValueError(
                f"{name} path must be strictly increasing in sweep order"
            )
    floor = tuple(pts[i] for i in floor_idx)
    ceiling = tuple(pts[i] for i in ceiling_idx)
    if floor[0] != ceiling[0] or floor[-1] != ceiling[-1]:
        raise ValueError("floor and ceiling must share their endpoints")
    if set(floor_idx[1:-1]) & set(ceiling_idx[1:-1]):
        raise ValueError("floor and ceiling share an interior point")
    for c in path_corners(floor)[1:-1]:
        if point_vs_path(c, ceiling) > 0:
            raise ValueError(f"floor corner {c} lies above the ceiling")
    for c in path_corners(ceiling)[1:-1]:
        if point_vs_path(c, floor) < 0:
            raise ValueError(f"ceiling corner {c} lies below the floor")
    lo, hi = floor[0], floor[-1]
    host = [
        p
        for p in pts
        if sweep_key(lo) <= sweep_key(p) <= sweep_key(hi)
        and lo[0] <= p[0] <= hi[0]
        and point_vs_path(p, floor) >= 0
        and point_vs_path(p, ceiling) <= 0
    ]
    host.sort(key=sweep_key)
    return tuple(host), floor, ceiling


def region_poly(
    config: Configuration,
    floor: Sequence[int],
    ceiling: Sequence[int],
    *,
    maximal: bool = False,
    prune: bool | None = None,
    trace: TraceFn | None = None,
) -> PolyS | int:
    """Triangulation polynomial (or maximal count) of a region.

    The region lies between two x-monotone paths through configuration
    points, given as strictly increasing index sequences in sweep order
    sharing their endpoints.  Triangulations use the path corners and
    any subset of the other participating points; the maximal count uses
    them all.
    """
    host, floor_path, ceiling_path = _region_host(config, floor, ceiling)
    run = max_region_count_points if maximal else _run_complete
    return run(host, floor_path, ceiling_path, prune=prune, trace=trace)


def complete_config_poly(
    config: Configuration,
    *,
    prune: bool | None = None,
    trace: TraceFn | None = None,
) -> PolyS:
    """Complete triangulation polynomial of a configuration.

    Counts every triangulation of every subset containing the extremal
    points, graded by s per vertex used.
    """
    if len(config) < 3 or config.all_collinear():
        raise ValueError(
            "the configuration must have at least three non-collinear points"
        )
    host = config.points
    return _run_complete(
        host,
        lower_hull(host),
        upper_hull(host),
        prune=prune,
        trace=trace,
    )


def max_config_count(
    config: Configuration,
    *,
    prune: bool | None = None,
    trace: TraceFn | None = None,
) -> int:
    """Number of maximal triangulations (every point a vertex)."""
    if len(config) < 3 or config.all_collinear():
        raise ValueError(
            "the configuration must have at least three non-collinear points"
        )
    host = config.points
    return max_region_count_points(
        host, lower_hull(host), upper_hull(host), prune=prune, trace=trace
    )


def complete_edge_poly_tm(
    edge: NearEdge, *, trace: TraceFn | None = None
) -> PolyST:
    """Complete polynomial of a near-edge by the transfer iteration.

    With no ceiling every state pays off: a state of length L reached at
    step k contributes s^((k + L)/2) p_L, summing the basis images of
    all covering roofs over all sub-edges.
    """
    host = tuple(edge.points)
    init = initial_vectors(host, lower_hull(host))
    out: dict[tuple[int, int], int] = {}
    for (k, length), mult in _run(_Sweep(host), init, trace).items():
        for t, v in maximal_edge_basis(length).c.items():
            out[k + length, t] = out.get((k + length, t), 0) + mult * v
    return PolyST(out)
