"""Brute-force triangulation counts, independent of the roof machinery.

The oracle enumerates vertex subsets directly and counts the
triangulations of each by growing triangles over a frontier of directed
half-edges, so its only shared ground with the fast routes is the
orientation predicate, the hull check of a configuration and the
validation of a region's paths.  It is meant for cross-checking small
inputs and guards its input size.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .exactmath import PolyS
from .planar import (
    Configuration,
    Point,
    hull_host,
    on_segment,
    orient,
    path_corners,
    region_host,
    sweep_key,
)


class GuardExceeded(RuntimeError):
    """The input is larger than the configured brute-force limit."""


def segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when closed segments ab and cd meet outside a shared endpoint.

    Collinear overlap of positive length always conflicts, shared
    endpoints never do on their own.
    """
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 == 0 and o2 == 0:
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((c, d))
        lo = max(lo1, lo2)
        hi = min(hi1, hi2)
        if lo > hi:
            return False
        if lo < hi:
            return True
        return lo not in shared
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if p not in shared and on_segment(p, u, v):
            return True
    return False


def point_in_closed_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    w = orient(a, b, c)
    if w == 0:
        return on_segment(p, a, b) or on_segment(p, b, c) or on_segment(p, a, c)
    return (
        orient(a, b, p) * w >= 0
        and orient(b, c, p) * w >= 0
        and orient(c, a, p) * w >= 0
    )


def _refined_path(corners: Sequence[Point], chosen: Iterable[Point]) -> list[Point]:
    """Expand a corner path with the chosen points sitting on it."""
    extra = set(chosen) - set(corners)
    out: list[Point] = []
    for a, b in zip(corners, corners[1:]):
        out.append(a)
        mids = [
            p
            for p in extra
            if p != a and p != b and on_segment(p, a, b)
        ]
        # order along the segment
        mids.sort(key=lambda p: (abs(p[0] - a[0]), abs(p[1] - a[1])))
        out.extend(mids)
    out.append(corners[-1])
    return out


def _loop_area2(loop: Sequence[Point]) -> int:
    total = 0
    for (x1, y1), (x2, y2) in zip(loop, loop[1:] + [loop[0]]):
        total += x1 * y2 - x2 * y1
    return total


def _count_fillings(
    chosen: Sequence[Point],
    floor_corners: Sequence[Point],
    ceiling_corners: Sequence[Point],
) -> int:
    """Triangulations of the region using exactly the chosen points.

    The boundary runs along the floor and back along the ceiling,
    subdivided at every chosen point lying on it; triangles are placed
    against the lexicographically first open half-edge, so each
    triangulation is built exactly once.
    """
    pts = sorted(chosen, key=sweep_key)
    floor_line = _refined_path(floor_corners, pts)
    ceiling_line = _refined_path(ceiling_corners, pts)
    loop = floor_line[:-1] + list(reversed(ceiling_line))[:-1]
    area2 = _loop_area2(loop)
    if area2 == 0:
        # a flat region admits only the empty filling, and only when no
        # chosen point would be left dangling off its boundary
        return 1 if all(p in set(loop) for p in pts) else 0
    boundary = list(zip(loop, loop[1:] + [loop[0]]))
    boundary_rev = {(b, a) for a, b in boundary}
    segments: list[tuple[Point, Point]] = list(boundary)
    open_edges = set(boundary)
    count = 0

    def place(open_set: set[tuple[Point, Point]], acc: int) -> None:
        nonlocal count
        if not open_set:
            if acc != area2:
                raise AssertionError("filled area does not match the region")
            count += 1
            return
        a, b = min(open_set)
        base = open_set - {(a, b)}
        for c in pts:
            if c == a or c == b or orient(a, b, c) <= 0:
                continue
            if any(
                q not in (a, b, c) and point_in_closed_triangle(q, a, b, c)
                for q in pts
            ):
                continue
            nxt = set(base)
            added: list[tuple[Point, Point]] = []
            ok = True
            for e in ((b, c), (c, a)):
                rev = (e[1], e[0])
                if e in nxt:
                    nxt.discard(e)
                elif rev in nxt or e in boundary_rev:
                    ok = False
                    break
                else:
                    u, v = e
                    for s, t in segments:
                        if segments_conflict(u, v, s, t):
                            ok = False
                            break
                    if not ok:
                        break
                    nxt.add(rev)
                    added.append(e)
            if not ok:
                continue
            tri2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            segments.extend(added)
            place(nxt, acc + tri2)
            del segments[len(segments) - len(added) :]

    place(open_edges, 0)
    return count


def _region_packings(
    participating: Sequence[Point],
    floor_corners: Sequence[Point],
    ceiling_corners: Sequence[Point],
) -> PolyS:
    mandatory = [
        p
        for p in participating
        if p in set(floor_corners) | set(ceiling_corners)
    ]
    optional = [p for p in participating if p not in mandatory]
    acc: dict[int, int] = {}
    for r in range(len(optional) + 1):
        for extra in combinations(optional, r):
            chosen = mandatory + list(extra)
            n = _count_fillings(chosen, floor_corners, ceiling_corners)
            if n:
                e = len(chosen)
                acc[e] = acc.get(e, 0) + n
    return PolyS(acc)


def oracle_complete_poly(config: Configuration, *, limit: int = 12) -> PolyS:
    """Complete triangulation polynomial by direct enumeration."""
    if len(config) > limit:
        raise GuardExceeded(
            f"{len(config)} points exceed the brute-force limit {limit}"
        )
    return _region_packings(*hull_host(config))


def oracle_region_poly(
    config: Configuration,
    floor: Sequence[int],
    ceiling: Sequence[int],
    *,
    limit: int = 12,
) -> PolyS:
    """Region triangulation polynomial by direct enumeration.

    The region is validated exactly as for the transfer route, by
    :func:`tripoly.planar.region_host`.
    """
    participating, floor_path, ceiling_path = region_host(config, floor, ceiling)
    if len(participating) > limit:
        raise GuardExceeded(
            f"{len(participating)} points exceed the brute-force limit {limit}"
        )
    return _region_packings(
        participating, path_corners(floor_path), path_corners(ceiling_path)
    )
