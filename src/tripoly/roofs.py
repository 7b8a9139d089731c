"""Decorated roofs over a near-edge and their elementary moves.

A roof over points P_0..P_n (x strictly increasing) is a subsequence of
indices that starts at 0, ends at n, and never dips: consecutive roof
points are joined by straight segments and every skipped point must stay
strictly below them for the roof to *cover* the edge.  A decorated roof
carries an extra marker d, the index (position in the roof) of the
segment where the next move may happen; moves strictly left of the
marker are frozen.

Decorated roofs are packed into integer codes: the low n-1 bits flag
which interior points 1..n-1 belong to the roof and the high bits store
d.  A code is valid when d names an existing segment, i.e. when d is at
most the number of interior points of the roof.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .planar import Point, lower_hull, orient


class DecoratedRoof(NamedTuple):
    indices: tuple[int, ...]
    d: int

    def render(self) -> str:
        """Human form: marked segment in brackets, e.g. ``(0 1 [3 6] 7)``."""
        parts = []
        for pos, i in enumerate(self.indices):
            tok = str(i)
            if pos == self.d:
                tok = f"[{tok}"
            if pos == self.d + 1:
                tok = f"{tok}]"
            parts.append(tok)
        return "(" + " ".join(parts) + ")"


def decode(code: int, n: int) -> DecoratedRoof:
    """The decorated roof over P_0..P_n of the code ``d << (n - 1) | bits``;
    rejects codes whose marker overflows."""
    if code < 0:
        raise ValueError(f"negative roof code {code}")
    mask = (1 << (n - 1)) - 1
    bits = code & mask
    d = code >> (n - 1)
    idx = [0] + [i + 1 for i in range(n - 1) if bits >> i & 1] + [n]
    if d > len(idx) - 2:
        raise ValueError(f"code {code} has marker {d} past the last segment")
    return DecoratedRoof(tuple(idx), d)


def covering_roofs(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """All index subsequences 0..n whose line shelters the skipped points."""
    n = len(points) - 1
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int]) -> None:
        last = prefix[-1]
        if last == n:
            out.append(tuple(prefix))
            return
        for j in range(last + 1, n + 1):
            if all(
                orient(points[last], points[j], points[q]) < 0
                for q in range(last + 1, j)
            ):
                prefix.append(j)
                grow(prefix)
                prefix.pop()

    grow([0])
    return out


def sub_edges(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """Index sets of sub-edges: all supersets of the lower-hull corners.

    Every sub-edge keeps the same endpoints and the same lower corner
    set, so each is itself a near-edge with the full edge's span.
    """
    pts = list(points)
    corners = lower_hull(pts)
    corner_idx = sorted(pts.index(c) for c in corners)
    rest = [i for i in range(len(pts)) if i not in corner_idx]
    out = []
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            out.append(tuple(sorted(corner_idx + list(extra))))
    return sorted(out)


def closed_triangle_empty(
    points: Sequence[Point], ia: int, ib: int, ic: int
) -> bool:
    """No other host point inside or on the triangle's boundary."""
    pa, pb, pc = points[ia], points[ib], points[ic]
    w = orient(pa, pb, pc)
    if w == 0:
        return False
    for j, q in enumerate(points):
        if j in (ia, ib, ic):
            continue
        s1 = orient(pa, pb, q) * w
        s2 = orient(pb, pc, q) * w
        s3 = orient(pc, pa, q) * w
        if s1 >= 0 and s2 >= 0 and s3 >= 0:
            return False
    return True


def successors(
    points: Sequence[Point],
    roof: DecoratedRoof,
    *,
    immediate: bool = False,
) -> list[DecoratedRoof]:
    """All decorated roofs reachable by one move at or past the marker.

    Two kinds of move exist.  Inserting q into the segment (a, b) at
    position k >= d requires q strictly above the chord a -> b; the new
    marker is k.  Merging the interior point m of the wedge
    (a, m, b) at position k >= d - 1 requires m strictly below the
    chord a -> b; the new marker is k.  In immediate mode the triangle
    swept by the move must additionally be minimal, i.e. contain no
    other host point.
    """
    idx = roof.indices
    d = roof.d
    w = len(idx) - 1
    out: list[DecoratedRoof] = []
    for k in range(d, w):
        a, b = idx[k], idx[k + 1]
        for q in range(a + 1, b):
            if orient(points[a], points[b], points[q]) > 0 and (
                not immediate or closed_triangle_empty(points, a, q, b)
            ):
                out.append(DecoratedRoof(idx[: k + 1] + (q,) + idx[k + 1 :], k))
    for k in range(max(d - 1, 0), w - 1):
        a, m, b = idx[k], idx[k + 1], idx[k + 2]
        if orient(points[a], points[b], points[m]) < 0 and (
            not immediate or closed_triangle_empty(points, a, m, b)
        ):
            out.append(DecoratedRoof(idx[: k + 1] + idx[k + 2 :], k))
    return out
