"""Planar primitives over integer coordinates.

Points are ``(x, y)`` tuples of ints, so every orientation test is an
exact integer determinant.  The sweep order used throughout sorts by
``x`` ascending and breaks ties by ``y`` descending, which keeps the
lower boundary of a configuration first among vertically aligned
points.
"""
from __future__ import annotations

from operator import index
from typing import Iterable, Sequence

Point = tuple[int, int]


def as_integer(value: object, what: str = "coordinate") -> int:
    """``value`` as an int; a float or other non-integer is refused."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b - a) x (c - a).

    Positive when the triple turns counterclockwise, i.e. c lies
    strictly above the directed line a -> b.
    """
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def sweep_key(p: Point) -> tuple[int, int]:
    return (p[0], -p[1])


def _monotone_chain(points: Sequence[Point], turn: int) -> tuple[Point, ...]:
    """The chain in sweep order whose every corner turns by ``turn``:
    +1 (counterclockwise) for the lower hull, -1 for the upper."""
    chain: list[Point] = []
    for p in sorted(set(points), key=sweep_key):
        while len(chain) >= 2 and orient(chain[-2], chain[-1], p) != turn:
            chain.pop()
        chain.append(p)
    return tuple(chain)


def lower_hull(points: Sequence[Point]) -> tuple[Point, ...]:
    """Corners of the lower convex boundary, in sweep order."""
    return _monotone_chain(points, 1)


def upper_hull(points: Sequence[Point]) -> tuple[Point, ...]:
    """Corners of the upper convex boundary, in sweep order."""
    return _monotone_chain(points, -1)


def extremal_points(points: Sequence[Point]) -> set[Point]:
    """Corners of the convex hull.  Both chains of a collinear set, or of
    one of at most two points, are its first and last points in sweep
    order, so those are its extremal points."""
    return set(lower_hull(points)) | set(upper_hull(points))


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True when p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def point_on_path(p: Point, path: Sequence[Point]) -> bool:
    return any(on_segment(p, a, b) for a, b in zip(path, path[1:]))


def point_vs_path(p: Point, path: Sequence[Point]) -> int:
    """+1 / 0 / -1 for p above / on / below an x-monotone path.

    The path's corners must be strictly increasing in x and p's abscissa
    must lie within the path's x-range.
    """
    if point_on_path(p, path):
        return 0
    for a, b in zip(path, path[1:]):
        if a[0] <= p[0] <= b[0]:
            s = orient(a, b, p)
            if s == 0:
                # collinear with a vertical segment but beyond its ends:
                # earlier in sweep order counts as above
                return 1 if sweep_key(p) < sweep_key(a) else -1
            return s
    raise ValueError(f"point {p} outside the x-range of the path")


def path_corners(path: Sequence[Point]) -> tuple[Point, ...]:
    """Drop interior vertices that lie on the segment joining their
    neighbours, collapsing collinear runs of any length."""
    out: list[Point] = []
    for p in path:
        while len(out) >= 2 and on_segment(out[-1], out[-2], p):
            out.pop()
        out.append(p)
    return tuple(out)


class _Points:
    """A tuple of points under a type: equal only to the same type with
    the same points."""

    __slots__ = ("points",)
    points: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.points)!r})"


class Configuration(_Points):
    """A finite set of integer points, at least 1, stored in sweep order."""

    __slots__ = ()

    def __init__(self, points: Iterable[Point]):
        pts = [(as_integer(x), as_integer(y)) for x, y in points]
        if len(set(pts)) != len(pts):
            raise ValueError("configuration has repeated points")
        if not pts:
            raise ValueError("configuration is empty")
        self.points = tuple(sorted(pts, key=sweep_key))

    def lower_boundary(self) -> tuple[Point, ...]:
        return lower_hull(self.points)

    def upper_boundary(self) -> tuple[Point, ...]:
        return upper_hull(self.points)

    def all_collinear(self) -> bool:
        p = self.points
        return all(orient(p[0], p[1], q) == 0 for q in p[2:]) if len(p) >= 3 else True


class NearEdge(_Points):
    """Points with strictly increasing x coordinates, in that order."""

    __slots__ = ()

    def __init__(self, points: Iterable[Point]):
        pts = tuple((as_integer(x), as_integer(y)) for x, y in points)
        if len(pts) < 2:
            raise ValueError("a near-edge needs at least two points")
        if any(a[0] >= b[0] for a, b in zip(pts, pts[1:])):
            raise ValueError("near-edge x coordinates must strictly increase")
        self.points = pts

    @property
    def weight(self) -> int:
        """Number of gaps, i.e. len - 1."""
        return len(self.points) - 1

    def is_straight(self) -> bool:
        p = self.points
        return all(orient(p[0], p[-1], q) == 0 for q in p[1:-1])

    def is_convex(self) -> bool:
        """True when every point is a corner of the convex hull."""
        return extremal_points(self.points) == set(self.points)

    def translate_to_origin(self) -> "NearEdge":
        x0, y0 = self.points[0]
        return NearEdge((x - x0, y - y0) for x, y in self.points)


def hull_host(
    config: Configuration,
) -> tuple[tuple[Point, ...], tuple[Point, ...], tuple[Point, ...]]:
    """The points of a configuration in sweep order with its lower and
    upper hulls, the floor and ceiling of the whole configuration;
    refuses a configuration without three non-collinear points."""
    if config.all_collinear():
        raise ValueError(
            "the configuration must have at least three non-collinear points"
        )
    pts = config.points
    return pts, lower_hull(pts), upper_hull(pts)


def region_host(
    config: Configuration,
    floor_idx: Sequence[int],
    ceiling_idx: Sequence[int],
) -> tuple[tuple[Point, ...], tuple[Point, ...], tuple[Point, ...]]:
    """Validate a region of a configuration.

    The floor and the ceiling are strictly increasing index sequences in
    the sweep order of the configuration.  They must share their
    endpoints, meet nowhere else, and enclose a positive area: paths
    with the same corners are refused.  Returns the points of the region
    in sweep order together with the floor and ceiling as point paths.
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
    floor_corners, ceiling_corners = path_corners(floor), path_corners(ceiling)
    if floor_corners == ceiling_corners:
        raise ValueError("floor and ceiling have the same corners: no area")
    # the paths meet away from their ends only where a corner of one lies
    # on the other
    for c in floor_corners[1:-1]:
        side = point_vs_path(c, ceiling)
        if side >= 0:
            where = "above" if side else "on"
            raise ValueError(f"floor corner {c} lies {where} the ceiling")
    for c in ceiling_corners[1:-1]:
        side = point_vs_path(c, floor)
        if side <= 0:
            where = "below" if side else "on"
            raise ValueError(f"ceiling corner {c} lies {where} the floor")
    lo, hi = floor[0], floor[-1]
    host = tuple(
        p
        for p in pts
        if sweep_key(lo) <= sweep_key(p) <= sweep_key(hi)
        and lo[0] <= p[0] <= hi[0]
        and point_vs_path(p, floor) >= 0
        and point_vs_path(p, ceiling) <= 0
    )
    return host, floor, ceiling


def vertical_mirror(edge: NearEdge) -> NearEdge:
    """Reflect a near-edge across a vertical axis, keeping its first abscissa."""
    x0 = edge.points[0][0]
    xn = edge.points[-1][0]
    return NearEdge((x0 + xn - x, y) for x, y in reversed(edge.points))


def convex_profile(edge: NearEdge) -> tuple[int, ...] | None:
    """Signs (+1 above / -1 below the end chord) of the interior points.

    Returns None unless the edge is convex with no interior point on the
    chord; a straight two-point edge has the empty profile.
    """
    if not edge.is_convex():
        return None
    a, b = edge.points[0], edge.points[-1]
    out = []
    for p in edge.points[1:-1]:
        s = orient(a, b, p)
        if s == 0:
            return None
        out.append(s)
    return tuple(out)


def profile_realization(profile: Sequence[int]) -> NearEdge:
    """A canonical convex near-edge with the given interior sign profile."""
    n = len(profile) + 1
    pts: list[Point] = [(0, 0)]
    for i, eps in enumerate(profile, start=1):
        if eps not in (1, -1):
            raise ValueError(f"profile entries must be +1 or -1, got {eps}")
        pts.append((i, eps * i * (n - i)))
    pts.append((n, 0))
    edge = NearEdge(pts)
    if convex_profile(edge) != tuple(profile):
        raise AssertionError("canonical realization failed to be convex")
    return edge


def factorize(edge: NearEdge) -> list[NearEdge]:
    """Split a near-edge into its prime factors.

    A split position k is valid when every later point lies strictly
    above each line through two of the first k+1 points, and every
    earlier point lies strictly above each line through two of the
    last n-k+1 points.  Factors are translated to start at the origin.

    Consecutive pairs suffice.  For x_a < x_b < x_q,
    orient(a, b, q) = (x_a - x_q)(x_b - x_q) (slope(q, b) - slope(q, a)),
    and the first two factors have the same sign.  So a later point q
    lies strictly above every line through two head points exactly when
    its slopes to them strictly increase along the head, which
    consecutive pairs test.  An earlier point and the tail are the
    mirror case, with x_q < x_a < x_b.
    """
    pts = edge.points
    n = len(pts) - 1

    def splits_at(k: int) -> bool:
        head, tail = pts[: k + 1], pts[k:]
        return all(
            orient(a, b, q) > 0 for a, b in zip(head, head[1:]) for q in pts[k + 1 :]
        ) and all(orient(a, b, q) > 0 for a, b in zip(tail, tail[1:]) for q in pts[:k])

    factors: list[NearEdge] = []
    start = 0
    for k in range(1, n):
        if splits_at(k):
            factors.append(NearEdge(pts[start : k + 1]).translate_to_origin())
            start = k
    factors.append(NearEdge(pts[start:]).translate_to_origin())
    return factors


def order_type_equivalent(a: Sequence[Point], b: Sequence[Point]) -> bool:
    """Same orientation on every index triple, after sweep sorting both."""
    pa = sorted(a, key=sweep_key)
    pb = sorted(b, key=sweep_key)
    if len(pa) != len(pb):
        raise ValueError("order types are only comparable at equal sizes")
    n = len(pa)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orient(pa[i], pa[j], pa[k]) != orient(pb[i], pb[j], pb[k]):
                    return False
    return True


POLYGON_SCALE = 1 << 20


def convex_polygon_points(l: int) -> tuple[Point, ...]:
    """A strictly convex integer l-gon, counterclockwise.

    Vertices are rounded from a regular polygon scaled by
    ``POLYGON_SCALE``; the scale doubles until the rounding artefacts
    leave every corner strictly convex.
    """
    from math import cos, sin, tau

    if l < 3:
        raise ValueError(f"a polygon needs at least three corners, got {l}")
    scale = POLYGON_SCALE
    while True:
        pts = tuple(
            (round(scale * cos(tau * i / l)), round(scale * sin(tau * i / l)))
            for i in range(l)
        )
        if len(set(pts)) == l and all(
            orient(pts[i], pts[(i + 1) % l], pts[(i + 2) % l]) > 0
            for i in range(l)
        ):
            return pts
        scale *= 2


def parse_points(text: str) -> list[Point]:
    """Parse one `x y` pair per line; `#` starts a comment."""
    out: list[Point] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected `x y`, got {raw!r}")
        x, y = parts
        try:
            # an optional sign and ASCII digits: int() also reads `1_0`
            # and non-ASCII digits
            both = x + y
            if not both.isascii() or "_" in both:
                raise ValueError
            out.append((int(x), int(y)))
        except ValueError:
            raise ValueError(f"line {lineno}: coordinates must be integers: {raw!r}")
    return out


def load_points(path: str) -> list[Point]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_points(fh.read())
