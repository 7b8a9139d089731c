"""Near-edges composed around convex polygons.

A near-edge carries a complete polynomial in s and the edge basis
p_1, p_2, ...; gluing edges around a convex polygon multiplies their
polynomials and pairs the result against the Catalan series.  Edges
split into prime factors first, convex edges run through a three
variable recursion over their sign profile, and everything else falls
back to the transfer iteration.  The inverse direction recovers an
unknown edge polynomial from maximal counts and realizes an abstract
near-gon as an integer configuration.

The convex recursion holds a state as one packed int per power of w, so
a factor s or u is a shift; realizations map the flattened edges in
integer complex arithmetic over one common denominator.  The recursion
runs in complete mode only: every term of a step but one adds a factor
s, so a maximal state is the top s slice of the complete one.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import add, mul
from typing import Iterator, Sequence

from .exactmath import (
    PolyS,
    PolyST,
    PolySUW,
    PolyT,
    catalan,
    catalan_pair_t,
    complete_edge_basis,
    maximal_edge_basis,
    p_basis_coefficients,
    packed_bytes,
    pair_edge_product,
    solve_integer_system,
    unpack_fields,
)
from .planar import (
    Configuration,
    NearEdge,
    Point,
    convex_polygon_points,
    convex_profile,
    factorize,
    orient,
)
from .roofs import sub_edges
from .transfer import complete_edge_poly_tm, covering_roof_counts

# unused here; bench/tracer.py patches these names in this namespace
from .exactmath import catalan_pair_st, series_pair_uw  # noqa: F401
from .planar import order_type_equivalent  # noqa: F401
from .roofs import covering_roofs  # noqa: F401
from .transfer import max_region_count_points  # noqa: F401

EDGE_METHODS = ("auto", "tm", "roofs", "convex")
# realize halves the flattening at most this many times
PRECISION_STEPS = 12


class EdgePolynomial:
    """Complete polynomial of a near-edge of the given weight."""

    __slots__ = ("length", "complete")

    def __init__(self, length: int, complete: PolyST):
        self.length = length
        self.complete = complete

    def __eq__(self, other) -> bool:
        if type(other) is not EdgePolynomial:
            return NotImplemented
        return self.length == other.length and self.complete == other.complete

    def __hash__(self) -> int:
        return hash((self.length, frozenset(self.complete.c.items())))

    def __repr__(self) -> str:
        return f"EdgePolynomial(length={self.length!r}, complete={self.complete!r})"

    @property
    def maximal(self) -> PolyT:
        """Top s slice: the basis image of the maximal triangulations."""
        return self.complete.coefficient_s(self.length)

    def p_coefficients(self) -> dict[int, dict[int, int]]:
        """Per s degree, the expansion over the edge basis p_j."""
        return {
            a: p_basis_coefficients(self.complete.coefficient_s(a))
            for a in sorted({a for a, _ in self.complete.c})
        }


class NearGon:
    """Near-edges glued in cyclic order around a convex polygon."""

    __slots__ = ("edges",)

    def __init__(self, edges: Sequence[NearEdge]):
        self.edges = tuple(edges)
        if len(self.edges) < 2:
            raise ValueError("a near-gon needs at least two edges")

    def __eq__(self, other) -> bool:
        if type(other) is not NearGon:
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return f"NearGon(edges={self.edges!r})"

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)


def covering_roof_edge_poly(edge: NearEdge) -> EdgePolynomial:
    """Complete polynomial summed sub-edge by sub-edge.

    Every sub-edge keeps the lower-hull corners; each of its covering
    roofs R contributes its basis polynomial p_|R| weighted by τ(R), the
    number of maximal triangulations of the region between the lower
    boundary of the sub-edge and R.  One maximal sweep per sub-edge from
    its lower hull, with no ceiling, gives these weights summed by roof
    length: no host point but a segment's ends ever lies on a roof
    segment, so the roofs under which the sweep used every point are
    exactly the covering roofs (see :mod:`tripoly.transfer`).
    """
    pts = edge.points
    out: dict[tuple[int, int], int] = {}
    for idxs in sub_edges(pts):
        a = len(idxs) - 1
        for length, tau in covering_roof_counts(tuple(pts[i] for i in idxs)).items():
            out[a, length] = out.get((a, length), 0) + tau
    return EdgePolynomial(edge.weight, PolyST.from_p(out))


def _pair_w(r: list[int]) -> int:
    """Pair a packed state against sum_n C_n w^n."""
    return sum(map(mul, r, map(catalan, range(len(r)))))


def _convex_run(profile: Sequence[int], width: int, stride: int) -> Iterator[list[int]]:
    """Packed states of the convex-edge recursion, the seed first.

    A state is a list over the powers of w whose entry packs the
    coefficients of s^a u^j in the ``width``-bit field j * stride + a.
    Width 0 runs it at s = u = 1.
    """
    su = width * (stride + 1)  # the shift of a factor s u
    r = [1 << su]
    yield r
    for eps in profile:
        if eps == 1:  # times s u w, plus 1
            r = list(map(add, [0, *(v << su for v in r)], [*r, 0]))
        elif eps == -1:  # times s w, plus the w-paired state times s u
            r = [_pair_w(r) << su, *(v << width for v in r)]
        else:
            raise ValueError(f"profile entries must be +1 or -1, got {eps}")
        yield r


def _convex_packed(profile: Sequence[int]) -> tuple[Iterator[list[int]], int, int]:
    """The packed states, their bytes per field and fields per power of u.

    Every coefficient is >= 0, so at s = u = 1 each entry of a state, and
    the w-pairing of the last one, sums the fields it packs.  That
    pairing bounds every entry of every state: each sign keeps every
    entry of the previous state, shifted and plus non-negative terms,
    and every Catalan number C_w is at least 1.
    """
    for r in _convex_run(profile, 0, 0):
        pass
    nbytes = packed_bytes(_pair_w(r))
    stride = len(profile) + 2
    return _convex_run(profile, 8 * nbytes, stride), nbytes, stride


def convex_edge_states(
    profile: Sequence[int], mode: str = "complete"
) -> list[PolySUW]:
    """States of the convex-edge recursion, one per processed sign.

    The state tracks used vertices (s), the open top chain (u) and the
    open rightmost pocket (w); each interior point extends the state
    according to its side of the end chord, pockets closing through the
    Catalan pairing in w.  Entry 0 is the seed, entry i the state after
    the i-th sign.  Every term of a step but the +1 of a sign +1 adds one
    s, so the maximal state i is the top slice s^(i + 1) of the complete
    one, returned with s = 0.
    """
    if mode not in ("complete", "maximal"):
        raise ValueError(f"mode must be 'complete' or 'maximal', got {mode!r}")
    states, nbytes, stride = _convex_packed(profile)
    fields = stride * (len(profile) + 2)
    out = []
    for i, r in enumerate(states):
        terms = {
            (f % stride, f // stride, w): v
            for w, row in enumerate(unpack_fields(r, nbytes, fields))
            for f, v in enumerate(row)
        }
        if mode == "maximal":
            terms = {(0, u, w): v for (a, u, w), v in terms.items() if a == i + 1}
        out.append(PolySUW(terms))
    return out


def convex_edge_complete(profile: Sequence[int]) -> PolyST:
    """Complete polynomial of the convex edge with the given sign profile:
    the last state of the recursion paired out in u and w."""
    states, nbytes, stride = _convex_packed(profile)
    for r in states:
        pass
    (row,) = unpack_fields([_pair_w(r)], nbytes, stride * (len(profile) + 2))
    return PolyST.from_p(
        {(f % stride, f // stride): v for f, v in enumerate(row) if v}
    )


def _prime_edge_poly(edge: NearEdge, method: str) -> PolyST:
    if method == "tm":
        return complete_edge_poly_tm(edge)
    if method == "roofs":
        return covering_roof_edge_poly(edge).complete
    if method == "auto" and edge.is_straight():
        return complete_edge_basis(edge.weight)
    profile = convex_profile(edge)
    if profile is not None:
        return convex_edge_complete(profile)
    if method == "convex":
        raise ValueError("the edge is not strictly convex")
    return complete_edge_poly_tm(edge)


def edge_poly(edge: NearEdge, method: str = "auto") -> EdgePolynomial:
    """Complete polynomial of a near-edge.

    The edge is split into prime factors whose polynomials multiply;
    method picks the per-factor route ("auto" chooses the cheapest
    applicable one).
    """
    if method not in EDGE_METHODS:
        raise ValueError(f"unknown method {method!r}, pick one of {EDGE_METHODS}")
    polys = [_prime_edge_poly(factor, method) for factor in factorize(edge)]
    return EdgePolynomial(edge.weight, reduce(mul, polys))


def compose(
    polys: Sequence[EdgePolynomial], *, maximal: bool = False
) -> PolyS | int:
    """Glue edge polynomials around a convex polygon.

    Complete polynomials multiply and pair to the triangulation
    polynomial of the near-gon; with maximal=True only the top slices
    multiply, giving the number of maximal triangulations.  Both expand
    over the edge basis and run ``pair_edge_product``.
    """
    if len(polys) < 2:
        raise ValueError("a near-gon needs at least two edges")
    if maximal:
        tops = [PolyST.from_t(ep.maximal) for ep in polys]
        return pair_edge_product([top.p_terms() for top in tops]).coeff(0)
    return pair_edge_product([ep.complete.p_terms() for ep in polys])


def recover_edge_poly_from_counts(
    counts: Sequence[int], basis_range: tuple[int, int]
) -> PolyT:
    """Recover a maximal edge polynomial from near-gon counts.

    counts[k] is the number of maximal triangulations of the near-gon
    closing the unknown edge with k + 2 unit edges, and basis_range =
    (alpha, d) bounds the support of the unknown over the edge basis
    p_alpha..p_d.  Each closing pairs the unknown against t^(k + 2), so
    the counts are exact linear data for the basis coefficients.
    """
    alpha, d = basis_range
    if alpha < 1 or d < alpha:
        raise ValueError(f"need 1 <= alpha <= d, got {basis_range}")
    width = d - alpha + 1
    if len(counts) != width:
        raise ValueError(
            f"range ({alpha}, {d}) needs {width} counts, got {len(counts)}"
        )
    matrix = [
        [
            catalan_pair_t(maximal_edge_basis(alpha + j).shift(r + 2))
            for j in range(width)
        ]
        for r in range(width)
    ]
    try:
        coeffs = solve_integer_system(matrix, list(counts))
    except ValueError as exc:
        raise ValueError(f"edge recovery failed: {exc}") from None
    out = PolyT()
    for j, c in enumerate(coeffs):
        out = out + c * maximal_edge_basis(alpha + j)
    return out


def _realize_at(
    edges: Sequence[NearEdge], base: Sequence[Point], m: int
) -> list[list[Point]] | None:
    """Per edge, the images of its points with every height scaled by
    2^-m; None if two points merge.  With Q = 2^m * q and
    F = 2^m * (last point), edge i sends q to
    (d * conj(F) * Q + |F|^2 * b_i) / |F|^2 in complex numbers, on the
    side d = b_(i+1) - b_i.  The images are kept over M = lcm(|F|^2) and
    divided by gcd(M, every coordinate).
    """
    sides = []
    for i, edge in enumerate(edges):
        x0, y0 = edge.points[0]
        flat = [((x - x0) << m, y - y0) for x, y in edge.points]
        fx, fy = flat[-1]
        (bx, by), (nx, ny) = base[i], base[(i + 1) % len(base)]
        dx, dy = nx - bx, ny - by
        norm = fx * fx + fy * fy
        sides.append((flat, dx * fx + dy * fy, dy * fx - dx * fy, norm, bx, by))
    big = lcm(*(side[3] for side in sides))
    images = []
    for flat, gx, gy, norm, bx, by in sides:
        k = big // norm
        gx, gy, bx, by = gx * k, gy * k, bx * big, by * big
        images.append([(gx * x - gy * y + bx, gx * y + gy * x + by) for x, y in flat])
    out = set().union(*images)
    if len(out) != sum(e.weight for e in edges):
        return None
    g = gcd(big, *(c for p in out for c in p))
    return [[(x // g, y // g) for x, y in imgs] for imgs in images]


def _turns_as_limit(
    edges: Sequence[NearEdge], base: Sequence[Point], images: list[list[Point]]
) -> bool:
    """Whether every triple not on one closed edge turns as its limit,
    where point (x, y) of edge i tends to b_i + (x - x_0) / (x_L - x_0) * d_i.
    A triple on one edge keeps its turn at any height scale."""
    span = lcm(*(e.points[-1][0] - e.points[0][0] for e in edges))
    tags: dict[Point, tuple[Point, int]] = {}
    for i, (edge, imgs) in enumerate(zip(edges, images)):
        x0 = edge.points[0][0]
        k = span // (edge.points[-1][0] - x0)
        (bx, by), (nx, ny) = base[i], base[(i + 1) % len(base)]
        for (x, _), p in zip(edge.points, imgs):
            lam = (x - x0) * k
            lim = (span * bx + lam * (nx - bx), span * by + lam * (ny - by))
            tags[p] = (lim, tags.get(p, (lim, 0))[1] | 1 << i)
    triples = combinations(tags.items(), 3)
    return all(
        ea & eb & ec or orient(p, q, r) == orient(lp, lq, lr)
        for (p, (lp, ea)), (q, (lq, eb)), (r, (lr, ec)) in triples
    )


def realize(gon: NearGon | Sequence[NearEdge]) -> Configuration:
    """Integer configuration realizing a near-gon.

    Each edge's heights are scaled down, it is mapped onto a side of a
    convex polygon by an orientation-preserving similitude (interior
    points of an edge bulging above the chord end up inside), and the
    scale is halved until the images are distinct and every triple turns
    as its limit, so the configuration has the order type of the
    infinitesimal near-gon.  Two-edge near-gons have no convex carrier
    polygon and are rejected.
    """
    edges = tuple(getattr(gon, "edges", gon))
    if len(edges) < 3:
        raise ValueError("realization needs at least three edges")
    base = convex_polygon_points(len(edges))
    for m in range(1, PRECISION_STEPS + 1):
        images = _realize_at(edges, base, m)
        if images is not None and _turns_as_limit(edges, base, images):
            return Configuration(set().union(*images))
    raise ValueError(
        f"the realization did not turn as its limit within {PRECISION_STEPS} halvings"
    )
