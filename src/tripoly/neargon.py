"""Near-edges composed around convex polygons.

A near-edge carries a complete polynomial in s and the edge basis
p_1, p_2, ...; gluing edges around a convex polygon multiplies their
polynomials and pairs the result against the Catalan series.  Edges
split into prime factors first, convex edges run through a three
variable recursion over their sign profile, and everything else falls
back to the transfer iteration.  The inverse direction recovers an
unknown edge polynomial from maximal counts and realizes an abstract
near-gon as an integer configuration.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .exactmath import (
    PolyS,
    PolyST,
    PolySUW,
    PolyT,
    catalan_pair_st,
    catalan_pair_t,
    complete_edge_basis,
    maximal_edge_basis,
    p_basis_coefficients,
    series_pair_uw,
    solve_integer_system,
)
from .planar import (
    Configuration,
    NearEdge,
    Point,
    convex_polygon_points,
    convex_profile,
    factorize,
    order_type_equivalent,
)
from .roofs import sub_edges
from .transfer import complete_edge_poly_tm, covering_roof_counts

# unused here; bench/tracer.py patches both names in this namespace
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
        return hash((self.length, self.complete))

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


def convex_edge_states(
    profile: Sequence[int], mode: str = "complete"
) -> list[PolySUW]:
    """States of the convex-edge recursion, one per processed sign.

    The state tracks used vertices (s), the open top chain (u) and the
    open rightmost pocket (w); each interior point extends the state
    according to its side of the end chord, pockets closing through the
    Catalan pairing in w.  Entry 0 is the seed, entry i the state after
    the i-th sign.
    """
    if mode == "complete":
        s = 1
    elif mode == "maximal":
        s = 0
    else:
        raise ValueError(f"mode must be 'complete' or 'maximal', got {mode!r}")
    r = PolySUW.monomial(s, 1, 0)
    out = [r]
    for eps in profile:
        if eps == 1:
            step = PolySUW.monomial(s, 1, 1)
            if mode == "complete":
                step = step + PolySUW.monomial(0, 0, 0)
            r = r * step
        elif eps == -1:
            r = r * PolySUW.monomial(s, 0, 1) + r.pair_w() * PolySUW.monomial(
                s, 1, 0
            )
        else:
            raise ValueError(f"profile entries must be +1 or -1, got {eps}")
        out.append(r)
    return out


def convex_edge_complete(profile: Sequence[int]) -> PolyST:
    """Complete polynomial of the convex edge with the given sign profile."""
    return series_pair_uw(convex_edge_states(profile, "complete")[-1])


def convex_edge_maximal(profile: Sequence[int]) -> PolyT:
    """Maximal polynomial of the convex edge with the given sign profile."""
    states = convex_edge_states(profile, "maximal")
    return series_pair_uw(states[-1]).coefficient_s(0)


def _prime_edge_poly(edge: NearEdge, method: str) -> PolyST:
    if method == "tm":
        return complete_edge_poly_tm(edge)
    if method == "roofs":
        return covering_roof_edge_poly(edge).complete
    if method == "convex":
        profile = convex_profile(edge)
        if profile is None:
            raise ValueError("the edge is not strictly convex")
        return convex_edge_complete(profile)
    if edge.is_straight():
        return complete_edge_basis(edge.weight)
    profile = convex_profile(edge)
    if profile is not None:
        return convex_edge_complete(profile)
    return complete_edge_poly_tm(edge)


def edge_poly(edge: NearEdge, method: str = "auto") -> EdgePolynomial:
    """Complete polynomial of a near-edge.

    The edge is split into prime factors whose polynomials multiply;
    method picks the per-factor route ("auto" chooses the cheapest
    applicable one).
    """
    if method not in EDGE_METHODS:
        raise ValueError(f"unknown method {method!r}, pick one of {EDGE_METHODS}")
    total = PolyST({(0, 0): 1})
    for factor in factorize(edge):
        total = total * _prime_edge_poly(factor, method)
    return EdgePolynomial(edge.weight, total)


def compose(
    polys: Sequence[EdgePolynomial], *, maximal: bool = False
) -> PolyS | int:
    """Glue edge polynomials around a convex polygon.

    Complete polynomials multiply and pair to the triangulation
    polynomial of the near-gon; with maximal=True only the top slices
    multiply, giving the number of maximal triangulations.
    """
    if len(polys) < 2:
        raise ValueError("a near-gon needs at least two edges")
    if maximal:
        prod = PolyT({0: 1})
        for ep in polys:
            prod = prod * ep.maximal
        return catalan_pair_t(prod)
    prod = PolyST({(0, 0): 1})
    for ep in polys:
        prod = prod * ep.complete
    return catalan_pair_st(prod)


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


_Complex = tuple[Fraction, Fraction]


def _c_sub(a: _Complex, b: _Complex) -> _Complex:
    return (a[0] - b[0], a[1] - b[1])


def _c_add(a: _Complex, b: _Complex) -> _Complex:
    return (a[0] + b[0], a[1] + b[1])


def _c_mul(a: _Complex, b: _Complex) -> _Complex:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_div(a: _Complex, b: _Complex) -> _Complex:
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _realize_at(
    edges: Sequence[NearEdge],
    base: Sequence[Point],
    eps: Fraction,
) -> Configuration | None:
    l = len(edges)
    seen: set[_Complex] = set()
    out: list[_Complex] = []
    for i, edge in enumerate(edges):
        flat = [
            (Fraction(x), eps * y)
            for x, y in edge.translate_to_origin().points
        ]
        dst0: _Complex = (Fraction(base[i][0]), Fraction(base[i][1]))
        nxt = base[(i + 1) % l]
        dst1: _Complex = (Fraction(nxt[0]), Fraction(nxt[1]))
        a = _c_div(_c_sub(dst1, dst0), flat[-1])
        for q in flat:
            img = _c_add(_c_mul(a, q), dst0)
            if img not in seen:
                seen.add(img)
                out.append(img)
    if len(out) != sum(e.weight for e in edges):
        return None
    denom = lcm(*(c.denominator for p in out for c in p))
    return Configuration(
        (int(p[0] * denom), int(p[1] * denom)) for p in out
    )


def realize(gon: NearGon | Sequence[NearEdge]) -> Configuration:
    """Integer configuration realizing a near-gon.

    Each edge is flattened toward its chord, mapped onto a side of a
    convex polygon by an orientation-preserving similitude (interior
    points of an edge bulging above the chord end up inside), and the
    flattening is halved until the order type of the result stops
    changing.  Two-edge near-gons have no convex carrier polygon and are
    rejected.
    """
    edges = tuple(getattr(gon, "edges", gon))
    if len(edges) < 3:
        raise ValueError("realization needs at least three edges")
    base = convex_polygon_points(len(edges))
    prev: Configuration | None = None
    for m in range(1, PRECISION_STEPS + 1):
        cfg = _realize_at(edges, base, Fraction(1, 2**m))
        if cfg is None:
            prev = None
            continue
        if prev is not None and order_type_equivalent(prev.points, cfg.points):
            return prev
        prev = cfg
    raise ValueError(
        f"the realization did not stabilise within {PRECISION_STEPS} halvings"
    )
