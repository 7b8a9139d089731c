"""Triangulation polynomials of weighted convex polygons.

A convex polygon with side weights (a_1, ..., a_l) stands for the
configuration whose i-th side carries a_i - 1 extra collinear points
splitting it into a_i equal parts.  Its polynomials come straight from
the edge basis: the maximal count pairs the product of the p_{a_i}, the
complete polynomial pairs the product of the pbar_{a_i}.  The pairing
stays valid for two-sided polygons; digon_max_count gives the same
numbers in closed binomial form and also covers weight 0 by convention.

The complete product makes no big-int by big-int multiply.  Per power
of s it keeps one int whose signed W-bit fields are the t-coefficients,
that is the product at t = 2^W.  Multiplying by
pbar_a = sum_k binom(a-1, k-1) s^k p_k runs the recurrence
p_0 = 1, p_1 = t, p_k = t (p_(k-1) - p_(k-2)), in which a factor t is a
W-bit shift, so each power of s costs a subtractions, a shifts and a
small-int scalings per side of weight a.  The packed ints are exact, so
only the final ones need fields that fit: W holds the product of the l1
norms of the pbar_(a_i), which bounds every final coefficient.  The
final ints are unpacked and paired with the Catalan numbers once, at
the end.
"""
from __future__ import annotations

from math import comb, lcm
from operator import mul
from typing import Sequence

from .exactmath import (
    PolyS,
    PolyT,
    catalan,
    catalan_pair_t,
    maximal_edge_basis,
    packed_bytes,
    unpack_fields,
)
from .planar import Configuration, NearEdge, as_integer, convex_polygon_points

# unused here; bench/tracer.py patches this name in this namespace
from .exactmath import catalan_pair_st  # noqa: F401


def _side_weights(weights: Sequence[int], sides: int, too_few: str) -> list[int]:
    """The weights as ints, each at least 1, and at least ``sides`` of them."""
    ws = [as_integer(w, "side weight") for w in weights]
    if len(ws) < sides:
        raise ValueError(too_few)
    if any(w < 1 for w in ws):
        raise ValueError("side weights must be >= 1")
    return ws


def digon_max_count(a: int, b: int) -> int:
    """Maximal triangulations of the two-sided polygon with weights a, b.

    Both boundary chains join the same two corners; the count is
    binom(a + b - 4, a - 2), with the degenerate low weights fixed by
    convention: a weightless pair counts one, a single unit side can
    only face another unit side.
    """
    a, b = sorted(as_integer(w, "side weight") for w in (a, b))
    if a < 0:
        raise ValueError("side weights must be >= 0")
    if a == 0:
        return 1 if b == 0 else 0
    if a == 1:
        return 1 if b == 1 else 0
    return comb(a + b - 4, a - 2)


def weighted_max_count(weights: Sequence[int]) -> int:
    """Maximal triangulations of a weighted convex polygon (two or more sides)."""
    ws = _side_weights(weights, 2, "a polygon needs at least two sides")
    prod = PolyT({0: 1})
    for w in ws:
        prod = prod * maximal_edge_basis(w)
    return catalan_pair_t(prod)


def _basis_norm(a: int) -> int:
    """||pbar_a||_1 = sum_k binom(a-1, k-1) ||p_k||_1, ||p_k||_1 = F_(k+1).

    The s^k terms of pbar_a are distinct monomials, so nothing cancels
    between them; the coefficients of p_k are alternating binomials whose
    absolute values sum to the Fibonacci number F_(k+1).
    """
    norm, fib, fib_next = 0, 1, 2  # ||p_1||_1, ||p_2||_1
    for k in range(1, a + 1):
        norm += comb(a - 1, k - 1) * fib
        fib, fib_next = fib_next, fib + fib_next
    return norm


def weighted_complete_poly(weights: Sequence[int]) -> PolyS:
    """Complete triangulation polynomial of a weighted convex polygon."""
    ws = _side_weights(weights, 2, "a polygon needs at least two sides")
    bound = 1
    for a in ws:
        bound *= _basis_norm(a)
    nbytes = packed_bytes(bound)
    width = 8 * nbytes
    groups = {0: 1}  # power of s -> t-coefficients packed at t = 2^width
    for a in ws:
        scales = [comb(a - 1, k - 1) for k in range(1, a + 1)]
        out: dict[int, int] = {}
        for s0, x in groups.items():
            # x * p_k by p_k = t * (p_(k-1) - p_(k-2)), p_0 = 1, p_1 = t
            before, now = x, x << width
            for k, c in enumerate(scales, s0 + 1):
                out[k] = out.get(k, 0) + c * now
                before, now = now, (now - before) << width
        groups = out
    # pair t^t with C_(t-2); every term of s^s has a t-degree in
    # [ceil(s/2), s], and at least 2 since each side adds at least t
    cats = [catalan(n) for n in range(max(groups) - 1)]
    poly: dict[int, int] = {}
    for s, packed in groups.items():
        low = max((s + 1) // 2, 2)
        (fields,) = unpack_fields([packed >> (width * low)], nbytes, s - low + 1)
        poly[s] = sum(map(mul, fields, cats[low - 2 :]))
    return PolyS(poly)


def weighted_polygon_config(weights: Sequence[int]) -> Configuration:
    """An integer realization of the weighted polygon.

    The corner polygon is scaled by the least common multiple of the
    weights so that the equal subdivision points of every side land on
    integer coordinates.
    """
    ws = _side_weights(weights, 3, "a realizable polygon needs at least three sides")
    base = convex_polygon_points(len(ws))
    scale = lcm(*ws)
    pts = []
    for i, a in enumerate(ws):
        bx, by = base[i]
        nx, ny = base[(i + 1) % len(ws)]
        dx, dy = nx - bx, ny - by
        for j in range(a):
            t = j * (scale // a)
            pts.append((scale * bx + t * dx, scale * by + t * dy))
    return Configuration(pts)


def straight_edge(a: int) -> NearEdge:
    """The weight-a edge whose points all sit on one line."""
    a = as_integer(a, "edge weight")
    if a < 1:
        raise ValueError("edge weight must be >= 1")
    return NearEdge((i, 0) for i in range(a + 1))
