"""Triangulation polynomials of weighted convex polygons.

A convex polygon with side weights (a_1, ..., a_l) stands for the
configuration whose i-th side carries a_i - 1 extra collinear points
splitting it into a_i equal parts.  It is the near-gon of straight
edges, so its polynomials come straight from the edge basis: the
maximal count pairs the product of the p_{a_i}, the complete polynomial
pairs the product of the pbar_{a_i} = sum_k binom(a_i - 1, k - 1) s^k p_k.
Both go through ``exactmath.pair_edge_product``, the kernel that
``tripoly.neargon.compose`` also runs.  The pairing stays valid for
two-sided polygons; digon_max_count gives the same numbers in closed
binomial form and also covers weight 0 by convention.  A realization
places straight edges on the sides of a convex polygon as
``tripoly.neargon.realize`` does, unflattened: they sit at their limit.
"""
from __future__ import annotations

from math import comb
from typing import Sequence

from .exactmath import PolyS, complete_edge_terms, pair_edge_product
from .neargon import _realize_at
from .planar import Configuration, NearEdge, as_integer, convex_polygon_points

# unused here; bench/tracer.py patches these names in this namespace
from .exactmath import catalan_pair_st, catalan_pair_t  # noqa: F401


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
    return pair_edge_product([{(0, a): 1} for a in ws]).coeff(0)


def weighted_complete_poly(weights: Sequence[int]) -> PolyS:
    """Complete triangulation polynomial of a weighted convex polygon."""
    ws = _side_weights(weights, 2, "a polygon needs at least two sides")
    return pair_edge_product([complete_edge_terms(a) for a in ws])


def weighted_polygon_config(weights: Sequence[int]) -> Configuration:
    """An integer realization of the weighted polygon: side i of a convex
    polygon split into a_i equal parts, the straight edge of weight a_i
    placed on it as ``realize`` places an edge, at no flattening."""
    ws = _side_weights(weights, 3, "a realizable polygon needs at least three sides")
    sides = [NearEdge((x, 0) for x in range(a + 1)) for a in ws]
    images = _realize_at(sides, convex_polygon_points(len(ws)), 0)
    return Configuration(set().union(*images))

