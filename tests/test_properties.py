"""Property checks of the transfer sweep on generated degenerate sets.

Configurations of 5-8 points on a 4x5 grid hold a row of at least three
collinear points, and at least two points share an x column, a tie in
the sweep order; some are scaled by 10^40.  The maximal sweep and the
complete sweep derive their moves from the same orient tests, which
split the points of each collinear row into above, on and below; the
complete polynomial must match the brute-force oracle, and the maximal
count must be its leading coefficient.

Dead-end pruning drops only states that can never pay off: on sets of
at most 12 points of a 6x6 grid, some scaled by 10^40, and on regions
under ceilings with valley corners, pruned and unpruned sweeps agree in
both modes.

The four near-edge routes agree wherever they all apply: ``tm`` runs the
packed edge-mode sweep, in which every code pays off, ``roofs`` sums the
covering roofs of one immediate sweep per sub-edge, ``convex`` pairs the
states of a sign profile, and ``auto`` picks one per prime factor.
``convex`` applies exactly when every prime factor is strictly convex.

A near-gon of such edges, realized as an integer configuration, has as
many maximal triangulations as its edge polynomials give when composed,
and pairing its prime factors' edge-basis terms gives the composed
polynomial and count.
A weighted convex polygon, realized with its side points, sweeps to the
polynomial and the count that the packed edge-basis product gives; the
sweep shares no code with that product.
"""
from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

import pytest

from tripoly.neargon import NearGon, compose, edge_poly, gon_poly, realize
from tripoly.oracle import oracle_complete_poly
from tripoly.planar import (
    Configuration,
    NearEdge,
    convex_profile,
    factorize,
    profile_realization,
)
from tripoly.transfer import complete_config_poly, max_config_count, region_poly
from tripoly.weighted import (
    weighted_complete_poly,
    weighted_max_count,
    weighted_polygon_config,
)

from corpus import valley_regions
from reference import unpruned_sweep

HUGE = 10**40

grid_points = st.tuples(st.integers(0, 3), st.integers(0, 4))


@st.composite
def degenerate_sets(draw) -> tuple[tuple[int, int], ...]:
    """5-8 points of a 4x5 grid with a collinear row of 3-4 points; with
    at least five points in four columns, two share an x column."""
    y = draw(st.integers(0, 4))
    row = draw(st.sets(st.integers(0, 3), min_size=3, max_size=4))
    others = draw(st.sets(grid_points, min_size=2, max_size=5))
    pts = {(x, y) for x in row} | others
    assume(5 <= len(pts) <= 8 and not Configuration(pts).all_collinear())
    scale = HUGE if draw(st.booleans()) else 1
    return tuple((x * scale, y * scale) for x, y in sorted(pts))


@settings(max_examples=150, deadline=None)
@given(degenerate_sets())
def test_maximal_count_is_the_leading_coefficient(pts):
    cfg = Configuration(pts)
    poly = complete_config_poly(cfg)
    assert poly == oracle_complete_poly(cfg)
    assert max_config_count(cfg) == poly.leading()


@st.composite
def near_edges(draw, inner: int = 7) -> NearEdge:
    """Near-edges of weight 1 to inner + 1: strictly convex ones of a sign
    profile, or heights in [-2, 2] with collinear runs on and off the
    chord.  A
    shear keeps the x order and every orientation; some are scaled by
    10^40."""
    if draw(st.booleans()):
        signs = draw(st.lists(st.sampled_from((1, -1)), max_size=inner))
        pts = profile_realization(signs).points
    else:
        heights = draw(st.lists(st.integers(-2, 2), max_size=inner))
        pts = ((0, 0), *enumerate(heights, 1), (len(heights) + 1, 0))
    k = draw(st.integers(-2, 2))
    scale = HUGE if draw(st.booleans()) else 1
    return NearEdge([(x * scale, (y + k * x) * scale) for x, y in pts])


@settings(max_examples=150, deadline=None)
@given(near_edges())
def test_edge_routes_agree_wherever_they_apply(edge):
    want = edge_poly(edge, "tm").complete
    assert edge_poly(edge, "roofs").complete == want
    assert edge_poly(edge, "auto").complete == want
    if all(convex_profile(f) is not None for f in factorize(edge)):
        assert edge_poly(edge, "convex").complete == want
    else:
        with pytest.raises(ValueError, match="not strictly convex"):
            edge_poly(edge, "convex")


@st.composite
def near_gons(draw) -> list[NearEdge]:
    """3-5 near-edges of the strategy above, 14 points at most in all."""
    sides = draw(st.integers(3, 5))
    return draw(st.lists(near_edges(14 // sides - 1), min_size=sides, max_size=sides))


@settings(max_examples=100, deadline=None)
@given(near_gons())
def test_realized_near_gons_count_as_composed(edges):
    polys = [edge_poly(e) for e in edges]
    want = compose(polys, maximal=True)
    assert max_config_count(realize(edges)) == want
    assert gon_poly(NearGon(edges), maximal=True) == want
    assert gon_poly(NearGon(edges)) == compose(polys)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=3, max_size=6).filter(lambda ws: sum(ws) <= 15)
)
def test_realized_weighted_polygons_sweep_to_the_closed_form(ws):
    cfg = weighted_polygon_config(ws)
    assert complete_config_poly(cfg) == weighted_complete_poly(ws)
    assert max_config_count(cfg) == weighted_max_count(ws)


@st.composite
def grid_sets(draw) -> tuple[tuple[int, int], ...]:
    """4-12 points of a 6x6 grid, not all collinear; some scaled by
    10^40."""
    pts = draw(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=4, max_size=12)
    )
    assume(not Configuration(pts).all_collinear())
    scale = HUGE if draw(st.booleans()) else 1
    return tuple((x * scale, y * scale) for x, y in sorted(pts))


@settings(max_examples=150, deadline=None)
@given(grid_sets(), st.integers(0, 2**16))
def test_pruned_sweeps_match_unpruned_ones(pts, seed):
    cfg = Configuration(pts)
    assert complete_config_poly(cfg) == unpruned_sweep(cfg)
    assert max_config_count(cfg) == unpruned_sweep(cfg, maximal=True)
    for floor, ceiling in valley_regions(cfg, 2, seed):
        for maximal in (False, True):
            assert region_poly(cfg, floor, ceiling, maximal=maximal) == unpruned_sweep(
                cfg, floor, ceiling, maximal=maximal
            )
