"""Property checks of the transfer sweep on generated degenerate sets.

Configurations of 5-8 points on a 4x5 grid hold a row of at least three
collinear points, and at least two points share an x column, a tie in
the sweep order; some are scaled by 10^40.  The maximal sweep and the
complete sweep derive their moves from the same orient tests, which
split the points of each collinear row into above, on and below; the
complete polynomial must match the brute-force oracle, and the maximal
count must be its leading coefficient.
"""
from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from tripoly.oracle import oracle_complete_poly
from tripoly.planar import Configuration
from tripoly.transfer import complete_config_poly, max_config_count

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
