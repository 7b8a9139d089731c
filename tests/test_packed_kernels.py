"""The packed-int kernels against plain reference versions.

* The convex-edge recursion runs on lists of packed ints; its states,
  decoded, must equal the term-by-term ``PolySUW`` recursion of
  ``reference.py`` in both modes (a maximal state is read off as the
  top s slice of the complete one), and its paired result the transfer
  route on the canonical edge of the profile.
* The fields of the convex-edge recursion are sized from the w-pairing
  of its last state at s = u = 1, which must bound every entry of every
  state.
* ``realize`` flattens near-gons in integer complex arithmetic; every
  flattening must give the configuration that ``Fraction`` arithmetic
  gives.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from tripoly.exactmath import series_pair_uw
from tripoly.neargon import (
    PRECISION_STEPS,
    _convex_run,
    _pair_w,
    _realize_at,
    convex_edge_complete,
    convex_edge_states,
)
from tripoly.planar import (
    Configuration,
    NearEdge,
    convex_polygon_points,
    profile_realization,
)
from tripoly.transfer import complete_edge_poly_tm

from reference import fraction_realize_at, schoolbook_convex_states


def seeded_profiles() -> list[tuple[int, ...]]:
    rng = random.Random(16)
    out = [
        tuple(rng.choice((1, -1)) for _ in range(n))
        for n in range(15)
        for _ in range(3)
    ]
    out += [(1,) * 14, (-1,) * 14]
    out.append(tuple(rng.choice((1, -1)) for _ in range(40)))
    return out


@pytest.mark.parametrize("mode", ["complete", "maximal"])
@pytest.mark.parametrize("profile", seeded_profiles(), ids=len)
def test_convex_states_match_the_schoolbook_recursion(profile, mode):
    states = convex_edge_states(profile, mode)
    assert states == schoolbook_convex_states(profile, mode)
    if mode == "complete":
        assert convex_edge_complete(profile) == series_pair_uw(states[-1])


def test_the_last_pairing_bounds_every_state():
    # the packed recursion sizes its fields from this pairing alone
    rng = random.Random(41)
    for n in range(41):
        for _ in range(6):
            profile = [rng.choice((1, -1)) for _ in range(n)]
            states = list(_convex_run(profile, 0, 0))
            bound = _pair_w(states[-1])
            assert all(v <= bound for r in states for v in r), profile


def test_convex_route_matches_the_transfer_route():
    rng = random.Random(9)
    profiles = [p for n in range(6) for p in itertools.product((1, -1), repeat=n)]
    profiles += [tuple(rng.choice((1, -1)) for _ in range(n)) for n in (6, 7, 8, 9, 9)]
    for profile in profiles:
        want = complete_edge_poly_tm(profile_realization(profile))
        assert convex_edge_complete(profile) == want, profile


def random_edge(rng: random.Random) -> NearEdge:
    """A near-edge of weight 1-5: a unit edge, a straight run, or points
    at random heights; the chord is tilted in about half of them."""
    kind = rng.choice(("unit", "straight", "bumpy", "bumpy"))
    weight = 1 if kind == "unit" else rng.randint(2, 5)
    xs = [0]
    for _ in range(weight):
        xs.append(xs[-1] + rng.randint(1, 3))
    tilt = rng.choice((0, 0, rng.randint(-3, 3)))
    if kind == "bumpy":
        ys = [0, *(rng.randint(-4, 4) for _ in range(weight - 1)), 0]
    else:
        ys = [0] * (weight + 1)
    return NearEdge((x, y + tilt * x) for x, y in zip(xs, ys))


def seeded_gons() -> list[tuple[NearEdge, ...]]:
    rng = random.Random(7)
    gons = [
        tuple(random_edge(rng) for _ in range(l))
        for l in (3, 3, 4, 4, 5, 5, 6, 7)
    ]
    gons.append((NearEdge(((0, 0), (1, 0))),) * 3)
    gons.append(tuple(NearEdge(((0, 0), p)) for p in ((3, 2), (1, -5), (2, 0))))
    return gons


@pytest.mark.parametrize("edges", seeded_gons(), ids=len)
def test_integer_flattening_matches_fraction_arithmetic(edges):
    base = convex_polygon_points(len(edges))
    for m in range(PRECISION_STEPS + 1):
        want = fraction_realize_at(edges, base, Fraction(1, 2**m))
        images = _realize_at(edges, base, m)
        got = None if images is None else Configuration(set().union(*images))
        assert got == want, m


def test_the_seeded_gons_cover_tilted_straight_and_unit_edges():
    edges = [e for gon in seeded_gons() for e in gon]
    assert any(e.points[-1][1] != 0 for e in edges)
    assert any(e.is_straight() and e.weight > 1 for e in edges)
    assert any(e.weight == 1 for e in edges)
