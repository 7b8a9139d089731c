"""Shared test data: small near-edges, configurations and pinned values.

Everything here is deliberately tiny so the brute-force oracle can
cross-check the fast routes.  Expected polynomials are spelled out with
the edge basis builders to keep the tables readable.
"""
from __future__ import annotations

import random

from tripoly.cli import (  # the pinned examples of `selftest`
    EDGE_A,
    EDGE_A_PCOEFFS,
    EDGE_B,
    EDGE_C,
    FANS,
    GON_POLY,
    PENTAGON_POLY,
    SQUEEZE,
    SQUEEZE_CEILING,
    SQUEEZE_FLOOR,
    TRIANGLE_POLY,
)
from tripoly.exactmath import PolyST, PolyT, maximal_edge_basis
from tripoly.planar import (
    Configuration,
    NearEdge,
    orient,
    path_corners,
    point_vs_path,
    region_host,
)
from tripoly.roofs import decode
from tripoly.weighted import weighted_polygon_config

from reference import from_t

# --- near-edges used all over the suite (EDGE_A, EDGE_B, EDGE_C above)

EDGE8 = tuple((i, y) for i, y in enumerate((0, -1, 1, 1, -2, -3, -2, -1, 0)))
EDGE12 = tuple(
    (i, y) for i, y in enumerate((1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1))
)
SEVEN = ((0, 0), (1, 2), (2, -1), (3, 1), (4, -2), (5, 1), (6, 0))
FLATTOP = ((0, 0), (1, 1), (2, 1), (3, 1), (4, -1), (5, 0))
STRAIGHT4 = ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))


def straight_edge(a: int) -> NearEdge:
    """The weight-a edge whose points all sit on one line."""
    return NearEdge((i, 0) for i in range(a + 1))


# --- configurations (SQUEEZE with its floor and ceiling above)

COLUMNS11 = (
    (0, 3), (0, 2), (0, 1), (0, 0), (1, 4), (2, 4),
    (2, 2), (2, 1), (3, 3), (3, 2), (3, -1),
)
COLUMNS11_POLY = {11: 1196, 10: 2284, 9: 1713, 8: 670, 7: 143, 6: 14}

COLLINEAR_RUN = ((0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1))
COLLINEAR_RUN_POLY = {6: 4, 5: 6, 4: 2}

QUAD = ((0, 0), (2, 0), (2, 2), (0, 2))
TRIANGLE_PLUS_CENTER = ((0, 0), (4, 0), (0, 4), (1, 1))

# --- pinned polynomials (GON_POLY, PENTAGON_POLY, TRIANGLE_POLY and
# EDGE_A_PCOEFFS above)

EDGE_B_PCOEFFS = {
    4: {3: 5, 4: 1},
    3: {2: 4, 3: 2},
    2: {1: 1, 2: 1},
}
EDGE_C_PCOEFFS = {
    5: {3: 10, 4: 7, 5: 2},
    4: {2: 3, 3: 13, 4: 4},
    3: {2: 6, 3: 3},
    2: {1: 1, 2: 1},
}

# --- the catalog of all near-edges of weight 1, 2 and 3
#
# Keys are (weight, number); values are the y heights over x = 0, 1, ...

CATALOG_HEIGHTS = {
    (1, 1): (0, 0),
    (2, 1): (0, 1, 0),
    (2, 2): (0, -1, 0),
    (2, 3): (0, 0, 0),
    (3, 1): (0, 1, 3, 0),
    (3, 2): (0, 1, 1, 0),
    (3, 3): (0, 3, 1, 0),
    (3, 4): (0, 1, -1, 0),
    (3, 5): (0, -1, 1, 0),
    (3, 6): (0, -3, -1, 0),
    (3, 7): (0, -1, -1, 0),
    (3, 8): (0, -1, -3, 0),
    (3, 9): (0, 1, 2, 0),
    (3, 10): (0, -1, -2, 0),
    (3, 11): (0, 0, 1, 0),
    (3, 12): (0, 0, -1, 0),
    (3, 13): (0, 1, 0, 0),
    (3, 14): (0, -1, 0, 0),
    (3, 15): (0, 2, 1, 0),
    (3, 16): (0, -2, -1, 0),
    (3, 17): (0, 0, 0, 0),
}


def catalog_edge(key: tuple[int, int]) -> NearEdge:
    return NearEdge(tuple(enumerate(CATALOG_HEIGHTS[key])))


def _p(j: int) -> PolyT:
    return maximal_edge_basis(j)


def _st(layers: dict[int, PolyT]) -> PolyST:
    """Assemble a complete polynomial from {s exponent: t layer}."""
    out = PolyST()
    for s, q in layers.items():
        out = out + from_t(q, s)
    return out


_P1 = _st({1: _p(1)})
_P21 = _st({2: _p(2), 1: _p(1)})
_P31 = _st({3: _p(2) + _p(3), 2: 2 * _p(2), 1: _p(1)})
_P34 = _st({3: 2 * _p(2) + _p(3), 2: _p(1) * _p(1)})
_P36 = _st({3: _p(1) * _p(2), 2: _p(1) * _p(1)})
_P39 = _st({3: _p(3), 2: 2 * _p(2), 1: _p(1)})
_P311 = _st({3: _p(2) + _p(3), 2: 2 * _p(2), 1: _p(1)})
# dropping the point on the end chord leaves a two-point sub-edge whose
# chord is its own covering roof, so the low slice carries p1 + p2
_P312 = _st({3: _p(2) + _p(3), 2: _p(1) + _p(2)})

CATALOG_POLYS = {
    (1, 1): _P1,
    (2, 1): _P21,
    (2, 2): _st({2: _p(1) * _p(1)}),
    (2, 3): _P21,
    (3, 1): _P31,
    (3, 2): _st({3: 2 * _p(3), 2: 2 * _p(2), 1: _p(1)}),
    (3, 3): _P31,
    (3, 4): _P34,
    (3, 5): _P34,
    (3, 6): _P36,
    (3, 7): _st({3: _p(1) * _p(1) * _p(1)}),
    (3, 8): _P36,
    (3, 9): _P39,
    (3, 10): _P36,
    (3, 11): _P311,
    (3, 12): _P312,
    (3, 13): _P311,
    (3, 14): _P312,
    (3, 15): _P39,
    (3, 16): _P36,
    (3, 17): _P39,
}

CATALOG_FACTOR_COUNTS = {
    (1, 1): 1,
    (2, 1): 1, (2, 2): 2, (2, 3): 1,
    (3, 1): 1, (3, 2): 1, (3, 3): 1, (3, 4): 1, (3, 5): 1,
    (3, 6): 2, (3, 7): 3, (3, 8): 2,
    (3, 9): 1, (3, 10): 2, (3, 11): 1, (3, 12): 1, (3, 13): 1,
    (3, 14): 1, (3, 15): 1, (3, 16): 2, (3, 17): 1,
}

# product identities stated for the factorizing entries
CATALOG_PRODUCTS = {
    (2, 2): ((1, 1), (1, 1)),
    (3, 6): ((1, 1), (2, 1)),
    (3, 7): ((1, 1), (1, 1), (1, 1)),
    (3, 8): ((2, 1), (1, 1)),
    (3, 10): ((2, 3), (1, 1)),
    (3, 16): ((1, 1), (2, 3)),
}

CATALOG_MIRROR_PAIRS = (((3, 1), (3, 3)), ((3, 4), (3, 5)), ((3, 6), (3, 8)))
CATALOG_EQUAL_PAIRS = (
    ((3, 1), (3, 3)), ((3, 4), (3, 5)), ((3, 9), (3, 15)),
    ((3, 11), (3, 13)), ((3, 12), (3, 14)),
)

# --- corpora for the cross-check sweeps

SMALL_EDGES = tuple(
    [catalog_edge(k) for k in sorted(CATALOG_HEIGHTS)]
    + [
        NearEdge(EDGE_A),
        NearEdge(EDGE_B),
        NearEdge(EDGE_C),
        NearEdge(SEVEN),
        NearEdge(FLATTOP),
        NearEdge(STRAIGHT4),
    ]
)


def small_configs():
    """Point tuples of every corpus configuration with at most 9 points."""
    out = [
        QUAD,
        TRIANGLE_PLUS_CENTER,
        EDGE_A,
        EDGE_B,
        EDGE_C,
        SQUEEZE,
        COLLINEAR_RUN,
        EDGE_C + FANS[:1],
        EDGE_C + FANS[:2],
        EDGE_C + FANS,
    ]
    out += [
        weighted_polygon_config(ws).points
        for ws in ((1, 2, 2), (2, 2, 2), (1, 1, 1, 2))
    ]
    return out


def all_codes(n: int) -> list[int]:
    """Every decorated-roof code ``d << (n - 1) | bits`` over P_0..P_n."""
    return [
        d << (n - 1) | bits
        for bits in range(1 << (n - 1))
        for d in range(bits.bit_count() + 1)
    ]


def sweep_code(sweep, code: int) -> int:
    """The ``transfer._Sweep`` code of a decorated-roof code
    ``d << (n - 1) | bits``: its marker field holds the host index of the
    roof point at the marker's position, 0 at position 0.
    ``sweep.roof_code`` is the inverse."""
    roof = decode(code, sweep.n)
    return roof.indices[roof.d] << sweep.shift | code & sweep.mask


def valley_regions(
    cfg: Configuration, count: int, seed: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Regions above the lower hull under random ceilings through points
    strictly above it, each with a valley corner, where the sweep can
    merge a ceiling point away."""
    rng = random.Random(seed)
    pts = cfg.points
    index = {p: i for i, p in enumerate(pts)}
    lower = cfg.lower_boundary()
    floor = tuple(index[p] for p in lower)
    inner = [i for i in range(1, len(pts) - 1) if point_vs_path(pts[i], lower) > 0]
    out = []
    for _ in range(40):
        if len(out) == count or not inner:
            break
        mid = sorted(rng.sample(inner, rng.randint(1, min(4, len(inner)))))
        ceiling = (0, *mid, len(pts) - 1)
        path = [pts[i] for i in ceiling]
        corners = path_corners(path)
        if any(p[0] >= q[0] for p, q in zip(path, path[1:])) or not any(
            orient(a, b, c) > 0 for a, b, c in zip(corners, corners[1:], corners[2:])
        ):
            continue
        try:
            region_host(cfg, floor, ceiling)
        except ValueError:
            continue
        if (floor, ceiling) not in out:
            out.append((floor, ceiling))
    return out
