"""Plain reference versions of kernels the package runs on packed ints.

* ``schoolbook_convex_states`` -- the convex-edge recursion multiplied
  out term by term on ``PolySUW`` dicts.
* ``fraction_realize_at`` -- one flattening of ``realize`` in
  ``Fraction`` complex arithmetic, scaled by the lcm of the reduced
  denominators.
* ``lcm_polygon_points`` -- a weighted convex polygon placed on
  ``convex_polygon_points`` scaled by the lcm of its weights, so that
  every subdivision point is an integer.
* ``residue_max_count`` -- the maximal count of a weighted convex
  polygon as a residue, with binomials only.
* ``all_pairs_factorize`` -- the prime factors of a near-edge, each
  split tested against the line through every pair of points.

They share nothing with the packed routes but ``PolySUW``,
``Configuration``, ``NearEdge``, ``orient`` and
``convex_polygon_points``.

``encode``, ``skyline_points`` and ``is_covering`` read a decorated
roof of :mod:`tripoly.roofs`: its code ``d << (n - 1) | bits``, which
:func:`tripoly.roofs.decode` inverts, its points, and whether it covers
the host.

``unpruned`` and ``unpruned_sweep`` are of another kind: they build and
run the package's own transfer sweep with the cascade rule off, so that
every move is made and none is folded.  Compared with the public
functions, they check that pruning drops no state that pays off.
``unfold`` keeps a pruned sweep's cascade rule but folds no move.
``scan_payoff`` pays off a bucket one code at a time by the payoff rule
alone, for comparison with a sweep's own ``payoff``.
"""
from __future__ import annotations

import copy
from fractions import Fraction
from math import comb, lcm
from typing import Mapping, Sequence

from tripoly.exactmath import PolyS, PolySUW
from tripoly.planar import (
    Configuration,
    NearEdge,
    Point,
    convex_polygon_points,
    hull_host,
    orient,
    region_host,
)
from tripoly.roofs import DecoratedRoof
from tripoly.transfer import TraceFn, _poly, _run, _Sweep


def schoolbook_convex_states(
    profile: Sequence[int], mode: str = "complete"
) -> list[PolySUW]:
    """States of the convex-edge recursion: seed s^σ u, then per sign
    r * (s^σ u w [+ 1 in complete mode]) for +1 and
    r * s^σ w + pair_w(r) * s^σ u for -1, σ = 1 in complete mode."""
    s = {"complete": 1, "maximal": 0}[mode]
    r = PolySUW({(s, 1, 0): 1})
    out = [r]
    for eps in profile:
        if eps == 1:
            step = PolySUW({(s, 1, 1): 1})
            if mode == "complete":
                step = step + PolySUW({(0, 0, 0): 1})
            r = r * step
        else:
            assert eps == -1, eps
            r = r * PolySUW({(s, 0, 1): 1}) + r.pair_w() * PolySUW({(s, 1, 0): 1})
        out.append(r)
    return out


Complex = tuple[Fraction, Fraction]


def _sub(a: Complex, b: Complex) -> Complex:
    return (a[0] - b[0], a[1] - b[1])


def _add(a: Complex, b: Complex) -> Complex:
    return (a[0] + b[0], a[1] + b[1])


def _mul(a: Complex, b: Complex) -> Complex:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a: Complex, b: Complex) -> Complex:
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def fraction_realize_at(
    edges: Sequence[NearEdge], base: Sequence[Point], eps: Fraction
) -> Configuration | None:
    """Every edge flattened by ``eps`` toward its chord and mapped onto its
    side of ``base``; None when two images coincide."""
    l = len(edges)
    seen: set[Complex] = set()
    out: list[Complex] = []
    for i, edge in enumerate(edges):
        flat = [(Fraction(x), eps * y) for x, y in edge.translate_to_origin().points]
        dst0: Complex = (Fraction(base[i][0]), Fraction(base[i][1]))
        nxt = base[(i + 1) % l]
        dst1: Complex = (Fraction(nxt[0]), Fraction(nxt[1]))
        a = _div(_sub(dst1, dst0), flat[-1])
        for q in flat:
            img = _add(_mul(a, q), dst0)
            if img not in seen:
                seen.add(img)
                out.append(img)
    if len(out) != sum(e.weight for e in edges):
        return None
    denom = lcm(*(c.denominator for p in out for c in p))
    return Configuration((int(p[0] * denom), int(p[1] * denom)) for p in out)


def lcm_polygon_points(weights: Sequence[int]) -> Configuration:
    """Side i of ``convex_polygon_points(l)`` split into a_i equal parts,
    the polygon scaled by the lcm of the weights."""
    base = convex_polygon_points(len(weights))
    scale = lcm(*weights)
    pts = []
    for i, a in enumerate(weights):
        bx, by = base[i]
        nx, ny = base[(i + 1) % len(weights)]
        dx, dy = nx - bx, ny - by
        for j in range(a):
            t = j * (scale // a)
            pts.append((scale * bx + t * dx, scale * by + t * dy))
    return Configuration(pts)


def _one_minus_w_power(m: int, j: int) -> int:
    """[w^j] (1 - w)^m, a generalized binomial when m < 0."""
    return (-1) ** j * comb(m, j) if m >= 0 else comb(j - m - 1, j)


def residue_max_count(weights: Sequence[int]) -> int:
    """Maximal triangulations of a weighted convex polygon, by a residue.

    With t = 1/(w(1 - w)) the edge basis is
    p_k = ((1 - w) w^-k - w (1 - w)^-k) / (1 - 2w), and the Catalan
    series at z = w(1 - w) is 1/(1 - w), so pairing the product of the
    sides' p_(a_i) is a residue at w = 0.  Expanding the product over the
    subsets S of sides that take their second term gives

        M = sum over S of (-1)^|S| [w^(A - A_S - |S| - 2)]
            (1 - w)^(l - |S| - A_S) (1 - 2w)^(1 - l)

    for l sides, A = sum a_i and A_S = sum over S of a_i.
    """
    l, total = len(weights), sum(weights)
    count = 0
    for mask in range(1 << l):
        taken = [a for i, a in enumerate(weights) if mask >> i & 1]
        n = total - sum(taken) - len(taken) - 2
        if n < 0:
            continue
        m = l - len(taken) - sum(taken)
        # [w^k] (1 - 2w)^(1 - l) = C(l - 2 + k, k) 2^k
        coeff = sum(
            _one_minus_w_power(m, j) * (comb(l - 2 + n - j, n - j) << (n - j))
            for j in range(n + 1)
        )
        count += -coeff if len(taken) % 2 else coeff
    return count


def all_pairs_factorize(edge: NearEdge) -> list[NearEdge]:
    """Prime factors of a near-edge, translated to the origin.  Position
    k splits when every later point lies strictly above the line through
    any two of the first k + 1 points, and every earlier point strictly
    above the line through any two of the last n - k + 1."""
    pts = edge.points
    cuts = [0]
    for k in range(1, len(pts) - 1):
        head, tail = pts[: k + 1], pts[k:]
        if all(
            orient(head[i], head[j], q) > 0
            for i in range(len(head))
            for j in range(i + 1, len(head))
            for q in pts[k + 1 :]
        ) and all(
            orient(tail[i], tail[j], q) > 0
            for i in range(len(tail))
            for j in range(i + 1, len(tail))
            for q in pts[:k]
        ):
            cuts.append(k)
    cuts.append(len(pts) - 1)
    return [
        NearEdge(pts[a : b + 1]).translate_to_origin() for a, b in zip(cuts, cuts[1:])
    ]


def encode(roof: DecoratedRoof, n: int) -> int:
    """Pack a decorated roof over P_0..P_n into an integer code."""
    idx = roof.indices
    if idx[0] != 0 or idx[-1] != n:
        raise ValueError(f"roof must run from 0 to {n}, got {idx}")
    if not 0 <= roof.d <= len(idx) - 2:
        raise ValueError(f"marker {roof.d} out of range for {idx}")
    bits = 0
    for i in idx[1:-1]:
        bits |= 1 << (i - 1)
    return roof.d * (1 << (n - 1)) + bits


def skyline_points(points: Sequence[Point], roof: DecoratedRoof) -> tuple[Point, ...]:
    return tuple(points[i] for i in roof.indices)


def is_covering(points: Sequence[Point], indices: Sequence[int]) -> bool:
    """True when every skipped point lies strictly below the roof line."""
    idx = list(indices)
    for a, b in zip(idx, idx[1:]):
        pa, pb = points[a], points[b]
        for q in range(a + 1, b):
            if orient(pa, pb, points[q]) >= 0:
                return False
    return True


def unpruned(
    points: Sequence[Point],
    *,
    ceiling: Sequence[Point] | None = None,
    immediate: bool = False,
) -> _Sweep:
    """A sweep of ``points`` that makes every move and folds none: a
    traced sweep, whose tables drop no merge and fold nothing, with its
    cascade rule turned off."""
    sweep = _Sweep(points, ceiling=ceiling, immediate=immediate, traced=True)
    sweep.prune = False
    return sweep


def unfold(sweep: _Sweep) -> _Sweep:
    """A copy of a sweep whose walk folds no move: every row of its fold
    table holds the plain insertions, those of a sweep without a ceiling,
    which folds nothing; insertions do not depend on the ceiling."""
    plain = copy.copy(sweep)
    plain._fold = _Sweep(sweep.points, immediate=sweep.immediate)._fold
    return plain


def unpruned_sweep(
    config: Configuration,
    floor: Sequence[int] | None = None,
    ceiling: Sequence[int] | None = None,
    *,
    maximal: bool = False,
    trace: TraceFn | None = None,
) -> PolyS | int:
    """The maximal count or the complete polynomial of the region between
    two index paths, or of the whole configuration when they are None,
    swept without pruning."""
    if floor is None:
        host, floor_path, ceiling_path = hull_host(config)
    else:
        host, floor_path, ceiling_path = region_host(config, floor, ceiling)
    sweep = unpruned(host, ceiling=ceiling_path, immediate=maximal)
    payoffs = _run(sweep, floor_path, trace)
    return sum(payoffs.values()) if maximal else _poly(payoffs)


def scan_payoff(sweep: _Sweep, vec: Mapping[int, int]) -> dict[int, int]:
    """Roof length -> summed multiplicity of the codes of ``vec`` whose bits
    match the sweep's ceiling, ``(bits ^ required) & care`` 0, every code
    without one."""
    out: dict[int, int] = {}
    for code, mult in vec.items():
        bits = code & sweep.mask
        if (bits ^ sweep.required) & sweep.care:
            continue
        length = bits.bit_count() + 1
        out[length] = out.get(length, 0) + mult
    return out
