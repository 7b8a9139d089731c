"""Exact arithmetic kernel: Catalan numbers, sparse integer polynomials
and the linear pairings against the Catalan generating series.

Coefficients are plain Python ints, so everything is exact at any size.
One sparse core, ``_Sparse``, holds a polynomial as a dict from exponent
keys to non-zero coefficients and defines its sum, difference, integer
scaling, product, equality and text once.  Four views of it cover the
whole pipeline; each fixes only its keys, how a term prints and what it
adds on top:

* ``PolyT``   -- univariate in ``t``.
* ``PolyS``   -- univariate in ``s``; a triangulation polynomial counts
  triangulations by the number of vertices they use.
* ``PolyST``  -- bivariate in ``(s, t)``.  Edge polynomials are sums of
  terms ``c * s^a * p_j`` over the edge basis ``p_j``; ``PolyST.from_p``
  builds one from its terms ``{(a, j): c}`` and ``PolyST.p_terms``, by
  the in-place expansion ``_p_expand``, reads them back.  It is the one
  conversion into the edge basis: ``tripoly.neargon`` groups its terms
  by power of s, refusing a p_0 term, or keeps the top power alone.
* ``PolySUW`` -- trivariate in ``(s, u, w)``: a decoded state of the
  convex-edge recursion, which ``tripoly.neargon`` runs on packed ints.

The central linear functional ``catalan_pair_t`` sends ``t^n`` to the
Catalan number ``C_{n-2}`` for ``n >= 2`` and annihilates ``1`` and
``t``; the other pairings are variable-wise variants of it.

Products of these views are term by term.  The paper's main formula,
the triangulation polynomial of a convex near-gon as the pairing of the
product of its edge polynomials, has one kernel of its own,
``pair_edge_product``; a weighted convex polygon is the near-gon whose
edges are straight.  It takes each factor over the edge basis and keeps,
per power of s, one int whose signed W-bit fields are the live band of
its t-coefficients, top degree first, so a factor 1/t is a shift and no
big int multiplies another.  W holds the product over the factors of
their l1 norms (``edge_product_bound``) plus a sign bit, rounded up to
whole bytes (``packed_bytes``), so the final fields do not carry.
``unpack_fields`` reads them back for the pairing, as it does for the
convex-edge recursion of ``tripoly.neargon``; ``_edge_basis`` builds p_n.
"""
from __future__ import annotations

from math import comb
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

_CATALAN = [1]
# term tuples of the edge basis p_n; entry 0 is never read
_EDGE_BASIS: list[tuple[tuple[int, int], ...]] = [()]


def catalan(n: int) -> int:
    """n-th Catalan number C_n = binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"catalan index must be >= 0, got {n}")
    while len(_CATALAN) <= n:
        m = len(_CATALAN)
        _CATALAN.append(_CATALAN[-1] * 2 * (2 * m - 1) // (m + 1))
    return _CATALAN[n]


def _edge_basis(n: int) -> tuple[tuple[int, int], ...]:
    """Terms (t-exponent, coefficient) of p_n, n >= 1, highest first."""
    if n < 1:
        raise ValueError(f"edge weight must be >= 1, got {n}")
    while len(_EDGE_BASIS) <= n:
        m = len(_EDGE_BASIS)
        _EDGE_BASIS.append(
            tuple((m - k, (-1) ** k * comb(m - k, k)) for k in range(m // 2 + 1))
        )
    return _EDGE_BASIS[n]


def _p_expand(row: dict[int, int]) -> dict[int, int]:
    """The coefficients {j: c} of the t-polynomial ``row`` over the edge
    basis, with p_0 = 1, top degree first.  ``row`` is emptied in place."""
    out: dict[int, int] = {}
    for j in range(max(row, default=0), 0, -1):
        c = row.pop(j, 0)
        if c:
            out[j] = c
            for t, v in _edge_basis(j)[1:]:
                row[t] = row.get(t, 0) - c * v
    if row.get(0):
        out[0] = row.pop(0)
    return out


def binomial(n: int, k: int) -> int:
    """binom(n, k), zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


class _Sparse:
    """Sparse integer polynomial: a dict from exponent keys to non-zero
    coefficients.

    A view fixes its keys through ``_add_exp`` (the exponent of a product
    of two terms), the text of a term through ``_body`` and the order of
    the terms through ``_order``.  The default view is univariate in
    ``_var`` with int keys, printed from the highest power down.
    """

    __slots__ = ("c",)

    _var = ""
    _add_exp = add

    def __init__(self, coeffs: Mapping | None = None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v}

    def coeff(self, exp) -> int:
        return self.c.get(exp, 0)

    def _plus(self, other: "_Sparse", sign: int):
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + sign * v
        return type(self)(out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _product(self, a: Mapping, b: Mapping) -> dict:
        """Schoolbook product of two coefficient dicts."""
        add_exp = self._add_exp
        out: dict = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                k = add_exp(e1, e2)
                out[k] = out.get(k, 0) + v1 * v2
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({e: v * other for e, v in self.c.items()})
        if type(other) is type(self):
            return type(self)(self._product(self.c, other.c))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.c == other.c

    def __bool__(self) -> bool:
        return bool(self.c)

    @staticmethod
    def _order(key):
        return -key

    def _body(self, key) -> str:
        return f"{self._var}^{key}" if key else ""

    def text(self) -> str:
        parts: list[str] = []
        for key in sorted(self.c, key=self._order):
            coeff, body = self.c[key], self._body(key)
            frag = f"{abs(coeff)}*{body}" if body else f"{abs(coeff)}"
            if not parts:
                parts.append(frag if coeff >= 0 else f"-{frag}")
            else:
                parts.append(f"+ {frag}" if coeff >= 0 else f"- {frag}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self.text()}]"


class PolyT(_Sparse):
    """Sparse integer polynomial in t."""

    __slots__ = ()
    _var = "t"

    def shift(self, k: int) -> "PolyT":
        """Multiply by t^k (k may be negative if no exponent drops below 0)."""
        out = {e + k: v for e, v in self.c.items()}
        if any(e < 0 for e in out):
            raise ValueError("shift would create a negative exponent")
        return PolyT(out)


class PolyS(_Sparse):
    """Sparse integer polynomial in s (a triangulation polynomial)."""

    __slots__ = ()
    _var = "s"

    def leading(self) -> int:
        """Coefficient of the highest power of s."""
        return self.c[max(self.c)] if self.c else 0


def packed_bytes(bound: int) -> int:
    """Bytes per field that hold every value of absolute value at most
    ``bound``: its bit length plus a sign bit, rounded up."""
    return (bound.bit_length() + 8) // 8


def unpack_fields(
    packs: Iterable[int], nbytes: int, fields: int
) -> Iterator[list[int]]:
    """For every int of ``packs``, the ``fields`` signed fields of
    ``nbytes`` bytes each that make it up, lowest first.

    Adding 2^(W - 1) to every field (W = 8 * nbytes) makes all of them
    non-negative, and the bytes of the sum read them back.  Every field
    must lie in [-2^(W - 1), 2^(W - 1)).
    """
    half = 1 << (8 * nbytes - 1)
    size = nbytes * fields
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * fields, "little")
    for packed in packs:
        raw = (packed + offset).to_bytes(size, "little")
        yield [
            int.from_bytes(raw[j : j + nbytes], "little") - half
            for j in range(0, size, nbytes)
        ]


class PolyST(_Sparse):
    """Sparse integer polynomial in (s, t)."""

    __slots__ = ()

    @classmethod
    def from_p(cls, coeffs: Mapping[tuple[int, int], int]) -> "PolyST":
        """Sum of c * s^a * p_j over the terms {(a, j): c}, every j >= 1."""
        out: dict[tuple[int, int], int] = {}
        for (a, j), c in coeffs.items():
            for t, v in _edge_basis(j):
                out[a, t] = out.get((a, t), 0) + c * v
        return cls(out)

    def p_terms(self) -> dict[tuple[int, int], int]:
        """The terms {(a, j): c} of this polynomial over s^a * p_j, p_0 = 1;
        the inverse of ``from_p``."""
        rows: dict[int, dict[int, int]] = {}
        for (a, t), v in self.c.items():
            rows.setdefault(a, {})[t] = v
        return {
            (a, j): c for a, row in rows.items() for j, c in _p_expand(row).items()
        }

    def coefficient_s(self, a: int) -> PolyT:
        return PolyT({t: v for (s, t), v in self.c.items() if s == a})

    @staticmethod
    def _add_exp(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    @staticmethod
    def _order(key: tuple[int, int]) -> tuple[int, int]:
        s, t = key
        return (-(s + t), -s)

    def _body(self, key: tuple[int, int]) -> str:
        s, t = key
        s_part = f"s^{s}" if s else ""
        t_part = f"t^{t}" if t else ""
        return "*".join(p for p in (s_part, t_part) if p)


class PolySUW(_Sparse):
    """Sparse integer polynomial in (s, u, w); plain integer exponents."""

    __slots__ = ()

    @staticmethod
    def _add_exp(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def pair_w(self) -> "PolySUW":
        """Pair the w variable against sum_n C_n w^n (collapses w to 0)."""
        out: dict[tuple[int, int, int], int] = {}
        for (s, u, w), v in self.c.items():
            k = (s, u, 0)
            out[k] = out.get(k, 0) + v * catalan(w)
        return PolySUW(out)

    @staticmethod
    def _order(key: tuple[int, int, int]) -> tuple[int, int, int]:
        return key

    def _body(self, key: tuple[int, int, int]) -> str:
        return "s^{}*u^{}*w^{}".format(*key)


def maximal_edge_basis(n: int) -> PolyT:
    """Basis polynomial p_n = sum_k (-1)^k binom(n-k, k) t^(n-k), n >= 1."""
    return PolyT(dict(_edge_basis(n)))


def complete_edge_terms(n: int) -> dict[tuple[int, int], int]:
    """The terms {(k, k): binom(n-1, k-1)} of pbar_n over s^k p_k."""
    return {(k, k): comb(n - 1, k - 1) for k in range(1, n + 1)}


def complete_edge_basis(n: int) -> PolyST:
    """Complete basis pbar_n = sum_{k=1}^n binom(n-1, k-1) p_k s^k."""
    if n < 1:
        raise ValueError(f"edge weight must be >= 1, got {n}")
    return PolyST.from_p(complete_edge_terms(n))


def edge_product_bound(factors: Sequence[Mapping[tuple[int, int], int]]) -> int:
    """Product over the factors of sum |c| * ||p_j||_1 over their terms
    {(a, j): c}, which bounds every coefficient of their product; the
    alternating binomials of p_j sum to ||p_j||_1 = F_(j+1) in absolute
    value."""
    norms = [1, 1]  # ||p_0||_1, ||p_1||_1
    bound = 1
    for terms in factors:
        top = max((j for _, j in terms), default=0)
        while len(norms) <= top:
            norms.append(norms[-1] + norms[-2])
        bound *= sum(abs(c) * norms[j] for (_, j), c in terms.items())
    return bound


def pair_edge_product(factors: Sequence[Mapping[tuple[int, int], int]]) -> PolyS:
    """Pair t out of the product of the factors, each given by its terms
    {(a, j): c} over s^a * p_j, with p_0 = 1.

    A term raises t - s by at most j - a and 2t - s by at least j - a, so
    the rise R and the fall of the factors so far bound them.  Per power
    of s the product is one int of signed W-bit fields, W fit to
    ``edge_product_bound``, whose field d is the coefficient of
    s^s t^(s + R - d): only the live band, down to t = (s + fall) / 2, is
    stored.  There q_j = p_j / t^j = q_(j-1) - q_(j-2) / t is a W-bit
    shift and no multiply, and a term s^a p_j of a factor of rise ``up``
    lands a - j + up fields higher, never lower.
    """
    nbytes = packed_bytes(edge_product_bound(factors))
    width = 8 * nbytes
    groups = [1]  # groups[s]: the band of s^s at 1/t = 2^width
    top = rise = fall = 0  # t-degree, most and least t - s
    for terms in factors:
        if not terms:
            return PolyS()
        up = max(j - a for a, j in terms)  # the factor's rise, so no shift is < 0
        ordered = sorted((j, a, c, width * (a - j + up)) for (a, j), c in terms.items())
        out = [0] * (len(groups) + max(a for a, _ in terms))
        for s0, x in enumerate(groups):
            if x:
                at, before, now = 0, 0, x  # now = x * q_at
                for j, a, c, shift in ordered:
                    while at < j:
                        at, before, now = at + 1, now, now - (before << width)
                    out[s0 + a] += c * now << shift if shift else c * now  # << 0 copies
        groups = out
        top += ordered[-1][0]
        rise, fall = rise + up, fall + min(j - a for a, j in terms)
    cats = [*map(catalan, range(top - 2, -1, -1)), 0, 0]  # t^n pairs to cats[top - n]
    poly: dict[int, int] = {}
    for s, x in enumerate(groups):
        if x:  # the fields above t = top and below t = (s + fall) / 2 are 0
            high, low = min(s + rise, top), max((s + fall + 1) // 2, 0)
            x >>= width * (s + rise - high)
            (fields,) = unpack_fields([x], nbytes, high - low + 1)
            poly[s] = sum(map(mul, fields, cats[top - high :]))
    return PolyS(poly)


def catalan_pair_t(q: PolyT) -> int:
    """Pair q against sum_{n>=2} C_{n-2} t^n; degrees 0 and 1 pair to 0."""
    return sum(v * catalan(e - 2) for e, v in q.c.items() if e >= 2)


def catalan_pair_st(q: PolyST) -> PolyS:
    """Pair out t, leaving a polynomial in s."""
    out: dict[int, int] = {}
    for (s, t), v in q.c.items():
        if t >= 2:
            out[s] = out.get(s, 0) + v * catalan(t - 2)
    return PolyS(out)


def series_pair_uw(r: PolySUW) -> PolyST:
    """Pair u and w out of a state polynomial.

    Each term c * s^a u^j w^n becomes c * C_n * p_j * s^a.  A term with
    j = 0 has no edge-basis image and is rejected.
    """
    out: dict[tuple[int, int], int] = {}
    for (s, u, w), v in r.c.items():
        if u == 0:
            raise ValueError("state term with u-degree 0 cannot be paired")
        out[s, u] = out.get((s, u), 0) + v * catalan(w)
    return PolyST.from_p(out)


def solve_integer_system(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int]:
    """Solve a square integer system exactly, insisting on an integer solution.

    Raises ValueError if the matrix is singular or the unique rational
    solution has a non-integer entry.
    """
    from fractions import Fraction  # imported here: only recovery solves systems

    m = len(matrix)
    if any(len(row) != m for row in matrix) or len(rhs) != m:
        raise ValueError("system is not square")
    rows = [
        [Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)
    ]
    # Gauss-Jordan elimination with exact rationals.
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("singular linear system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    out: list[int] = []
    for j in range(m):
        x = rows[j][m]
        if x.denominator != 1:
            raise ValueError(f"non-integer solution entry {x} at position {j}")
        out.append(int(x))
    return out


def hankel_recover(values: Sequence[int], alpha: int, d: int) -> PolyT:
    """Recover q supported on degrees [alpha, d] from its shifted pairings.

    values[k] must equal catalan_pair_t(t^k * q) for k = 0..d-alpha.  The
    Hankel matrices C_{i+j+k} of the Catalan sequence are nonsingular, so
    the system determines q uniquely; it is solved exactly over Fraction.
    """
    if alpha < 2:
        raise ValueError(f"alpha must be >= 2, got {alpha}")
    if d < alpha:
        raise ValueError(f"need d >= alpha, got alpha={alpha}, d={d}")
    m = d - alpha + 1
    if len(values) != m:
        raise ValueError(f"expected {m} values for degrees [{alpha}, {d}], got {len(values)}")
    matrix = [[catalan(r + alpha + j - 2) for j in range(m)] for r in range(m)]
    try:
        solution = solve_integer_system(matrix, list(values))
    except ValueError as exc:
        raise ValueError(f"monomial recovery failed: {exc}") from None
    return PolyT({alpha + j: c for j, c in enumerate(solution)})

