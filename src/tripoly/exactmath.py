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
  builds every one of them from its coefficients keyed by ``(a, j)``.
* ``PolySUW`` -- trivariate in ``(s, u, w)``: a decoded state of the
  convex-edge recursion, which ``tripoly.neargon`` runs on packed ints.

The central linear functional ``catalan_pair_t`` sends ``t^n`` to the
Catalan number ``C_{n-2}`` for ``n >= 2`` and annihilates ``1`` and
``t``; the other pairings are variable-wise variants of it.

Products are term by term, except between two ``PolyST``,
whose dense ``t`` runs make Kronecker substitution pay: per ``s``
exponent, the ``t`` coefficients are packed into one int as fields of W
bits, the packed groups multiply pairwise on CPython's big-int multiply,
and one ``unpack_fields`` call reads back the sums of every output
``s`` exponent, building its offset once.
No product coefficient exceeds ``||a||_1 * ||b||_1`` in absolute value,
so W is that bound's bit length plus a sign bit, rounded up to whole
bytes (``packed_bytes``); no field carries into the next and the
product is exact.  ``tripoly.weighted`` packs its product of complete
edge bases the same way, but multiplies through the edge basis
recurrence with shifts instead, and reads it back with the same
decoder; so does the convex-edge recursion of ``tripoly.neargon``.
The terms of each ``p_n`` are built once, in ``_edge_basis``.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
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

    def degree(self) -> int:
        return max(self.c) if self.c else -1

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

    def lowest(self) -> tuple[int, int]:
        """(exponent, coefficient) of the lowest non-zero term."""
        if not self.c:
            return (-1, 0)
        e = min(self.c)
        return (e, self.c[e])


def _pack_by_s(
    c: Mapping[tuple[int, int], int], t0: int, width: int
) -> dict[int, int]:
    """Per s exponent, the t-coefficients packed as one int whose field j
    (``width`` bits wide, signed) holds the coefficient of t^(t0 + j)."""
    out: dict[int, int] = {}
    for (s, t), v in c.items():
        out[s] = out.get(s, 0) + (v << (width * (t - t0)))
    return out


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


def _packed_product(
    a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """Exact product of two (s, t) coefficient dicts by Kronecker packing.

    Every coefficient of the product is bounded by |c| <= ||a||_1 ||b||_1,
    so fields of that many bits plus a sign bit, rounded up to bytes,
    never carry into each other.  Products of packed groups are summed
    per output s exponent and read back by ``unpack_fields``.
    """
    if not a or not b:
        return {}
    bound = sum(map(abs, a.values())) * sum(map(abs, b.values()))
    nbytes = packed_bytes(bound)
    width = 8 * nbytes
    ta = min(t for _, t in a)
    tb = min(t for _, t in b)
    fields = max(t for _, t in a) - ta + max(t for _, t in b) - tb + 1
    pa = _pack_by_s(a, ta, width)
    pb = _pack_by_s(b, tb, width)
    sums: dict[int, int] = {}
    for s1, x in pa.items():
        for s2, y in pb.items():
            s = s1 + s2
            sums[s] = sums.get(s, 0) + x * y
    out: dict[tuple[int, int], int] = {}
    t0 = ta + tb
    for s, row in zip(sums, unpack_fields(sums.values(), nbytes, fields)):
        for j, v in enumerate(row):
            if v:
                out[s, t0 + j] = v
    return out


class PolyST(_Sparse):
    """Sparse integer polynomial in (s, t)."""

    __slots__ = ()

    @classmethod
    def from_t(cls, p: PolyT, a: int = 0) -> "PolyST":
        """Embed a t-polynomial times s^a."""
        return cls({(a, e): v for e, v in p.c.items()})

    @classmethod
    def from_p(cls, coeffs: Mapping[tuple[int, int], int]) -> "PolyST":
        """Sum of c * s^a * p_j over the terms {(a, j): c}, every j >= 1."""
        out: dict[tuple[int, int], int] = {}
        for (a, j), c in coeffs.items():
            for t, v in _edge_basis(j):
                out[a, t] = out.get((a, t), 0) + c * v
        return cls(out)

    def coefficient_s(self, a: int) -> PolyT:
        return PolyT({t: v for (s, t), v in self.c.items() if s == a})

    _product = staticmethod(_packed_product)

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

    @classmethod
    def monomial(cls, s: int, u: int, w: int, coeff: int = 1) -> "PolySUW":
        return cls({(s, u, w): coeff})

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


def complete_edge_basis(n: int) -> PolyST:
    """Complete basis pbar_n = sum_{k=1}^n binom(n-1, k-1) p_k s^k."""
    if n < 1:
        raise ValueError(f"edge weight must be >= 1, got {n}")
    return PolyST.from_p({(k, k): comb(n - 1, k - 1) for k in range(1, n + 1)})


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


def p_basis_coefficients(q: PolyT) -> dict[int, int]:
    """Express q as sum c_j p_j; fails if q is not in the span."""
    rest = PolyT(q.c)
    out: dict[int, int] = {}
    while rest:
        j = rest.degree()
        if j < 1:
            raise ValueError("polynomial is not a combination of the edge basis")
        cj = rest.coeff(j)
        out[j] = cj
        rest = rest - cj * maximal_edge_basis(j)
    return {j: c for j, c in sorted(out.items()) if c}
