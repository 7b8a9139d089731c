"""Transfer iteration sweeping a region by decorated roofs.

The host is a sequence of points P_0..P_n in sweep order.  A state is a
decorated roof: fresh states are injected from the floor of the region,
every move adds one triangle on top of the roof, and a state whose roof
is the ceiling pays off into the result.

A state is an integer code ``m << (n - 1) | bits``.  Bit i - 1 of
``bits`` flags interior point i as a roof point, as in
:mod:`tripoly.roofs`.  The marker field m is the host index of the roof
point at the marker's position d, the left end of the marked segment,
and 0 when d = 0; :meth:`_Sweep.roof_code` translates a code to the
``d << (n - 1) | bits`` layout that :func:`tripoly.roofs.decode` reads,
which is what a trace prints.  The sweep never decodes a state.  Its walk
starts at a, the roof point before m, found as
``(bits & low[m]).bit_length()``, and goes on with ``bits & -bits`` and
``bit_length()``.  A successor is one bit set (an insertion into a
segment) or cleared (a merge of a wedge) plus its new marker, the host
index of the left end of the move's segment.  One pass of exact
``orient`` tests, C(n + 1, 3) of them, runs when a sweep is built: for
each segment a -> b it flags the host points P_r, a < r < b, strictly
above the segment, A(a, b), and strictly below it, B(a, b).  Every
table the moves read is derived from A and B.  The insertions into
(a, b) insert the points of A(a, b), and the merge of a wedge (a, m, b)
exists when m is in B(a, b).  An entry is the move relative to the roof
bits: its new marker ``a << (n - 1)``, plus the bit it sets or minus the
bit it clears, plus ``2e << skip_shift``, e being the number of host
points that the swept triangle newly covers besides the moved point.
Adding ``code & mask`` gives the code the move reaches with its
potential step minus one above it (see Folded moves).  Those e points
are skipped: they never become vertices.
As a -> b covers the points between a and b outside A(a, b), an
insertion of q skips |A(a, b)| − |A(a, q)| − |A(q, b)| − 1 points and a
merge of m skips |A(a, m)| + |A(m, b)| − |A(a, b)|.  An immediate sweep
drops the moves with e > 0; that is the rule that the swept closed
triangle be empty (see the last paragraph).

Moves depend on the roof suffix only: a move at the segment or wedge
starting at roof point x has marker x, a or a roof point past it, the
moved bits lie past a, and e counts points past a.  Whether the first
segment (a, m) takes insertions depends on m = 0.  So the moves of a
code are fixed by the key (a, roof bits from a on, m = 0), and every
code sharing that key has the same move list.  ``_run`` keeps one memo
per sweep from the key to the tuple of moves, and adds ``code & mask``
to each.  The walk appends whole table rows, so a memo entry holds the
tables' own move objects, and equal move lists share one tuple.  For
a ≥ 2, m > a is a roof bit, so the key is the code with its bits before
a cleared, ``code & -(1 << (a - 1))``.  When a ≤ 1 no bit lies before
a, so the key is the code itself, met once, and the memo is skipped.
It is skipped for a = 2 too: such a key holds at most two codes, P_1 on
the roof or not, and on 18-point configurations most hold one.

The sweep is one loop over codes in order of a potential.  A point is
covered by a roof when it is not strictly above it, and

    Φ(bits) = 2 · (covered host points) − (roof points).

An insertion covers its new roof point and a merge drops one, so every
move raises Φ by 1 + 2e, and a folded pair by 2 + 2(e₁ + e₂).  Φ
depends on the bits alone and lies between 2 and 2n, so the loop keeps
one dict per value of Φ and expands every code exactly once, after every
move into it has been made.  It needs no step bound and keeps no
successor table.  This is the marked monotone-path
aggregation of Alvarez & Seidel (SoCG 2013) run over the DAG of moves.

A code's multiplicity is one packed int: its field j, ``width`` bits
wide, counts the partial triangulations under the roof that skipped j
points, and a move that skips e points adds the multiplicity shifted by
e fields.  A floor roof of r points on a floor of F points skips F − r
of them, so it starts at potential 2F − r in field F − r.  A covered
point is used or skipped, so field j of a roof of length L at potential
Φ used (Φ + L + 1)/2 − j vertices: payoffs are keyed by (vertices used,
roof length).  At a ceiling every host point is covered and
Φ = 2(n + 1) − (roof points); a ceiling payoff at any other potential
raises ``AssertionError``.

A ``trace=`` callback sees the vectors V_k of the step-by-step
iteration, which adds one triangle per step and injects a floor roof of
length L at step L.  Along every move k − Φ + 2j stays constant, so
field j of a code is its multiplicity at step k = Φ − 2j − 1; only the
replay after the sweep uses k.

Field width.  A field of a complete-mode multiplicity is ``data`` bits
wide plus g bits of headroom above them, g the bit length of
(n + 1) · 2^(n-1); there are at most n · 2^(n-1) codes.  The guard mask
holds the headroom bits of every field.  ``_run`` checks every bucket
once, before it is paid off or expanded: the OR of its multiplicities
has no guard bit exactly when every field of every code is below
2^data, so only a checked code adds terms.  A sum the sweep
forms, the moves into one code or the codes of one payoff, has at most
one term per code plus a floor roof's start, fewer than 2^g terms below
2^data each, so it fits in its field and no carry crosses into the
next.  When a check fails, the sweep doubles ``data``, repacks the
current and pending buckets in place and checks the bucket again, until
every field fits: their fields are exact sums, and the terms still to
come are below the new 2^data.  ``data`` starts at ``_DATA_BITS`` and
doubles at each widening, so a run widens a few times at most.  An
immediate sweep skips no point: its multiplicities are plain ints, one
field with no guard.

Three modes share the loop, and one payoff rule: a state pays off when
``(bits ^ required) & care`` is 0.

* maximal (immediate moves, all points used): e is always 0, so a
  multiplicity is a plain int and each value of Φ is one step.
  ``required`` holds the on-ceiling points and ``care`` every bit, so a
  state matches the ceiling when its bits equal the ceiling's bits.
* complete (any moves, optional points): ``required`` holds the interior
  corners of the ceiling and ``care`` those plus the points off the
  ceiling path.
* edge (complete moves, no ceiling): both are 0, so every state pays off
  with its length ``popcount(bits) + 1``.

When no optional point lies on the ceiling path, as always in maximal
mode, ``care`` is every bit, so a state pays off exactly when its bits
are ``required``.  ``payoff`` then looks up ``m << (n - 1) | required``
for every value m of the marker field, n included: every code with
those bits.  An edge sweep, or a ceiling with optional points, pays off
many bit sets, so it scans.  Either way ``payoff`` only sums: the
bucket's fields were checked before.

Every public function runs its sweep through one entry point,
``_payoffs``, which picks the mode from ``maximal`` and the ceiling and
tells the sweep whether it is traced.  ``_Sweep`` derives its pruning
from those three alone: an untraced sweep under a ceiling runs the whole
cascade rule below, folds forced merges and merges twins, a traced
complete-mode one keeps the rule's on-ceiling part, and a traced maximal
one is unpruned.

Dead-end pruning under a ceiling is one cascade rule.  Let the bad bits
of a roof be its points off the ceiling path plus the ceiling points it
needs and lacks: in maximal mode every on-ceiling point, in complete mode
every ceiling corner.  A state pays off when it has no bad bit.  Nothing
is inserted left of the marker, and the marker moves left only by
merging its own roof point, so a roof point at or before the marker
keeps its left neighbour until it is merged, and merges there cascade
right to left.  A roof needs a change at or before T when T is a bad bit
or the right end of a segment with a host point strictly above it: that
point stays uncovered while the segment stands, and a ceiling payoff
covers every host point.  Every roof point past T up to the marker, and
T itself when it is a roof point, must then be merged from its current
left neighbour u.  A point v never is when it lies on the ceiling path,
as a merged point lies strictly under every later roof, or when no move
merges v from u; ``fixed[u]`` flags both kinds, and in an immediate
sweep the moves already exclude e > 0.  ``exposed[x]`` flags y when
A(x, y) is not empty.  The walk sets ``seen`` at a step from x to y that
``exposed[x]`` flags or when a bad bit lies before y, and stops before
the moves whose marker is y when ``seen`` is set and ``fixed[x]`` flags
y.  An untraced sweep also drops every merge of an on-ceiling point when
it builds its tables, whether the walk has seen a change or not.
This is exact: no state past such a move pays off.  A traced
complete-mode sweep keeps the on-ceiling part of the rule only, so that
its vectors are those of the frozen-prefix sweep, which drops a roof
whose prefix up to an on-ceiling point holds a bad bit.  A traced maximal
sweep is unpruned: its vectors hold every state of the step-by-step
iteration, dead ends included.

Pruning needs no more in the memo key.  ``seen`` depends on the roof
from a on and on the bad bits before a.  Take a code the sweep meets and
a roof point v before its marker.  The last walk that moved the marker
from at or before v to past it checked v and went on, so if a bad bit
lies before v, v is not fixed and thus off the ceiling.  So a bad bit
before a occurs only when a is itself bad; then the walk's first step
sets ``seen`` whatever lies before a, and the stop depends on the key
alone.  So no code a pruned sweep meets has a bad bit before an
on-ceiling roof point at or before a.  ``successors`` does not check
this; ``test_no_met_code_has_a_bad_bit_before_an_on_ceiling_point`` in
``tests/test_differential.py`` checks it on every code that untraced and
traced complete-mode sweeps reach.

Folded moves.  A pruned, untraced sweep emits an insertion of q into
(a, b), a walk point with left neighbour p, as the merge of a from p
that its child is then forced to make: bits + q − a with marker p,
skipping e₁ + e₂ points at potential Φ + 2 + 2(e₁ + e₂).  The child's
only move is that merge when merge(p, a, q) exists, no insertion into
(a, q) does (and no merge of q from a, as q lies above a -> b), and its
walk stops at its step a -> q: ``fixed[a]`` flags q, and ``seen`` is
set by then.  A folding sweep stores no merge of an on-ceiling point, so
when merge(p, a, q) exists a is off the ceiling, thus bad, and the step
a -> q sets ``seen`` from a's bit whatever p is.  The child's walk does
not stop at p -> a, which the parent's walk passed with a ``seen``
holding the child's.  So the rule depends on p, a and q alone, and the
set-up finds it in one loop per walk point a.  One table holds the
insertions of each step, indexed like the merge (p, a, b) the walk read
one step earlier.
Every sweep's walk reads that table; in a sweep that does not fold, row
(p, a, b) holds the insertions into (a, b) for every p.  A folded pair's
p lies before a, so no row with p ≥ a is folded, and the walk reads the
insertions into its first segment (0, b) from row (0, 0, b).  A move's
high field is its potential step minus one: 2e for one move and
2(e₁ + e₂) + 1 for a folded pair.  A folded entry is the insertion's
entry plus the merge's plus ``(1 << skip_shift) - (a << (n - 1))``,
which adds that one and leaves the merge's marker p in place of a.

This is exact.  The child never pays off: it has a bad bit or a host
point above a segment.  Every folded target is a code the unfolded sweep
meets, and the rule reads only the walk's steps, so the memo-key
argument holds.  Every term a target receives is a checked parent
multiplicity, one per code, so the field-width argument holds.  In a
maximal sweep e₁ = e₂ = 0, so a folded pair lands at Φ + 2 with the
parent's plain-int multiplicity.  A traced sweep does not fold, as it
must keep every V_k state, and an edge sweep has no cascade rule.

Twins.  A marker-0 code ``bits`` and its twin ``b1 << (n - 1) | bits``,
b1 the first roof point, walk from a = 0 with the same roof, bad bits
and ``seen``; m only decides whether the walk takes row (0, 0, b1), the
insertions into the first segment, which is never folded.  Both codes
are in one bucket, as Φ depends on the bits alone.  So after the guard
check an untraced sweep under a ceiling walks the roof once: the twin
walks with the sum of both multiplicities, and the marker-0 code emits
that row alone.  The sums the sweep forms stay sums of the same checked
terms, so the field-width argument holds, and no bucket is written, so a
trace would replay the same V_k states.  A traced sweep keeps both codes
all the same, as it folds nothing: it is the plain walk that tests
compare with.  So does an edge sweep, where few codes have a twin (2 % on
``tm``).

No host point other than a segment's two ends lies on a roof segment of
an immediate sweep.  The floor roof of a maximal run holds every point on
the floor, and a move with e = 0 adds no segment through a host point:
such a point lies strictly above the segment the move replaces, so the
move would newly cover it.  The index range of a move holds every host
point of its closed triangle but the corners, as the sweep order breaks
ties in x by y.  So e = 0 holds exactly when that triangle is empty, and
a point off the roof is covered only when it lies strictly below it.

An immediate sweep without a ceiling is the maximal mode run for every
ceiling at once, and its payoffs tell which roofs cover the host.  A roof
covers the host (every point off it strictly below it) exactly when its
payoffs used all n + 1 host points.  As each code is reached at one step
only, those payoffs sum, by roof length, the maximal counts of the
regions between the floor and each covering roof.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations, repeat
from operator import or_
from typing import Callable, Iterator, Mapping, Sequence

from .exactmath import PolyS, PolyST
from .planar import (
    Configuration,
    NearEdge,
    Point,
    hull_host,
    lower_hull,
    orient,
    path_corners,
    point_on_path,
    region_host,
)
from .roofs import decode

TraceFn = Callable[[int, dict[int, int], dict[int, int]], None]

_DATA_BITS = 32  # the data bits of a complete-mode field before widening


class _Sweep:
    """Bitmask successor machine over a fixed host point sequence."""

    def __init__(
        self,
        points: Sequence[Point],
        *,
        ceiling: Sequence[Point] | None = None,
        immediate: bool = False,
        traced: bool = False,
    ):
        self.points = tuple(points)
        n = self.n = len(self.points) - 1
        self.shift = n - 1
        self.mask = (1 << (n - 1)) - 1
        self.immediate = immediate
        size = n + 1
        # a move is the code it reaches plus its potential step minus one
        # shifted to skip_shift; codes stay below 1 << skip_shift
        self.skip_shift = self.shift + n.bit_length()
        # low[m]: the interior bits of the host points before P_m
        self.low = [0] + [(1 << (m - 1)) - 1 for m in range(1, n + 1)]
        # above[a][b] and below[a][b] flag, by bit r - 1, the host points
        # P_r with a < r < b strictly above and strictly below a -> b
        p = self.points
        above = [[0] * size for _ in range(size)]
        below = [[0] * size for _ in range(size)]
        for a in range(n - 1):
            pa = p[a]
            for b in range(a + 2, size):
                pb = p[b]
                up = down = 0
                for r in range(a + 1, b):
                    side = orient(pa, pb, p[r])
                    if side > 0:
                        up |= 1 << (r - 1)
                    elif side < 0:
                        down |= 1 << (r - 1)
                above[a][b], below[a][b] = up, down
        # a state pays off when (bits ^ required) & care is 0
        self.required = self.care = on = 0
        self.ceiling_bits: int | None = None
        if ceiling is not None:
            on = self.ceiling_bits = sum(
                1 << (i - 1)
                for i in range(1, n)
                if point_on_path(self.points[i], ceiling)
            )
            # the bits a ceiling roof must have; the others off the ceiling
            # path it must not
            if immediate:
                self.required = on
            else:
                corners = set(path_corners(tuple(ceiling))[1:-1])
                self.required = sum(
                    1 << (i - 1) for i in range(1, n) if self.points[i] in corners
                )
            self.care = (self.mask ^ on) | self.required
        # with no optional point on the ceiling path only the codes with the
        # ceiling's bits pay off: one per marker-field value (Three modes)
        self.paying: list[int] | None = None
        if ceiling is not None and not on & ~self.required:
            top = 1 << n.bit_length()
            self.paying = [m << self.shift | self.required for m in range(top)]
        # an untraced sweep under a ceiling runs the whole cascade rule: it
        # drops the merges of on-ceiling points, as a merged point lies
        # strictly under every later roof, and folds forced merges
        whole = ceiling is not None and not traced
        self.twins = whole  # it also walks a code and its twin once (Twins)
        # the moves inserting a point above a -> b and merging a point below
        # it, relative to the roof bits: the new marker a << shift plus the
        # bit the move sets or clears plus 2e << skip_shift, e being the
        # points it newly covers besides the moved one, as differences of
        # the counts of uncovered points; an immediate sweep skips none
        count = [[x.bit_count() for x in row] for row in above]
        twice = self.skip_shift + 1  # e << twice is 2e << skip_shift
        ins: list[tuple[int, ...]] = [()] * (size * size)
        self._merge = [0] * (size * size * size)
        merged = [0] * size  # merged[x] flags the points some move merges from x
        for a in range(n - 1):
            mark = a << self.shift  # the new marker of every move at a
            for b in range(a + 2, size):
                moves = []
                for r in range(a + 1, b):
                    bit = 1 << (r - 1)
                    if above[a][b] & bit:
                        e = count[a][b] - count[a][r] - count[r][b] - 1
                        if not (e and immediate):
                            moves.append(mark + (bit | e << twice))
                    elif below[a][b] & bit and not (whole and on & bit):
                        e = count[a][r] + count[r][b] - count[a][b]
                        if not (e and immediate):
                            at = (a * size + r) * size + b
                            self._merge[at] = mark + (e << twice) - bit
                            merged[a] |= bit
                ins[a * size + b] = tuple(moves)
        # the cascade rule (see the module docstring): exposed[x] flags y
        # when a host point between them lies above x -> y; fixed[x] flags
        # the points never merged from x: the on-ceiling ones and, in an
        # untraced sweep, every v past x that no move merges from x; a traced
        # maximal sweep runs none of the rule
        self.prune = False
        if ceiling is not None and not (traced and immediate):
            self.exposed = [0] * n
            self.fixed = [on] * n
            if whole:
                for x in range(n):
                    self.exposed[x] = sum(
                        1 << (y - 1) for y in range(x + 2, n) if above[x][y]
                    )
                    self.fixed[x] |= (self.mask ^ self.low[x + 1]) & ~merged[x]
            self.prune = any(self.fixed)
        # the insertions into (a, b) after a step from p, at (p·size + a)·size
        # + b: ins[a·size + b] for every p, until rows are folded
        self._fold = fold = ins * size
        if self.prune and whole:
            # fold each forced merge into its insertion (Folded moves)
            merge, fixed = self._merge, self.fixed
            for a in range(1, n - 1):
                lift = (1 << self.skip_shift) - (a << self.shift)
                # pairs[q]: (p, what the merge of a from p adds to an
                # insertion of q after a) for every merge that the
                # insertion's child is forced to make.  The child's walk
                # stops at a -> q: q is fixed from a, nothing is inserted
                # into (a, q), and a change has been seen, as a whole sweep
                # stores no merge of an on-ceiling point, so a stored merge
                # of a means that a is bad
                pairs: dict[int, list[tuple[int, int]]] = {}
                for q in range(a + 1, n):
                    if fixed[a] >> (q - 1) & 1 and not ins[a * size + q]:
                        for p in range(a):
                            if pair := merge[(p * size + a) * size + q]:
                                pairs.setdefault(q, []).append((p, pair + lift))
                for b in range(a + 2, size):
                    row = ins[a * size + b]
                    folded: dict[int, list[int]] = {}  # p -> its insertions
                    for i, move in enumerate(row):
                        for p, pair in pairs.get((move & self.mask).bit_length(), ()):
                            folded.setdefault(p, list(row))[i] += pair
                    for p, moves in folded.items():
                        fold[(p * size + a) * size + b] = tuple(moves)

    # -- moves ---------------------------------------------------------------

    def successors(self, code: int) -> list[int]:
        """Moves at or past the marker, relative to the roof bits: each is
        the code it reaches less ``code & mask``, plus its potential step
        minus one shifted to ``skip_shift``: 2e for a move skipping e
        points, 2(e₁ + e₂) + 1 for a folded pair (Folded moves).

        With m the marker's roof point and a the roof point before it,
        inserting q into a segment (x, y) at or past (m, ...) gives
        marker x; merging the middle point of a wedge (x, y, z) with x at
        or past a gives marker x.  With pruning, the walk stops before
        the moves whose marker is a roof point that must be merged from
        its left neighbour but never is (the cascade rule).
        """
        n = self.n
        size = n + 1
        m = code >> self.shift
        bits = code & self.mask
        merge, fold = self._merge, self._fold
        # a is the walk's roof point; b the next one, with bit lowb
        a = (bits & self.low[m]).bit_length()
        rest = bits >> a << a
        lowb = rest & -rest
        b = lowb.bit_length() if lowb else n
        prune = self.prune
        if prune:
            # roof points off the ceiling path, and the ceiling points a
            # ceiling roof needs that this one lacks
            bad = (bits ^ self.required) & self.care
            exposed, fixed = self.exposed, self.fixed
            seen = 0  # a change is needed before the walk's next point
        # a = 0: the first segment (a, b) takes insertions, from row
        # (0, 0, b), which is never folded
        out = [] if m else list(fold[b])
        while b != n:
            rest ^= lowb
            lowc = rest & -rest
            c = lowc.bit_length() if lowc else n
            at = (a * size + b) * size + c
            move = merge[at]
            if move:
                out.append(move)
            if prune:
                seen |= exposed[a] & lowb | bad & (lowb - 1)
                if seen and fixed[a] & lowb:
                    break
            a, b, lowb = b, c, lowc
            out += fold[at]  # the insertions into (a, b)
        return out

    def roof_code(self, code: int) -> int:
        """The code ``d << (n - 1) | bits`` of a sweep code, whose marker
        field holds the host index of the marker's roof point, d being that
        point's position in the roof."""
        m = code >> self.shift
        bits = code & self.mask
        d = (bits & self.low[m]).bit_count() + 1 if m else 0
        return d << self.shift | bits

    def payoff(self, vec: Mapping[int, int]) -> dict[int, int]:
        """Roof length -> summed multiplicity of the states that pay off:
        those whose bits match the ceiling, every state without one."""
        if self.paying is not None:
            total = sum(map(vec.get, self.paying, repeat(0)))
            return {self.required.bit_count() + 1: total} if total else {}
        out: dict[int, int] = {}
        mask, need, care = self.mask, self.required, self.care
        for code, mult in vec.items():
            bits = code & mask
            if (bits ^ need) & care:
                continue
            length = bits.bit_count() + 1
            out[length] = out.get(length, 0) + mult
        return out


def _fields(packed: int, width: int) -> Iterator[tuple[int, int]]:
    """(j, value) of the non-zero fields of a packed multiplicity; one
    field when the width is 0."""
    if not width:
        if packed:
            yield 0, packed
        return
    mask = (1 << width) - 1
    j = 0
    while packed:
        value = packed & mask
        if value:
            yield j, value
        packed >>= width
        j += 1


def _layout(data: int, headroom: int, fields: int) -> tuple[int, int]:
    """The width of a field of ``data`` bits and ``headroom`` bits above
    them, and the guard mask of the headroom of ``fields`` fields."""
    width = data + headroom
    head = ((1 << headroom) - 1) << data
    return width, sum(head << width * j for j in range(fields))


def _floor_roofs(
    points: Sequence[Point], floor: Sequence[Point], maximal: bool
) -> Iterator[tuple[int, int]]:
    """Roof bits of the floor roofs and the floor points each skips.

    A floor roof is made of the floor corners plus any subset of the
    other host points lying on the floor path; a maximal run starts from
    the one roof through all of them.
    """
    n = len(points) - 1
    pos = {p: i for i, p in enumerate(points)}
    corners = []
    for c in path_corners(tuple(floor)):
        if c not in pos:
            raise ValueError(f"floor corner {c} is not a host point")
        corners.append(pos[c])
    if corners[0] != 0 or corners[-1] != n:
        raise ValueError("floor must join the first and last host points")
    bits = sum(1 << (i - 1) for i in corners[1:-1])
    optional = [
        1 << (i - 1)
        for i in range(1, n)
        if i not in corners and point_on_path(points[i], floor)
    ]
    sizes = [len(optional)] if maximal else range(len(optional) + 1)
    for r in sizes:
        for extra in combinations(optional, r):
            yield bits | sum(extra), len(optional) - r


def render_vector(points: Sequence[Point], vec: Mapping[int, int]) -> str:
    n = len(points) - 1
    parts = [
        f"{mult}*R{code}{decode(code, n).render()}"
        for code, mult in sorted(vec.items())
    ]
    return " + ".join(parts) if parts else "0"


def _run(
    sweep: _Sweep, floor: Sequence[Point], trace: TraceFn | None
) -> dict[tuple[int, int], int]:
    """The sweep from the roofs of ``floor``: payoffs keyed by (vertices
    used, roof length).

    A maximal sweep starts from the roof through every floor point, any
    other from every floor roof.  Codes are expanded in order of
    potential, each one once.  Complete and edge runs trace every step
    from 1 until the vector empties, that last empty step included.  A
    maximal run traces from its floor roof to its last non-empty vector.
    """
    n = sweep.n
    # a complete-mode field is data bits plus headroom, and 2^headroom
    # exceeds the number of terms of any sum the sweep forms; the guard
    # flags the headroom of fields 0 to n - 1, as a run skips at most
    # n - 1 points (Field width)
    data = width = guard = headroom = 0
    if not sweep.immediate:
        data = _DATA_BITS
        headroom = ((n + 1) << (n - 1)).bit_length()
        width, guard = _layout(data, headroom, n)
    top = 2 * (n + 1)
    limit = top - 2  # the largest potential of a roof
    buckets: list[dict[int, int]] = [{} for _ in range(limit + 3)]
    for bits, skipped in _floor_roofs(sweep.points, floor, sweep.immediate):
        # the roof covers its own points and the floor points it skips
        buckets[bits.bit_count() + 2 + 2 * skipped][bits] = 1 << width * skipped
    paid: dict[tuple[int, int], int] = {}
    kept: list[tuple[int, int, dict[int, int]]] = []
    expand = sweep.successors
    shift = sweep.skip_shift
    # a move's high field is its potential step minus one: moves below
    # plain land at Φ + 1 and those below pair at Φ + 2, skipping no point
    plain = 1 << shift
    pair = 2 << shift
    # the memo: a move list, relative to the roof bits, keyed by the code
    # with the roof bits before a cleared, code & cut[a]
    memo: dict[int, tuple[int, ...]] = {}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per move list
    mask, low, marker = sweep.mask, sweep.low, sweep.shift
    cut = [0] + [-(1 << (a - 1)) for a in range(1, n)]
    twins = sweep.twins
    fold = sweep._fold  # row (0, 0, b) is at b
    for phi in range(limit + 3):
        bucket = buckets[phi]
        if not bucket:
            continue
        if phi > limit:
            raise AssertionError(f"a roof at potential {phi}, past {limit}")
        buckets[phi] = {}
        while guard and guard & reduce(or_, bucket.values(), 0):
            # a field outgrew its data bits: double them and repack what is
            # not expanded, until every field of the bucket fits
            data *= 2
            wide, guard = _layout(data, headroom, n)
            for vec in [bucket, *buckets[phi + 1 :]]:
                for code, mult in vec.items():
                    vec[code] = sum(v << wide * j for j, v in _fields(mult, width))
            width = wide
        for length, total in sweep.payoff(bucket).items():
            if sweep.ceiling_bits is not None and phi != top - 1 - length:
                raise AssertionError(
                    f"ceiling payoff at potential {phi}, not {top - 1 - length}"
                )
            covered = (phi + length + 1) // 2
            for j, mult in _fields(total, width):
                key = (covered - j, length)
                paid[key] = paid.get(key, 0) + mult
        if trace is not None:
            kept.append((phi, width, bucket))
        nxt, after = buckets[phi + 1], buckets[phi + 2]
        get, get2 = nxt.get, after.get
        for code, mult in bucket.items():
            base = code & mask
            a = (base & low[code >> marker]).bit_length()
            if a < 3:
                # a key with a < 2 is the code itself, met once; one with
                # a = 2 holds at most two codes
                if a or not twins or not base:
                    moves = expand(code)
                elif code != base:
                    # a twin walks for its marker-0 code too (Twins)
                    mult += bucket.get(base, 0)
                    moves = expand(code)
                else:
                    # a marker-0 code whose twin is here emits row (0, 0, b1)
                    first = (base & -base).bit_length()
                    twin = first << marker | base
                    moves = fold[first] if twin in bucket else expand(code)
            else:
                key = code & cut[a]
                moves = memo.get(key)
                if moves is None:
                    moves = tuple(expand(code))
                    moves = memo[key] = shared.setdefault(moves, moves)
            for succ in moves:
                succ += base  # a move is a successor less the roof bits
                if succ < plain:
                    nxt[succ] = get(succ, 0) + mult
                    continue
                if succ < pair:
                    succ -= plain
                    after[succ] = get2(succ, 0) + mult
                    continue
                step = succ >> shift
                to = phi + 1 + step
                if to > limit:
                    raise AssertionError(f"a roof at potential {to}, past {limit}")
                succ &= plain - 1
                out = buckets[to]
                out[succ] = out.get(succ, 0) + (mult << width * (step >> 1))
    if trace is not None:
        _replay(sweep, kept, trace)
    return paid


def _replay(
    sweep: _Sweep, kept: Sequence[tuple[int, int, dict[int, int]]], trace: TraceFn
) -> None:
    """Call ``trace`` with the vector V_k of every step k and its payoffs,
    the states as codes ``d << (n - 1) | bits``; each bucket is read at
    the field width it was paid off with."""
    steps: dict[int, dict[int, int]] = {}
    for phi, width, bucket in kept:
        for code, packed in bucket.items():
            for j, mult in _fields(packed, width):
                steps.setdefault(phi - 2 * j - 1, {})[code] = mult
    # a maximal trace spans its non-empty vectors; the others start at
    # step 1 and end on the first empty one
    first = min(steps) if sweep.immediate else 1
    last = max(steps) if sweep.immediate else max(steps) + 1
    roof_code = sweep.roof_code
    for k in range(first, last + 1):
        vec = steps.get(k, {})
        trace(
            k,
            {roof_code(code): mult for code, mult in vec.items()},
            sweep.payoff(vec),
        )


def _payoffs(
    host: Sequence[Point],
    floor: Sequence[Point],
    ceiling: Sequence[Point] | None = None,
    *,
    maximal: bool = False,
    trace: TraceFn | None = None,
) -> dict[tuple[int, int], int]:
    """The one sweep entry point: the payoffs of the sweep of ``host`` from
    ``floor``, keyed by (vertices used, roof length), in maximal or complete
    mode."""
    sweep = _Sweep(host, ceiling=ceiling, immediate=maximal, traced=trace is not None)
    return _run(sweep, floor, trace)


def _poly(payoffs: Mapping[tuple[int, int], int]) -> PolyS:
    """The polynomial of complete-mode payoffs, s^used per triangulation."""
    total: dict[int, int] = {}
    for (used, _), coeff in payoffs.items():
        total[used] = total.get(used, 0) + coeff
    return PolyS(total)


def max_region_count_points(
    points: Sequence[Point],
    floor: Sequence[Point],
    ceiling: Sequence[Point],
    *,
    trace: TraceFn | None = None,
) -> int:
    """Maximal triangulations of the region between two paths, hosting
    exactly the given points (all of which must be used)."""
    return sum(_payoffs(points, floor, ceiling, maximal=True, trace=trace).values())


def covering_roof_counts(points: Sequence[Point]) -> dict[int, int]:
    """Roof length -> summed maximal counts of the regions between the
    lower hull of the points and each of their covering roofs.

    One immediate sweep from the lower hull, without a ceiling, pays off
    under every roof it reaches; the covering roofs are those under
    which it used every point.
    """
    payoffs = _payoffs(points, lower_hull(points), maximal=True)
    out: dict[int, int] = {}
    for (used, length), mult in payoffs.items():
        if used == len(points):
            out[length] = out.get(length, 0) + mult
    return out


def region_poly(
    config: Configuration,
    floor: Sequence[int],
    ceiling: Sequence[int],
    *,
    maximal: bool = False,
    trace: TraceFn | None = None,
) -> PolyS | int:
    """Triangulation polynomial (or maximal count) of a region.

    The region lies between two x-monotone paths through configuration
    points, given as strictly increasing index sequences in sweep order
    sharing their endpoints.  Triangulations use the path corners and
    any subset of the other participating points; the maximal count uses
    them all.
    """
    region = region_host(config, floor, ceiling)
    payoffs = _payoffs(*region, maximal=maximal, trace=trace)
    return sum(payoffs.values()) if maximal else _poly(payoffs)


def complete_config_poly(
    config: Configuration, *, trace: TraceFn | None = None
) -> PolyS:
    """Complete triangulation polynomial of a configuration.

    Counts every triangulation of every subset containing the extremal
    points, graded by s per vertex used.
    """
    return _poly(_payoffs(*hull_host(config), trace=trace))


def max_config_count(config: Configuration, *, trace: TraceFn | None = None) -> int:
    """Number of maximal triangulations (every point a vertex)."""
    return sum(_payoffs(*hull_host(config), maximal=True, trace=trace).values())


def complete_edge_poly_tm(
    edge: NearEdge, *, trace: TraceFn | None = None
) -> PolyST:
    """Complete polynomial of a near-edge by the transfer iteration.

    With no ceiling every state pays off: a state of length L whose
    partial triangulation used v vertices contributes s^(v - 1) p_L,
    summing the basis images of all covering roofs over all sub-edges.
    """
    host = tuple(edge.points)
    payoffs = _payoffs(host, lower_hull(host), trace=trace)
    return PolyST.from_p(
        {(used - 1, length): mult for (used, length), mult in payoffs.items()}
    )
