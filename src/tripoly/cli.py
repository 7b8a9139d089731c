"""Command line front end.

Point files hold one ``x y`` pair per line (``#`` starts a comment).
Near-edge files list their points left to right; configuration files may
use any order.  Paths for the region verbs are comma-separated 0-based
positions in the sweep order of the file's points; both verbs refuse a
floor and a ceiling that meet between their endpoints or enclose no
area.

Exit codes: 0 on success, 1 on any input problem, 2 when a brute-force
guard refuses the instance, 3 when an internal invariant breaks (and
no result is printed).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Sequence

from .exactmath import (
    PolyS,
    PolyST,
    PolyT,
    hankel_recover,
    maximal_edge_basis,
)
from .neargon import (
    EDGE_METHODS,
    NearGon,
    compose,
    edge_poly,
    gon_poly,
    realize,
    recover_edge_poly_from_counts,
)
from .planar import Configuration, NearEdge, load_points, region_host
from .transfer import (
    complete_config_poly,
    complete_edge_poly_tm,
    max_config_count,
    region_poly,
    render_vector,
)
from .weighted import weighted_complete_poly, weighted_max_count


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports errors and help instead of exiting."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")

    def print_help(self, file=None) -> None:
        raise _HelpRequested(self.format_help())


@functools.cache
def _build_parser() -> _Parser:
    """The verb tree, built at the first ``run`` of a process and reused:
    parsing keeps no state in the parser."""
    parser = _Parser(prog="tripoly", description=__doc__)
    sub = parser.add_subparsers(dest="verb", parser_class=_Parser)
    sub.required = True

    def add(verb: str, help_: str) -> argparse.ArgumentParser:
        return sub.add_parser(verb, help=help_)

    p = add("poly", "complete triangulation polynomial of a configuration")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")

    p = add("maxcount", "number of maximal triangulations of a configuration")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")

    p = add("region", "triangulation polynomial of a region between two paths")
    p.add_argument("file")
    p.add_argument("--floor", required=True)
    p.add_argument("--ceiling", required=True)
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")

    p = add("edgepoly", "complete polynomial of a near-edge")
    p.add_argument("file")
    p.add_argument("--method", choices=EDGE_METHODS, default="auto")
    p.add_argument("--json", action="store_true")

    p = add("edgepoly-tm", "near-edge polynomial by the transfer iteration")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")

    p = add("weighted", "polynomial of a weighted convex polygon")
    p.add_argument("weights", nargs="+", type=int)
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add("neargon", "compose near-edge files around a convex polygon")
    p.add_argument("files", nargs="+")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add("recover", "maximal edge polynomial from closure counts")
    p.add_argument("counts", nargs="+", type=int)
    p.add_argument("--range", required=True, dest="basis_range")
    p.add_argument("--json", action="store_true")

    p = add("realize", "integer configuration of a near-gon")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", dest="out")

    p = add("oracle", "brute-force polynomial of a small configuration")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("oracle-region", "brute-force polynomial of a small region")
    p.add_argument("file")
    p.add_argument("--floor", required=True)
    p.add_argument("--ceiling", required=True)
    p.add_argument("--json", action="store_true")

    add("selftest", "run the pinned example suite")
    return parser


def _indices(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--{name} wants comma-separated integers, got {text!r}")


def _json_s(poly: PolyS) -> str:
    terms = [
        {"s": e, "coeff": str(poly.coeff(e))}
        for e in sorted(poly.c, reverse=True)
    ]
    return json.dumps({"terms": terms})


def _json_t(poly: PolyT) -> str:
    terms = [
        {"t": e, "coeff": str(poly.coeff(e))}
        for e in sorted(poly.c, reverse=True)
    ]
    return json.dumps({"terms": terms})


def _json_st(poly: PolyST) -> str:
    terms = [
        {"s": s, "t": t, "coeff": str(v)}
        for (s, t), v in sorted(poly.c.items(), reverse=True)
    ]
    return json.dumps({"terms": terms})


def _json_count(value: int) -> str:
    return json.dumps({"count": str(value)})


def _tracer(out, host) -> Callable[[int, dict, dict], None]:
    def trace(k: int, vec: dict, w: dict) -> None:
        print(f"V_{k} = {render_vector(host, vec)}", file=out)

    return trace


def _print_result(result: int | PolyS | PolyT | PolyST, as_json: bool, out) -> None:
    """Print a count or a polynomial, as text or as the JSON of its type."""
    if as_json:
        render = {int: _json_count, PolyS: _json_s, PolyT: _json_t, PolyST: _json_st}
        print(render[type(result)](result), file=out)
    else:
        print(result if isinstance(result, int) else result.text(), file=out)


def _run_verb(args: argparse.Namespace, out) -> int:
    verb = args.verb

    if verb == "selftest":
        return _selftest(out)

    if verb == "realize":
        cfg = realize(NearGon(tuple(NearEdge(load_points(f)) for f in args.files)))
        lines = "\n".join(f"{x} {y}" for x, y in cfg.points)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(lines + "\n")
        else:
            print(lines, file=out)
        return 0

    if verb == "edgepoly":
        result = edge_poly(NearEdge(load_points(args.file)), method=args.method).complete
    elif verb == "edgepoly-tm":
        edge = NearEdge(load_points(args.file))
        trace = _tracer(out, edge.points) if args.trace else None
        result = complete_edge_poly_tm(edge, trace=trace)
    elif verb == "weighted":
        solve = weighted_max_count if args.maximal else weighted_complete_poly
        result = solve(tuple(args.weights))
    elif verb == "neargon":
        gon = NearGon(tuple(NearEdge(load_points(f)) for f in args.files))
        result = gon_poly(gon, maximal=args.maximal)
    elif verb == "recover":
        span = _indices(args.basis_range, "range")
        if len(span) != 2:
            raise ValueError(f"--range wants two integers, got {args.basis_range!r}")
        result = recover_edge_poly_from_counts(tuple(args.counts), (span[0], span[1]))
    elif verb == "poly" or verb == "maxcount":
        cfg = Configuration(load_points(args.file))
        trace = _tracer(out, cfg.points) if args.trace else None
        solve = complete_config_poly if verb == "poly" else max_config_count
        result = solve(cfg, trace=trace)
    elif verb == "region":
        cfg = Configuration(load_points(args.file))
        floor = _indices(args.floor, "floor")
        ceiling = _indices(args.ceiling, "ceiling")
        trace = _tracer(out, region_host(cfg, floor, ceiling)[0]) if args.trace else None
        result = region_poly(cfg, floor, ceiling, maximal=args.maximal, trace=trace)
    else:  # oracle or oracle-region
        # imported here, so that only the brute-force verbs load it
        from .oracle import GuardExceeded, oracle_complete_poly, oracle_region_poly

        cfg = Configuration(load_points(args.file))
        try:
            if verb == "oracle":
                result = oracle_complete_poly(cfg)
            else:
                floor = _indices(args.floor, "floor")
                ceiling = _indices(args.ceiling, "ceiling")
                result = oracle_region_poly(cfg, floor, ceiling)
        except GuardExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    _print_result(result, args.json, out)
    return 0


# The pinned examples of ``selftest``.  Near-edges are point tuples in
# left-to-right order; EDGE_C with the fans added above it one at a time
# pins down EDGE_C's maximal polynomial.
EDGE_A = ((0, 0), (1, 1), (2, -1), (3, 1), (4, -1), (5, 0))
EDGE_B = ((0, 0), (1, 1), (2, -1), (3, 1), (4, 0))
EDGE_C = ((0, 0), (1, 2), (2, 1), (3, -1), (4, 1), (5, 0))
FANS = ((1, 10), (2, 11), (3, 10))
EDGE_A_PCOEFFS = {
    5: {3: 14, 4: 7, 5: 1},
    4: {2: 10, 3: 7, 4: 2},
    3: {1: 2, 2: 2, 3: 1},
}
SQUEEZE = ((0, 3), (0, 1), (1, 3), (1, 2), (1, 1), (2, 2), (2, 1), (2, 0))
SQUEEZE_FLOOR = (0, 1, 7)
SQUEEZE_CEILING = (0, 2, 3, 5, 6, 7)
# the near-gon glued from EDGE_A, EDGE_B and EDGE_C
GON_POLY = {
    14: 194939, 13: 338669, 12: 263615, 11: 119944,
    10: 34773, 9: 6522, 8: 748, 7: 42,
}
# the weighted pentagon (1, 5, 2, 3, 4) and triangle (5, 4, 5)
PENTAGON_POLY = {
    15: 8046, 14: 37250, 13: 77467, 12: 95364, 11: 77048, 10: 42776,
    9: 16584, 8: 4460, 7: 805, 6: 90, 5: 5,
}
TRIANGLE_POLY = {
    14: 901, 13: 4825, 12: 11734, 11: 17130, 10: 16710, 9: 11466,
    8: 5670, 7: 2034, 6: 525, 5: 95, 4: 11, 3: 1,
}


def _selftest(out) -> int:
    from .oracle import oracle_complete_poly, oracle_region_poly

    edges = tuple(NearEdge(e) for e in (EDGE_A, EDGE_B, EDGE_C))
    edge_a, _, edge_c = edges

    def closure_counts() -> bool:
        got = [
            max_config_count(Configuration(EDGE_C + FANS[:j]))
            for j in (1, 2, 3)
        ]
        return got == [19, 87, 334]

    def recovery() -> bool:
        want = (
            10 * maximal_edge_basis(3)
            + 7 * maximal_edge_basis(4)
            + 2 * maximal_edge_basis(5)
        )
        return recover_edge_poly_from_counts((19, 87, 334), (3, 5)) == want

    checks: list[tuple[str, Callable[[], bool]]] = [
        (
            "weighted pentagon count",
            lambda: weighted_max_count((1, 5, 2, 3, 4)) == 8046,
        ),
        (
            "weighted pentagon polynomial",
            lambda: weighted_complete_poly((1, 5, 2, 3, 4)).c == PENTAGON_POLY,
        ),
        (
            "weighted triangle polynomial",
            lambda: weighted_complete_poly((5, 4, 5)).c == TRIANGLE_POLY,
        ),
        (
            "zigzag edge polynomial",
            lambda: edge_poly(edge_a).p_coefficients() == EDGE_A_PCOEFFS,
        ),
        (
            "edge transfer iteration",
            lambda: complete_edge_poly_tm(edge_c) == edge_poly(edge_c).complete,
        ),
        (
            "three edge composition",
            lambda: compose(tuple(edge_poly(e) for e in edges)).c == GON_POLY,
        ),
        (
            "squeezed region polynomial",
            lambda: region_poly(
                Configuration(SQUEEZE), SQUEEZE_FLOOR, SQUEEZE_CEILING
            ).c
            == {8: 12, 7: 16, 6: 5},
        ),
        ("fan closure counts", closure_counts),
        ("edge recovery", recovery),
        (
            "monomial recovery",
            lambda: hankel_recover((1, 2, 6), 2, 4)
            == PolyT({4: 1, 3: -2, 2: 1}),
        ),
        (
            "realized near-gon",
            lambda: complete_config_poly(realize(NearGon(edges))).c == GON_POLY,
        ),
        (
            "oracle quadrilateral",
            lambda: oracle_complete_poly(
                Configuration(((0, 0), (2, 0), (2, 2), (0, 2)))
            ).c
            == {4: 2},
        ),
        (
            "oracle region",
            lambda: oracle_region_poly(
                Configuration(SQUEEZE), SQUEEZE_FLOOR, SQUEEZE_CEILING
            ).c
            == {8: 12, 7: 16, 6: 5},
        ),
    ]
    failures = 0
    for name, check in checks:
        try:
            line = f"ok   {name}" if check() else f"FAIL {name}"
        except Exception as exc:  # pragma: no cover - defensive
            line = f"FAIL {name}: {exc}"
        failures += line.startswith("FAIL")
        print(line, file=out)
    print(f"{len(checks) - failures} of {len(checks)} examples passed", file=out)
    return 1 if failures else 0


def run(argv: Sequence[str], out=None) -> int:
    """Execute one command line; returns the exit status."""
    if out is None:
        out = sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _HelpRequested as exc:
        out.write(str(exc))
        return 0
    try:
        return _run_verb(args, out)
    except BrokenPipeError:
        # the reader closed the output early: there is no one to tell
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    status = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
