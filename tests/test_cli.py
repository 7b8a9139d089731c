"""Command line verbs: outputs, JSON shapes, exit codes, determinism."""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from tripoly import neargon
from tripoly.cli import _build_parser, run
from tripoly.exactmath import PolyS

from corpus import (
    COLUMNS11,
    COLUMNS11_POLY,
    EDGE_A,
    EDGE_B,
    EDGE_C,
    GON_POLY,
    PENTAGON_POLY,
    QUAD,
    SQUEEZE,
    TRIANGLE_PLUS_CENTER,
)

UNIT = ((0, 0), (1, 0))
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cap(argv):
    buf = io.StringIO()
    rc = run(argv, out=buf)
    return rc, buf.getvalue()


class TestPoly:
    def test_quad_text(self, point_file):
        assert cap(["poly", point_file(QUAD)]) == (0, "2*s^4\n")

    def test_quad_json(self, point_file):
        rc, out = cap(["poly", point_file(QUAD), "--json"])
        assert rc == 0
        assert json.loads(out) == {"terms": [{"s": 4, "coeff": "2"}]}

    def test_quad_trace(self, point_file):
        rc, out = cap(["poly", point_file(QUAD), "--trace"])
        assert rc == 0
        assert out == (
            "V_1 = 0\n"
            "V_2 = 1*R1([0 1] 3)\n"
            "V_3 = 1*R0([0 3]) + 1*R7(0 [1 2] 3)\n"
            "V_4 = 2*R2([0 2] 3)\n"
            "V_5 = 0\n"
            "2*s^4\n"
        )

    def test_columns(self, point_file):
        rc, out = cap(["poly", point_file(COLUMNS11)])
        assert rc == 0
        assert out == PolyS(COLUMNS11_POLY).text() + "\n"

    def test_columns_json_terms(self, point_file):
        rc, out = cap(["poly", point_file(COLUMNS11), "--json"])
        assert rc == 0
        got = {term["s"]: int(term["coeff"]) for term in json.loads(out)["terms"]}
        assert got == COLUMNS11_POLY

    def test_columns_trace_digest(self, point_file):
        # floor points 1 and 2 are optional: floor roofs enter at steps
        # 2, 3 and 4
        rc, out = cap(["poly", point_file(COLUMNS11), "--trace"])
        assert rc == 0
        assert len(out.splitlines()) == 17
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "32101eaf72bcb9d07f49381a0dcc3c9758e344d05ac2f89c1b795354573ad789"
        )

    def test_deterministic(self, point_file):
        path = point_file(COLUMNS11)
        assert cap(["poly", path, "--json"]) == cap(["poly", path, "--json"])


class TestMaxcount:
    def test_quad(self, point_file):
        assert cap(["maxcount", point_file(QUAD)]) == (0, "2\n")

    def test_quad_json(self, point_file):
        rc, out = cap(["maxcount", point_file(QUAD), "--json"])
        assert rc == 0
        assert json.loads(out) == {"count": "2"}

    def test_columns(self, point_file):
        assert cap(["maxcount", point_file(COLUMNS11)]) == (0, "1196\n")

    def test_quad_trace(self, point_file):
        # maximal mode starts at the floor's step and stops at the last
        # non-empty vector
        rc, out = cap(["maxcount", point_file(QUAD), "--trace"])
        assert rc == 0
        assert out == (
            "V_2 = 1*R1([0 1] 3)\n"
            "V_3 = 1*R0([0 3]) + 1*R7(0 [1 2] 3)\n"
            "V_4 = 2*R2([0 2] 3)\n"
            "2\n"
        )


class TestRegion:
    def test_squeeze(self, point_file):
        path = point_file(SQUEEZE)
        argv = ["region", path, "--floor", "0,1,7", "--ceiling", "0,2,3,5,6,7"]
        assert cap(argv) == (0, "12*s^8 + 16*s^7 + 5*s^6\n")
        assert cap(argv + ["--maximal"]) == (0, "12\n")
        rc, out = cap(argv + ["--maximal", "--json"])
        assert json.loads(out) == {"count": "12"}

    def test_trace_lines_precede_the_result(self, point_file):
        # interior point 4 is optional: moves that skip it put a code
        # at several steps
        path = point_file(SQUEEZE)
        rc, out = cap(
            ["region", path, "--floor", "0,1,7",
             "--ceiling", "0,2,3,5,6,7", "--trace"]
        )
        assert rc == 0
        assert out == (
            "V_1 = 0\n"
            "V_2 = 1*R1([0 1] 7)\n"
            "V_3 = 1*R0([0 7]) + 1*R67(0 [1 2] 7) + 1*R69(0 [1 3] 7)"
            " + 1*R73(0 [1 4] 7) + 1*R81(0 [1 5] 7) + 1*R97(0 [1 6] 7)\n"
            "V_4 = 2*R2([0 2] 7) + 2*R4([0 3] 7) + 1*R8([0 4] 7)"
            " + 2*R16([0 5] 7) + 2*R32([0 6] 7) + 1*R71(0 [1 2] 3 7)"
            " + 1*R75(0 [1 2] 4 7) + 1*R77(0 [1 3] 4 7) + 1*R83(0 [1 2] 5 7)"
            " + 1*R85(0 [1 3] 5 7) + 1*R99(0 [1 2] 6 7) + 1*R101(0 [1 3] 6 7)"
            " + 1*R113(0 [1 5] 6 7) + 1*R153(0 1 [4 5] 7)"
            " + 1*R169(0 1 [4 6] 7)\n"
            "V_5 = 1*R0([0 7]) + 3*R6([0 2] 3 7) + 2*R10([0 2] 4 7)"
            " + 2*R12([0 3] 4 7) + 3*R18([0 2] 5 7) + 1*R20([0 3] 5 7)"
            " + 3*R34([0 2] 6 7) + 1*R36([0 3] 6 7) + 3*R48([0 5] 6 7)"
            " + 1*R79(0 [1 2] 3 4 7) + 1*R81(0 [1 5] 7) + 2*R82(0 [2 5] 7)"
            " + 1*R87(0 [1 2] 3 5 7) + 1*R88(0 [4 5] 7) + 2*R98(0 [2 6] 7)"
            " + 1*R103(0 [1 2] 3 6 7) + 1*R104(0 [4 6] 7)"
            " + 1*R115(0 [1 2] 5 6 7) + 1*R117(0 [1 3] 5 6 7)"
            " + 1*R185(0 1 [4 5] 6 7)\n"
            "V_6 = 1*R2([0 2] 7) + 1*R4([0 3] 7) + 3*R14([0 2] 3 4 7)"
            " + 4*R16([0 5] 7) + 2*R22([0 2] 3 5 7) + 2*R32([0 6] 7)"
            " + 2*R38([0 2] 3 6 7) + 4*R50([0 2] 5 6 7) + 1*R52([0 3] 5 6 7)"
            " + 5*R66(0 [2 7]) + 1*R83(0 [1 2] 5 7) + 1*R85(0 [1 3] 5 7)"
            " + 1*R113(0 [1 5] 6 7) + 5*R114(0 [2 5] 6 7)"
            " + 1*R119(0 [1 2] 3 5 6 7) + 1*R120(0 [4 5] 6 7)"
            " + 3*R150(0 2 [3 5] 7) + 2*R154(0 2 [4 5] 7)"
            " + 3*R166(0 2 [3 6] 7) + 2*R170(0 2 [4 6] 7)\n"
            "V_7 = 1*R6([0 2] 3 7) + 5*R18([0 2] 5 7) + 1*R20([0 3] 5 7)"
            " + 2*R34([0 2] 6 7) + 5*R48([0 5] 6 7) + 2*R54([0 2] 3 5 6 7)"
            " + 13*R82(0 [2 5] 7) + 1*R87(0 [1 2] 3 5 7) + 13*R98(0 [2 6] 7)"
            " + 1*R115(0 [1 2] 5 6 7) + 1*R117(0 [1 3] 5 6 7)"
            " + 3*R134(0 2 [3 7]) + 5*R182(0 2 [3 5] 6 7)"
            " + 2*R186(0 2 [4 5] 6 7) + 3*R222(0 2 3 [4 5] 7)"
            " + 3*R238(0 2 3 [4 6] 7)\n"
            "V_8 = 1*R16([0 5] 7) + 2*R22([0 2] 3 5 7) + 6*R50([0 2] 5 6 7)"
            " + 1*R52([0 3] 5 6 7) + 4*R66(0 [2 7]) + 24*R114(0 [2 5] 6 7)"
            " + 1*R119(0 [1 2] 3 5 6 7) + 7*R150(0 2 [3 5] 7)"
            " + 7*R166(0 2 [3 6] 7) + 3*R254(0 2 3 [4 5] 6 7)\n"
            "V_9 = 1*R18([0 2] 5 7) + 1*R48([0 5] 6 7) + 2*R54([0 2] 3 5 6 7)"
            " + 13*R82(0 [2 5] 7) + 11*R98(0 [2 6] 7)"
            " + 10*R182(0 2 [3 5] 6 7)\n"
            "V_10 = 1*R50([0 2] 5 6 7) + 23*R114(0 [2 5] 6 7)\n"
            "V_11 = 0\n"
            "12*s^8 + 16*s^7 + 5*s^6\n"
        )

    def test_maximal_trace(self, point_file):
        path = point_file(SQUEEZE)
        rc, out = cap(
            ["region", path, "--floor", "0,1,7",
             "--ceiling", "0,2,3,5,6,7", "--maximal", "--trace"]
        )
        assert rc == 0
        assert out == (
            "V_2 = 1*R1([0 1] 7)\n"
            "V_3 = 1*R73(0 [1 4] 7)\n"
            "V_4 = 1*R8([0 4] 7) + 1*R77(0 [1 3] 4 7) + 1*R169(0 1 [4 6] 7)\n"
            "V_5 = 1*R0([0 7]) + 2*R12([0 3] 4 7) + 1*R79(0 [1 2] 3 4 7)"
            " + 1*R104(0 [4 6] 7) + 1*R133(0 1 [3 7]) + 1*R185(0 1 [4 5] 6 7)"
            " + 1*R237(0 1 3 [4 6] 7)\n"
            "V_6 = 1*R4([0 3] 7) + 3*R14([0 2] 3 4 7) + 2*R68(0 [3 7])"
            " + 1*R113(0 [1 5] 6 7) + 1*R120(0 [4 5] 6 7) + 2*R165(0 1 [3 6] 7)"
            " + 2*R172(0 3 [4 6] 7) + 1*R199(0 1 2 [3 7])"
            " + 1*R253(0 1 3 [4 5] 6 7) + 1*R303(0 1 2 3 [4 6] 7)\n"
            "V_7 = 1*R6([0 2] 3 7) + 5*R100(0 [3 6] 7) + 1*R117(0 [1 3] 5 6 7)"
            " + 1*R131(0 1 [2 7]) + 3*R134(0 2 [3 7]) + 3*R181(0 1 [3 5] 6 7)"
            " + 2*R188(0 3 [4 5] 6 7) + 2*R231(0 1 2 [3 6] 7)"
            " + 3*R238(0 2 3 [4 6] 7) + 1*R319(0 1 2 3 [4 5] 6 7)\n"
            "V_8 = 1*R52([0 3] 5 6 7) + 4*R66(0 [2 7]) + 7*R116(0 [3 5] 6 7)"
            " + 1*R119(0 [1 2] 3 5 6 7) + 3*R163(0 1 [2 6] 7)"
            " + 7*R166(0 2 [3 6] 7) + 3*R247(0 1 2 [3 5] 6 7)"
            " + 3*R254(0 2 3 [4 5] 6 7)\n"
            "V_9 = 8*R48([0 5] 6 7) + 2*R54([0 2] 3 5 6 7) + 11*R98(0 [2 6] 7)"
            " + 7*R179(0 1 [2 5] 6 7) + 10*R182(0 2 [3 5] 6 7)\n"
            "V_10 = 8*R50([0 2] 5 6 7) + 23*R114(0 [2 5] 6 7)\n"
            "12\n"
        )

    def test_bad_path_values(self, point_file, capsys):
        path = point_file(SQUEEZE)
        rc, out = cap(["region", path, "--floor", "0,x", "--ceiling", "0,7"])
        assert rc == 1
        assert "--floor wants comma-separated integers" in capsys.readouterr().err

    def test_pinched_region_is_refused(self, point_file, capsys):
        # the ceiling's corner (2, 0) lies on the floor segment from (0, 0)
        # to (3, 0), pinching the region to a strip of width zero
        path = point_file(
            [(0, 3), (0, 1), (0, 0), (1, 1), (2, 3), (2, 1), (2, 0), (3, 0)]
        )
        paths = ["--floor", "0,2,7", "--ceiling", "0,6,7"]
        for argv in (
            ["region", path, *paths],
            ["region", path, *paths, "--maximal"],
            ["region", path, *paths, "--trace"],
            ["oracle-region", path, *paths],
        ):
            assert cap(argv) == (1, "")
            assert capsys.readouterr().err == (
                "error: ceiling corner (2, 0) lies on the floor\n"
            )

    def test_flat_region_is_refused(self, point_file, capsys):
        # floor and ceiling are the same segment from (0, 0) to (2, 0)
        path = point_file([(0, 0), (1, 0), (2, 0), (1, 1)])
        paths = ["--floor", "0,3", "--ceiling", "0,3"]
        for argv in (
            ["region", path, *paths],
            ["region", path, *paths, "--maximal"],
            ["oracle-region", path, *paths],
        ):
            assert cap(argv) == (1, "")
            assert capsys.readouterr().err == (
                "error: floor and ceiling have the same corners: no area\n"
            )


class TestEdgepoly:
    def test_unit_edge(self, point_file):
        assert cap(["edgepoly", point_file(UNIT)]) == (0, "1*s^1*t^1\n")

    def test_unit_edge_json(self, point_file):
        rc, out = cap(["edgepoly", point_file(UNIT), "--json"])
        assert json.loads(out) == {"terms": [{"s": 1, "t": 1, "coeff": "1"}]}

    def test_five_point_edge(self, point_file):
        rc, out = cap(["edgepoly", point_file(EDGE_B)])
        assert rc == 0
        assert out == (
            "1*s^4*t^4 + 2*s^4*t^3 - 9*s^4*t^2 + 2*s^3*t^3"
            " - 4*s^3*t^1 + 1*s^2*t^2\n"
        )

    def test_methods_match(self, point_file):
        path = point_file(EDGE_A)
        base = cap(["edgepoly", path])
        for method in ("tm", "roofs", "convex"):
            assert cap(["edgepoly", path, "--method", method]) == base

    def test_unknown_method(self, point_file, capsys):
        rc, out = cap(["edgepoly", point_file(EDGE_A), "--method", "bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "usage:" in err

    def test_transfer_variant_matches(self, point_file):
        path = point_file(EDGE_C)
        assert cap(["edgepoly-tm", path]) == cap(["edgepoly", path])

    def test_transfer_variant_trace(self, point_file):
        rc, out = cap(["edgepoly-tm", point_file(EDGE_C), "--trace"])
        assert rc == 0
        assert out == (
            "V_1 = 0\n"
            "V_2 = 1*R4([0 3] 5)\n"
            "V_3 = 1*R0([0 5]) + 1*R5([0 1] 3 5) + 1*R6([0 2] 3 5)"
            " + 1*R28(0 [3 4] 5)\n"
            "V_4 = 1*R1([0 1] 5) + 1*R2([0 2] 5) + 1*R7([0 1] 2 3 5)"
            " + 2*R8([0 4] 5) + 1*R17(0 [1 5]) + 1*R18(0 [2 5])"
            " + 1*R23(0 [1 2] 3 5) + 1*R45(0 1 [3 4] 5) + 1*R46(0 2 [3 4] 5)\n"
            "V_5 = 1*R3([0 1] 2 5) + 2*R9([0 1] 4 5) + 2*R10([0 2] 4 5)"
            " + 3*R25(0 [1 4] 5) + 3*R26(0 [2 4] 5) + 2*R35(0 1 [2 5])"
            " + 2*R63(0 1 2 [3 4] 5)\n"
            "V_6 = 2*R11([0 1] 2 4 5) + 3*R17(0 [1 5]) + 5*R43(0 1 [2 4] 5)\n"
            "V_7 = 10*R25(0 [1 4] 5)\n"
            "V_8 = 0\n"
            "2*s^5*t^5 - 1*s^5*t^4 - 5*s^5*t^3 + 4*s^4*t^4 - 13*s^5*t^2"
            " + 1*s^4*t^3 - 19*s^4*t^2 + 3*s^3*t^3 - 3*s^4*t^1 - 6*s^3*t^1"
            " + 1*s^2*t^2\n"
        )


class TestWeighted:
    def test_triangle(self):
        assert cap(["weighted", "1", "1", "1"]) == (0, "1*s^3\n")

    def test_square(self):
        assert cap(["weighted", "1", "1", "1", "1"]) == (0, "2*s^4\n")

    def test_digon_count(self):
        assert cap(["weighted", "9", "7", "--maximal"]) == (0, "792\n")
        rc, out = cap(["weighted", "9", "7", "--maximal", "--json"])
        assert json.loads(out) == {"count": "792"}

    def test_pentagon_polynomial(self):
        rc, out = cap(["weighted", "1", "5", "2", "3", "4"])
        assert rc == 0
        assert out == PolyS(PENTAGON_POLY).text() + "\n"

    def test_bad_weight(self, capsys):
        rc, out = cap(["weighted", "0", "3"])
        assert rc == 1
        assert "side weights must be >= 1" in capsys.readouterr().err


class TestNeargon:
    def test_three_edges(self, point_file):
        files = [point_file(EDGE_A), point_file(EDGE_B), point_file(EDGE_C)]
        rc, out = cap(["neargon"] + files)
        assert rc == 0
        assert out == PolyS(GON_POLY).text() + "\n"
        assert cap(["neargon"] + files + ["--maximal"]) == (0, "194939\n")

    def test_json_terms(self, point_file):
        files = [point_file(EDGE_A), point_file(EDGE_B), point_file(EDGE_C)]
        rc, out = cap(["neargon"] + files + ["--json"])
        got = {term["s"]: int(term["coeff"]) for term in json.loads(out)["terms"]}
        assert got == GON_POLY

    def test_single_edge(self, point_file, capsys, monkeypatch):
        # refused before any factor is routed
        routed = []
        monkeypatch.setattr(neargon, "_prime_terms", lambda *args: routed.append(args))
        for flags in ([], ["--maximal"]):
            rc, out = cap(["neargon", point_file(EDGE_A), *flags])
            assert rc == 1
            assert "two edges" in capsys.readouterr().err
        assert routed == []


class TestRecover:
    def test_text(self):
        argv = ["recover", "19", "87", "334", "--range", "3,5"]
        assert cap(argv) == (0, "2*t^5 - 1*t^4 - 5*t^3 - 13*t^2\n")

    def test_json(self):
        rc, out = cap(["recover", "19", "87", "334", "--range", "3,5", "--json"])
        assert json.loads(out) == {
            "terms": [
                {"t": 5, "coeff": "2"},
                {"t": 4, "coeff": "-1"},
                {"t": 3, "coeff": "-5"},
                {"t": 2, "coeff": "-13"},
            ]
        }

    def test_range_validation(self, capsys):
        rc, out = cap(["recover", "1", "--range", "3"])
        assert rc == 1
        assert "--range wants two integers, got '3'" in capsys.readouterr().err
        rc, out = cap(["recover", "1", "--range", "a,b"])
        assert rc == 1
        assert (
            "--range wants comma-separated integers, got 'a,b'"
            in capsys.readouterr().err
        )

    def test_count_width_validation(self, capsys):
        rc, out = cap(["recover", "1", "2", "--range", "3,5"])
        assert rc == 1
        assert "needs 3 counts" in capsys.readouterr().err


class TestRealize:
    def test_prints_points(self, point_file):
        files = [point_file(EDGE_A), point_file(EDGE_B), point_file(EDGE_C)]
        rc, out = cap(["realize"] + files)
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 14
        assert all(len(line.split()) == 2 for line in lines)

    def test_round_trip_through_a_file(self, point_file, tmp_path):
        files = [point_file(EDGE_A), point_file(EDGE_B), point_file(EDGE_C)]
        target = str(tmp_path / "gon.pts")
        rc, out = cap(["realize"] + files + ["-o", target])
        assert rc == 0
        assert out == ""
        rc, out = cap(["poly", target])
        assert rc == 0
        assert out == PolyS(GON_POLY).text() + "\n"
        rc, out = cap(["maxcount", target])
        assert (rc, out) == (0, "194939\n")

    def test_needs_three_edges(self, point_file, capsys):
        rc, out = cap(["realize", point_file(EDGE_A)])
        assert rc == 1
        assert "two edges" in capsys.readouterr().err
        rc, out = cap(["realize", point_file(EDGE_A), point_file(EDGE_B)])
        assert rc == 1
        assert "three edges" in capsys.readouterr().err


class TestOracleVerbs:
    def test_quad(self, point_file):
        assert cap(["oracle", point_file(QUAD)]) == (0, "2*s^4\n")

    def test_region(self, point_file):
        rc, out = cap(
            ["oracle-region", point_file(SQUEEZE),
             "--floor", "0,1,7", "--ceiling", "0,2,3,5,6,7"]
        )
        assert (rc, out) == (0, "12*s^8 + 16*s^7 + 5*s^6\n")

    def test_guard_exit_code(self, point_file, capsys):
        path = point_file([(i, 0) for i in range(13)])
        rc, out = cap(["oracle", path])
        assert rc == 2
        assert (
            "13 points exceed the brute-force limit 12"
            in capsys.readouterr().err
        )


class TestInternalError:
    def test_broken_sweep_exits_with_code_3(self, point_file, capsys, monkeypatch):
        # one point too few for every move that skips points: the
        # triangulation without the centre pays off at a wrong potential
        from tripoly.transfer import _Sweep

        real = _Sweep.successors

        def miscounting(self, code):
            # a move's high field is its potential step minus one; a move
            # is the code it reaches less the roof bits
            one = 2 << self.skip_shift
            bits = code & self.mask
            return [m - one if bits + m >= one else m for m in real(self, code)]

        monkeypatch.setattr(_Sweep, "successors", miscounting)
        rc, out = cap(["poly", point_file(TRIANGLE_PLUS_CENTER)])
        assert (rc, out) == (3, "")
        assert capsys.readouterr().err == (
            "internal error: ceiling payoff at potential 4, not 6\n"
        )

    def test_potential_past_every_roof_exits_with_code_3(
        self, point_file, capsys, monkeypatch
    ):
        # one point too many: the move skipping the centre overshoots
        from tripoly.transfer import _Sweep

        real = _Sweep.successors

        def miscounting(self, code):
            # a move's high field is its potential step minus one; a move
            # is the code it reaches less the roof bits
            one = 2 << self.skip_shift
            bits = code & self.mask
            return [m + one if bits + m >= one else m for m in real(self, code)]

        monkeypatch.setattr(_Sweep, "successors", miscounting)
        rc, out = cap(["poly", point_file(TRIANGLE_PLUS_CENTER)])
        assert (rc, out) == (3, "")
        assert capsys.readouterr().err == (
            "internal error: a roof at potential 8, past 6\n"
        )

    def test_payoffs_at_two_steps_exit_with_code_3(
        self, point_file, capsys, monkeypatch
    ):
        # park each ceiling roof for one step under a marker past its last
        # segment: no triangle is added, so the parked code pays off one
        # step later, at a potential its roof cannot have
        from tripoly.transfer import _Sweep

        real = _Sweep.successors

        def stalling(self, code):
            # the marker field of a sweep code holds the host index of the
            # marker's roof point; P_n marks no segment.  A move is the code
            # it reaches less the roof bits, so a move to the same bits is
            # its new marker field alone
            out = real(self, code)
            bits = code & self.mask
            top = bits.bit_length()  # the marker of the last segment
            if bits == self.ceiling_bits:
                m = code >> self.shift
                if m < top:
                    out.append(self.n << self.shift)
                elif m > top:
                    out.append(top << self.shift)
            return out

        monkeypatch.setattr(_Sweep, "successors", stalling)
        rc, out = cap(["maxcount", point_file(COLUMNS11)])
        assert (rc, out) == (3, "")
        assert capsys.readouterr().err == (
            "internal error: ceiling payoff at potential 17, not 16\n"
        )


class TestSelftest:
    EXPECTED = (
        "ok   weighted pentagon count\n"
        "ok   weighted pentagon polynomial\n"
        "ok   weighted triangle polynomial\n"
        "ok   zigzag edge polynomial\n"
        "ok   edge transfer iteration\n"
        "ok   three edge composition\n"
        "ok   squeezed region polynomial\n"
        "ok   fan closure counts\n"
        "ok   edge recovery\n"
        "ok   monomial recovery\n"
        "ok   realized near-gon\n"
        "ok   oracle quadrilateral\n"
        "ok   oracle region\n"
        "13 of 13 examples passed\n"
    )

    def test_all_examples_pass(self):
        assert cap(["selftest"]) == (0, self.EXPECTED)

    def test_deterministic(self):
        assert cap(["selftest"]) == cap(["selftest"])


class TestUsage:
    def test_unknown_verb(self, capsys):
        rc, out = cap(["frobnicate"])
        assert rc == 1
        assert out == ""
        err = capsys.readouterr().err
        assert "invalid choice: 'frobnicate'" in err
        assert "usage:" in err

    def test_no_arguments(self, capsys):
        rc, out = cap([])
        assert rc == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,usage",
        [(["--help"], "usage: tripoly "), (["poly", "--help"], "usage: tripoly poly ")],
    )
    def test_help_returns_0_and_writes_to_out(self, argv, usage, capsys):
        rc, out = cap(argv)
        assert rc == 0
        assert out.startswith(usage)
        assert capsys.readouterr() == ("", "")

    def test_missing_file(self, capsys):
        rc, out = cap(["poly", "/nonexistent/points.pts"])
        assert rc == 1
        assert "No such file" in capsys.readouterr().err

    def test_malformed_point_file(self, tmp_path, capsys):
        path = tmp_path / "bad.pts"
        path.write_text("0 0\n1 one\n")
        rc, out = cap(["poly", str(path)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err


DIGON_9_7 = (
    "792*s^16 + 5676*s^15 + 18936*s^14 + 39024*s^13 + 55560*s^12"
    " + 57882*s^11 + 45576*s^10 + 27616*s^9 + 12984*s^8 + 4740*s^7"
    " + 1336*s^6 + 288*s^5 + 48*s^4 + 1*s^2\n"
)


class TestReusedParser:
    """``run`` builds its parser once per process; no call may leave
    state in it that a later call sees."""

    @staticmethod
    def call(argv, capsys):
        return cap(argv), capsys.readouterr()

    def fresh(self, argv, capsys):
        _build_parser.cache_clear()
        return self.call(argv, capsys)

    def test_the_parser_is_built_once(self):
        _build_parser.cache_clear()
        cap(["weighted", "1", "1", "1"])
        parser = _build_parser()
        cap(["weighted", "1", "1", "1", "1"])
        assert _build_parser() is parser

    def test_a_flag_does_not_carry_to_the_next_call(self):
        _build_parser.cache_clear()
        assert cap(["weighted", "9", "7", "--maximal"]) == (0, "792\n")
        assert cap(["weighted", "9", "7"]) == (0, DIGON_9_7)

    def test_a_usage_error_then_a_valid_call(self, capsys):
        bad, good = ["weighted", "3", "x"], ["weighted", "9", "7", "--json"]
        expected = [self.fresh(bad, capsys), self.fresh(good, capsys)]
        _build_parser.cache_clear()
        got = [self.call(bad, capsys), self.call(good, capsys)]
        assert got == expected
        (rc, out), (_, err) = got[0]
        assert (rc, out) == (1, "")
        assert "invalid int value: 'x'" in err

    def test_help_then_a_verb(self, capsys):
        expected = [
            self.fresh(["--help"], capsys),
            self.fresh(["weighted", "9", "7"], capsys),
        ]
        _build_parser.cache_clear()
        got = [
            self.call(["--help"], capsys),
            self.call(["weighted", "9", "7"], capsys),
        ]
        assert got == expected
        (rc, out), _ = got[0]
        assert rc == 0 and out.startswith("usage: tripoly ")
        assert got[1][0] == (0, DIGON_9_7)


class TestModuleEntry:
    def test_import_loads_no_dataclasses_or_inspect(self):
        # both cost import time and memory in every fresh process
        code = (
            "import sys, tripoly.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @staticmethod
    def loaded_by(code, *argv):
        """The modules that ``code`` loads in a fresh interpreter that
        finds the package through ``PYTHONPATH=src`` alone."""
        env = dict(os.environ, PYTHONPATH=SRC)
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"{code}\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        return set(proc.stdout.split())

    def test_package_root_loads_no_submodule(self):
        loaded = self.loaded_by("import tripoly")
        assert "tripoly" in loaded
        assert not any(m.startswith("tripoly.") for m in loaded), loaded

    def test_cli_import_leaves_the_oracle_and_fractions_out(self):
        loaded = self.loaded_by("import tripoly.cli")
        assert "tripoly.cli" in loaded and "tripoly.transfer" in loaded
        assert not {"tripoly.oracle", "fractions", "decimal"} & loaded

    def test_verbs_load_what_they_run(self, point_file):
        run_verb = "import io, tripoly.cli; tripoly.cli.run(sys.argv[1:], out=io.StringIO())"
        loaded = self.loaded_by(run_verb, "oracle", point_file(QUAD))
        assert "tripoly.oracle" in loaded and "fractions" not in loaded
        loaded = self.loaded_by(run_verb, "recover", "19", "87", "334", "--range", "3,5")
        assert "fractions" in loaded and "tripoly.oracle" not in loaded

    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tripoly.cli", "weighted", "1", "1", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1*s^3\n"
        assert proc.stderr == ""
