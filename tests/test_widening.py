"""Complete-mode sweeps forced to widen their packed fields.

A complete-mode multiplicity packs one field per number of skipped
points, ``transfer._DATA_BITS`` data bits plus headroom wide, and the
sweep widens its fields in place when a code has a headroom bit set.
Starting at 1 or 2 data bits makes nearly every run widen, several times
and mid-run: the first bucket holds floor roofs of multiplicity 1, which
fit, so every widening comes after at least one bucket was paid off and
kept.  Every output must be byte-identical to the default run's.
"""
from __future__ import annotations

import io
import random

import pytest

from tripoly import transfer
from tripoly.cli import run
from tripoly.planar import Configuration

from corpus import (
    COLLINEAR_RUN,
    COLUMNS11,
    EDGE8,
    EDGE_A,
    EDGE_B,
    EDGE_C,
    QUAD,
    SQUEEZE,
    TRIANGLE_PLUS_CENTER,
)


def cap(argv):
    buf = io.StringIO()
    rc = run(argv, out=buf)
    return rc, buf.getvalue()


def random_points(n: int, seed: int) -> list[tuple[int, int]]:
    """n distinct points of a 60x60 box."""
    rng = random.Random(seed)
    pts: set[tuple[int, int]] = set()
    while len(pts) < n:
        pts.add((rng.randrange(60), rng.randrange(60)))
    return sorted(pts)


RAND18 = random_points(18, seed=18)


def narrow(monkeypatch, data: int) -> list[tuple[int, int]]:
    """Start complete-mode fields at ``data`` bits; the returned list
    collects the (data, headroom) of every field layout made."""
    layouts = []
    real = transfer._layout
    monkeypatch.setattr(transfer, "_DATA_BITS", data)
    monkeypatch.setattr(
        transfer, "_layout", lambda d, h, f: layouts.append((d, h)) or real(d, h, f)
    )
    return layouts


def cli_runs(point_file) -> list[list[str]]:
    configs = [point_file(pts) for pts in (QUAD, TRIANGLE_PLUS_CENTER, COLLINEAR_RUN)]
    configs += [point_file(COLUMNS11), point_file(SQUEEZE)]
    squeeze = ["region", configs[-1], "--floor", "0,1,7", "--ceiling", "0,2,3,5,6,7"]
    edges = [point_file(e) for e in (EDGE_A, EDGE_B, EDGE_C, EDGE8)]
    argvs = [squeeze, squeeze + ["--maximal"], squeeze + ["--trace"], ["selftest"]]
    for path in configs:
        for verb in ("poly", "maxcount"):
            argvs += [[verb, path], [verb, path, "--trace"]]
    for path in edges:
        argvs += [["edgepoly", path, "--method", "tm"], ["edgepoly-tm", path, "--trace"]]
    gons = [["neargon", *edges[:3]], ["neargon", *edges]]
    argvs += gons + [gons[-1] + ["--maximal"]]
    big = point_file(RAND18)
    argvs += [["poly", big], ["maxcount", big], ["poly", big, "--json"]]
    return argvs


@pytest.mark.parametrize("data", [1, 2])
def test_cli_outputs_are_unchanged_by_widening(point_file, monkeypatch, data):
    argvs = cli_runs(point_file)
    want = [cap(argv) for argv in argvs]
    assert all(rc == 0 for rc, _ in want)
    layouts = narrow(monkeypatch, data)
    assert [cap(argv) for argv in argvs] == want
    assert len({d for d, _ in layouts}) > 3


def test_trace_is_byte_identical_across_a_mid_run_widening(point_file, monkeypatch):
    argv = ["poly", point_file(COLUMNS11), "--trace"]
    want = cap(argv)
    widened = []
    real = transfer._replay

    def replay(sweep, kept, trace):
        # the width each kept bucket was paid off with
        widened.append([width for _, width, _ in kept])
        real(sweep, kept, trace)

    narrow(monkeypatch, 1)
    monkeypatch.setattr(transfer, "_replay", replay)
    assert cap(argv) == want
    (widths,) = widened
    assert widths[0] < widths[-1] and len(set(widths)) > 2


def test_a_maximal_count_wider_than_a_field_is_exact(monkeypatch):
    # an immediate sweep keeps plain ints: its count is one field, however
    # narrow the complete-mode fields start
    cfg = Configuration(RAND18)
    count = transfer.max_config_count(cfg)
    poly = transfer.complete_config_poly(cfg)
    layouts = narrow(monkeypatch, 1)
    assert transfer.max_config_count(cfg) == count
    assert not layouts
    assert count.bit_length() > 1 + transfer._Sweep(cfg.points).headroom
    assert transfer.complete_config_poly(cfg) == poly
    assert poly.leading() == count
    assert layouts[-1][0] >= 16
