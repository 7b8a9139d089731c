"""Paths, workloads, point files, the in-process CLI call and the calibration loop.

Shared by the runner (``run.py``), the pass worker (``worker.py``), the
answer pinning script (``pin.py``) and the capacity report
(``capacity.py``).  Only the standard library is used.
"""
from __future__ import annotations

import io
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PINNED = os.path.join(BENCH, "pinned.json")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

# Configurations are also presented with every coordinate times SCALE.
SCALE = 10**40

# Workload -> (step tags it runs, {stratum: items per corpus}).  The pool
# in pinned.json holds twice as many items per stratum as any workload
# takes: a main part, which every seed but HELD_OUT_SEED runs, and a
# held-out part of the same size for HELD_OUT_SEED.  The configuration
# workloads run the same configurations.  A convex edge, a 3-edge gon and
# a weight multiset ride along in them, so that every layer runs and
# reports a measured time on every workload; config-max keeps to routes
# that sweep in maximal mode only.
HELD_OUT_SEED = 424242
_CONFIG_STRATA = {
    "rand12": 3, "rand13": 3, "rand14": 3, "rand15": 2, "rand16": 1, "rand17": 1,
    "rand18": 1, "lat9": 1, "lat10": 1, "lat14": 2, "lat16": 1,
    "conv15": 1, "gon3": 1, "wt3": 1,
}
WORKLOADS = {
    "config-max": (
        ("maxcount", "region-max", "edge-convex", "realize", "realize-maxcount", "weighted-max"),
        _CONFIG_STRATA,
    ),
    "config-poly": (
        ("poly", "region", "edge-auto", "neargon", "realize", "weighted"), _CONFIG_STRATA,
    ),
    "edges-gons": (
        (
            "edge-roofs", "edge-tm", "edge-convex", "edge-auto", "neargon",
            "neargon-max", "realize", "realize-maxcount", "weighted", "weighted-max",
        ),
        {
            "roofs7": 1, "roofs8": 1, "roofs9": 1, "tm12": 1, "tm13": 1, "tm14": 1,
            "conv15": 2, "conv16": 2, "conv17": 2, "gon3": 5, "gon4": 2, "gon5": 2,
            "gon6": 2, "wt3": 3, "wt4": 3, "wt5": 3, "wt6": 3,
        },
    ),
}

# Calibration: a fixed pure-Python loop that, like the sweep, is made of
# dict updates keyed by tuples.  CALIB_REF_S is its median time on the
# 2-CPU reference host; times are reported in reference seconds, i.e.
# measured seconds times CALIB_REF_S / (calibration time measured next
# to them).  While an instance runs, a timer signal also calibrates
# every TICK_S, because host speed can change within a long instance.
# See README.md for why.
CALIB_LOOP = 6_000
CALIB_REPEATS = 3
CALIB_REF_S = 0.0020
TICK_S = 0.2


def calibrate() -> float:
    """Median time of CALIB_REPEATS runs of the fixed calibration loop."""
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        for j in range(CALIB_LOOP):
            key = ((j * 7919) % 4099, j & 63)
            table[key] = table.get(key, 0) + j
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def import_tripoly():
    """Import the package from this checkout's ``src`` and nowhere else."""
    init = os.path.join(SRC, "tripoly", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no tripoly sources at {init}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import tripoly
    import tripoly.cli

    if os.path.dirname(os.path.abspath(tripoly.__file__)) != os.path.dirname(init):
        raise SystemExit(f"error: imported tripoly from {tripoly.__file__}")
    return tripoly


def points_text(points) -> str:
    return "".join(f"{x} {y}\n" for x, y in points)


def write_points(path: str, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(points_text(points))


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def run_cli(run, argv) -> tuple[int, str, float]:
    """One closed-loop call of ``tripoly.cli.run``: (exit code, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    code = run(argv, out=buf)
    dt = time.perf_counter() - t0
    return code, buf.getvalue(), dt
