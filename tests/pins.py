"""Pinned command-line outputs on the paper's larger examples.

Each pin runs one command line of ``python -m tripoly.cli`` in a fresh
process, inside a directory that holds the input files written by
``write_inputs``, and checks one thing: the sha256 of stdout, the exact
stdout, or the exit code together with a piece of stderr.  A pin that
checks stdout also wants exit code 0.  Each digest is the package's
output at the time the pin was added; the comments say what it pins.

Standard library only.  From the repository root:

    PYTHONPATH=src python tests/pins.py

prints one line per pin and exits 1 when any pin fails.
``tests/test_pins.py`` runs the same table under pytest.
"""
from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CAPACITY_PATHS = ["--floor", "0,1,6,18,19,21", "--ceiling", "0,3,8,14,17,21"]
GON5 = [f"gon5/{i}.pts" for i in range(1, 6)]
GON6 = [f"gon6/{i}.pts" for i in range(1, 7)]

# (name, argv, what is checked, its value)
PINS = [
    # the 13 examples of selftest, all passing
    ("selftest", ["selftest"], "sha256",
     "fe63f2bf722c5dcd09c790ca5a6dd1ea98debb80738ac1e77d5285e851d4ba91"),
    ("weighted hexagon", ["weighted", "20", "22", "17", "21", "20", "18"], "sha256",
     "49244872987c630c4c2bc06dbea31d761b39b6029c7c994b214b9c0b52c7bb53"),
    # its complete-mode fields outgrow their start width, so this digest,
    # taken with worst-case fixed-width fields, pins a run that widens
    ("capacity poly", ["poly", "capacity-22.pts"], "sha256",
     "9259f73ff9517ff72fec09eade951721bf665b414416ab7aaf6f4f1de252b361"),
    # these three were taken when the sweep still ran the frozen-prefix
    # and stuck rules, which the cascade rule merges; the ceiling has a
    # valley corner at index 17
    ("capacity maxcount", ["maxcount", "capacity-22.pts"], "sha256",
     "7321aed4f2af9d05fb9158274621b992ee7540af0378140c9dff3f8d4525c2e8"),
    ("capacity region", ["region", "capacity-22.pts", *CAPACITY_PATHS], "sha256",
     "8daf20b2a988329423dd5732a0254df74c74f2debae8abbe63905ccd580cbff2"),
    ("capacity maximal region",
     ["region", "capacity-22.pts", *CAPACITY_PATHS, "--maximal"], "sha256",
     "8f3432cc916b31b4f9971990c4571c1345d3f1fc8e025fd287c07bd832c2d942"),
    # taken when the flattening still ran on Fraction arithmetic
    ("realized 5-edge near-gon", ["realize", *GON5], "sha256",
     "6439b3b0ca7c0acfb591d7eb3da710137fbb97163fdd536e4fc9bfac26c5ebd8"),
    # taken when the recursion multiplied PolySUW dicts term by term
    ("convex edge, 30 signs", ["edgepoly", "convex-30.pts", "--method", "convex"],
     "sha256", "7a32cf6bdcc92ca35e45aed0fb533c32df12cc211adf7062dc036ffc855f0b7b"),
    # taken when compose multiplied Kronecker-packed (s, t) products
    ("composed 6-edge near-gon", ["neargon", *GON6], "sha256",
     "a40e5ad659e5978387fc0edb3c8cb134528bbba12f08ea214d88cf05e0520d50"),
    ("composed 6-edge near-gon, maximal", ["neargon", *GON6, "--maximal"], "sha256",
     "4cb602cc9ccd057f0df71ad2e46c4b40c89a80389bffe0ff4d1338fb891824d5"),
    # a traced sweep folds no move, so its V_k lines stay those of the
    # step-by-step iteration; taken before untraced sweeps folded moves.
    # The ceiling has valley corners at indices 2 and 9
    ("traced poly", ["poly", "trace-12.pts", "--trace"], "sha256",
     "c32ee40d7fc4be56d7495c1b0c69d2a106af3666858c745a50634306b9c308cf"),
    ("traced region",
     ["region", "trace-12.pts", "--floor", "0,1,7,11", "--ceiling", "0,2,9,11",
      "--trace"], "sha256",
     "17c1e0722f8605b5cdb4ed9650026abdab1ab30386f6bf155f9eeecbff2b4c69"),
    # a traced maximal sweep is unpruned, dead ends included, and an edge
    # sweep has no ceiling; taken while the sweep still took a prune flag
    ("traced maxcount", ["maxcount", "trace-12.pts", "--trace"], "sha256",
     "5122f716394f365648fc66e68329300f79bead519660845d6764075abba4cabc"),
    ("traced maximal region",
     ["region", "trace-12.pts", "--floor", "0,1,7,11", "--ceiling", "0,2,9,11",
      "--maximal", "--trace"], "sha256",
     "cf0f1112e377010d73636235227493eb177e959cd2fec13b57ef56f040f883bc"),
    ("traced tm edge", ["edgepoly-tm", "gon6/4.pts", "--trace"], "sha256",
     "9fa596a089a98eb5d29ff6bd1fc1342eab0eaa6f618475fc97a7ba3a771148de"),
    # the empty piece matches any stderr: only the exit code is checked
    ("usage error", ["weighted", "3", "x"], "exit", (1, "")),
    # the oracle loads only in the verbs that run it, so this fresh
    # process must load it
    ("oracle guard", ["oracle", "oracle-13.pts"], "exit",
     (2, "13 points exceed the brute-force limit 12")),
    ("edge recovery", ["recover", "19", "87", "334", "--range", "3,5"], "stdout",
     "2*t^5 - 1*t^4 - 5*t^3 - 13*t^2\n"),
]


def _lines(points) -> str:
    return "".join(f"{x} {y}\n" for x, y in points)


def _random_set(n: int) -> str:
    """The n-point configuration of ``bench/capacity.py``, drawn as there."""
    rng = random.Random(n)
    pts: set[tuple[int, int]] = set()
    while len(pts) < n:
        pts.add((rng.randrange(60), rng.randrange(60)))
    return _lines(sorted(pts))


def _convex_30() -> str:
    from tripoly.planar import profile_realization

    rng = random.Random(30)
    return _lines(profile_realization([rng.choice((1, -1)) for _ in range(30)]))


def write_inputs(root: Path) -> None:
    files = {
        "capacity-22.pts": _random_set(22),
        "trace-12.pts": _random_set(12),
        "convex-30.pts": _convex_30(),
        "oracle-13.pts": _lines((i, i * i % 17) for i in range(13)),
        # tilted chords, a straight edge and a unit edge
        "gon5/1.pts": "0 0\n1 2\n2 -1\n3 1\n",
        "gon5/2.pts": "0 0\n1 0\n2 0\n",
        "gon5/3.pts": "0 0\n2 1\n",
        "gon5/4.pts": "0 0\n1 -1\n2 1\n3 -1\n4 0\n",
        "gon5/5.pts": "0 0\n2 3\n3 1\n5 4\n",
        # a straight edge, a unit edge, a zigzag, an edge with two chord
        # points (three prime factors), a convex edge and a collinear run
        # off the chord
        "gon6/1.pts": "0 0\n1 0\n2 0\n3 0\n4 0\n5 0\n6 0\n7 0\n",
        "gon6/2.pts": "0 0\n1 0\n",
        "gon6/3.pts": "0 0\n1 1\n2 -1\n3 1\n4 -1\n5 0\n",
        "gon6/4.pts": "0 0\n1 1\n2 0\n3 -1\n4 1\n5 0\n6 0\n",
        "gon6/5.pts": "0 0\n1 -2\n2 -3\n3 -3\n4 -2\n5 0\n",
        "gon6/6.pts": "0 0\n1 1\n2 1\n3 1\n4 0\n",
    }
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")


def check(argv: list[str], kind: str, want, cwd) -> str | None:
    """None when the pin holds, else what the command did."""
    proc = subprocess.run(
        [sys.executable, "-m", "tripoly.cli", *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        timeout=600,
    )
    stderr = proc.stderr.decode(errors="replace")
    if kind == "exit":
        code, piece = want
        held = proc.returncode == code and piece in stderr
    elif proc.returncode != 0:
        held = False
    elif kind == "sha256":
        held = hashlib.sha256(proc.stdout).hexdigest() == want
    else:
        held = proc.stdout == want.encode()
    if held:
        return None
    return f"exit {proc.returncode}, stdout {proc.stdout[:200]!r}, stderr {stderr[-200:]!r}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name, argv, kind, want in PINS:
            error = check(argv, kind, want, tmp)
            failed += error is not None
            print(f"held    {name}" if error is None else f"FAILED  {name}: {error}")
    print(f"{len(PINS) - failed} of {len(PINS)} pins held")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
