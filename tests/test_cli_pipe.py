"""A reader that closes stdout early, as ``tripoly poly X --trace | head -1``
does, makes the command exit 1 and write nothing to stderr."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_closed_stdout_exits_1_quietly(point_file):
    # the trace of these 14 points is about 395 KB, far more than a pipe
    # buffers, so the command is still writing when the reader leaves
    rng = random.Random(14)
    pts: set[tuple[int, int]] = set()
    while len(pts) < 14:
        pts.add((rng.randrange(60), rng.randrange(60)))
    with subprocess.Popen(
        [sys.executable, "-m", "tripoly.cli", "poly", point_file(sorted(pts)), "--trace"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
    assert first == b"V_1 = 0\n"
    assert (code, stderr) == (1, b"")
