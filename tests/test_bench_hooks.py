"""The names that the benchmark's tracer patches still exist.

``bench/tracer.py`` wraps functions and methods of the package by name
(``PolyST.__mul__``, ``roofs.successors``, ``neargon.factorize``, ...).
Installing it in a fresh interpreter fails as soon as one of them is
renamed or removed.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(ROOT / 'src')!r}]; "
        "from tracer import Tracer; Tracer().install()"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
