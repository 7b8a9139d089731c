"""A table of hand-made mutants and the tests that must kill them.

Standard library only.  From the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the script copies ``src``, ``tests``, ``bench`` and
``pyproject.toml`` to a temporary directory, replaces the mutant's old
text, which must occur exactly once, with its new text, and runs pytest
with ``-x`` on the mutant's tests there, with a fixed
``--hypothesis-seed`` so that a property test draws the same examples
every time.  A mutant is killed when pytest reports a failed test.

Some mutants are marked as survivors, with the reason: equivalent
mutants, whose change no result can show, and known gaps of the tests.
The script prints one line per mutant and exits 1 when a mutant that is
not marked survives, when a marked one is killed (the table is then out
of date), or when a mutant cannot be applied or its tests do not run.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ["src", "tests", "bench", "pyproject.toml"]
HYPOTHESIS_SEED = "0"
TIMEOUT_S = 1200


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str = ""  # why it is expected to survive; empty if it must die


TRANSFER = "src/tripoly/transfer.py"
TWIN_TESTS = (
    "tests/test_differential.py::test_merged_twins_match_unmerged_and_traced_sweeps"
)

MUTANTS = [
    # -- the sweep's twins (transfer module docstring, Twins) -----------------
    Mutant(
        "twin head drops its first-segment row",
        TRANSFER,
        "moves = fold[first] if twin in bucket",
        "moves = () if twin in bucket",
        ("tests/test_transfer.py::TestCensus", TWIN_TESTS),
    ),
    Mutant(
        "twin walks without its marker-0 multiplicity",
        TRANSFER,
        "mult += bucket.get(base, 0)",
        "mult += 0",
        ("tests/test_transfer.py::TestCensus", TWIN_TESTS),
    ),
    Mutant(
        "no sweep merges twins",
        TRANSFER,
        "self.twins = whole",
        "self.twins = False",
        ("tests/test_transfer.py::TestCensus",),
    ),
    Mutant(
        "traced sweeps merge twins",
        TRANSFER,
        "self.twins = whole",
        "self.twins = ceiling is not None",
        ("tests/test_pins.py", "tests/test_differential.py"),
        survives="equivalent: the merge writes nothing to a bucket and the "
        "twin's moves carry the same sums, so a traced sweep that merges "
        "replays the same V_k states; traced sweeps keep both codes to stay "
        "the plain walk that tests compare with",
    ),
    Mutant(
        "a head walks as its absent twin",
        TRANSFER,
        "moves = fold[first] if twin in bucket else expand(code)",
        "moves = fold[first] if twin in bucket else [*fold[first], *expand(twin)]",
        ("tests/test_transfer.py::TestCensus", TWIN_TESTS, "tests/test_widening.py",
         "tests/test_pins.py"),
        survives="equivalent: a marker-0 code whose twin is absent emits row "
        "(0, 0, b1) plus the moves of the twin it would have, which are its "
        "own moves; it walks once either way, so no count or census changes",
    ),
    # -- widening, memo and kernels --------------------------------------------
    Mutant(
        "no widening guard",
        TRANSFER,
        "while (payoffs := sweep.payoff(bucket, guard)) is None:",
        "while (payoffs := sweep.payoff(bucket, 0)) is None:",
        ("tests/test_widening.py",),
    ),
    Mutant(
        "memo key without point a",
        TRANSFER,
        "key = code & cut[a]",
        "key = code & cut[a + 1]",
        ("tests/test_differential.py::test_memoised_sweep_matches_a_memo_free_loop",),
    ),
    Mutant(
        "kernel field one byte narrower",
        "src/tripoly/exactmath.py",
        "return (bound.bit_length() + 8) // 8",
        "return (bound.bit_length() + 8) // 8 - 1",
        ("tests/test_packed_kernels.py", "tests/test_exactmath.py"),
    ),
    Mutant(
        "realize accepts any flattening",
        "src/tripoly/neargon.py",
        "if images is not None and _turns_as_limit(edges, base, images):",
        "if images is not None:",
        ("tests/test_neargon.py",),
    ),
    Mutant(
        "no edge splits into factors",
        "src/tripoly/planar.py",
        "        if splits_at(k):",
        "        if False:",
        ("tests/test_planar.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "edge_poly does not factorize",
        "src/tripoly/neargon.py",
        "for factor in factorize(edge):",
        "for factor in [edge]:",
        ("tests/test_neargon.py", "tests/test_differential.py"),
        survives="equivalent in results: every route gives the polynomial of a "
        "whole edge, and the factors only make it cheaper",
    ),
    # -- the headroom (ROADMAP item 7) -----------------------------------------
    Mutant(
        "headroom for n^2 terms",
        TRANSFER,
        "self.headroom = ((n + 1) << (n - 1)).bit_length()",
        "self.headroom = (n * n + 1).bit_length()",
        ("tests",),
        survives="gap: no test drives a field to its guard; the payoff sums a "
        "whole bucket into one packed int, so this is unsafe as it stands",
    ),
    Mutant(
        "headroom one bit narrower",
        TRANSFER,
        "self.headroom = ((n + 1) << (n - 1)).bit_length()",
        "self.headroom = ((n + 1) << (n - 1)).bit_length() - 1",
        ("tests",),
        survives="gap: no test drives a sum to its term bound",
    ),
]


def run(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail): outcome is killed, survived or error."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(
                    src, dst, ignore=shutil.ignore_patterns("__pycache__", ".*")
                )
            else:
                shutil.copy2(src, dst)
        path = Path(tmp) / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error", f"old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                f"--hypothesis-seed={HYPOTHESIS_SEED}", *mutant.tests]
        try:
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", f"tests ran past {TIMEOUT_S} s"
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0:
        return "survived", last
    if proc.returncode == 1:
        return "killed", last
    return "error", f"pytest exit {proc.returncode}: {last or proc.stderr[-200:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome, detail = run(mutant)
        expected = "survived" if mutant.survives else "killed"
        ok = outcome == expected
        bad += not ok
        note = f" ({mutant.survives})" if mutant.survives else ""
        print(f"{'ok  ' if ok else 'FAIL'} {outcome:8} {mutant.name}{note}: {detail}",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
