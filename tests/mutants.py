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
``tests/test_mutant_table.py`` is left out of those runs: it checks this
table against the unmutated tree, so every mutant would fail it.

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
TABLE_TEST = "tests/test_mutant_table.py"
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
NEARGON = "src/tripoly/neargon.py"
TWIN_TESTS = (
    "tests/test_differential.py::test_merged_twins_match_unmerged_and_traced_sweeps"
)
PAYOFF_TESTS = (
    "tests/test_differential.py::test_payoff_matches_a_scan_of_every_code",
    "tests/test_differential.py::test_payoff_reads_codes_under_every_marker",
)
FOLD_TESTS = (
    "tests/test_transfer.py::TestCensus",
    "tests/test_differential.py::test_each_forced_merge_is_folded_into_its_insertion",
    "tests/test_differential.py::test_the_cascade_rule_drops_no_live_code",
)
FOLD = "if pair := merge[(p * size + a) * size + q]:"
GUARD = "while guard and guard & reduce(or_, bucket.values(), 0):"
KEPT_FIELDS = "tests/test_differential.py::test_every_kept_field_fits_its_data_bits"
HEADROOM = "headroom = ((n + 1) << (n - 1)).bit_length()"
ROUTE_TEST = "tests/test_neargon.py::TestCatalog::test_every_method_routes_the_prime_factors"
GON_TESTS = "tests/test_neargon.py::TestCompose"
TOP_SLICE_TESTS = (
    GON_TESTS,
    "tests/test_neargon.py::TestCatalog::test_near_gons_of_catalog_edges_pair_as_composed",
    "tests/test_neargon.py::TestRealize::"
    "test_rejects_flattenings_that_do_not_turn_as_the_limit",
    "tests/test_neargon.py::TestConvexRecursion::test_maximal_variant_matches_the_top_slice",
    "tests/test_packed_kernels.py",
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
    # -- the ceiling payoff (transfer module docstring, Three modes) ----------
    Mutant(
        "payoff lookup misses marker n",
        TRANSFER,
        "top = 1 << n.bit_length()",
        "top = n",
        PAYOFF_TESTS,
    ),
    Mutant(
        "payoff lookup under optional ceiling points",
        TRANSFER,
        "if ceiling is not None and not on & ~self.required:",
        "if ceiling is not None:",
        PAYOFF_TESTS,
    ),
    # -- widening, memo and kernels --------------------------------------------
    Mutant(
        "no widening guard",
        TRANSFER,
        GUARD,
        "while False:",
        ("tests/test_widening.py",),
    ),
    Mutant(
        "bucket guard reads only the first code",
        TRANSFER,
        GUARD,
        "while guard and guard & next(iter(bucket.values())):",
        (KEPT_FIELDS,),
    ),
    Mutant(
        "bucket guard reads only the paying codes",
        TRANSFER,
        GUARD,
        "while guard and guard & reduce(or_, (\n"
        "            mult for code, mult in bucket.items()\n"
        "            if not ((code & sweep.mask) ^ sweep.required) & sweep.care), 0):",
        (KEPT_FIELDS,),
    ),
    Mutant(
        "memo key without point a",
        TRANSFER,
        "key = code & cut[a]",
        "key = code & cut[a + 1]",
        ("tests/test_differential.py::test_memoised_sweep_matches_a_memo_free_loop",),
    ),
    Mutant(
        "memo for a < 2 only",
        TRANSFER,
        "            if a < 3:\n",
        "            if a < 2:\n",
        ("tests/test_differential.py::test_memoised_sweep_matches_a_memo_free_loop",
         "tests/test_pins.py"),
        survives="equivalent: a key with a = 2 is the code with P_1's bit "
        "cleared, so memoising it only spares walks; TestCensus counts walks "
        "and would kill it, which is why it is not listed",
    ),
    Mutant(
        "widening doubles until the largest field fits",
        TRANSFER,
        "            data *= 2\n",
        "            big = max(v.bit_length() for m in bucket.values()\n"
        "                      for _, v in _fields(m, width))\n"
        "            while data < big:\n"
        "                data *= 2\n",
        ("tests/test_widening.py", "tests/test_differential.py::"
         "test_forced_widening_keeps_every_result"),
        survives="equivalent: the outer loop doubles once per failed check until "
        "every field fits, so both stop at the same width",
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
        NEARGON,
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
        NEARGON,
        "for factor in factorize(edge)]",
        "for factor in [edge]]",
        ("tests/test_neargon.py",),
    ),
    # -- near-gons paired from their factors' edge-basis terms -----------------
    Mutant(
        "gon_poly does not factorize",
        NEARGON,
        "for edge in gon for f in factorize(edge)]",
        "for edge in gon for f in [edge]]",
        (ROUTE_TEST,),
    ),
    Mutant(
        "top slice read at s^1 instead of s^weight",
        NEARGON,
        "for key, c in terms.items() if key[0] == weight}",
        "for key, c in terms.items() if key[0] == 1}",
        TOP_SLICE_TESTS,
    ),
    Mutant(
        "covering roofs counted from every roof",
        TRANSFER,
        "payoffs.items() if used == len(points)}",
        "payoffs.items()}",
        (GON_TESTS,),
    ),
    Mutant(
        "maximal transfer-route factor sweeps in complete mode",
        NEARGON,
        "        if maximal:\n            return {(0, j): c for j, c in covering_roof_counts",
        "        if False:\n            return {(0, j): c for j, c in covering_roof_counts",
        (GON_TESTS, ROUTE_TEST),
        survives="equivalent: the covering-roof counts of the maximal sweep are "
        "the complete sweep's top slice (tests/test_differential.py checks that "
        "identity between the roofs and tm routes); only the time differs",
    ),
    # -- one conversion into the edge basis, one side placement ---------------
    Mutant(
        "p_coefficients keeps a p_0 term",
        NEARGON,
        "            if j == 0:\n",
        "            if False:\n",
        ("tests/test_neargon.py::TestEdgePolynomial", "tests/test_exactmath.py"),
    ),
    Mutant(
        "weighted sides lose their last subdivision point",
        "src/tripoly/weighted.py",
        "for x in range(a + 1)",
        "for x in (*range(a - 1), a)",
        ("tests/test_weighted.py",),
    ),
    Mutant(
        "neargon verb skips the two-edge refusal",
        "src/tripoly/cli.py",
        "gon = NearGon(tuple(NearEdge(load_points(f)) for f in args.files))",
        "gon = tuple(NearEdge(load_points(f)) for f in args.files)",
        ("tests/test_cli.py::TestNeargon",),
    ),
    # -- the fold test (transfer module docstring, Folded moves) ---------------
    Mutant(
        "fold test asks for a off the ceiling",
        TRANSFER,
        FOLD,
        "if (pair := merge[(p * size + a) * size + q]) and not on >> (a - 1) & 1:",
        FOLD_TESTS,
        survives="equivalent: a whole sweep stores no merge of an on-ceiling "
        "point, so a stored merge of a means that a is off the ceiling",
    ),
    Mutant(
        "fold test asks for a seen change",
        TRANSFER,
        FOLD,
        "if (pair := merge[(p * size + a) * size + q]) and (\n"
        "                                1 << (a - 1) & ~on\n"
        "                                or self.required & ((1 << (q - 1)) - (2 << (a - 1)))\n"
        "                                or self.exposed[p] >> (a - 1) & 1):",
        FOLD_TESTS,
        survives="equivalent: a stored merge of a means that a is off the "
        "ceiling, so a is bad and the first term alone holds",
    ),
    # -- the headroom (ROADMAP item 7) -----------------------------------------
    Mutant(
        "headroom for n^2 terms",
        TRANSFER,
        HEADROOM,
        "headroom = (n * n + 1).bit_length()",
        ("tests",),
        survives="gap: no test forms a sum with more terms than this headroom "
        "allows; the payoff sums a whole bucket into one packed int, so this "
        "is unsafe as it stands",
    ),
    Mutant(
        "headroom one bit narrower",
        TRANSFER,
        HEADROOM,
        HEADROOM + " - 1",
        ("tests",),
        survives="equivalent: a sweep over P_0..P_n has exactly "
        "sum_k C(n - 1, k)(k + 1) = (n + 1) 2^(n - 2) codes, fewer than "
        "2^(g - 1), so every sum it forms, one term per code plus a floor "
        "roof's start, still fits in g - 1 bits of headroom",
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
                f"--hypothesis-seed={HYPOTHESIS_SEED}", f"--ignore={TABLE_TEST}",
                *mutant.tests]
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
