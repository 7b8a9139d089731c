"""Capacity report: the largest random configuration within the limits.

    python3 bench/capacity.py

For n = START, START + 1, ... draws n distinct points from a 60x60 box
with ``random.Random(1000 * SEED + n)`` and runs ``maxcount`` and
``poly`` on them, each in its own child process whose address space is
capped (LIMIT_MIB plus 512 MiB of head room for the interpreter), so a
probe cannot exhaust the machine.  A probe passes when it finishes
within LIMIT_S with peak RSS within LIMIT_MIB and the leading
coefficient of ``poly`` equals ``maxcount``.  The report stops
at the first size that fails and names the largest size that passed.
This is on demand only; no workload of ``run.py`` runs it.
"""
from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import OUT, ROOT, WORK, import_tripoly, run_cli, write_points  # noqa: E402

SEED = 0
START = 16
LIMIT_S = 60.0
LIMIT_MIB = 1024


def probe_main(verb: str, path: str, cap_mib: int) -> int:
    cap = cap_mib * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    tripoly = import_tripoly()
    try:
        code, out, dt = run_cli(tripoly.cli.run, [verb, path, "--json"])
    except MemoryError:
        code, out, dt = -1, "", 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"code": code, "out": out, "s": dt, "maxrss_mib": usage.ru_maxrss / 1024}))
    return 0


def probe(verb: str, path: str) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--probe", verb, path,
            str(LIMIT_MIB + 512)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=LIMIT_S + 10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"verb": verb, "ok": False, "why": f"no result within {LIMIT_S} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"verb": verb, "ok": False, "why": f"probe exited with {proc.returncode}"}
    rep = json.loads(lines[-1])
    rep["verb"] = verb
    why = []
    if rep["code"] != 0:
        why.append(f"exit {rep['code']} (out of memory when -1)")
    if rep["s"] > LIMIT_S:
        why.append(f"{rep['s']:.1f} s > {LIMIT_S} s")
    if rep["maxrss_mib"] > LIMIT_MIB:
        why.append(f"{rep['maxrss_mib']:.0f} MiB > {LIMIT_MIB} MiB")
    rep["ok"] = not why
    rep["why"] = "; ".join(why)
    return rep


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--probe":
        return probe_main(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    os.makedirs(WORK, exist_ok=True)
    rows, largest = [], None
    n = START
    while True:
        rng = random.Random(1000 * SEED + n)
        pts: set[tuple[int, int]] = set()
        while len(pts) < n:
            pts.add((rng.randrange(60), rng.randrange(60)))
        path = os.path.join(WORK, f"capacity-{os.getpid()}-{n}.pts")
        write_points(path, sorted(pts))
        try:
            reps = [probe(v, path) for v in ("maxcount", "poly")]
        finally:
            os.remove(path)
        ok = all(r["ok"] for r in reps)
        if ok:
            count = int(json.loads(reps[0]["out"])["count"])
            terms = json.loads(reps[1]["out"])["terms"]
            if int(terms[0]["coeff"]) != count:
                reps[1]["ok"], reps[1]["why"], ok = False, "leading coefficient != maxcount", False
        for r in reps:
            print(f"n={n:2d} {r['verb']:8s} "
                  + (f"{r['s']:7.2f} s {r['maxrss_mib']:7.1f} MiB" if "s" in r else " " * 22)
                  + ("  ok" if r["ok"] else f"  FAIL {r['why']}"), flush=True)
        rows.append({"n": n, "probes": [{k: v for k, v in r.items() if k != "out"} for r in reps]})
        if not ok:
            break
        largest = n
        n += 1
    result = {"seed": SEED, "limit_s": LIMIT_S, "limit_mib": LIMIT_MIB,
              "largest_n": largest, "rows": rows}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"capacity-{time.strftime('%Y%m%dT%H%M%S')}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"largest_n": largest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
