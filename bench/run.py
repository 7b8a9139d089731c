"""Seeded end-to-end and per-layer benchmark of the tripoly CLI verbs.

    python3 bench/run.py --workload config-max --seed 1 --seconds 30 --trace 0

The runner builds the seeded corpus from ``pinned.json`` once and writes
it to a small JSON file.  Each pass runs the whole corpus in a fresh
worker process (``worker.py``), one process at a time, closed-loop with
one client.
Passes repeat until ``--seconds`` is used up.  The last line of stdout
is one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced passes, compared with
untraced passes of the same run for ``trace.overhead_s``.  Every output
is checked against ``pinned.json``; the run fails (exit 1, no result)
when the checkout has no ``src/tripoly`` or a worker dies.

Times are in reference seconds; see README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import (  # noqa: E402
    BENCH, CALIB_REF_S, HELD_OUT_SEED, OUT, PINNED, ROOT, SCALE, SRC, WORK, WORKLOADS,
    calibrate, points_text,
)

# instance_tail_s is the mean of the per-instance times at the TAIL_RANKS
# highest ranks that have at least TAIL_BEYOND instances beyond them.  One
# rank alone is one instance's time, which moves with host noise by more
# than a third of the metric's bound between runs.
TAIL_BEYOND = 10
TAIL_RANKS = 4
SETUP_SAMPLES = 5  # set-up-only workers per run, besides one per pass
DEADLINE_S = 170  # hard stop for the whole run

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class WorkerFailed(Exception):
    pass


def corpus(workload: str, seed: int) -> list[dict]:
    """The seeded corpus: the workload's items of one part of the pool.

    Every seed but HELD_OUT_SEED runs the main part of the pool, and
    HELD_OUT_SEED the held-out part, which has no item in common with it.
    So the tuning seeds run the same items, and a comparison on one of
    them sees the same work as on another.  Every fourth configuration,
    in pool order, is presented scaled by 10^40.  The seed shuffles the
    order of the items and of the points in each configuration file.
    """
    tags, strata = WORKLOADS[workload]
    part = "held-out" if seed == HELD_OUT_SEED else "main"
    with open(PINNED, "r", encoding="utf-8") as fh:
        pool = json.load(fh)["items"]
    taken: dict[str, int] = {}
    chosen = []
    for it in pool:
        s = it["stratum"]
        if it["part"] == part and taken.get(s, 0) < strata.get(s, 0):
            taken[s] = taken.get(s, 0) + 1
            chosen.append(it)
    scalable = [it["id"] for it in chosen if it.get("scalable")]
    scaled = set(scalable[::4])
    rng = random.Random(seed)
    rng.shuffle(chosen)
    out = []
    for it in chosen:
        files = {}
        for name, pts in it["files"].items():
            if it.get("scalable"):
                rng.shuffle(pts)  # a configuration file may list points in any order
            if it["id"] in scaled:
                pts = [(x * SCALE, y * SCALE) for x, y in pts]
            files[name] = points_text(pts)
        steps = [st for st in it["steps"] if st["tag"] in tags]
        out.append({"id": it["id"] + ("x1e40" if it["id"] in scaled else ""),
                    "files": files, "steps": steps})
    return out


def spawn(corpus_path, passdir, traced, deadline, setup_only=False):
    """Run one worker; returns (set-up seconds, calibration time, report or None)."""
    shutil.rmtree(passdir, ignore_errors=True)
    argv = [sys.executable, os.path.join(BENCH, "worker.py"),
            corpus_path, passdir, "1" if traced else "0"]
    if setup_only:
        argv.append("--setup-only")
    calib = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = (time.perf_counter() - t0) * CALIB_REF_S / calib
        if ready.strip() != "ready":
            raise WorkerFailed(f"worker did not get ready: {ready!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker ran past the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return setup, calib, (None if setup_only else json.loads(out.strip().splitlines()[-1]))


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, lowest and highest percentile averaged); see TAIL_RANKS."""
    ordered = sorted(values)
    top = len(ordered) - TAIL_BEYOND  # 1-based rank of the highest value averaged
    if top < TAIL_RANKS:
        raise WorkerFailed(f"{len(ordered)} instances are too few for a tail")
    low = top - TAIL_RANKS + 1
    return (statistics.fmean(ordered[low - 1:top]),
            (100.0 * low / len(ordered), 100.0 * top / len(ordered)))


def summarize(passes):
    """End-to-end figures from untraced pass reports."""
    per_instance: dict[str, list[float]] = {}
    walls, calls = [], []
    for rep in passes:
        walls.append(sum(r["s"] for r in rep["results"]))
        for r in rep["results"]:
            calls.append(r["s"])
            per_instance.setdefault(r["id"], []).append(r["s"])
    inst = [median(v) for v in per_instance.values()]
    tail_s, tail_pct = tail(inst)
    return {
        "wall_s": median(walls),
        "instance_p50_s": median(calls),
        "instance_tail_s": tail_s,
        "peak_rss_mib": median([rep["maxrss_kib"] / 1024 for rep in passes]),
        "raw_wall_s": median([sum(r["raw_s"] for r in rep["results"]) for rep in passes]),
        "cpu_s": median([sum(r["cpu_s"] for r in rep["results"]) for rep in passes]),
        "instances": len(inst),
        "tail_pct": tail_pct,
    }


def layer_metrics(traced, plain, calibs):
    """Per-layer figures: exact counts (which must repeat) and median self times."""
    counts = traced[0]["layers"]["counts"]
    repeat = all(rep["layers"]["counts"] == counts for rep in traced[1:])
    names = list(traced[0]["layers"]["times"])
    times = {k: median([rep["layers"]["times"][k] for rep in traced]) for k in names}
    base, over = summarize(plain), summarize(traced)
    metrics = {k: (v, "count") for k, v in counts.items()}
    metrics.update({k: (v, "s") for k, v in times.items()})
    states = counts["transfer.states"]
    metrics["transfer.expand_ratio"] = (
        counts["roofs.successors.calls"] / states if states else 0.0, "ratio")
    metrics["host.cpu_s"] = (base["cpu_s"], "s")
    metrics["host.calib_s"] = (median(calibs), "s")
    metrics["host.wall_raw_s"] = (base["raw_wall_s"], "s")
    metrics["trace.overhead_s"] = (over["wall_s"] - base["wall_s"], "s")
    return metrics, repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tripoly", "cli.py")):
        print(f"error: no tripoly sources under {SRC}", file=sys.stderr)
        return 1
    if not os.path.isfile(PINNED):
        print(f"error: missing {PINNED}; run bench/pin.py", file=sys.stderr)
        return 1

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    corpus_path, passdir = os.path.join(workdir, "corpus.json"), os.path.join(workdir, "pass")
    setups, calibs, plain, traced = [], [], [], []
    try:
        os.makedirs(workdir)
        with open(corpus_path, "w", encoding="utf-8") as fh:
            json.dump({"name": f"{args.workload}-seed{args.seed}",
                       "instances": corpus(args.workload, args.seed)}, fh)
        for _ in range(SETUP_SAMPLES):
            setup, calib, _ = spawn(corpus_path, passdir, False, deadline, True)
            setups.append(setup)
            calibs.append(calib)
        # pass schedule: untraced only, or traced and untraced alternating
        pass_s = 0.0
        while True:
            used = time.perf_counter() - start
            want_traced = args.trace == 1 and len(traced) <= len(plain)
            need = len(plain) < (1 if args.trace else 3) or (args.trace and len(traced) < 2)
            if not need and used + pass_s > args.seconds:
                break
            t0 = time.perf_counter()
            setup, calib, rep = spawn(corpus_path, passdir, want_traced, deadline)
            pass_s = max(pass_s, time.perf_counter() - t0)
            setups.append(setup)
            calibs.append(calib)
            (traced if want_traced else plain).append(rep)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reports = plain + traced
    attempted = sum(len(rep["results"]) for rep in reports)
    failures = [r for rep in reports for r in rep["results"] if not r["ok"]]
    correct = not failures
    base = summarize(plain)
    print(f"workload {args.workload} seed {args.seed}: {base['instances']} instances, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for r in failures[:5]:
        print(f"  FAILED {r['id']}: {r['error']}")
    print(f"  fail_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    if args.trace:
        metrics, repeat = layer_metrics(traced, plain, calibs)
        if not repeat:
            correct = False
            print("  FAILED exact layer counts differ between traced passes")
    else:
        base["setup_s"] = median(setups)
        metrics = {k: (base[k], u) for k, u in END_TO_END.items()}
        print(f"  instance_tail_s is the mean of p{base['tail_pct'][0]:.1f} to "
              f"p{base['tail_pct'][1]:.1f} of {base['instances']} instances; "
              f"raw wall {base['raw_wall_s']:.4f} s, cpu {base['cpu_s']:.4f} s per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "setups": setups, "calibs": calibs,
                   "plain": plain, "traced": traced}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
