"""One pass over a workload's corpus, in a fresh process.

    python3 bench/worker.py CORPUS PASSDIR TRACE [--setup-only]

CORPUS is the JSON file that ``run.py`` writes once per run: the
instances of one workload and seed, with their point files, CLI
arguments and pinned answers.  Set-up covers the interpreter,
``import tripoly`` and writing the point files under PASSDIR; when it is
done the worker prints ``ready``.  It then runs every instance
closed-loop (each CLI call starts after the previous one returns),
checks each output against the pinned answer outside the timed region,
and prints one JSON line with the per-instance times, the failures and,
when TRACE is 1, the layer totals.  ``run.py`` starts these workers one
at a time.
"""
from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import (  # noqa: E402
    CALIB_REF_S, OUT, TICK_S, calibrate, import_tripoly, read_text, run_cli,
)


def materialize(instances: list[dict], passdir: str) -> list[tuple]:
    """Write the point files; returns (instance id, argv, step, directory) in run order."""
    runs = []
    for n, inst in enumerate(instances):
        d = os.path.join(passdir, f"i{n:03d}")
        os.makedirs(d)
        for name, text in inst.pop("files").items():
            with open(os.path.join(d, f"{name}.pts"), "w", encoding="utf-8") as fh:
                fh.write(text)
        for st in inst["steps"]:
            argv = [os.path.join(d, a[1:] + ".pts") if a.startswith("@") else a
                    for a in st["argv"]]
            runs.append((f"{inst['id']}/{st['tag']}", argv, st, d))
    return runs


def main() -> int:
    corpus_path, passdir, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    tripoly = import_tripoly()
    with open(corpus_path, "r", encoding="utf-8") as fh:
        corpus = json.load(fh)
    runs = materialize(corpus["instances"], passdir)
    print("ready", flush=True)
    if "--setup-only" in sys.argv:
        return 0

    tracer = None
    run = tripoly.cli.run
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span("cli.run", run)  # each instance's root span
    results = []
    ticks: list[float] = []  # calibrations run during the instance
    signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(calibrate()))
    calib = calibrate()
    for n, (ident, argv, st, d) in enumerate(runs):
        if tracer is not None:
            tracer.inst = n
        error = None
        ticks.clear()
        cpu, t0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            code, out, dt = run_cli(run, argv)
        except Exception as exc:  # a crash is a failed instance, not a dead run
            code, out, dt = -1, "", time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        spent = sum(ticks)
        dt -= spent
        cpu = time.process_time() - cpu - spent
        after = calibrate()
        factor = CALIB_REF_S / statistics.fmean([calib, after, *ticks])
        calib = after
        ok = code == 0 and out == st["expect"]
        for name, text in st.get("expect_files", {}).items():
            path = os.path.join(d, f"{name}.pts")
            ok = ok and os.path.isfile(path) and read_text(path) == text
        if not ok and error is None:
            error = f"exit {code}, output {out[:80]!r}"
        results.append({"id": ident, "raw_s": dt, "s": dt * factor, "cpu_s": cpu,
                        "ok": ok, "error": error, "factor": factor})
    report = {
        "results": results,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        factors = [r["factor"] for r in results]
        factor = sorted(factors)[len(factors) // 2]
        layers = tracer.layer_totals()
        layers["times"] = {k: v * factor for k, v in layers["times"].items()}
        report["layers"] = layers
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{corpus['name']}-{os.getpid()}.jsonl")
        tracer.write_spans(spans)
        report["spans"] = os.path.relpath(spans, os.path.dirname(OUT))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
