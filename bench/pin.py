"""Generate the instance pool and pin every expected CLI output.

    python3 bench/pin.py

Builds the pool from POOL_SEED, each stratum from its own generator, so
that resizing one stratum leaves the others as they are.  Every stratum
gets twice as many items as any workload takes from it (``WORKLOADS`` in
``common.py``): the first half is the main part, the second half the
held-out part.  It runs every step through
``tripoly.cli.run`` and writes ``bench/pinned.json`` only after these
cross-checks pass on every item:

* ``poly``'s leading coefficient equals ``maxcount``, and ``region
  --maximal`` equals the leading coefficient of ``region``;
* the copy of each configuration scaled by 10^40 gives the same output
  on every verb as the unscaled one;
* ``roofs``, ``tm``, ``auto`` and ``convex`` (where the edge is convex)
  give the same ``edgepoly`` output.  ``roofs`` is skipped on the long
  convex profiles (weights 16-18), where it would take hours;
* ``neargon --maximal`` equals the leading coefficient of ``neargon``;
  for realized gons it also equals ``maxcount`` of the ``realize``d
  configuration, whose ``poly`` equals ``neargon``;
* ``weighted --maximal`` equals the leading coefficient of ``weighted``;
* on instances with at most 10 points, ``oracle`` (``oracle-region``)
  matches ``poly`` (``region``).
"""
from __future__ import annotations

import json
import os
import random
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import (  # noqa: E402
    PINNED, SCALE, WORK, WORKLOADS, import_tripoly, read_text, run_cli, write_points,
)

POOL_SEED = 2003
CONFIG_STRATA = (  # (stratum, kind, points)
    ("rand12", "random", 12),
    ("rand13", "random", 13),
    ("rand14", "random", 14),
    ("rand15", "random", 15),
    ("rand16", "random", 16),
    ("rand17", "random", 17),
    ("rand18", "random", 18),
    ("lat9", "lattice", 9),
    ("lat10", "lattice", 10),
    ("lat14", "lattice", 14),
    ("lat16", "lattice", 16),
)
EDGE_STRATA = (  # (stratum, method, weight); tm last, as its roofs cross-check is slow
    ("roofs7", "roofs", 7),
    ("roofs8", "roofs", 8),
    ("roofs9", "roofs", 9),
    ("conv15", "convex", 16),
    ("conv16", "convex", 17),
    ("conv17", "convex", 18),
    ("tm12", "tm", 12),
    ("tm13", "tm", 13),
    ("tm14", "tm", 14),
)
GON_STRATA = (("gon3", 3, True), ("gon4", 4, False), ("gon5", 5, False), ("gon6", 6, False))
WEIGHTED_STRATA = (("wt3", 3), ("wt4", 4), ("wt5", 5), ("wt6", 6))

ORACLE_LIMIT = 10


class PinError(Exception):
    pass


def s_terms(text: str) -> dict[int, int]:
    """Parse a rendered s-polynomial (text or ``--json``)."""
    text = text.strip()
    if text.startswith("{"):
        return {t["s"]: int(t["coeff"]) for t in json.loads(text)["terms"]}
    out: dict[int, int] = {}
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        coeff, _, power = tok.partition("*s^")
        if tok.startswith("-"):
            sign, coeff = -1, coeff[1:]
        out[int(power) if power else 0] = sign * int(coeff)
    return out


def count_of(text: str) -> int:
    text = text.strip()
    if text.startswith("{"):
        return int(json.loads(text)["count"])
    return int(text)


def leading(terms: dict[int, int]) -> int:
    return terms[max(terms)]


def check(ok: bool, item: dict, what: str) -> None:
    if not ok:
        raise PinError(f"{item['id']}: {what}")


class Runner:
    """Writes an item's files and runs its argv templates."""

    def __init__(self, workdir: str, cli_run):
        self.dir = workdir
        self.cli_run = cli_run

    def files(self, files: dict, scale: int = 1) -> dict[str, str]:
        paths = {}
        for name, pts in files.items():
            path = os.path.join(self.dir, f"{name}.pts")
            write_points(path, [(x * scale, y * scale) for x, y in pts])
            paths[name] = path
        return paths

    def argv(self, template, paths) -> list[str]:
        out = []
        for a in template:
            if a.startswith("@"):
                name = a[1:]
                out.append(paths.get(name) or os.path.join(self.dir, f"{name}.pts"))
            else:
                out.append(a)
        return out

    def call(self, item: dict, template, paths) -> str:
        code, out, _ = run_cli(self.cli_run, self.argv(template, paths))
        check(code == 0, item, f"{template} exited with {code}")
        return out


def step(tag: str, argv: list[str], json_flag: bool) -> dict:
    return {"tag": tag, "argv": argv + (["--json"] if json_flag else [])}


def run_steps(runner: Runner, item: dict) -> dict[str, str]:
    """Run every step once, pinning its output; returns tag -> output."""
    paths = runner.files(item["files"])
    outs = {}
    for st in item["steps"]:
        out = runner.call(item, st["argv"], paths)
        st["expect"] = out
        for name in st.get("makes", ()):
            st.setdefault("expect_files", {})[name] = read_text(
                os.path.join(runner.dir, f"{name}.pts")
            )
        outs[st["tag"]] = out
    return outs


def config_points(rng: random.Random, kind: str, n: int) -> list[tuple[int, int]]:
    if kind == "random":
        pts: set[tuple[int, int]] = set()
        while len(pts) < n:
            pts.add((rng.randrange(60), rng.randrange(60)))
        return sorted(pts)
    grid = [(x, y) for x in range(6) for y in range(6)]
    return sorted(rng.sample(grid, n))


def region_paths(rng: random.Random, pts) -> tuple[list[int], list[int]]:
    """Floor = lower hull, ceiling = upper hull, one interior corner dropped."""
    from tripoly.planar import Configuration

    cfg = Configuration(pts)
    index = {p: i for i, p in enumerate(cfg.points)}
    floor = [index[p] for p in cfg.lower_boundary()]
    ceiling = [index[p] for p in cfg.upper_boundary()]
    if len(ceiling) > 2:
        del ceiling[rng.randrange(1, len(ceiling) - 1)]
    else:
        del floor[rng.randrange(1, len(floor) - 1)]
    return floor, ceiling


def config_item(rng: random.Random, runner: Runner, stratum, kind, n, i) -> dict | None:
    from tripoly.planar import Configuration

    pts = config_points(rng, kind, n)
    if Configuration(pts).all_collinear():
        return None
    floor, ceiling = region_paths(rng, pts)
    path = ["--floor", ",".join(map(str, floor)), "--ceiling", ",".join(map(str, ceiling))]
    flags = [rng.random() < 0.3 for _ in range(4)]
    item = {
        "id": f"{stratum}-{i}",
        "stratum": stratum,
        "scalable": True,
        "files": {"cfg": pts},
        "steps": [
            step("maxcount", ["maxcount", "@cfg"], flags[0]),
            step("region-max", ["region", "@cfg", *path, "--maximal"], flags[1]),
            step("poly", ["poly", "@cfg"], flags[2]),
            step("region", ["region", "@cfg", *path], flags[3]),
        ],
    }
    outs = run_steps(runner, item)
    check(
        leading(s_terms(outs["poly"])) == count_of(outs["maxcount"]),
        item, "poly leading coefficient differs from maxcount",
    )
    check(
        leading(s_terms(outs["region"])) == count_of(outs["region-max"]),
        item, "region leading coefficient differs from region --maximal",
    )
    scaled = runner.files(item["files"], SCALE)
    for st in item["steps"]:
        out = runner.call(item, st["argv"], scaled)
        check(out == st["expect"], item, f"scaled copy differs on {st['tag']}")
    if n <= ORACLE_LIMIT:
        paths = runner.files(item["files"])
        out = runner.call(item, ["oracle", "@cfg"], paths)
        check(s_terms(out) == s_terms(outs["poly"]), item, "oracle differs from poly")
        out = runner.call(item, ["oracle-region", "@cfg", *path], paths)
        check(s_terms(out) == s_terms(outs["region"]), item, "oracle-region differs")
    return item


def random_edge(rng: random.Random, w: int) -> list[tuple[int, int]]:
    return [(0, 0)] + [(i, rng.randint(-3, 3)) for i in range(1, w)] + [(w, 0)]


def edge_item(rng: random.Random, runner: Runner, stratum, method, w, i) -> dict:
    from tripoly.planar import NearEdge, convex_profile, factorize, profile_realization

    if method == "convex":
        pts = list(profile_realization([rng.choice((1, -1)) for _ in range(w - 1)]).points)
        tags = [("edge-convex", "convex"), ("edge-auto", "auto")]
        others = ["tm"]
    else:
        while True:
            pts = random_edge(rng, w)
            if len(factorize(NearEdge(pts))) == 1:
                break
        tags = [(f"edge-{method}", method)]
        others = [m for m in ("roofs", "tm", "auto") if m != method]
        if convex_profile(NearEdge(pts)) is not None:
            others.append("convex")
    flag = rng.random() < 0.3
    item = {
        "id": f"{stratum}-{i}",
        "stratum": stratum,
        "files": {"edge": pts},
        "steps": [
            step(tag, ["edgepoly", "@edge", "--method", m], flag) for tag, m in tags
        ],
    }
    outs = run_steps(runner, item)
    first = next(iter(outs.values()))
    for out in outs.values():
        check(out == first, item, "edge methods disagree")
    paths = runner.files(item["files"])
    for m in others:
        t0 = time.perf_counter()
        out = runner.call(item, step("x", ["edgepoly", "@edge", "--method", m], flag)["argv"], paths)
        check(out == first, item, f"method {m} disagrees")
        print(f"  {item['id']}: {m} cross-check {time.perf_counter() - t0:.1f} s", flush=True)
    return item


def gon_item(rng: random.Random, runner: Runner, stratum, k, realize, i) -> dict | None:
    from tripoly.neargon import NearGon
    from tripoly.neargon import realize as realize_gon
    from tripoly.planar import NearEdge

    hi = 5 if realize else 7
    edges = [random_edge(rng, rng.randint(3, hi)) for _ in range(k)]
    if realize:
        try:
            realize_gon(NearGon([NearEdge(e) for e in edges]))
        except ValueError:
            return None
    names = [f"@e{j}" for j in range(k)]
    flags = [rng.random() < 0.3 for _ in range(3)]
    steps = [
        step("neargon", ["neargon", *names], flags[0]),
        step("neargon-max", ["neargon", *names, "--maximal"], flags[1]),
    ]
    if realize:
        steps.append(step("realize", ["realize", *names, "-o", "@gon"], False))
        steps[-1]["makes"] = ["gon"]
        steps.append(step("realize-maxcount", ["maxcount", "@gon"], flags[2]))
    item = {
        "id": f"{stratum}-{i}",
        "stratum": stratum,
        "files": {f"e{j}": e for j, e in enumerate(edges)},
        "steps": steps,
    }
    outs = run_steps(runner, item)
    top = count_of(outs["neargon-max"])
    check(leading(s_terms(outs["neargon"])) == top, item, "neargon leading differs")
    if realize:
        check(count_of(outs["realize-maxcount"]) == top, item, "realized maxcount differs")
        paths = runner.files(item["files"])
        out = runner.call(item, ["poly", "@gon"], paths)
        check(s_terms(out) == s_terms(outs["neargon"]), item, "realized poly differs")
        if sum(len(e) - 1 for e in edges) <= ORACLE_LIMIT:
            out = runner.call(item, ["oracle", "@gon"], paths)
            check(s_terms(out) == s_terms(outs["neargon"]), item, "oracle differs")
    return item


def weighted_item(rng: random.Random, runner: Runner, stratum, sides, i, seen) -> dict | None:
    ws = tuple(sorted(rng.randint(5, 23) for _ in range(sides)))
    if ws in seen:
        return None
    seen.add(ws)
    order = [str(w) for w in rng.sample(ws, len(ws))]
    flags = [rng.random() < 0.3 for _ in range(2)]
    item = {
        "id": f"{stratum}-{i}",
        "stratum": stratum,
        "files": {},
        "steps": [
            step("weighted", ["weighted", *order], flags[0]),
            step("weighted-max", ["weighted", *order, "--maximal"], flags[1]),
        ],
    }
    outs = run_steps(runner, item)
    check(
        leading(s_terms(outs["weighted"])) == count_of(outs["weighted-max"]),
        item, "weighted leading differs from --maximal",
    )
    return item


def fill(stratum, make) -> list[dict]:
    """The stratum's main and held-out items, made with its own generator."""
    size = max(strata.get(stratum, 0) for _, strata in WORKLOADS.values())
    rng = random.Random(f"{POOL_SEED}/{stratum}")
    items: list[dict] = []
    t0 = time.perf_counter()
    while len(items) < 2 * size:
        item = make(rng, len(items))
        if item is not None:
            item["part"] = "main" if len(items) < size else "held-out"
            items.append(item)
    print(f"{stratum}: {len(items)} items pinned in {time.perf_counter() - t0:.1f} s", flush=True)
    return items


def main() -> int:
    cli = import_tripoly().cli
    workdir = os.path.join(WORK, f"pin-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(workdir, cli.run)
    seen: set = set()
    pool: list[dict] = []
    try:
        for stratum, kind, n in CONFIG_STRATA:
            pool += fill(stratum, lambda rng, i: config_item(rng, runner, stratum, kind, n, i))
        for stratum, k, realize in GON_STRATA:
            pool += fill(stratum, lambda rng, i: gon_item(rng, runner, stratum, k, realize, i))
        for stratum, sides in WEIGHTED_STRATA:
            pool += fill(stratum, lambda rng, i: weighted_item(rng, runner, stratum, sides, i, seen))
        for stratum, method, w in EDGE_STRATA:
            pool += fill(stratum, lambda rng, i: edge_item(rng, runner, stratum, method, w, i))
    except PinError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "items": pool}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(pool)} items to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
