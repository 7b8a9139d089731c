"""Per-layer tracing from outside the program.

At run time the public functions of each tripoly module are wrapped in
the namespace that calls them (``tripoly.cli.max_config_count``,
``tripoly.transfer.decode``, ``tripoly.neargon.complete_edge_poly_tm``,
...).  Nothing under ``src/`` is edited.

* A *span* wrapper times a call.  Self time is the call's duration minus
  the time its traced child calls cover.  Spans of the coarse layers are
  kept in memory (name, start, end, parent span, instance) and written
  out when the pass ends; the hot leaves (``roofs.successors``,
  ``planar.path_corners``) only add to their totals, because a record per
  call would cost more memory than the sweep itself.
* A *count* wrapper only counts calls, for tiny hot functions such as
  ``orient`` and ``decode``; their time stays with the caller.
* The sweep entry points also get a counting ``trace=`` callback, which
  sees every state vector V_k.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._acc: list[float] = []  # child time of each open span
        self._ids: list[int] = [-1]  # open recorded spans
        self.inst = -1

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn, record: bool = True, before=None, after=None):
        acc, ids, calls, self_s, spans = (
            self._acc, self._ids, self.calls, self.self_s, self.spans,
        )

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if record:
                sid = len(spans)
                spans.append(None)
                ids.append(sid)
            acc.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                self_s[name] += dur - acc.pop()
                calls[name] += 1
                if acc:
                    acc[-1] += dur
                if record:
                    ids.pop()
                    spans[sid] = (name, t0, t1, ids[-1], self.inst)
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sweep(self, fn):
        """Span for a transfer entry point, with a counting trace callback."""
        counts = self.counts

        def observe(k, vec, w):
            counts["transfer.states"] += len(vec)
            counts["transfer.steps"] += 1
            counts["transfer.payoffs"] += len(w)
            if len(vec) > counts["transfer.frontier_peak"]:
                counts["transfer.frontier_peak"] = len(vec)

        timed = self.span("transfer", fn)

        def wrapper(*args, trace=None, **kwargs):
            if trace is None:
                callback = observe
            else:
                def callback(k, vec, w):
                    observe(k, vec, w)
                    trace(k, vec, w)
            return timed(*args, trace=callback, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from tripoly import cli, exactmath, neargon, planar, roofs, transfer, weighted

        def patch(module, attr, make):
            setattr(module, attr, make(getattr(module, attr)))

        for mod, attr in (
            (cli, "max_config_count"),
            (cli, "complete_config_poly"),
            (cli, "region_poly"),
            (cli, "complete_edge_poly_tm"),
            (neargon, "max_region_count_points"),
        ):
            patch(mod, attr, self.sweep)
        patch(roofs, "successors", lambda f: self.span("roofs.successors", f, record=False))
        patch(transfer, "path_corners", lambda f: self.span("planar.path_corners", f, record=False))
        patch(transfer, "decode", lambda f: self.count("roofs.decode", f))
        patch(roofs, "closed_triangle_empty", lambda f: self.count("roofs.closed_triangle_empty", f))
        patch(neargon, "covering_roofs", lambda f: self.count("roofs.covering_roofs", f))
        for mod in (planar, transfer, roofs):
            patch(mod, "orient", lambda f: self.count("planar.orient", f))

        for attr in ("edge_poly", "compose", "realize"):
            patch(cli, attr, lambda f: self.span("neargon", f))
        for attr in ("weighted_complete_poly", "weighted_max_count"):
            patch(cli, attr, lambda f: self.span("weighted", f))
        counts = self.counts

        def factors(result):
            counts["neargon.factors"] += len(result)

        patch(neargon, "factorize", lambda f: self.span("planar.factorize", f, after=factors))
        patch(neargon, "order_type_equivalent",
              lambda f: self.span("planar.order_type_equivalent", f))
        # each route of _prime_edge_poly, looked up in the neargon namespace
        neargon.complete_edge_poly_tm = self.count(
            "neargon.route_tm", self.sweep(neargon.complete_edge_poly_tm)
        )
        patch(neargon, "convex_edge_complete", lambda f: self.count("neargon.route_convex", f))
        patch(neargon, "complete_edge_basis", lambda f: self.count("neargon.route_straight", f))
        patch(neargon, "covering_roof_edge_poly", lambda f: self.count("neargon.route_roofs", f))

        def terms(args, kwargs):
            a, b = args
            counts["exactmath.mul.terms"] += len(a.c) * (
                1 if isinstance(b, int) else len(getattr(b, "c", ()))
            )

        for cls in (exactmath.PolyT, exactmath.PolyS, exactmath.PolyST, exactmath.PolySUW):
            for attr in ("__mul__", "__rmul__"):
                patch(cls, attr, lambda f: self.span("exactmath.mul", f, before=terms))
        for mod, attrs in (
            (neargon, ("catalan_pair_t", "catalan_pair_st", "series_pair_uw")),
            (weighted, ("catalan_pair_t", "catalan_pair_st")),
            (exactmath.PolySUW, ("pair_w",)),
        ):
            for attr in attrs:
                patch(mod, attr, lambda f: self.span("exactmath.pair", f))

        patch(cli, "load_points", lambda f: self.span("cli.parse", f))
        for attr in ("_json_s", "_json_t", "_json_st", "_json_count"):
            patch(cli, attr, lambda f: self.span("cli.render", f))
        for cls in (exactmath.PolyT, exactmath.PolyS, exactmath.PolyST):
            patch(cls, "text", lambda f: self.span("cli.render", f))

    # -- results --------------------------------------------------------

    def layer_totals(self) -> dict:
        c, s = self.calls, self.self_s
        counts = {
            "transfer.states": self.counts["transfer.states"],
            "transfer.steps": self.counts["transfer.steps"],
            "transfer.frontier_peak": self.counts["transfer.frontier_peak"],
            "transfer.payoffs": self.counts["transfer.payoffs"],
            "transfer.sweeps": c["transfer"],
            "roofs.successors.calls": c["roofs.successors"],
            "roofs.decode.calls": c["roofs.decode"],
            "roofs.closed_triangle_empty.calls": c["roofs.closed_triangle_empty"],
            "roofs.covering_roofs.calls": c["roofs.covering_roofs"],
            "planar.orient.calls": c["planar.orient"],
            "planar.path_corners.calls": c["planar.path_corners"],
            "exactmath.mul.calls": c["exactmath.mul"],
            "exactmath.mul.terms": self.counts["exactmath.mul.terms"],
            "neargon.factors": self.counts["neargon.factors"],
            "neargon.route_tm": c["neargon.route_tm"],
            "neargon.route_convex": c["neargon.route_convex"],
            "neargon.route_straight": c["neargon.route_straight"],
            "neargon.route_roofs": c["neargon.route_roofs"],
        }
        times = {
            "transfer.self_s": s["transfer"],
            "roofs.successors.self_s": s["roofs.successors"],
            "planar.path_corners.self_s": s["planar.path_corners"],
            "planar.factorize.self_s": s["planar.factorize"],
            "planar.order_type_equivalent.self_s": s["planar.order_type_equivalent"],
            "exactmath.mul.self_s": s["exactmath.mul"],
            "exactmath.pair.self_s": s["exactmath.pair"],
            "neargon.self_s": s["neargon"],
            "weighted.self_s": s["weighted"],
            "cli.parse_s": s["cli.parse"],
            "cli.render_s": s["cli.render"],
        }
        return {"counts": counts, "times": times}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, inst) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "instance": inst,
                }) + "\n")
