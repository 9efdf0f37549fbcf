"""Spans around the calls into each layer of ``hornchain``, from outside.

``Tracer.install`` replaces each traced function at the module attribute
its callers look up (``hornchain.pipeline.raf_filter``,
``hornchain.lincon.entails`` and so on), so calls made from inside a layer,
``lincon`` calling ``lincon`` included, pass through the wrappers and the
spans nest.  Spans are folded into totals as they close: per name the call
count, total time and self time (total minus the time covered by child
spans), and per (parent, child) pair the call count.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from hornchain import analyzer, lincon, parser, pipeline, polydom, thresholds

# (span name, owner, attribute).  The owner is where callers look the
# function up; the name says where the function is defined.
TRACED = (
    ("pipeline.run_pipeline", pipeline, "run_pipeline"),
    ("analyzer.format_model", analyzer, "format_model"),
    ("parser.parse_program", parser, "parse_program"),
    ("transform.raf_filter", pipeline, "raf_filter"),
    ("transform.unfold_forward", pipeline, "unfold_forward"),
    ("transform.query_answer", pipeline, "query_answer"),
    ("transform.split_predicates", pipeline, "split_predicates"),
    ("thresholds.compute_thresholds", pipeline, "compute_thresholds"),
    ("thresholds.tp_step", thresholds, "tp_step"),
    ("analyzer.analyze", pipeline, "analyze"),
    ("lincon.is_satisfiable", lincon, "is_satisfiable"),
    ("lincon.entails", lincon, "entails"),
    ("lincon.entails_all", lincon, "entails_all"),
    ("lincon.project", lincon, "project"),
    ("lincon.normalize", lincon, "normalize"),
    ("polydom.of", polydom.Polyhedron, "of"),
    ("polydom.hull", polydom.Polyhedron, "hull"),
    ("polydom.includes", polydom.Polyhedron, "includes"),
    ("polydom.meet", polydom.Polyhedron, "meet"),
    ("polydom.widen_upto", polydom.Polyhedron, "widen_upto"),
)

# Spans reported as metrics: every traced function except ``Polyhedron.meet``,
# which the pipeline never calls.
REPORTED = tuple(name for name, _, _ in TRACED if name != "polydom.meet")
# Spans whose inclusive time is a pipeline stage's time.
STAGE_SPANS = (
    "pipeline.run_pipeline",
    "parser.parse_program",
    "transform.raf_filter",
    "transform.unfold_forward",
    "transform.query_answer",
    "transform.split_predicates",
    "thresholds.compute_thresholds",
    "analyzer.analyze",
)
# Hull dimension buckets; the workloads keep every predicate at arity <= 3.
HULL_BUCKETS = {0: "d0-2", 1: "d0-2", 2: "d0-2", 3: "d3"}
STAGES = {
    "transform.raf_filter": "raf",
    "transform.unfold_forward": "unfold",
    "transform.query_answer": "qa",
    "transform.split_predicates": "split",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        # Deterministic counts read off arguments and results.
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # open spans: [name, time in children]

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)
        if name in STAGES:
            key = f"transform.{STAGES[name]}.clauses_out"

            def observe(parent, args, result, self_s):
                self.counts[key] += len(result.clauses)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]
                self.edges[(parent, name)] += 1
            if observe is not None:
                observe(parent, args, result, dt - frame[1])
            return result

        return traced

    @contextmanager
    def install(self):
        """Trace every function in ``TRACED`` inside the ``with`` block."""
        saved = []
        for name, owner, attr in TRACED:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- observers: counts that only arguments and results show ---------------

    def _on_polydom_hull(self, parent, args, result, self_s):
        dims = len(args[0].dims)
        self.counts[f"polydom.hull.dim{dims}.calls"] += 1
        key = f"polydom.hull.{HULL_BUCKETS.get(dims, 'd4plus')}"
        self.calls[key] += 1
        self.self_s[key] += self_s

    def _on_lincon_is_satisfiable(self, parent, args, result, self_s):
        if parent == "thresholds.tp_step":
            self.counts["harvest.combos"] += 1
            self.counts["harvest.unsat"] += not result

    def _on_parser_parse_program(self, parent, args, result, self_s):
        self.counts["parser.parse_program.clauses_out"] += len(result.clauses)

    def _on_thresholds_compute_thresholds(self, parent, args, result, self_s):
        self.counts["thresholds.count"] += len(result)

    def _on_analyzer_analyze(self, parent, args, result, self_s):
        stats = result[1]
        self.counts["analyzer.passes"] += stats.passes
        self.counts["analyzer.updates"] += stats.updates
        self.counts["analyzer.widenings"] += stats.widenings

    # -- results ----------------------------------------------------------------

    def deterministic(self) -> dict:
        """Everything that must repeat exactly between two traced runs."""
        out = {f"{n}.calls": c for n, c in self.calls.items()}
        out.update(self.counts)
        out.update({f"edge:{p}>{c}": n for (p, c), n in self.edges.items()})
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in STAGE_SPANS:
            out[f"{name}.total_s"] = (self.total_s[name], "s")
        for bucket in sorted(set(HULL_BUCKETS.values())):
            key = f"polydom.hull.{bucket}"
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
        combos = self.counts["harvest.combos"]
        out["lincon.is_satisfiable.unsat_ratio"] = (
            self.counts["harvest.unsat"] / combos if combos else 0.0,
            "ratio",
        )
        out["parser.parse_program.clauses_out"] = (
            self.counts["parser.parse_program.clauses_out"], "count"
        )
        for stage in STAGES.values():
            key = f"transform.{stage}.clauses_out"
            out[key] = (self.counts[key], "count")
        for key in ("thresholds.count", "analyzer.passes", "analyzer.updates",
                    "analyzer.widenings"):
            out[key] = (self.counts[key], "count")
        return out
