"""Verification benchmark for hornchain.

Run from the repository root::

    python3 bench/run.py --workload random-small --seed 1 --seconds 20 --trace 0

One process, one caller, no threads: a closed loop that takes each
generated program in turn through ``parse_program`` -> ``run_pipeline`` ->
``format_model``, which is what ``hornchain verify`` does minus interpreter
start-up.  The program is imported from ``src/`` next to this directory.

``--trace 0`` measures the end-to-end metrics.  Every program is verified
once (fast ones up to three times), then the loop keeps cycling through
the corpus until ``--seconds`` have passed; each program's time is the
median of its samples.  A pass over random-small takes longer than the
default 20 seconds, so those runs measure exactly one pass.

``--trace 1`` verifies the corpus twice with spans around every layer (see
``spans.py``), checks that the two traced passes agree exactly, and prints
the per-layer metrics.  ``trace.corpus_s`` is the traced corpus time; the
tracing overhead is that minus the untraced ``corpus_s``, which
``--workload all`` prints per workload.

The human-readable report goes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--write-expected`` records the verdicts and model digests of the default
corpus in ``expected.json`` instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
SETUP_RUNS = 11
# Each program is sampled up to REPEATS times in a row while its samples
# stay under REPEAT_BUDGET_S in total, so fast programs, whose times are
# the noisiest, get a median of three.
REPEATS = 3
REPEAT_BUDGET_S = 1.0


def setup_seconds() -> float:
    """Median wall time of ``import hornchain`` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hornchain"
    cmd = [sys.executable, "-I", "-c", code]
    subprocess.run(cmd, check=True)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def verify(text: str):
    """One verification; modules are read at call time so spans see it."""
    from hornchain import analyzer, parser, pipeline

    result = pipeline.run_pipeline(parser.parse_program(text))
    return result.verdict.value, analyzer.format_model(result.model)


class Outcomes:
    """Checks each program's verdict and model against what is known."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.seen: dict[str, tuple[str, str]] = {}
        self.failures: dict[str, str] = {}
        self.models_changed: set[str] = set()

    def record(self, case, k: int, verdict: str, model: str) -> None:
        digest = check.model_digest(model, k)
        first = self.seen.setdefault(case.name, (verdict, digest))
        if first != (verdict, digest):
            self.fail(case.name, f"output differs between repeats: {first} vs {(verdict, digest)}")
        if case.witness is not None and verdict == "safe":
            self.fail(case.name, "safe, but the generator knows a violating run")
        exp = self.expected.get(case.name)
        if exp is not None:
            if exp["verdict"] != verdict:
                self.fail(case.name, f"verdict {verdict}, expected {exp['verdict']}")
            if exp["digest"] != digest:
                self.models_changed.add(case.name)

    def fail(self, name: str, reason: str) -> None:
        self.failures.setdefault(name, reason)


def one_pass(cases, outcomes: Outcomes, samples: dict[str, list[float]]) -> float:
    total = 0.0
    for case, k, text in cases:
        t0 = time.perf_counter()
        try:
            verdict, model = verify(text)
        except Exception as exc:  # a crash is a failed program, not a stop
            outcomes.fail(case.name, f"raised {exc!r}")
            continue
        finally:
            dt = time.perf_counter() - t0
            total += dt
            samples.setdefault(case.name, []).append(dt)
        outcomes.record(case, k, verdict, model)
    return total


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution.  It tracks the same quantile as
    a single order statistic but averages the timing noise of its
    neighbours, which matters on corpora of a few dozen programs.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 100 * n
    weights = [0.0] * n
    for j in range(steps):
        t = (j + 0.5) / steps
        weights[j * n // steps] += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` programs beyond it."""
    return max(n - 10, 1) / n


def timed_run(cases, outcomes: Outcomes, seconds: float) -> dict:
    samples: dict[str, list[float]] = {}
    start = time.perf_counter()
    for case in cases:
        spent = one_pass([case], outcomes, samples)
        while len(samples[case[0].name]) < REPEATS and spent < REPEAT_BUDGET_S:
            spent += one_pass([case], outcomes, samples)
    passes = 1
    done = False
    while not done:
        for case in cases:
            if time.perf_counter() - start >= seconds:
                done = True
                break
            one_pass([case], outcomes, samples)
        else:
            passes += 1
    per_program = [statistics.median(v) for v in samples.values()]
    pct = tail_percentile(len(per_program))
    proved = sum(v == "safe" for v, _ in outcomes.seen.values())
    return {
        "corpus_s": (sum(per_program), "s"),
        "verify_p50_s": (quantile(per_program, 0.5), "s"),
        "verify_tail_s": (quantile(per_program, pct), "s"),
        "proved_share": (proved / len(cases), "share"),
        "_tail_pct": 100 * pct,
        "_samples": sum(len(v) for v in samples.values()),
        "_passes": passes,
    }


def traced_run(cases, outcomes: Outcomes) -> tuple[dict, list[str]]:
    import spans

    tracers, totals = [], []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.install():
            totals.append(one_pass(cases, outcomes, {}))
        tracers.append(tracer)
    a, b = (t.deterministic() for t in tracers)
    diffs = [f"{key}: {a.get(key)} vs {b.get(key)}"
             for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
    metrics = tracers[0].metrics()
    second = tracers[1].metrics()
    for key, (value, unit) in metrics.items():
        if unit == "s":
            metrics[key] = ((value + second[key][0]) / 2, unit)
    metrics["trace.corpus_s"] = (statistics.mean(totals), "s")
    metrics["check.models_changed"] = (len(outcomes.models_changed), "count")
    edges = sorted(tracers[0].edges.items(), key=lambda kv: (-kv[1], kv[0]))
    self_s = {name: t for name, t in tracers[0].self_s.items()
              if not name.startswith("polydom.hull.")}
    return {"metrics": metrics, "edges": edges, "traced": totals,
            "self_s": self_s, "hull_dims": {
                key: n for key, n in tracers[0].counts.items() if key.startswith("polydom.hull.dim")
            }}, diffs


def load_expected(workload: str) -> dict:
    """Recorded verdicts and digests, if they were made from this corpus."""
    entry = json.loads(EXPECTED.read_text()).get(workload, {})
    return entry["programs"] if entry.get("corpus_seed") == gen.CORPUS_SEED else {}


def write_expected() -> None:
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for workload in gen.SIZES:
        outcomes = Outcomes({})
        cases = [(c, k, c.text()) for c, k in gen.instance(workload, 0)]
        one_pass(cases, outcomes, {})
        if outcomes.failures:
            raise SystemExit(f"{workload}: {outcomes.failures}")
        data[workload] = {
            "corpus_seed": gen.CORPUS_SEED,
            "programs": {
                name: {"verdict": v, "digest": d}
                for name, (v, d) in sorted(outcomes.seen.items())
            },
        }
        print(f"{workload}: {len(cases)} programs recorded", file=sys.stderr)
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """One run: the report lines and the result object."""
    cases = [(c, k, c.text()) for c, k in gen.instance(workload, seed)]
    outcomes = Outcomes(load_expected(workload))
    for case, _, _ in cases:
        if case.witness is not None and not gen.replay(case):
            outcomes.fail(case.name, "the generator's violating run does not replay")

    report: list[str] = []
    diffs: list[str] = []
    if trace:
        traced, diffs = traced_run(cases, outcomes)
        metrics = traced["metrics"]
        report += [f"traced passes differ: {diff}" for diff in diffs]
        report.append("traced passes " + ", ".join(f"{t:.3f} s" for t in traced["traced"]))
        busiest = sorted(traced["self_s"].items(), key=lambda kv: -kv[1])
        report.append("self time by span, share of the traced pass:")
        report += [f"  {name}: {t:.3f} s ({100 * t / traced['traced'][0]:.1f}%)"
                   for name, t in busiest if t > 0]
        report += [f"  {key}: {n}" for key, n in sorted(traced["hull_dims"].items())]
        report.append("span edges (parent > child: calls):")
        report += [f"  {p or '-'} > {c}: {n}" for (p, c), n in traced["edges"]]
    else:
        setup = setup_seconds()
        metrics = timed_run(cases, outcomes, seconds)
        metrics["setup_s"] = (setup, "s")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss, "MB")
        report.append(f"verify_p50_s and verify_tail_s (p{metrics.pop('_tail_pct'):.1f}) are "
                      f"Harrell-Davis estimates over {len(cases)} per-program medians")
        report.append(f"{metrics.pop('_samples')} verify calls in "
                      f"{metrics.pop('_passes')} full passes")

    failed = len(outcomes.failures)
    attempted = len(cases)
    report.append(f"workload {workload}, seed {seed}, trace {int(trace)}: {attempted} "
                  f"programs attempted, {failed} failed (failed_share "
                  f"{failed / attempted:.4f}), {len(outcomes.models_changed)} models changed")
    report += [f"FAILED {name}: {reason}" for name, reason in sorted(outcomes.failures.items())]
    report += [f"model changed: {name}" for name in sorted(outcomes.models_changed)]
    report += [f"{key} = {value:.6g} {unit}" for key, (value, unit) in sorted(metrics.items())]
    result = {
        "correct": not outcomes.failures and not diffs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' for every workload in both modes")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "hornchain" / "__init__.py").is_file():
        print(f"bench: no hornchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hornchain

    if Path(hornchain.__file__).resolve().parent != SRC / "hornchain":
        print(f"bench: imported hornchain from {hornchain.__file__}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in gen.SIZES:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(gen.SIZES)} or 'all'", file=sys.stderr)
        return 2
    if args.write_expected:
        write_expected()
        return 0

    if args.workload != "all":
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overheads = []
    for workload in gen.SIZES:
        for trace in (False, True):
            report, result = measure(workload, args.seed, args.seconds, trace)
            print("\n".join(report) + "\n")
            combined["correct"] = combined["correct"] and result["correct"]
            if not trace:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{workload}/{key}"] = value
        m = combined["metrics"]
        overhead = m[f"{workload}/trace.corpus_s"]["value"] - m[f"{workload}/corpus_s"]["value"]
        m[f"{workload}/trace.overhead_s"] = {"value": overhead, "unit": "s"}
        overheads.append(f"{workload}: tracing overhead {overhead:+.3f} s "
                         f"(traced minus untraced corpus_s)")
    print("\n".join(overheads))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
