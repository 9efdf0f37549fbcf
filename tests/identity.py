"""Identity digests: one short hash per program of all that the pipeline prints.

The set is the benchmark's three workloads at seeds 0 and 1,
``randprog.random_program(random.Random(i))`` for ``i`` in 0-299, and each
tests/fixtures/*.chc file under each command the CLI runs on a file, named
``fixture/<file>/<command>``: ``verify`` runs the default pipeline,
``unfold``, ``qa`` and ``split`` that stage alone, and ``thresholds`` no
stage, so the result holds what the command prints.  Each run's digest is
the first 16 hex digits of a sha256 over its verdict, ``format_model``,
``repr(AnalysisStats)``, goal, the full threshold set
(``format_thresholds``) and ``print_program`` of every stage, so a change
that keeps all of them keeps every digest.  tests/fixtures/identity.json
holds the committed digests; tests/test_analyzer.py recomputes a slice.

From the repository root, ``python3 tests/identity.py`` rewrites the file,
and ``python3 tests/identity.py --check`` recomputes the whole set, names
every entry whose digest moved and exits 1 if any did.  The whole set
takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: find the package and the generator
    ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen
from randprog import random_program

from hornchain.analyzer import format_model
from hornchain.chc import print_program
from hornchain.parser import parse_program
from hornchain.pipeline import PipelineConfig, PipelineResult, run_pipeline
from hornchain.thresholds import format_thresholds

FIXTURES = Path(__file__).parent / "fixtures"
FILE = FIXTURES / "identity.json"
SEEDS = (0, 1)
DRAWS = 300
# Each CLI command on a file, as the pipeline run whose result holds what it prints.
COMMANDS = {
    "verify": PipelineConfig(),
    "unfold": PipelineConfig(raf=False, qa=False, split=False),
    "qa": PipelineConfig(raf=False, unfold=False, split=False),
    "split": PipelineConfig(raf=False, unfold=False, qa=False),
    "thresholds": PipelineConfig(raf=False, unfold=False, qa=False, split=False),
}


def workload_name(seed: int, case: str) -> str:
    return f"seed{seed}/{case}"


def draw_name(i: int) -> str:
    return f"random/{i}"


def fixture_runs():
    """Each fixture file under each command, as ``(name, program, config)``;
    each run parses its file afresh, as the command does."""
    for path in sorted(FIXTURES.glob("*.chc")):
        for command, config in COMMANDS.items():
            yield f"fixture/{path.name}/{command}", parse_program(path.read_text()), config


def programs():
    """Each run of the set as ``(name, program, config)``."""
    for workload in gen.SIZES:
        for seed in SEEDS:
            for case, _ in gen.instance(workload, seed):
                yield workload_name(seed, case.name), parse_program(case.text()), PipelineConfig()
    for i in range(DRAWS):
        yield draw_name(i), random_program(random.Random(i)), PipelineConfig()
    yield from fixture_runs()


def digest(result: PipelineResult) -> str:
    final = result.stages[-1][1]
    parts = [
        result.verdict.value,
        format_model(result.model),
        repr(result.stats),
        result.goal,
        format_thresholds(result.thresholds, final.arities),
        *(f"{stage}:\n{print_program(program)}" for stage, program in result.stages),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def committed() -> dict[str, str]:
    return json.loads(FILE.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file instead of rewriting it")
    got = {name: digest(run_pipeline(program, config)) for name, program, config in programs()}
    if not parser.parse_args().check:
        FILE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    want = committed()
    moved = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    for name in moved:
        print(f"{name}: committed {want.get(name)}, now {got.get(name)}")
    print(f"{len(moved)} of {len(want)} digests moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
