"""Command line interface.

``hornchain verify FILE`` runs the full pipeline and prints the model
followed by a final ``VERDICT:`` line; the exit code is 0 for safe, 2 for
unknown, 1 for any error.  The remaining subcommands expose the individual
stages for inspection.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analyzer import Verdict, format_model
from .chc import FALSE_PRED, ChcError, print_program
from .parser import parse_program
from .pipeline import PipelineConfig, run_pipeline
from .thresholds import compute_thresholds, format_thresholds
from .transform import query_answer, raf_filter, split_predicates, unfold_forward

EXIT_SAFE = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _load(path: str):
    return parse_program(Path(path).read_text())


def _cmd_parse(args) -> int:
    sys.stdout.write(print_program(_load(args.file)))
    return EXIT_SAFE


def _cmd_stage(args) -> int:
    sys.stdout.write(print_program(args.stage(_load(args.file), args.goal)))
    return EXIT_SAFE


def _split(program, goal: str):
    """``split_predicates`` in the ``(program, goal)`` shape of the other stages."""
    return split_predicates(program, protected=(goal,))


def _cmd_thresholds(args) -> int:
    program = _load(args.file)
    ts = compute_thresholds(program)
    sys.stdout.write(format_thresholds(ts, program.arities))
    return EXIT_SAFE


def _cmd_verify(args) -> int:
    config = PipelineConfig(
        raf=not args.skip_raf,
        unfold=not args.skip_unfold,
        qa=not args.skip_qa,
        split=not args.skip_split,
        thresholds=not args.skip_thresholds,
        goal=args.goal,
    )
    result = run_pipeline(_load(args.file), config)
    if args.dump:
        stem = Path(args.file)
        for name, program in result.stages:
            if name == "input":
                continue
            out = stem.with_suffix(f".{name}.chc")
            out.write_text(print_program(program))
            print(f"wrote {out}")
        tfile = stem.with_suffix(".thresholds.txt")
        final = result.stages[-1][1]
        tfile.write_text(format_thresholds(result.thresholds, final.arities))
        print(f"wrote {tfile}")
    sys.stdout.write(format_model(result.model))
    sys.stdout.write(f"VERDICT: {result.verdict.value}\n")
    return EXIT_SAFE if result.verdict is Verdict.SAFE else EXIT_UNKNOWN


def _add_goal(p: argparse.ArgumentParser) -> None:
    p.add_argument("--goal", default=FALSE_PRED, help="goal predicate (default: false)")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornchain",
        description="Safety verification for constrained Horn clauses "
        "over linear rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full pipeline and report a verdict")
    p.add_argument("file")
    p.add_argument("--dump", action="store_true", help="write each stage next to the input")
    p.add_argument("--skip-raf", action="store_true", help="skip argument filtering")
    p.add_argument("--skip-unfold", action="store_true", help="skip forward unfolding")
    p.add_argument("--skip-qa", action="store_true", help="skip the query-answer stage")
    p.add_argument("--skip-split", action="store_true", help="skip predicate splitting")
    p.add_argument(
        "--skip-thresholds",
        action="store_true",
        help="widen without threshold bounds",
    )
    _add_goal(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("parse", help="parse, normalize, and print a program")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    for name, stage, help_text in (
        ("raf", raf_filter, "print the argument-filtered program"),
        ("unfold", unfold_forward, "print the forward-unfolded program"),
        ("qa", query_answer, "print the query-answer transformed program"),
        ("split", _split, "print the predicate-split program"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        _add_goal(p)
        p.set_defaults(func=_cmd_stage, stage=stage)

    p = sub.add_parser("thresholds", help="print widening thresholds for a program")
    p.add_argument("file")
    p.set_defaults(func=_cmd_thresholds)

    # ``verify`` with every transformation skipped.
    p = sub.add_parser("analyze", help="analyze a program as-is (no transformations)")
    p.add_argument("file")
    _add_goal(p)
    skips = dict.fromkeys(("skip_raf", "skip_unfold", "skip_qa", "skip_split"), True)
    p.set_defaults(func=_cmd_verify, dump=False, skip_thresholds=False, **skips)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
