"""Command line behavior: exit codes, output shape, stage dumps."""

import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES, fixture_text

from hornchain.chc import print_program
from hornchain.cli import main
from hornchain.transform import query_answer, raf_filter, split_predicates, unfold_forward

EXAMPLE = str(FIXTURES / "twophase.chc")


def test_verify_safe_prints_model_and_verdict(capsys, twophase_model_text):
    assert main(["verify", EXAMPLE]) == 0
    out = capsys.readouterr().out
    assert out == twophase_model_text + "VERDICT: safe\n"


def test_verify_unknown_exit_code(tmp_path, capsys):
    f = tmp_path / "unsafe.chc"
    f.write_text("p(A) :- A = 1.\nfalse :- A = 1, p(A).\n")
    assert main(["verify", str(f)]) == 2
    assert capsys.readouterr().out.endswith("VERDICT: unknown\n")


def test_missing_file_is_an_error(capsys, tmp_path):
    assert main(["verify", str(tmp_path / "nope.chc")]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_error_reports_position(capsys, tmp_path):
    f = tmp_path / "bad.chc"
    f.write_text("p(A) :- A >= .\n")
    assert main(["verify", str(f)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 1" in err


def test_verify_dump_writes_stages(tmp_path, capsys):
    f = tmp_path / "prog.chc"
    f.write_text(fixture_text("twophase.chc"))
    assert main(["verify", "--dump", str(f)]) == 0
    out = capsys.readouterr().out
    for stage in ("raf", "unfold", "qa", "split"):
        dumped = tmp_path / f"prog.{stage}.chc"
        assert dumped.is_file() and dumped.read_text()
        assert f"wrote {dumped}" in out
    tfile = tmp_path / "prog.thresholds.txt"
    assert tfile.is_file()
    assert f"wrote {tfile}" in out


def test_verify_skip_thresholds_flag(capsys):
    assert main(["verify", "--skip-thresholds", EXAMPLE]) == 0
    assert capsys.readouterr().out.endswith("VERDICT: safe\n")


def test_stage_subcommands_print_programs(capsys, twophase):
    # Each stage subcommand prints what the library transform gives, with
    # the default goal and with --goal.  new5's two clauses are disjoint, so
    # split keeps it whole only when it is the goal.
    assert main(["parse", EXAMPLE]) == 0
    assert capsys.readouterr().out == print_program(twophase)
    stages = {
        "raf": (raf_filter(twophase), raf_filter(twophase, "new5")),
        "unfold": (unfold_forward(twophase), unfold_forward(twophase, "new5")),
        "qa": (query_answer(twophase), query_answer(twophase, "new5")),
        "split": (split_predicates(twophase), split_predicates(twophase, protected=("new5",))),
    }
    for cmd, (default, goal) in stages.items():
        assert main([cmd, EXAMPLE]) == 0
        assert capsys.readouterr().out == print_program(default), cmd
        assert main([cmd, "--goal", "new5", EXAMPLE]) == 0
        assert capsys.readouterr().out == print_program(goal), cmd
    assert "new5___2(" in print_program(stages["split"][0])
    assert "new5(" in print_program(stages["split"][1])


def test_thresholds_subcommand(capsys, twophase_thresholds_text):
    twophase_unfolded = str(FIXTURES / "twophase_unfolded.chc")
    assert main(["thresholds", twophase_unfolded]) == 0
    assert capsys.readouterr().out == twophase_thresholds_text


def test_analyze_subcommand_no_transformations(capsys, tmp_path):
    f = tmp_path / "simple.chc"
    f.write_text("p(A) :- A = 1.\nfalse :- A = 2, p(A).\n")
    assert main(["analyze", str(f)]) == 0
    assert capsys.readouterr().out.endswith("VERDICT: safe\n")


def test_analyze_is_verify_with_every_transformation_skipped(capsys, tmp_path):
    unknown = tmp_path / "unknown.chc"
    unknown.write_text("p(A) :- A = 1.\np(B) :- p(A), B = A + 1.\nfalse :- p(A), A >= 5.\n")
    files = sorted(str(f) for f in FIXTURES.glob("*.chc")) + [str(unknown)]
    skips = ["--skip-raf", "--skip-unfold", "--skip-qa", "--skip-split"]
    codes = []
    for f in files:
        code = main(["analyze", f])
        out = capsys.readouterr().out
        assert main(["verify", *skips, f]) == code, f
        assert capsys.readouterr().out == out, f
        codes.append(code)
    assert codes[-1] == 2 and 0 in codes


def test_custom_goal_flag(capsys, tmp_path):
    f = tmp_path / "goal.chc"
    f.write_text("p(A) :- A = 1.\nbad(A) :- A = 2, p(A).\n")
    assert main(["verify", "--goal", "bad", str(f)]) == 0


def test_module_entry_point_subprocess(twophase_model_text):
    proc = subprocess.run(
        [sys.executable, "-m", "hornchain.cli", "verify", EXAMPLE],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == twophase_model_text + "VERDICT: safe\n"
