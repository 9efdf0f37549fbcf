"""Fixpoint analysis, safety judgement, model checking, and bounded concrete evaluation."""

import hashlib
import random
from pathlib import Path

import gen
import pytest

from bounded import BudgetExceeded, bounded_concrete_eval
from oracles import reference_analyze
from randprog import random_program
import workcounts

from hornchain import analyzer, chc, lincon, pipeline, polydom, thresholds, transform
from hornchain.analyzer import (
    AbstractModel,
    AnalysisStats,
    Verdict,
    analyze,
    check_model,
    check_safety,
    format_model,
)
from hornchain.chc import ChcError, Constraint, Rel, canonical_arg_names, print_program
from hornchain.parser import parse_program
from hornchain.pipeline import run_pipeline
from hornchain.polydom import Polyhedron
from hornchain.thresholds import compute_thresholds, format_thresholds


# -- abstract analysis ---------------------------------------------------------


def test_analyze_trivially_safe_program():
    p = parse_program("p(A) :- A = 1.\nfalse :- A = 2, p(A).\n")
    model, stats = analyze(p)
    assert check_safety(model) is Verdict.SAFE
    assert model.poly("false").is_empty
    assert stats.passes >= 1


def test_analyze_unsafe_program_reports_unknown():
    p = parse_program("p(A) :- A = 1.\nfalse :- A = 1, p(A).\n")
    model, _ = analyze(p)
    assert check_safety(model) is Verdict.UNKNOWN
    assert not model.poly("false").is_empty


def test_analyze_recursive_program_terminates_by_widening():
    p = parse_program(
        "count(A) :- A = 0.\n"
        "count(A) :- B >= 0, A = B+1, count(B).\n"
        "false :- A =< -1, count(A).\n"
    )
    model, stats = analyze(p)
    assert check_safety(model) is Verdict.SAFE
    assert stats.widenings >= 1


def test_thresholds_can_rescue_precision():
    # A bounded loop: without thresholds the upper bound widens away and the
    # goal looks reachable; the harvested bounds keep it.
    p = parse_program(
        "count(A) :- A = 0.\n"
        "count(A) :- B =< 9, A = B+1, count(B).\n"
        "false :- A >= 11, count(A).\n"
    )
    bare_model, _ = analyze(p)
    ts = compute_thresholds(p)
    model, _ = analyze(p, ts)
    assert check_safety(model) is Verdict.SAFE
    assert check_safety(bare_model) is Verdict.UNKNOWN


def test_unchanged_clause_contribution_is_reused(monkeypatch):
    # The fact clause's body never changes, so its contribution, the cone
    # of A = 0, is built once, however many passes the loop takes.
    p = parse_program(
        "count(A) :- A = 0.\n"
        "count(A) :- B =< 9, A = B+1, count(B).\n"
        "false :- A >= 11, count(A).\n"
    )
    fact = Polyhedron.of(("A",), p.clauses_for("count")[0].constr.conjuncts)
    built = []
    build = analyzer.contribution

    def counting_contribution(form, head_dims, body, cones):
        cone = build(form, head_dims, body, cones)
        built.append(cone)
        return cone

    monkeypatch.setattr(analyzer, "contribution", counting_contribution)
    model, stats = analyze(p)
    assert built.count(fact.generators) == 1
    # Rebuilding every contribution on every pass gives the same result.
    assert stats == AnalysisStats(passes=5, updates=4, widenings=1)
    assert format_model(model) == "count(A) :- [1*A>=0]\nfalse :- []\n"


@pytest.mark.parametrize(
    "text, empty, closure",
    [
        # The closure is the line A = B = C, but A - B > 0 is zero on it.
        ("p(A,B,C) :- A > B, B > C, C >= A.\n", True, True),
        # Empty with no opposed pair: keying refutes nothing, and only the
        # closing elimination of a projection refuted it.  The cone keeps
        # the ray of D >= 0, all at t = 0.
        ("p(A,B,C,D) :- A >= B + 1, B >= C + 1, C >= A, D >= 0.\n", True, False),
        # B - A > 0 is zero at the vertex (0, 0) and positive along the ray
        # (0, 1) only.
        ("p(A,B) :- A >= 0, B > A.\n", False, True),
    ],
)
def test_contribution_decides_emptiness_on_its_cone(text, empty, closure):
    # A contribution whose body brings rows takes the elimination half of
    # the step alone and decides emptiness on the cone it builds anyway
    # (analyzer._decided_cone): it is empty when no generator has t > 0, or
    # when a strict row is zero on every ray.  Otherwise its cone is the
    # one the step's canonical rows give.  A clause with no body reads the
    # form's top step, canonical already, and gets the same cone.
    clause = parse_program(text).clauses[0]
    dims = canonical_arg_names(clause.head.arity)
    rows = lincon._shadow_step(clause.rows, ())
    assert rows is not None  # the elimination refutes none of them
    # Whether the closure, every row relaxed, is non-empty.
    assert any(v[-1] for v in polydom._cone(rows, len(dims))[1]) == closure
    canonical = lincon._derive(clause.rows, ())
    decided = analyzer._decided_cone(rows, len(dims))
    got = analyzer.contribution(clause.rows, dims, (), {})
    if empty:
        assert canonical is None and decided is None and got is None
    else:
        assert decided == got == polydom._cone(canonical, len(dims))
        assert any(rel is Rel.GT for _, rel in rows)


def test_clause_contributions_are_joined_by_one_hull(monkeypatch):
    # Each evaluation joins the old value and every non-empty clause
    # contribution, given as its cone, in one n-ary join; an empty
    # contribution is passed as None, which the join skips.
    p = parse_program(
        "count(A) :- A = 0.\n"
        "count(A) :- B =< 9, A = B+1, count(B).\n"
        "false :- A >= 11, count(A).\n"
    )
    joined = []
    join = Polyhedron.join

    def counting_join(self, cones):
        joined.append((self.is_empty, sum(c is not None for c in cones)))
        return join(self, cones)

    monkeypatch.setattr(Polyhedron, "join", counting_join)
    model, stats = analyze(p)
    # Each component has one predicate, so each pass is one evaluation:
    # four of count (two clauses, the loop's empty while count is), then
    # one of false (one clause).
    assert joined == [(True, 1), (False, 2), (False, 2), (False, 2), (True, 1)]
    assert stats == AnalysisStats(passes=len(joined), updates=4, widenings=1)
    assert format_model(model) == "count(A) :- [1*A>=0]\nfalse :- []\n"


def test_a_widened_join_is_never_converted_to_rows(monkeypatch):
    # The widening reads only the generators its join pooled, and the
    # analysis tests the join's result by identity, so no value that the
    # widening replaces has its rows converted.  The value kept instead
    # converts its own when the next pass reads them.
    p = parse_program("p(A) :- A = 0.\np(B) :- p(A), B = A + 1.\nfalse :- p(A), A < 0.\n")
    others, kept = [], []
    widen = Polyhedron.widen_upto

    def recording_widen(self, other, thresholds=()):
        others.append(other)
        kept.append(widen(self, other, thresholds))
        return kept[-1]

    monkeypatch.setattr(Polyhedron, "widen_upto", recording_widen)
    model, stats = analyze(p)
    assert stats == AnalysisStats(passes=5, updates=3, widenings=1) and len(others) == 1
    assert not any("rows" in vars(other) for other in others)
    assert all("rows" in vars(value) for value in kept)
    assert format_model(model) == "p(A) :- [1*A>=0]\n"


def test_loops_poly_verify_path_counts():
    # Three shortcuts leave the harvest few steps to project: folding a
    # settled first body fact into a clause's rows once (265 of the 519
    # folds are empty), taking each prepared form's top step once, on the
    # form, where split, the harvest and the analysis read it (the harvest's
    # 349 top-fact steps project none), and projecting no lone clause in
    # split.  The analysis decides emptiness on the cone of the elimination
    # half alone, and a join whose operand generators all lie inside the old
    # value skips its double description.  A joined value keeps the
    # generators it pooled and converts them to rows only when they are
    # read: a join the widening replaces is never converted.  Each double
    # description takes one null-space pass, over its input lines.
    # workcounts.counting says what each key counts.
    assert workcounts.loops_poly() == {
        "top steps": 98,
        "_derive projections": 1039,
        "_derive memo hits": 349,
        "_derive empty": 658,
        "kept top reads": 361,
        "contribution steps": 782,
        "_fold": 519,
        "dead folds": 265,
        "harvest top-fact steps": 349,
        "harvest top-fact projections": 0,
        "_dual": 561,
        "rows from generators": 204,
        "_reduce": 2882,
        "_key": 8643,
        "_table": 1557,
        "_normal_form": 621,
    }


def test_work_counting_leaves_nothing_patched():
    # workcounts wraps the kernel inside its block only: afterwards, and
    # after a block that raises, every attribute of the modules and classes
    # it patches is the original object, so later tests see the real kernel.
    owners = (lincon, lincon._Prepared, polydom, pipeline, transform, thresholds, chc.AtomicConstraint)
    before = [dict(vars(owner)) for owner in owners]
    with workcounts.counting() as work:
        assert all(dict(vars(owner)) != was for owner, was in zip(owners, before))
        run_pipeline(parse_program("p(A) :- A = 0.\np(B) :- p(A), B = A + 1.\nfalse :- p(A), A < 0.\n"))
        assert pipeline.analyze is not analyzer.analyze
    assert work.n["_derive projections"] and work.n["AtomicConstraint"]
    assert work.n["analyze", "top reads"] and work.n["analyze", "top steps"]
    assert pipeline.analyze is analyzer.analyze
    with pytest.raises(ZeroDivisionError), workcounts.counting():
        1 / 0
    for owner, was in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == was.keys() and all(now[k] is was[k] for k in was), owner


def test_pass_budget_counts_the_passes_of_one_component(monkeypatch):
    # Six one-pass components come before q's loop, which settles in four
    # passes of its own; the whole run takes eleven.
    p = parse_program(
        "p0(A) :- A = 0.\n"
        + "".join(f"p{i}(A) :- p{i - 1}(A).\n" for i in range(1, 6))
        + "q(A) :- p5(A).\n"
        "q(B) :- q(A), B = A + 1, A =< 3.\n"
        "false :- q(A), A >= 10.\n"
    )
    model, stats = analyze(p)
    assert stats == AnalysisStats(passes=11, updates=10, widenings=1)
    monkeypatch.setattr(analyzer, "_MAX_PASSES", 4)
    assert analyze(p) == (model, stats)
    monkeypatch.setattr(analyzer, "_MAX_PASSES", 3)
    with pytest.raises(ChcError, match="pass budget"):
        analyze(p)


def test_model_formatting_matches_committed_model(twophase, twophase_model_text):
    result = run_pipeline(twophase)
    assert format_model(result.model) == twophase_model_text


def test_stats_are_deterministic(twophase):
    a = run_pipeline(twophase).stats
    b = run_pipeline(twophase).stats
    assert a == b == AnalysisStats(passes=a.passes, updates=a.updates, widenings=a.widenings)


# -- bounded concrete evaluation --------------------------------------------------


def test_bounded_eval_derives_goal():
    p = parse_program("p(A) :- A = 0.\nfalse :- A = 0, p(A).\n")
    r = bounded_concrete_eval(p)
    assert r.derived and r.rounds <= 2


def test_bounded_eval_saturates_on_finite_models():
    p = parse_program("p(A) :- A = 1.\nfalse :- A = 2, p(A).\n")
    r = bounded_concrete_eval(p)
    assert not r.derived and r.saturated


def test_bounded_eval_exhausts_depth_without_saturation(twophase):
    r = bounded_concrete_eval(twophase, depth=6)
    assert not r.derived and not r.saturated and r.rounds == 6


def test_bounded_eval_depth_zero_means_no_rounds():
    p = parse_program("false :- 1 >= 0.\n")
    r = bounded_concrete_eval(p, depth=0)
    assert not r.derived and r.rounds == 0


def test_bounded_eval_fact_budget():
    p = parse_program("p(A) :- A = 1.\np(A) :- A = 2.\np(A) :- A = 3.\n")
    with pytest.raises(BudgetExceeded):
        bounded_concrete_eval(p, depth=3, max_facts=2)


def test_bounded_eval_is_exact_under_any_row_cap(monkeypatch):
    # The oracle's step projects exactly, so the row cap of the kernel's
    # consequence step cannot widen its facts: p holds of A >= 2 and of
    # A =< 0, so the goal A = 1 is never derived, and the iteration
    # saturates.  A step capped at one row would derive p(A) for every A.
    p = parse_program(
        "p(A) :- B >= 1, C >= 1, A >= B + C.\n"
        "p(A) :- A =< 0.\n"
        "false :- p(A), A = 1.\n"
    )
    want = bounded_concrete_eval(p)
    assert (want.derived, want.saturated) == (False, True)
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    assert thresholds.tp_step(p, {"p": (Constraint.true(),)})["p"][0] == Constraint.true()
    assert bounded_concrete_eval(p) == want


# -- the atom-path reference and the model checker --------------------------------


def test_analyze_matches_atom_path_reference():
    # The criterion-4 generator's programs, analyzed as the pipeline leaves
    # them (with their thresholds) and as drawn (without): models and stats
    # equal those of the atom-path loop that joins on every evaluation.
    rng = random.Random(20261101)
    compared = widened = 0
    for _ in range(150):
        prog = random_program(rng)
        try:
            res = run_pipeline(prog)
        except ChcError:
            continue
        analyzed = res.stages[-1][1]
        assert (res.model, res.stats) == reference_analyze(analyzed, res.thresholds)
        assert analyze(prog) == reference_analyze(prog)
        compared += 1
        widened += res.stats.widenings > 0
    assert (compared, widened) == (150, 6)


def test_analyze_matches_reference_past_arity_26():
    # Name order is not position order past Z: V26 sorts between U and W.
    args = ",".join(canonical_arg_names(28))
    p = parse_program(
        f"p({args}) :- A = 0, V26 = 5, V27 = Z, Z = 1, W >= 0.\n"
        f"p({args}) :- p(B1,B,C,D,E,F,G,H,I,J,K,L,M,N,O,P,Q,R,S,T,U,V,W,X,Y,Z,V26,V27), "
        "A = B1 + 1, B1 =< 9.\n"
        f"false :- p({args}), A >= 11, V26 >= 6.\n"
    )
    ts = compute_thresholds(p)
    model, stats = analyze(p, ts)
    assert (model, stats) == reference_analyze(p, ts)
    assert check_safety(model) is Verdict.SAFE
    assert check_model(p, model)


def test_check_model_accepts_every_safe_golden():
    # The twophase example, scaled, and as each transformation golden.
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.chc"))
    for path in fixtures:
        result = run_pipeline(parse_program(path.read_text()))
        assert result.verdict is Verdict.SAFE, path.name
        assert check_model(result.stages[-1][1], result.model, result.goal), path.name
    assert len(fixtures) == 5


@pytest.fixture(scope="module")
def workload_runs():
    """The pipeline result of each of the benchmark's seed-0 programs, every workload."""
    return [
        (f"{workload}/{case.name}", run_pipeline(parse_program(case.text())))
        for workload in gen.SIZES
        for case, _ in gen.instance(workload, 0)
    ]


def test_check_model_accepts_every_safe_workload_program(workload_runs):
    checked = 0
    for name, result in workload_runs:
        if result.verdict is Verdict.SAFE:
            assert check_model(result.stages[-1][1], result.model, result.goal), name
            checked += 1
    assert checked == 28


def test_workload_and_fixture_outputs_match_golden(workload_runs):
    # One md5 over what the pipeline prints for the seed-0 workload programs
    # and the fixtures: verdict, model, stats, the final program's
    # thresholds and every stage's program.  CI runs it again under a
    # second hash seed.
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.chc"))
    runs = workload_runs + [(p.name, run_pipeline(parse_program(p.read_text()))) for p in fixtures]
    digest = hashlib.md5()
    for name, result in runs:
        final = result.stages[-1][1]
        parts = [
            name,
            result.verdict.value,
            format_model(result.model),
            repr(result.stats),
            format_thresholds(result.thresholds, final.arities),
            *(f"{stage}:\n{print_program(program)}" for stage, program in result.stages),
        ]
        digest.update("\n".join(parts).encode())
    assert (len(runs), digest.hexdigest()) == (71, "d10d196d84dfba9bab1617cb0d014a51")


def test_check_model_rejects_a_dropped_facet(twophase):
    # Dropping one conjunct from one predicate's polyhedron leaves a model
    # that is no longer inductive in five of the six cases.
    result = run_pipeline(twophase)
    program, model = result.stages[-1][1], result.model
    rejected = []
    for pred, poly in model.polys.items():
        for i in range(len(poly.conjuncts())):
            rest = poly.rows[:i] + poly.rows[i + 1:]
            broken = AbstractModel({**model.polys, pred: Polyhedron(poly.dims, rest)})
            if not check_model(program, broken, result.goal):
                rejected.append((pred, i))
    assert len(rejected) == 5
    assert ("new3_query___1", 1) in rejected  # A =< 50 in the first phase
    # A non-empty goal is rejected too.
    assert not check_model(program, model, "false_query___1")
