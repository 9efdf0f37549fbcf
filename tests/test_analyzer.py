"""Fixpoint analysis, safety judgement, and bounded concrete evaluation."""

import pytest

from bounded import BudgetExceeded, bounded_concrete_eval

from hornchain.analyzer import (
    AnalysisStats,
    Verdict,
    analyze,
    check_safety,
    format_model,
)
from hornchain.parser import parse_program
from hornchain.pipeline import run_pipeline
from hornchain.polydom import Polyhedron
from hornchain.thresholds import compute_thresholds


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
    # The fact clause's body never changes, so its contribution is built
    # once, however many passes the loop takes.
    p = parse_program(
        "count(A) :- A = 0.\n"
        "count(A) :- B =< 9, A = B+1, count(B).\n"
        "false :- A >= 11, count(A).\n"
    )
    fact = Polyhedron.of(("A",), p.clauses_for("count")[0].constr.conjuncts)
    built = []
    of = Polyhedron.of

    def counting_of(dims, conjuncts):
        poly = of(dims, conjuncts)
        built.append(poly)
        return poly

    monkeypatch.setattr(Polyhedron, "of", staticmethod(counting_of))
    model, stats = analyze(p)
    assert built.count(fact) == 1
    # Rebuilding every contribution on every pass gives the same result.
    assert stats == AnalysisStats(passes=5, updates=4, widenings=1)
    assert format_model(model) == "count(A) :- [1*A>=0]\nfalse :- []\n"


def test_clause_contributions_are_joined_by_one_hull(monkeypatch):
    # Each evaluation joins the old value and every clause contribution,
    # empty ones included, in one n-ary hull call.
    p = parse_program(
        "count(A) :- A = 0.\n"
        "count(A) :- B =< 9, A = B+1, count(B).\n"
        "false :- A >= 11, count(A).\n"
    )
    joined = []
    hull = Polyhedron.hull

    def counting_hull(self, *others):
        joined.append(len(others))
        return hull(self, *others)

    monkeypatch.setattr(Polyhedron, "hull", counting_hull)
    _, stats = analyze(p)
    # Each component has one predicate, so each pass is one evaluation:
    # four of count (two clauses), then one of false (one clause).
    assert joined == [2, 2, 2, 2, 1]
    assert stats.passes == len(joined)


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
