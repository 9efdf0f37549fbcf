"""End-to-end pipeline wiring: stages, goal tracking, and configuration."""

import gen
import pytest
import spans
import workcounts
from conftest import FIXTURES, fixture_text
from oracles import reference_compute_thresholds

from hornchain import lincon, pipeline, thresholds
from hornchain.analyzer import AnalysisStats, Verdict, format_model
from hornchain.chc import Clause
from hornchain.parser import parse_program
from hornchain.pipeline import PipelineConfig, run_pipeline
from hornchain.thresholds import format_thresholds


def test_full_pipeline_on_worked_example(twophase, twophase_model_text):
    res = run_pipeline(twophase)
    assert res.verdict is Verdict.SAFE
    assert [name for name, _ in res.stages] == ["input", "raf", "unfold", "qa", "split"]
    assert res.goal == "false_ans"
    assert format_model(res.model) == twophase_model_text
    assert len(res.thresholds) > 0


def test_scaled_example_same_iteration_counts(twophase, twophase_scaled):
    a = run_pipeline(twophase)
    b = run_pipeline(twophase_scaled)
    assert b.verdict is Verdict.SAFE
    assert a.stats == b.stats


def test_stage_skips_change_goal_and_stages(twophase):
    cfg = PipelineConfig(raf=False, unfold=False, qa=False, split=False)
    res = run_pipeline(twophase, cfg)
    assert [name for name, _ in res.stages] == ["input"]
    assert res.goal == "false"


def test_skip_thresholds_still_proves_worked_example(twophase):
    res = run_pipeline(twophase, PipelineConfig(thresholds=False))
    assert res.verdict is Verdict.SAFE
    assert len(res.thresholds) == 0


def test_partial_pipeline_is_sound_on_safe_program():
    p = parse_program("p(A) :- A = 1.\nfalse :- A = 2, p(A).\n")
    for cfg in (
        PipelineConfig(),
        PipelineConfig(raf=False),
        PipelineConfig(unfold=False),
        PipelineConfig(qa=False),
        PipelineConfig(split=False),
        PipelineConfig(raf=False, unfold=False, qa=False, split=False, thresholds=False),
    ):
        assert run_pipeline(p, cfg).verdict is Verdict.SAFE


def test_unsafe_program_never_reported_safe():
    p = parse_program("p(A) :- A = 1.\nfalse :- A = 1, p(A).\n")
    for cfg in (PipelineConfig(), PipelineConfig(qa=False, split=False)):
        assert run_pipeline(p, cfg).verdict is Verdict.UNKNOWN


def test_custom_goal_predicate():
    p = parse_program("p(A) :- A = 1.\nbad(A) :- A = 2, p(A).\n")
    res = run_pipeline(p, PipelineConfig(goal="bad"))
    assert res.verdict is Verdict.SAFE
    assert res.goal == "bad_ans"


def test_stats_fields(twophase):
    st = run_pipeline(twophase).stats
    assert isinstance(st, AnalysisStats)
    assert st.passes >= st.updates >= st.widenings >= 0


def _shape(clause):
    return clause.constr, clause.head.args, tuple(b.args for b in clause.body)


def test_each_clause_is_prepared_once_per_run(monkeypatch):
    # Splitting, harvesting's three steps and the analysis read one prepared
    # form per clause shape: a split variant differs from its source clause
    # in predicate names only and shares the source's form.  A fresh clause
    # that compares equal gets an equal form.
    prepared = []
    used = []
    prepare = lincon._clause_rows

    def counting_prepare(clause):
        prepared.append(clause)
        return prepare(clause)

    def recording(stage):
        def run(program, *args):
            used.extend(program.clauses)
            return stage(program, *args)

        return run

    monkeypatch.setattr(lincon, "_clause_rows", counting_prepare)
    for name in ("compute_thresholds", "analyze"):
        monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))
    res = run_pipeline(parse_program(fixture_text("twophase.chc")))
    assert format_model(res.model) == fixture_text("twophase_model.txt")
    distinct = {id(c): c for c in used}
    sources = {_shape(c): c for c in prepared}
    assert len(distinct) == 30
    assert len(prepared) == len(sources) == len({_shape(c) for c in distinct.values()}) == 9
    assert all(c in dict(res.stages)["qa"].clauses for c in prepared)
    for c in distinct.values():
        assert c.rows is sources[_shape(c)].rows
    # Each fresh copy is prepared on its own, and to the same form.
    for c in distinct.values():
        fresh = Clause(c.head, c.constr, c.body)
        assert fresh == c and fresh.rows == c.rows
    assert len(prepared) == 9 + len(distinct)


def test_each_prepared_form_projects_its_top_fact_step_once():
    # A step from no body rows (a clause with no body, or top facts alone)
    # depends on the prepared form alone, and the form takes it once
    # (lincon._Prepared.top): split, the harvest and the analysis all read
    # it, so each distinct form eliminates it once in a run, and every later
    # step from no body rows, in any of the three, reads the kept step.  On
    # twophase split takes it for seven forms, and the analysis for one
    # more, the fact false_query___1, whose predicate has one clause and so
    # gets no projection in split; the harvest's 30 such steps and the
    # analysis's second one read kept steps.  workcounts.counting stages
    # split_predicates, the harvest's _head_facts and analyze.
    with workcounts.counting() as work:
        res = run_pipeline(parse_program(fixture_text("twophase.chc")))
        assert len(res.thresholds) == 30  # harvests every predicate
    assert format_model(res.model) == fixture_text("twophase_model.txt")
    assert len({id(form) for form in work.tops}) == len(work.tops)

    def by_stage(key):
        return {k[0]: c for k, c in work.n.items() if isinstance(k, tuple) and k[1] == key}

    assert by_stage("top steps") == {"split_predicates": 7, "analyze": 1}
    assert by_stage("top reads") == {"split_predicates": 7, "_head_facts": 30, "analyze": 2}


def test_no_harvest_without_widening(monkeypatch):
    # Seed-0 random-small program 013 never widens, so the run harvests no
    # predicate; asking for the full set afterwards harvests all of it.
    harvested = []
    head_facts = thresholds._head_facts

    def counting(program, p, *args):
        harvested.append(p)
        return head_facts(program, p, *args)

    monkeypatch.setattr(thresholds, "_head_facts", counting)
    (case,) = [c for c, _ in gen.instance("random-small", 0) if c.name == "random-small/013"]
    res = run_pipeline(parse_program(case.text()))
    assert res.stats.widenings == 0 and harvested == []
    ref = reference_compute_thresholds(res.stages[-1][1])
    assert len(res.thresholds) == len(ref) == 18
    assert res.thresholds == ref
    assert len(harvested) == 16


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.chc")), ids=lambda p: p.name)
def test_dumped_thresholds_are_the_full_set(path):
    # ``verify --dump`` prints the run's thresholds after the analysis read
    # what it widened with; the print is the whole final program's set.
    res = run_pipeline(parse_program(path.read_text()))
    final = res.stages[-1][1]
    want = format_thresholds(reference_compute_thresholds(final), final.arities)
    assert format_thresholds(res.thresholds, final.arities) == want


def test_every_traced_name_is_in_its_owner():
    # The benchmark's traced runs wrap each function of ``spans.TRACED`` in
    # place, read from its owner's own ``__dict__``: a name deleted from, or
    # only inherited by, its owner breaks them.
    assert spans.TRACED
    missing = [name for name, owner, attr in spans.TRACED if attr not in owner.__dict__]
    assert missing == []
