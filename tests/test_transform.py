"""Clause transformations: goldens on the worked example, properties, errors."""

import random

import pytest

from helpers import clause_multiset, same_program
from oracles import reference_unfold_clause, reference_unfold_forward
from randprog import random_program

from hornchain import lincon, transform
from hornchain.chc import ChcError, FALSE_PRED, print_program
from hornchain.parser import parse_program
from hornchain.transform import (
    answer_pred,
    query_answer,
    query_pred,
    raf_filter,
    split_predicates,
    unfold_clause,
    unfold_forward,
)


# -- goldens on the worked example ------------------------------------------------


def test_unfold_golden(twophase, twophase_unfolded):
    assert same_program(unfold_forward(twophase), twophase_unfolded)


def test_query_answer_golden(twophase_unfolded, twophase_qa):
    assert same_program(query_answer(twophase_unfolded), twophase_qa)


def test_split_golden(twophase_qa, twophase_split_query):
    split = split_predicates(twophase_qa)
    got = clause_multiset(split)
    for key, count in clause_multiset(twophase_split_query).items():
        assert got.get(key, 0) == count, key
    assert len(split.clauses) == 30


# -- argument filtering --------------------------------------------------------------


def test_raf_drops_unused_arguments(twophase):
    filtered = raf_filter(twophase)
    assert filtered.arities["new5"] == 1
    assert filtered.arities["new6"] == 1
    assert filtered.arities["new3"] == 2
    assert filtered.arities["new4"] == 2


def test_raf_keeps_goal_nullary(twophase):
    assert raf_filter(twophase).arities[FALSE_PRED] == 0


def test_raf_is_idempotent(twophase):
    once = raf_filter(twophase)
    assert same_program(raf_filter(once), once)


# -- unfolding ------------------------------------------------------------------------


def test_unfold_keeps_only_recursion_heads(twophase, twophase_unfolded):
    preds = set(unfold_forward(twophase).arities)
    assert preds == set(twophase_unfolded.arities) == {"false", "new3"}


def test_unfold_clause_requires_body_atom():
    p = parse_program("p(A) :- A = 1.\nfalse :- A = 2, p(A).\n")
    fact = p.clauses[0]
    with pytest.raises(ChcError):
        unfold_clause(p, fact, 0)


def test_unfold_clause_replaces_atom_with_definitions():
    p = parse_program("p(A) :- A >= 1.\nq(A) :- p(A), A =< 5.\n")
    out = unfold_clause(p, p.clauses[1], 0)
    expect = parse_program("p(A) :- A >= 1.\nq(A) :- A >= 1, A =< 5.\n")
    assert same_program(out, expect)


# -- unfolding by summaries against the reference ------------------------------------


def _chain(n: int) -> str:
    """A definition over ``n`` arguments that an earlier unfolding produces."""
    xs = [f"X{i}" for i in range(n)]
    ys = [f"Y{i}" for i in range(n)]
    steps = ", ".join(f"X{i} = X{i - 1} + 1" for i in range(1, n))
    return (
        f"r({','.join(xs)}) :- X0 >= 0, {steps}.\n"
        f"q({','.join(ys)}) :- r({','.join(ys)}), Y0 =< 5.\n"
        f"false :- q({','.join(ys)}), Y{n - 1} >= {n + 4}.\n"
        f"false :- q({','.join(ys)}), Y{n - 1} >= {n + 5}, Z > Y0, Z < Y1.\n"
    )


HAND_MADE = {
    "repeated call arguments": (
        "p(A,B) :- A >= B + 1.\n"
        "p(A,B) :- A = B, A >= 3.\n"
        "false :- p(X,X), X =< 2.\n"
        "false :- p(X,X), X >= 2.\n"
    ),
    "unsatisfiable own constraint": (
        "p(A) :- A >= 1, A =< 0.\n"
        "p(A) :- A >= 1.\n"
        "q(A) :- p(A), A > 0, A < 0.\n"
        "q(A) :- p(A), A =< 4.\n"
        "false :- q(X).\n"
    ),
    "strict inequalities": (
        "p(A,B) :- A > B, B > 0.\n"
        "p(A,B) :- A >= B, B >= 0.\n"
        "false :- p(X,Y), Y >= X.\n"
        "false :- p(X,Y), X =< 0.\n"
        "false :- p(X,Y), Y < X, 2*Y > X.\n"
    ),
    "more than 26 variables": _chain(30),
    "two unfoldable body atoms": (
        "p(A) :- A >= 0, A =< 3.\n"
        "q(A) :- A >= 2.\n"
        "q(A) :- A =< -1.\n"
        "false :- p(X), q(Y), X + Y >= 6.\n"
        "false :- p(X), q(X).\n"
    ),
    "definition from an earlier unfolding": (
        "s(A) :- A = 0.\n"
        "s(A) :- s(B), A = B + 1.\n"
        "q(A) :- A >= 0.\n"
        "p(A,B) :- q(C), s(B), A = C + B, C =< 2.\n"
        "false :- p(X,Y), X < Y.\n"
        "false :- p(X,Y), X >= Y + 2, X =< 10.\n"
    ),
}


def _assert_unfolds_like_reference(program):
    try:
        expect = reference_unfold_forward(program)
    except ChcError:
        with pytest.raises(ChcError):
            unfold_forward(program)
        return
    got = unfold_forward(program)
    assert got == expect
    assert print_program(got) == print_program(expect)


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_unfold_matches_reference_on_hand_made_cases(name):
    _assert_unfolds_like_reference(parse_program(HAND_MADE[name]))


def test_unfold_matches_reference_on_random_programs():
    rng = random.Random(20261018)
    for _ in range(400):
        _assert_unfolds_like_reference(random_program(rng))


def test_unfold_clause_matches_reference():
    for text in HAND_MADE.values():
        p = parse_program(text)
        for c in p.clauses:
            for at in range(len(c.body)):
                got = unfold_clause(p, c, at)
                expect = reference_unfold_clause(p, c, at)
                assert got == expect
                assert print_program(got) == print_program(expect)


def test_unfold_matches_reference_when_summaries_hit_the_cap(monkeypatch):
    # With the row cap at 1, every summary that needs an inequality
    # eliminated stops at the cap and keeps its constraint's own rows, over
    # every variable; each decision projects them again, so unfolding is
    # still decided on summaries alone.
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    is_satisfiable = lincon.is_satisfiable
    calls = []

    def counted(conjuncts):
        calls.append(None)
        return is_satisfiable(conjuncts)

    project = transform._project
    kept_whole = []

    def recorded(names, rows, keep):
        out = project(names, rows, keep)
        if out is not transform._UNSAT and not set(out[0]) <= keep:
            assert out == (tuple(names), tuple(rows))
            kept_whole.append(out)
        return out

    monkeypatch.setattr(transform, "_project", recorded)
    # Stopped at the cap, p's projection would lose ``A >= 5``, which
    # refutes the call; the rows it keeps still decide the call.
    refuted = parse_program("p(A) :- X >= 5, A >= X, A =< 100.\nfalse :- p(A), A < 3.\n")
    assert unfold_forward(refuted).clauses == ()
    programs = [refuted] + [parse_program(text) for text in HAND_MADE.values()]
    rng = random.Random(20261019)
    programs += [random_program(rng) for _ in range(150)]
    for p in programs:
        try:
            expect = reference_unfold_forward(p)
        except ChcError:
            continue
        monkeypatch.setattr(lincon, "is_satisfiable", counted)
        got = unfold_forward(p)
        monkeypatch.setattr(lincon, "is_satisfiable", is_satisfiable)
        assert got == expect
        assert print_program(got) == print_program(expect)
    assert calls == []
    assert kept_whole


def test_unsatisfiable_definition_has_the_unsatisfiable_summary():
    p = parse_program(
        "p(A,B) :- A >= B + 1, B >= A.\n"
        "p(A,B) :- A = B.\n"
        "q(A) :- A > 0, A < 0, p(A,A).\n"
        "false :- p(X,Y), X >= 3.\n"
        "false :- q(X).\n"
    )
    dead, live, goal = p.clauses[0], p.clauses[1], p.clauses[3]
    assert transform._summary(dead) is transform._UNSAT
    assert transform._summary(p.clauses[2]) is transform._UNSAT
    names, rows = transform._summary(live)
    assert names == ("A", "B") and len(rows) == 1
    _assert_unfolds_like_reference(p)
    # Of the goal's two unfoldings only the live definition's is kept, and
    # the caller whose own constraint is unsatisfiable unfolds to nothing.
    out = unfold_clause(p, goal, 0)
    assert out == reference_unfold_clause(p, goal, 0) and len(out.clauses) == len(p.clauses)
    assert len(unfold_forward(p).clauses) == 1


def test_repeated_call_argument_merges_summary_columns():
    # Bound to p(X,X), ``A >= B + 1`` becomes the ground ``0 >= 1`` and
    # ``A - B >= 0`` the ground ``0 >= 0``, and ``2*A = B + 4`` pins X to 4:
    # only the second unfolding is kept.
    p = parse_program(
        "p(A,B) :- A >= B + 1, A >= 0.\n"
        "p(A,B) :- A >= B, A =< 9.\n"
        "p(A,B) :- 2*A = B + 4.\n"
        "false :- p(X,X), X >= 5.\n"
    )
    _assert_unfolds_like_reference(p)
    out = unfold_forward(p)
    assert len(out.clauses) == 1 and print_program(out).endswith(", A=<9.\n")


def test_unfolding_never_turns_rows_into_atoms(monkeypatch):
    # Summaries stay rows from the clause constraint's projection to the
    # last unfolding, for the whole pass and for one clause alike.
    calls = []
    for name in ("_atom", "project"):
        fn = getattr(lincon, name)
        monkeypatch.setattr(
            lincon, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k)
        )
    programs = [parse_program(text) for text in HAND_MADE.values()]
    rng = random.Random(20261020)
    programs += [random_program(rng) for _ in range(100)]
    unfolded = 0
    for p in programs:
        try:
            unfold_forward(p)
        except ChcError:
            continue
        for c in p.clauses:
            for at in range(len(c.body)):
                unfold_clause(p, c, at)
                unfolded += 1
    assert calls == []
    assert unfolded > 100


# -- query-answer -------------------------------------------------------------------


def test_query_answer_names():
    p = parse_program("p(A) :- A = 1.\nfalse :- A = 1, p(A).\n")
    assert query_pred("p", p) == "p_query"
    assert answer_pred("p", p) == "p_ans"
    out = query_answer(p)
    assert "false_ans" in out.arities
    assert "p_query" in out.arities and "p_ans" in out.arities


def test_query_answer_name_collisions_get_fresh_suffix():
    p = parse_program("p_ans(A) :- A = 1.\np(A) :- p_ans(A).\nfalse :- A = 1, p(A).\n")
    assert answer_pred("p", p) != "p_ans"


def test_query_answer_goal_seed(twophase_unfolded):
    out = query_answer(twophase_unfolded)
    seeds = [c for c in out.clauses if not c.body and c.constr.is_true]
    assert any(c.head.pred == "false_query" for c in seeds)


# -- splitting ----------------------------------------------------------------------


def test_split_always_renames_variants(twophase_qa):
    out = split_predicates(twophase_qa)
    # Even a predicate whose clauses stay together gets the ___1 variant name,
    # so the output namespace never mixes split and unsplit uses.
    assert "new3_query___1" in out.arities
    assert "new3_query___2" in out.arities
    assert "new3_query" not in out.arities


def test_split_protects_goal(twophase_qa):
    out = split_predicates(twophase_qa, ("false_ans",))
    assert "false_ans" in out.arities


def test_split_preserves_clause_structure():
    p = parse_program(
        "p(A) :- A >= 10.\n"
        "p(A) :- A =< -10.\n"
        "false :- A = 0, p(A).\n"
    )
    out = split_predicates(p)
    variants = [q for q in out.arities if q.startswith("p___")]
    assert sorted(variants) == ["p___1", "p___2"]
    # The goal clause is duplicated per variant while `false` keeps its name.
    assert len(out.clauses_for(FALSE_PRED)) == 2


# -- transformation agreement on random programs --------------------------------------


def test_transform_suite_agrees(transform_suite):
    retained, agreements, failures = transform_suite
    assert retained == 200
    assert agreements == 4 * retained
    assert failures == []
