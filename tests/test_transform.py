"""Clause transformations: goldens on the worked example, properties, errors."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from bounded import BoundedResult, bounded_concrete_eval
from helpers import clause_multiset, same_program
from oracles import (
    rational_is_satisfiable,
    rational_project,
    reference_embed,
    reference_unfold_clause,
    reference_unfold_forward,
)
from randprog import random_program
import workcounts

from hornchain import lincon, transform
from hornchain.analyzer import Verdict, analyze, check_safety
from hornchain.chc import (
    FALSE_PRED,
    FALSUM,
    Atom,
    AtomicConstraint,
    ChcError,
    Clause,
    Constraint,
    LinExpr,
    Rel,
    backward_targets,
    canonical_arg_names,
    print_program,
)
from hornchain.parser import parse_program
from hornchain.pipeline import run_pipeline
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
    stranger = parse_program("false :- A = 3, p(A).\n").clauses[0]
    with pytest.raises(ChcError, match="not part of the program"):
        unfold_clause(p, stranger, 0)


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


def test_only_the_summaries_an_unfolding_reads_are_made(monkeypatch):
    # p is the target of the loop's backward edge.  Unfolding q into p's
    # first clause reads that clause's summary and q's definition's, and
    # the joint is the new clause's own.  p's loop clause calls only
    # targets, and so does the goal clause: neither is ever unfolded, so
    # neither is summarized.
    p = parse_program(
        "q(A) :- A = 0.\n"
        "p(A) :- q(A).\n"
        "p(B) :- p(A), B = A + 1.\n"
        "false :- p(A), A < 0.\n"
    )
    summarized = []
    summary = transform._summary

    def recording(clause):
        summarized.append(clause)
        return summary(clause)

    monkeypatch.setattr(transform, "_summary", recording)
    out = unfold_forward(p)
    assert backward_targets(p) == {"p"}
    assert summarized == [p.clauses[1], p.clauses[0]]
    assert print_program(out) == "p(A) :- A=0.\np(A) :- A=B+1, p(B).\nfalse :- A<0, p(A).\n"


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


def _stress_chain(k: int) -> str:
    """``p_0(X) :- X = 0``, two clauses per level adding 1 or 2, and a goal
    that no path reaches: unfolding needs ``2k + 1`` rewrites."""
    return (
        "p0(X) :- X = 0.\n"
        + "".join(
            f"p{i}(Y) :- p{i - 1}(X), Y = X + 1.\np{i}(Y) :- p{i - 1}(X), Y = X + 2.\n"
            for i in range(1, k + 1)
        )
        + f"false :- p{k}(X), X < 0.\n"
    )


def test_unfold_budget_admits_exactly_its_rewrites(monkeypatch):
    p = parse_program(_stress_chain(3))
    monkeypatch.setattr(transform, "_UNFOLD_BUDGET", 7)
    assert unfold_forward(p).clauses == ()
    monkeypatch.setattr(transform, "_UNFOLD_BUDGET", 6)
    with pytest.raises(ChcError, match="rewrite budget"):
        unfold_forward(p)


def test_cfg_chain_front_half_counts():
    # The seed-0 cfg-chain programs, verified as bench/run.py verifies them.
    # Unfolding builds the conjuncts of the clauses that survive its last
    # discard only (10,380 when every unfolding renamed its whole
    # constraint), each of the 428 input summaries is a Gauss-Jordan pass
    # without a projection (856 projections before, 410 now), and one
    # back-substitution per pass takes split's _reduce calls from 4,378 to
    # 2,268.  A summary is made when first read: 18 clauses whose call has
    # no definition left are dropped unread (446 when made up front).  An
    # unfolding summarized again, or a summary made that no unfolding
    # reads, shows up in the first three counts.
    assert workcounts.cfg_chain_front_half() == {
        "summaries": 428,
        "unfold projections": 410,
        "unfold conjuncts": 1282,
        "split reductions": 2268,
    }


def test_joint_projects_the_embedded_summaries():
    # _joint moves both summaries onto the sorted union of their names
    # through lincon._moves with no pivots, which is the embedding, so it is
    # the exact projection of the reference-embedded rows.  A mapping that
    # sends two definition columns to one name, as a call p(X,X) does,
    # merges them, and their coefficients add up.
    pool = ("A", "B", "C", "X", "Y")
    rels = (Rel.EQ, Rel.GE, Rel.GE, Rel.GT)
    rng = random.Random(20261020)
    compared = merged = unsat = 0
    for _ in range(400):
        s_names = tuple(sorted(rng.sample(pool, rng.randint(1, 3))))
        d_names = canonical_arg_names(rng.randint(1, 3))
        mapping = {v: rng.choice(pool) for v in d_names}
        summaries = [
            (names, tuple(
                (tuple([rng.randint(-3, 3) for _ in range(len(names) + 1)]), rng.choice(rels))
                for _ in range(rng.randint(1, 3))
            ))
            for names in (s_names, d_names)
        ]
        keep = set(rng.sample(pool, rng.randint(0, 3)))
        got = transform._joint(*summaries, mapping, keep)
        names = sorted({*s_names, *mapping.values()})
        col = {v: j for j, v in enumerate(names)}
        rows = reference_embed(summaries[0][1], [col[v] for v in s_names], len(names))
        rows += reference_embed(
            summaries[1][1], [col[mapping[v]] for v in d_names], len(names)
        )
        want = rational_project([lincon._atom(names, r, rel) for r, rel in rows], keep)
        if want == (FALSUM,):
            assert got is transform._UNSAT
            unsat += 1
        else:
            kept = tuple([v for v in names if v in keep])
            assert got[0] == kept
            assert tuple([lincon._atom(kept, r, rel) for r, rel in got[1]]) == want
        compared += 1
        merged += len(set(mapping.values())) < len(mapping)
    assert (compared, merged, unsat) == (400, 96, 172)
    # p(A,B) :- A >= B + 1, called as p(X,X): the merged row is 0 >= 1.
    one = ((1, -1, -1), Rel.GE)
    assert transform._joint((("X",), ()), (("A", "B"), (one,)), {"A": "X", "B": "X"}, {"X"}) is (
        transform._UNSAT
    )


def test_summary_skips_the_projection_when_nothing_is_eliminated(monkeypatch):
    # Clauses whose variables are all atom arguments: with at most one
    # inequality the summary is the clause's own rows or _UNSAT, decided by
    # one Gauss-Jordan pass; with two it is still projected.  Either way it
    # is _UNSAT exactly when the constraint is unsatisfiable.
    calls = []
    project_rows = lincon._project_rows
    monkeypatch.setattr(
        lincon, "_project_rows", lambda *a: calls.append(None) or project_rows(*a)
    )
    rng = random.Random(20261026)
    seen = Counter()
    for _ in range(600):
        arity = rng.randint(1, 4)
        args = canonical_arg_names(arity)
        k = rng.choice((0, 1, 2))
        conjuncts = []
        for rel in [Rel.EQ] * rng.randint(0, 3) + [rng.choice((Rel.GE, Rel.GT)) for _ in range(k)]:
            picked = rng.sample(args, rng.randint(1, arity))
            coeffs = {v: Fraction(rng.randint(-2, 2)) for v in picked}
            conjuncts.append(AtomicConstraint(LinExpr.build(coeffs, rng.randint(-4, 4)), rel))
        rng.shuffle(conjuncts)
        head, body = Atom("p", args[:1]), (Atom("q", args[1:]),)
        clause = Clause(head, Constraint(tuple(conjuncts)), body)
        calls.clear()
        summary = transform._summary(clause)
        unsat = not rational_is_satisfiable(conjuncts)
        assert (summary is transform._UNSAT) == unsat, clause
        if k <= 1:
            assert calls == [], clause
            if not unsat:
                names = sorted(clause.vars())
                assert summary == (tuple(names), tuple(lincon._rows(conjuncts, names)[1]))
        else:
            assert calls, clause
        seen[k, unsat] += 1
    assert all(seen[k, unsat] for k in (0, 1, 2) for unsat in (False, True)), seen


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
    seeds = [c for c in out.clauses if not c.body and not c.constr.conjuncts]
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
    out = split_predicates(twophase_qa, "false_ans")
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


def test_split_projects_under_the_row_cap(monkeypatch):
    # p's first clause says A >= 2 only once B and C are eliminated: the
    # first elimination step combines B >= 1 with A >= B + C into one row
    # and passes C >= 1 through, two rows, which a cap of one stops, and
    # the step drops every row with B.  Under that cap the clause projects
    # to no constraint, overlaps A =< 0 and stays in p's one block; under
    # the default cap the two clauses are disjoint and split.  A capped
    # step only widens projections, so it can only merge blocks, and
    # splitting keeps every derivation whatever the blocks: the safe
    # version's goal stays underivable, the mutant's derivable, and no
    # analysis of either split program proves the mutant safe.
    text = (
        "p(A) :- B >= 1, C >= 1, A >= B + C.\n"
        "p(A) :- A =< 0.\n"
        "false :- p(A), A = {}.\n"
    )
    for cap, variants, safe in (
        (lincon.PROJECT_CAP, ["p___1", "p___2"], Verdict.SAFE),
        (1, ["p___1"], Verdict.UNKNOWN),
    ):
        monkeypatch.setattr(lincon, "PROJECT_CAP", cap)
        split = {k: split_predicates(parse_program(text.format(k))) for k in (1, 2)}
        assert sorted(split[1].arities) == ["false", *variants], cap
        verdicts = [check_safety(analyze(split[k])[0]) for k in (1, 2)]
        assert verdicts == [safe, Verdict.UNKNOWN], cap
        assert run_pipeline(parse_program(text.format(2))).verdict is Verdict.UNKNOWN
        monkeypatch.undo()  # bounded evaluation is exact under the default cap
        assert [bounded_concrete_eval(split[k]) for k in (1, 2)] == [
            BoundedResult(derived=False, saturated=True, rounds=2),
            BoundedResult(derived=True, saturated=False, rounds=2),
        ]


# -- transformation agreement on random programs --------------------------------------


def test_transform_suite_agrees(transform_suite):
    retained, agreements, failures = transform_suite
    assert retained == 200
    assert agreements == 4 * retained
    assert failures == []
