"""Threshold harvesting: consequence steps, caps, and the committed fixture."""

import random
from fractions import Fraction
from itertools import islice, product

import gen
import pytest
from bounded import bottom_interpretation
from oracles import (
    maximal,
    reference_clause_rows,
    reference_compute_thresholds,
    reference_derive,
    reference_embed,
    reference_prepared,
    reference_tp_step,
    subsumed_by,
)
from randprog import random_program

from hornchain import lincon, thresholds
from hornchain.chc import (
    Atom,
    AtomicConstraint,
    Clause,
    Constraint,
    LinExpr,
    Program,
    Rel,
    canonical_arg_names,
)
from hornchain.parser import parse_program
from hornchain.pipeline import run_pipeline
from hornchain.thresholds import (
    ThresholdSet,
    atomconstraints,
    compute_thresholds,
    format_thresholds,
    top_interpretation,
    tp_step,
)


def ge(const, **coeffs):
    return AtomicConstraint(
        LinExpr.build({v: Fraction(c) for v, c in coeffs.items()}, Fraction(const)),
        Rel.GE,
    )


def test_top_and_bottom_interpretations(twophase_unfolded):
    top = top_interpretation(twophase_unfolded)
    assert set(top) == set(twophase_unfolded.arities)
    assert all(facts == (Constraint.true(),) for facts in top.values())
    bot = bottom_interpretation(twophase_unfolded)
    assert all(facts == () for facts in bot.values())


def test_tp_step_from_bottom_keeps_only_constrained_facts():
    p = parse_program("p(A) :- A = 1.\nq(A) :- p(A), A >= 0.\n")
    step1 = tp_step(p, bottom_interpretation(p))
    assert len(step1["p"]) == 1
    assert step1["q"] == ()  # q needs a p fact first
    step2 = tp_step(p, step1)
    assert len(step2["q"]) == 1
    (fact,) = step2["q"]
    assert lincon.entails_all(fact.conjuncts, (ge(-1, A=1),))  # q's fact implies A>=1


def test_tp_step_discards_unsatisfiable_combinations():
    p = parse_program("p(A) :- A >= 1, A =< 0.\n")
    step = tp_step(p, top_interpretation(p))
    assert step["p"] == ()


def test_tp_step_skips_unsatisfiable_combination_under_row_cap(monkeypatch):
    # The only combination is unsatisfiable, and with a one-row cap its
    # elimination stops before the contradiction shows.
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    p = parse_program("p(A) :- C = 2*B + 10, 3*C >= 3*A + 2*B + 1, 2*A + 3*C >= 1, C =< -10.\n")
    step = tp_step(p, top_interpretation(p))
    assert step["p"] == ()


def test_tp_step_cap_sheds_subsumed_then_truncates():
    p = parse_program(
        "p(A) :- A >= 3.\n"
        "p(A) :- A >= 5.\n"  # subsumed by A >= 3 at the polyhedron level
        "p(A) :- A =< -7.\n"
    )
    capped = tp_step(p, top_interpretation(p), cap=2)
    assert len(capped["p"]) <= 2
    uncapped = tp_step(p, top_interpretation(p))
    assert len(uncapped["p"]) == 3


def test_tp_step_cap_keeps_one_of_equivalent_facts():
    # Past the semantic dedup limit the last two facts are recorded although
    # they are equivalent; shedding must keep one of them, not drop both.
    text = "p(A,B) :- A >= 100.\n"
    text += "".join(f"p(A,B) :- A = {100 + k}, B = {k}.\n" for k in range(1, 25))
    text += "p(A,B) :- A =< 0, B =< 0.\n"
    text += "p(A,B) :- A =< 0, B =< 0, A + B =< 0.\n"
    p = parse_program(text)
    uncapped = tp_step(p, top_interpretation(p))["p"]
    capped = tp_step(p, top_interpretation(p), cap=14)["p"]
    assert len(uncapped) == 27
    assert len(capped) <= 14
    assert all(subsumed_by(f, capped) for f in uncapped)


@pytest.mark.parametrize("before", [2, 3])
def test_semantic_dedup_applies_up_to_its_limit(monkeypatch, before):
    # With the limit at 2, a bucket of exactly 2 facts still drops a later
    # fact that is equivalent to one of them without being identical (its
    # extra row A + B >= 0 is redundant); a bucket of 3 keeps it.
    monkeypatch.setattr(thresholds, "_SEMANTIC_DEDUP_LIMIT", 2)
    text = "p(A,B) :- A >= 1, B >= 1.\n"
    text += "".join(f"p(A,B) :- A =< {k}.\n" for k in range(5, 4 + before))
    text += "p(A,B) :- A >= 1, B >= 1, A + B >= 0.\n"
    program = parse_program(text)
    facts = tp_step(program, top_interpretation(program))["p"]
    assert len(facts) == (2 if before == 2 else 4)


@pytest.mark.parametrize("cap", [1, 2])
def test_tp_cap_stops_before_a_later_clause_reads_its_body(monkeypatch, cap):
    # p's two constraint-only clauses give it 2 facts at step 2.  At cap 1
    # the bucket then holds 2 * cap facts, so the step ends before the third
    # clause, and q, which only that clause calls, is never harvested; at
    # cap 2 the clause is read and q is harvested at step 1.
    monkeypatch.setattr(thresholds, "_TP_CAP", cap)
    program = parse_program(
        "p(A) :- A = 1.\n"
        "p(A) :- A = 2.\n"
        "p(A) :- q(A), A >= 5.\n"
        "q(A) :- A >= 0.\n"
        "false :- p(A), A < 0.\n"
    )
    harvest = compute_thresholds(program).entries
    assert len(harvest.facts("p", 2)) == cap
    assert (("q", 1) in harvest._facts) == (cap == 2)


def _maximal_by_pairs(facts):
    """Brute-force oracle for ``maximal``: compare every pair of facts.

    A fact is dropped when it entails another fact that does not entail it
    back, or an equivalent fact that comes before it.
    """
    kept = []
    for i, f in enumerate(facts):
        subsumed = False
        for j, g in enumerate(facts):
            if i != j and lincon.entails_all(f.conjuncts, g.conjuncts):
                if j < i or not lincon.entails_all(g.conjuncts, f.conjuncts):
                    subsumed = True
                    break
        if not subsumed:
            kept.append(f)
    return kept


def _random_fact(rng):
    atoms = []
    for _ in range(rng.randint(0, 3)):
        coeffs = {v: Fraction(rng.randint(-2, 2)) for v in "AB"}
        expr = LinExpr.build(coeffs, Fraction(rng.randint(-3, 3)))
        atoms.append(AtomicConstraint(expr, rng.choice((Rel.GE, Rel.GE, Rel.GT, Rel.EQ))))
    return Constraint(tuple(atoms))


def _variant(rng, f):
    """A syntactically different fact with the same solutions: conjuncts
    scaled, one of them repeated in relaxed form, and shuffled."""
    atoms = [AtomicConstraint(a.expr.scale(Fraction(rng.randint(2, 3))), a.rel) for a in f]
    if atoms:
        atoms.append(rng.choice(atoms).relax())
    rng.shuffle(atoms)
    return Constraint(tuple(atoms))


def test_maximal_matches_pairwise_oracle():
    # The reference ``maximal`` keeps what the pairwise rule keeps, and the
    # antichain that sheds a capped bucket on rows keeps the same facts in
    # the same order.  In 55 of the 60 lists a fact is shed, and in 32 a kept
    # fact is equivalent to another input fact, so the earliest must win.
    rng = random.Random(20260815)
    order = lincon._layout(2)[0]
    shed = ties = 0
    for _ in range(60):
        facts = [_random_fact(rng) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 3)):
            f = rng.choice(facts)
            copy = Constraint(tuple(f.conjuncts)) if rng.random() < 0.5 else _variant(rng, f)
            facts.insert(rng.randint(0, len(facts)), copy)
        got = maximal(facts)
        assert [id(f) for f in got] == [id(f) for f in _maximal_by_pairs(facts)]
        assert all(subsumed_by(f, got) for f in facts)
        rows = {id(f): tuple(lincon._rows(f.conjuncts, order)[1]) for f in facts}
        shed_rows = thresholds._maximal([rows[id(f)] for f in facts], 2)
        assert shed_rows == [rows[id(f)] for f in got]
        shed += len(got) < len(facts)
        ties += any(
            f is not g
            and lincon.entails_all(f.conjuncts, g.conjuncts)
            and lincon.entails_all(g.conjuncts, f.conjuncts)
            for f in got
            for g in facts
        )
    assert (shed, ties) == (55, 32)


def test_tp_cap_fires_on_a_random_draw(monkeypatch):
    # Draw 59 of the random-program generator floods p.  Uncapped, three
    # steps give 492 facts and 78 thresholds.  Capped, the third step stops
    # at 2 * cap facts and sheds them on rows to the one fact that covers
    # the rest, so no threshold is left.
    rng = random.Random(20260815)
    for _ in range(59):
        random_program(rng)
    program = random_program(rng)
    interp = top_interpretation(program)
    for _ in range(3):
        interp = tp_step(program, interp)
    assert len(interp["p"]) == 492
    assert len(atomconstraints(interp)) == 78

    shed = []
    shed_rows = thresholds._maximal

    def recording(facts, n):
        kept = shed_rows(facts, n)
        shed.append((len(facts), len(kept)))
        return kept

    monkeypatch.setattr(thresholds, "_maximal", recording)
    sizes = []
    interp = ref = top_interpretation(program)
    for _ in range(3):
        interp = tp_step(program, interp, cap=thresholds._TP_CAP)
        ref = reference_tp_step(program, ref, cap=thresholds._TP_CAP)
        assert interp == ref
        sizes.append(len(interp["p"]))
    assert sizes == [4, 25, 1]
    assert shed == [(2 * thresholds._TP_CAP, 1)]
    assert len(compute_thresholds(program)) == 0


def test_atomconstraints_collects_normalized_atomics():
    p = parse_program("p(A) :- 2*A >= 6.\n")
    interp = tp_step(p, top_interpretation(p))
    ts = atomconstraints(interp)
    assert ts.get("p") == (ge(-3, A=1),)
    assert len(ts) == 1


def test_empty_threshold_set():
    ts = ThresholdSet.empty()
    assert len(ts) == 0
    assert ts.get("anything") == ()


def test_thresholds_fixture(twophase_unfolded, twophase_thresholds_text):
    ts = compute_thresholds(twophase_unfolded)
    assert format_thresholds(ts, twophase_unfolded.arities) == twophase_thresholds_text


def test_format_thresholds_lists_predicates_in_name_order(twophase_unfolded):
    ts = compute_thresholds(twophase_unfolded)
    lines = format_thresholds(ts, twophase_unfolded.arities).splitlines()
    names = [line.split(" :- ")[0] for line in lines]
    assert names == sorted(names)
    assert names[0].startswith("false")


def _wide_program(arity):
    """Clauses over one predicate of the given arity whose facts mention
    positions on both sides of ``V26`` in name order."""
    xs = [f"X{i}" for i in range(arity)]
    args = ",".join(xs)
    swapped = ",".join(xs[1:] + xs[:1])
    return parse_program(
        f"p({args}) :- X0 >= 1, X26 = X0 + X21, X21 =< 5, X21 >= X22, X23 = 2*X24,"
        f" X{arity - 1} >= X25.\n"
        f"p({args}) :- p({swapped}), X25 + X26 > X0.\n"
        f"q(Y, Z) :- p({args}), Y = X26 - X0, Z = X22 - X21.\n"
    )


HAND_CASES = {
    "repeated body arguments": parse_program(
        "q(A,B) :- A >= B + 1, A =< 3.\n"
        "q(A,B) :- A = 2*B, B >= -4.\n"
        "q(A,B) :- A + B = 4, 3*A + 3*B >= 2*B.\n"  # in r: 2X - 4 = 0, 4X >= 0
        "r(X) :- q(X,X).\n"
        "s(X,Y) :- q(X,X), q(Y,X), X >= 0.\n"
        "t(A,B,C) :- A + B + C =< 7, A >= 0, B = 1.\n"
        "u(X,Y) :- t(X,X,Y), t(Y,X,X).\n"
    ),
    "arity 27": _wide_program(27),
    "arity 30": _wide_program(30),
    "zero arity": parse_program(
        "z :- 1 >= 0.\n"
        "y :- z, 2 =< 1.\n"
        "w(X,Y) :- z, X = Y.\n"
        "v :- w(X,Y), X >= Y + 1.\n"
    ),
    "body-less clauses": parse_program(
        "p(A,B) :- A >= 3, B = A + 1.\n"
        "p(A,B) :- 2*A >= 6, 2*B = 2*A + 2.\n"  # the same fact, written twice as large
        "p(A,B).\n"
        "q.\n"
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_row_harvest_matches_constraint_reference_on_hand_cases(name):
    program = HAND_CASES[name]
    ref = interp = top_interpretation(program)
    for _ in range(3):
        interp, ref = tp_step(program, interp), reference_tp_step(program, ref)
        assert interp == ref
    assert compute_thresholds(program) == reference_compute_thresholds(program)


def test_row_harvest_matches_constraint_reference_under_one_row_cap(monkeypatch):
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    p = parse_program(
        "p(A) :- C = 2*B + 10, 3*C >= 3*A + 2*B + 1, 2*A + 3*C >= 1, C =< -10.\n"
        "q(A,B) :- A >= 1, B >= A, A + B =< 9, 2*A - B >= -3.\n"
        "r(A) :- q(A,B), q(B,C), C >= A + 1.\n"
    )
    top = top_interpretation(p)
    assert tp_step(p, top) == reference_tp_step(p, top)
    assert compute_thresholds(p) == reference_compute_thresholds(p)


def test_row_harvest_matches_constraint_reference_on_given_facts():
    # Facts with fractional coefficients, and a cap that sheds.
    p = parse_program("r(X,Y) :- q(Y,X), X >= 0.\nq(A,B) :- A >= B.\n")
    half = Fraction(1, 2)
    interp = {
        "q": tuple(
            Constraint((ge(k, A=half, B=-1), ge(-k, B=Fraction(1, 3)))) for k in range(5)
        ),
        "r": (),
    }
    for cap in (None, 2):
        assert tp_step(p, interp, cap) == reference_tp_step(p, interp, cap)


def test_row_harvest_matches_constraint_reference_on_random_programs():
    rng = random.Random(20261018)
    for _ in range(150):
        program = random_program(rng)
        ref = interp = top_interpretation(program)
        for _ in range(3):
            interp = tp_step(program, interp, cap=4)
            ref = reference_tp_step(program, ref, cap=4)
            assert interp == ref
        assert compute_thresholds(program) == reference_compute_thresholds(program)


# -- the on-demand harvest against whole steps --------------------------------


def _whole_steps(program, cap):
    """Each predicate's facts after each of three ``tp_step`` calls, as rows."""
    orders = {p: lincon._layout(k)[0] for p, k in program.arities.items()}
    interp, steps = top_interpretation(program), {}
    for k in (1, 2, 3):
        interp = tp_step(program, interp, cap)
        for p, facts in interp.items():
            steps[p, k] = [tuple(lincon._rows(f.conjuncts, orders[p])[1]) for f in facts]
    return steps


def _per_predicate_matches_whole_steps(program, rng):
    """Ask a fresh harvest for every ``(p, step)`` and every ``get(p)``, once
    in shuffled and once in reversed order, and compare each answer with
    the whole-step facts and the reference thresholds."""
    steps = _whole_steps(program, thresholds._TP_CAP)
    ref = reference_compute_thresholds(program)
    shuffled = list(steps)
    rng.shuffle(shuffled)
    for keys in (shuffled, list(reversed(steps))):
        harvest = compute_thresholds(program).entries
        for p, k in keys:
            assert harvest.facts(p, k) == steps[p, k], (p, k)
        ts = compute_thresholds(program)
        for p in dict.fromkeys(p for p, _ in keys):
            assert ts.get(p) == ref.get(p), p
        assert ts == ref


@pytest.mark.parametrize("cap", [4, thresholds._TP_CAP])
def test_per_predicate_facts_equal_whole_step_facts(monkeypatch, cap):
    # The hand cases and the first 60 draws, ending with draw 59, whose p
    # floods past ``_TP_CAP``.
    monkeypatch.setattr(thresholds, "_TP_CAP", cap)
    shed = []
    shed_rows = thresholds._maximal

    def recording(facts, n):
        kept = shed_rows(facts, n)
        shed.append((len(facts), len(kept)))
        return kept

    monkeypatch.setattr(thresholds, "_maximal", recording)
    draws = random.Random(20260815)
    rng = random.Random(cap)
    for program in [*HAND_CASES.values(), *(random_program(draws) for _ in range(60))]:
        _per_predicate_matches_whole_steps(program, rng)
    if cap == 4:
        assert len(shed) == 38
    else:
        # Only draw 59 sheds: in the whole step and in each of the four
        # harvests, 2 * cap facts down to the one that covers the rest.
        assert shed == [(2 * cap, 1)] * 5


def test_per_predicate_facts_equal_whole_step_facts_under_one_row_cap(monkeypatch):
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    p = parse_program(
        "p(A) :- C = 2*B + 10, 3*C >= 3*A + 2*B + 1, 2*A + 3*C >= 1, C =< -10.\n"
        "q(A,B) :- A >= 1, B >= A, A + B =< 9, 2*A - B >= -3.\n"
        "r(A) :- q(A,B), q(B,C), C >= A + 1.\n"
    )
    _per_predicate_matches_whole_steps(p, random.Random(1))


def test_widening_harvests_within_two_body_edges(monkeypatch, twophase):
    # The analysis reads the thresholds of the predicates it widens, and
    # each read harvests the predicate at step 3, its body predicates at
    # step 2 and theirs at step 1.
    read = []
    get = ThresholdSet.get

    def recording(self, pred):
        read.append(pred)
        return get(self, pred)

    monkeypatch.setattr(ThresholdSet, "get", recording)
    res = run_pipeline(twophase)
    final = res.stages[-1][1]
    harvest = res.thresholds.entries
    assert res.stats.widenings == len(read) > 0
    near = {p: 3 for p in read}
    for k in (2, 1):
        for p in [p for p, step in near.items() if step == k + 1]:
            for q in final.succs[p]:
                near.setdefault(q, k)
    assert {p for p, k in harvest._facts if k == 3} == set(read)
    assert all(near.get(p, 0) >= k for p, k in harvest._facts)
    # Of the 8 predicates only the two query predicates and false_query___1,
    # which they call, are harvested: 8 of the 24 (predicate, step) pairs.
    assert sorted(set(read)) == ["new3_query___1", "new3_query___2"]
    assert (len(harvest._facts), len(final.arities)) == (8, 8)


# -- prepared clauses against the step that eliminates every equality again --


def _derivations_match_reference(program):
    """Check every clause's prepared rows, and every body-fact combination of
    ``compute_thresholds``' three steps, against ``reference_derive``.

    A form that compaction left at full width must have the reference's
    layout, and each derivation from ``Clause.rows``, given the facts over
    their predicates' columns, must equal the reference's derivation from
    the clause constraint's rows and the facts moved by
    ``reference_embed``, and the derivation from the uncut form
    (``reference_prepared``).  Returns the number of derivations compared.
    """
    compared = 0
    interp = top_interpretation(program)
    order = {p: lincon._layout(k)[0] for p, k in program.arities.items()}
    for _ in range(3):
        known = {
            p: [lincon._rows(f.conjuncts, order[p])[1] for f in interp.get(p, ())]
            for p in program.arities
        }
        for clause in program.clauses:
            n, constr, targets, source = reference_clause_rows(clause)
            form, full = clause.rows, reference_prepared(clause)
            assert form.n <= n and len(form.source) == len(source), clause
            if form.n == n:
                assert (form.targets, list(form.source)) == (targets, source), clause
            facts = [known[atom.pred] for atom in clause.body]
            for combo in islice(product(*facts), thresholds._COMBO_BUDGET):
                moved = [reference_embed(f, t, n) for f, t in zip(combo, targets)]
                want = reference_derive(n, constr, source, moved, lincon.PROJECT_CAP)
                assert lincon._derive(form, combo) == lincon._derive(full, combo) == want, (
                    clause,
                    combo,
                )
                compared += 1
        interp = tp_step(program, interp, cap=thresholds._TP_CAP)
    return compared


DERIVE_CASES = {
    **HAND_CASES,
    # r's own equalities say 4 = 3.
    "contradictory equalities": parse_program(
        "p(A) :- A >= 0.\n"
        "r(A) :- p(B), A = B + 1, B = 2, A = 4.\n"
    ),
    # p's constraint pivots C on A = C + D, and the pivot row keeps D,
    # which q's equality D = 3 pivots.
    "body pivot in a constraint pivot row": parse_program(
        "q(C,D) :- C >= 0, D = 3.\n"
        "q(C,D) :- C = 2*D, D =< 1.\n"
        "p(A,B) :- q(C,D), A = C + D, B >= C.\n"
    ),
}


def _fresh(program):
    """``program`` with new clause objects: their prepared forms keep no top
    step taken under another ``PROJECT_CAP``."""
    return Program(tuple([Clause(c.head, c.constr, c.body) for c in program.clauses]))


def test_prepared_derivations_match_reference_on_hand_cases():
    counts = {name: _derivations_match_reference(p) for name, p in DERIVE_CASES.items()}
    assert all(counts.values()), counts
    contradictory = DERIVE_CASES["contradictory equalities"].clauses[1]
    assert contradictory.rows.solved is None
    assert lincon._derive(contradictory.rows, [[((1, 0), Rel.GE)]]) is None
    # The case does what its name says: the body's pivot column D (3) is in
    # the constraint's pivot row and in its substituted inequality.
    form = DERIVE_CASES["body pivot in a constraint pivot row"].clauses[2].rows
    [(pivot, row)] = form.solved
    assert pivot == 2 and row[3] and all(r[3] for r, _ in form.ineqs)


def test_head_out_of_name_order_derives_the_same_set():
    # p(C,B,A): the head's columns come in decreasing order.  The constraint
    # ties A to B and B to C only once D and E are eliminated, so the
    # equalities surface in the implicit-equality loop, which pivots in the
    # head's layout.  Its basis is not the one that pivoting over the
    # clause's columns and then moving the rows gives, but its set is.
    constr = parse_program(
        "h(A,B,C,D,E) :- A >= B + 1, A + D =< B + 1, D >= 0,"
        " B >= C + 2, B + E =< C + 2, E >= 0, A =< 7.\n"
    ).clauses[0].constr
    clause = Clause(Atom("p", ("C", "B", "A")), constr)
    form = clause.rows
    assert list(form.source) == [2, 1, 0]
    got = lincon._derive(form, ())
    assert list(got) == lincon._normal_form(got)
    # The projection onto the clause's columns in order, moved to the head's
    # (the constraint has no equality to resume from).
    assert form.solved == []
    rows, _ = lincon._project_rows([], form.ineqs, form.n, [0, 1, 2], None)
    moved = lincon._normal_form([((r[2], r[1], r[0], r[3]), rel) for r, rel in rows])
    # Over the head's columns (C, B, A): C =< 4, B = C + 2, A = C + 3,
    # against A =< 7, B = A - 1, C = A - 3.
    assert got == (((-1, 0, 0, 4), Rel.GE), ((1, -1, 0, 2), Rel.EQ), ((1, 0, -1, 3), Rel.EQ))
    assert moved == [((1, 0, -1, 3), Rel.EQ), ((0, 1, -1, 1), Rel.EQ), ((0, 0, -1, 7), Rel.GE)]
    assert all(lincon._entailed(got, moved, 3)) and all(lincon._entailed(moved, got, 3))


def test_top_fact_step_is_taken_once_per_form(monkeypatch):
    # The step from top facts alone depends on the prepared form alone, so
    # the form takes it once (lincon._Prepared.top): A >= 2, and every
    # later step from no body rows reads it.  The kept step is not a field
    # of the form, which still equals a fresh one.  It is kept under the
    # cap it was first taken with, so a lowered cap needs fresh forms: one
    # row stops the elimination of B and leaves nothing.
    def fresh():
        return parse_program("p(A) :- q(D), B >= 1, C >= 1, A >= B + C.\n").clauses[0].rows

    taken = []
    shadow_step = lincon._shadow_step

    def recording(form, facts):
        taken.append(form)
        return shadow_step(form, facts)

    monkeypatch.setattr(lincon, "_shadow_step", recording)
    form = fresh()
    top = [() for _ in form.targets]
    full = lincon._derive(form, top)
    assert full == (((1, -2), Rel.GE),)
    assert lincon._derive(form, top) is lincon._derive(form, ()) is form.top is full
    assert taken == [form]
    assert form == fresh() and "top" not in vars(fresh())
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    assert lincon._derive(fresh(), top) == () and lincon._derive(form, top) is full
    assert len(taken) == 2


def test_prepared_derivations_match_reference_under_one_row_cap(monkeypatch):
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    rng = random.Random(20261105)
    programs = [*map(_fresh, DERIVE_CASES.values()), *(random_program(rng) for _ in range(20))]
    assert sum(map(_derivations_match_reference, programs)) == 394


def test_prepared_derivations_match_reference_on_random_programs():
    rng = random.Random(20261104)
    compared = sum(_derivations_match_reference(random_program(rng)) for _ in range(150))
    assert compared == 6955


# -- compact forms and facts moved onto them ------------------------------------


def test_layout_is_computed_once_per_arity():
    # A predicate's layout: its canonical names in name order and the
    # position of each.  Past Z, name order is not position order: V26
    # sorts between U and W, after V.  Every caller only reads it, so one
    # tuple per arity serves them all.
    names, positions = lincon._layout(27)
    assert names[20:24] == ("U", "V", "V26", "W") and positions[20:24] == (20, 21, 26, 22)
    assert [names[k] for k in sorted(range(27), key=positions.__getitem__)] == list(
        canonical_arg_names(27)
    )
    assert lincon._layout(27) is lincon._layout(27)


def test_moved_rows_equal_substituted_embeddings():
    # A fact's row moved through its atom's map (lincon._moves) onto a
    # full-width form equals the row embedded at the atom's columns with
    # the form's pivots substituted out, also when the atom repeats an
    # argument or a pivot sits on one of its columns.
    rng = random.Random(20261020)
    moved = repeated = pivoted = 0
    for _ in range(150):
        for clause in random_program(rng).clauses:
            form = reference_prepared(clause)
            if form.solved is None:
                continue
            pivots = {j for j, _ in form.solved}
            for target, move in zip(form.targets, form.moves):
                repeated += len(set(target)) < len(target)
                pivoted += any(j in pivots for j in target)
                for _ in range(4):
                    r = tuple([rng.randint(-4, 4) for _ in range(len(target) + 1)])
                    [(embedded, _)] = reference_embed([(r, Rel.GE)], target, form.n)
                    [(want, _)] = lincon._substitute(form.solved, [(embedded, False)])
                    assert lincon._move(move, r, form.n + 1) == want, (clause, target, r)
                    moved += 1
    assert (moved, repeated, pivoted) == (2904, 191, 41)


def test_compact_forms_derive_what_full_width_forms_derive():
    # The seed-0 cfg-chain programs as the pipeline leaves them, whose qa
    # clauses carry unfolding's long equality chains.  Compaction drops
    # pivot rows and columns that no step reads and keeps the rest in
    # order, so every step derives the full-width form's rows.
    programs = [
        run_pipeline(parse_program(case.text())).stages[-1][1]
        for case, _ in gen.instance("cfg-chain", 0)
    ]
    clauses = [c for p in programs for c in p.clauses]
    compacted = sum(c.rows.n < reference_clause_rows(c)[0] for c in clauses)
    dropped = sum(reference_clause_rows(c)[0] - c.rows.n for c in clauses)
    compared = sum(map(_derivations_match_reference, programs))
    assert (compared, compacted, dropped) == (941, 86, 2522)


# -- folding a first body fact into the prepared rows ---------------------------


def _traced_derive(form, facts):
    """``lincon._derive``'s result, and the keyed rows, histories included,
    that each elimination in it starts from, in their table's order.  The
    step is taken on a copy of ``form`` with no top step kept, so that it
    always eliminates; the copy keeps the form's table, which a fold hands
    on."""
    copy = lincon._Prepared(form.n, form.source, form.targets, form.solved, form.ineqs)
    copy.__dict__["table"] = form.table
    calls = []
    eliminate = lincon._eliminate

    def recording(table, elim, max_rows):
        calls.append((list(table.items()), list(elim), max_rows))
        return eliminate(table, elim, max_rows)

    lincon._eliminate = recording
    try:
        return lincon._derive(copy, facts), calls
    finally:
        lincon._eliminate = eliminate


def _folds_match_derivations(program):
    """Fold the first fact of every body-fact combination of
    ``compute_thresholds``' three steps into its clause's prepared rows.

    A fold stepped with the other facts must derive what the clause's rows
    derive from all of them, with every elimination on its way starting
    from the same keyed rows, histories included, in the same order, and a
    fold that is None must leave every combination it starts empty.
    Returns the number of combinations compared and of first facts whose
    fold is None.
    """
    compared = dead = 0
    interp = top_interpretation(program)
    order = {p: lincon._layout(k)[0] for p, k in program.arities.items()}
    for _ in range(3):
        known = {
            p: [lincon._rows(f.conjuncts, order[p])[1] for f in interp.get(p, ())]
            for p in program.arities
        }
        for clause in program.clauses:
            if not clause.body:
                continue
            form = clause.rows
            facts = [known[atom.pred] for atom in clause.body]
            folds = [lincon._fold(form, f) for f in facts[0]]
            dead += folds.count(None)
            firsts = {id(f): k for k, f in enumerate(facts[0])}
            for combo in islice(product(*facts), thresholds._COMBO_BUDGET):
                want = _traced_derive(form, combo)
                folded = folds[firsts[id(combo[0])]]
                if folded is None:
                    assert want[0] is None, (clause, combo)
                else:
                    assert _traced_derive(folded, combo[1:]) == want, (clause, combo)
                compared += 1
        interp = tp_step(program, interp, cap=thresholds._TP_CAP)
    return compared, dead


def _fold_programs():
    rng = random.Random(20260815)
    return [*map(_fresh, DERIVE_CASES.values()), *(random_program(rng) for _ in range(60))]


def test_folded_first_fact_derives_what_the_clause_derives():
    counts = [_folds_match_derivations(p) for p in _fold_programs()]
    assert tuple(map(sum, zip(*counts))) == (3347, 39)


def test_folded_first_fact_derives_what_the_clause_derives_under_one_row_cap(monkeypatch):
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    counts = [_folds_match_derivations(p) for p in _fold_programs()]
    assert tuple(map(sum, zip(*counts))) == (2552, 37)


def test_a_step_from_a_fold_keys_only_its_fact_rows(monkeypatch):
    # The fold hands on its keyed table, and a step whose facts bring no
    # equality keys only their rows, into a copy of it, with the history
    # bits after the fold's three rows (A >= 0, -A + 9 >= 0 and q's
    # -A + 5 >= 0).  Keeping A, the step eliminates nothing, so keying is
    # all its _key calls, and no table is built.
    form = parse_program("p(A) :- q(A), r(A), A >= 0, A =< 9.\n").clauses[0].rows
    q_fact, r_fact = [((-1, 5), Rel.GE)], [((1, -1), Rel.GE), ((-1, 3), Rel.GE)]
    folded = lincon._fold(form, q_fact)
    assert len(folded.ineqs) == 3
    keyed = []
    key = lincon._key

    def recording(table, r, s, h):
        keyed.append((tuple(r), s, h))
        return key(table, r, s, h)

    def no_table(ineqs):
        raise AssertionError("a step from a fold keyed the fold's rows again")

    monkeypatch.setattr(lincon, "_key", recording)
    monkeypatch.setattr(lincon, "_table", no_table)
    rows = lincon._shadow_step(folded, [r_fact])
    assert keyed == [((1, -1), False, 1 << 3), ((-1, 3), False, 1 << 4)]
    monkeypatch.undo()
    assert rows == [((1, -1), Rel.GE), ((-1, 3), Rel.GE)]
    assert lincon._derive(folded, [r_fact]) == lincon._derive(form, [q_fact, r_fact])
