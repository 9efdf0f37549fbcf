"""Threshold harvesting: consequence steps, caps, and the committed fixture."""

import random
from fractions import Fraction

from bounded import bottom_interpretation

from hornchain import lincon
from hornchain.chc import AtomicConstraint, Constraint, LinExpr, Rel
from hornchain.parser import parse_program
from hornchain.thresholds import (
    ThresholdSet,
    atomconstraints,
    compute_thresholds,
    format_thresholds,
    maximal,
    subsumed_by,
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
    rng = random.Random(20260815)
    for _ in range(60):
        facts = [_random_fact(rng) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 3)):
            f = rng.choice(facts)
            copy = Constraint(tuple(f.conjuncts)) if rng.random() < 0.5 else _variant(rng, f)
            facts.insert(rng.randint(0, len(facts)), copy)
        got = maximal(facts)
        assert [id(f) for f in got] == [id(f) for f in _maximal_by_pairs(facts)]
        assert all(subsumed_by(f, got) for f in facts)


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
