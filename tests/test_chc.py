"""Linear expressions: renaming and substitution against the ``Fraction`` sums.
The dependency-graph walk against the searches it replaced."""

import random
from fractions import Fraction

from oracles import (
    reference_backward_targets,
    reference_reachable,
    reference_rename,
    reference_sccs,
    reference_subst,
)

from hornchain.chc import FALSE_PRED, Atom, Clause, LinExpr, Program, _walk, backward_targets
from hornchain.transform import _drop_unreachable

NAMES = ("A", "B", "C", "V26", "X", "Y", "Z")


def lin(const=0, **coeffs):
    return LinExpr.build({v: Fraction(c) for v, c in coeffs.items()}, Fraction(const))


def test_rename_merging_names_adds_coefficients():
    assert lin(X=1, Y=1).rename({"X": "Z", "Y": "Z"}) == lin(Z=2)


def test_rename_cancelling_names_drops_the_zero_coefficient():
    got = lin(3, X=1, Y=-1).rename({"X": "Z", "Y": "Z"})
    assert got == LinExpr.constant(3)
    assert got.coeffs == ()


def test_rename_onto_distinct_names_re_sorts():
    got = lin(1, A=2, B=-1).rename({"A": "Z", "B": "V26"})
    assert got.coeffs == (("V26", Fraction(-1)), ("Z", Fraction(2)))
    # A name mapped onto a variable the expression already has merges.
    assert lin(A=1, B=1).rename({"A": "B", "B": "A"}) == lin(A=1, B=1)
    assert lin(A=1, B=1).rename({"A": "B"}) == lin(B=2)


def _random_expr(rng: random.Random) -> LinExpr:
    coeffs = {
        v: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        for v in rng.sample(NAMES, rng.randint(0, 4))
    }
    return LinExpr.build(coeffs, Fraction(rng.randint(-5, 5), rng.choice((1, 2))))


def test_rename_and_subst_match_the_fraction_sums():
    rng = random.Random(20261018)
    for _ in range(2000):
        e = _random_expr(rng)
        # Not necessarily injective, and may land on names the expression has.
        names = {v: rng.choice(NAMES) for v in rng.sample(NAMES, rng.randint(0, 4))}
        got = e.rename(names)
        assert got == reference_rename(e, names), (e, names)
        assert all(c for _, c in got.coeffs)
        exprs = {v: _random_expr(rng) for v in rng.sample(NAMES, rng.randint(0, 3))}
        got = e.subst(exprs)
        assert got == reference_subst(e, exprs), (e, exprs)
        assert all(c for _, c in got.coeffs)
        variables = {v: LinExpr.var(w) for v, w in names.items()}
        assert e.subst(variables) == e.rename(names)


def _random_graph(rng: random.Random) -> Program:
    """Nullary clauses whose heads and bodies draw a random dependency graph;
    ``false`` heads some clauses of most graphs."""
    preds = [f"p{i}" for i in range(rng.randint(1, 8))]
    heads = preds + [FALSE_PRED] * rng.choice((0, 1, 2))
    clauses = []
    for _ in range(rng.randint(1, 12)):
        head = rng.choice(heads)
        body = [Atom(rng.choice(preds)) for _ in range(rng.randint(0, 3))]
        if head != FALSE_PRED and rng.random() < 0.15:
            body.append(Atom(head))
        clauses.append(Clause(Atom(head), body=tuple(body)))
    return Program(tuple(clauses))


def test_walk_matches_the_searches_it_replaced():
    rng = random.Random(20261019)
    seen = {"self-loop": 0, "unreachable": 0, "no false": 0}
    for _ in range(1500):
        program = _random_graph(rng)
        succs = program.succs
        preds = list(program.arities)
        comps, _ = _walk(program, preds)
        assert comps == reference_sccs(preds, succs)
        assert backward_targets(program) == reference_backward_targets(program)
        for goal in (FALSE_PRED, rng.choice(preds), "nowhere"):
            reached = {p for comp in _walk(program, (goal,))[0] for p in comp}
            assert reached == reference_reachable(program, goal)
            kept = _drop_unreachable(program, goal)
            assert kept.clauses == tuple(c for c in program.clauses if c.head.pred in reached)
        seen["self-loop"] += any(p in succs[p] for p in preds)
        seen["no false"] += FALSE_PRED not in succs
        seen["unreachable"] += len(reference_reachable(program, FALSE_PRED)) < len(preds)
    assert min(seen.values()) > 100, seen
