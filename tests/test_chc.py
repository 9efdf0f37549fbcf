"""Linear expressions: renaming against the ``Fraction`` sums.
The dependency-graph walk against the searches it replaced.  The one
relation test, ``Rel.holds``.  The value classes' equality, hash, repr
and immutability, and what ``import hornchain`` loads."""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    reference_backward_targets,
    reference_reachable,
    reference_rename,
    reference_sccs,
    reference_subst,
)

import hornchain
from hornchain.analyzer import AbstractModel, AnalysisStats, Verdict
from hornchain.chc import (
    FALSE_PRED,
    Atom,
    AtomicConstraint,
    ChcError,
    Clause,
    Constraint,
    LinExpr,
    Program,
    RawAtom,
    RawClause,
    Rel,
    _walk,
    backward_targets,
)
from hornchain.pipeline import PipelineConfig, PipelineResult
from hornchain.polydom import Polyhedron
from hornchain.thresholds import ThresholdSet
from hornchain.transform import _drop_unreachable

NAMES = ("A", "B", "C", "V26", "X", "Y", "Z")


def lin(const=0, **coeffs):
    return LinExpr.build({v: Fraction(c) for v, c in coeffs.items()}, Fraction(const))


def test_rel_holds_of_each_sign():
    # Each relation at -1, 0 and 1.
    want = {
        Rel.GE: [False, True, True],
        Rel.GT: [False, False, True],
        Rel.EQ: [False, True, False],
    }
    for rel, expected in want.items():
        assert [rel.holds(v) for v in (-1, 0, 1)] == expected, rel
        assert [rel.holds(Fraction(v, 3)) for v in (-1, 0, 1)] == expected, rel


def test_rename_merging_names_adds_coefficients():
    assert lin(X=1, Y=1).rename({"X": "Z", "Y": "Z"}) == lin(Z=2)


def test_rename_cancelling_names_drops_the_zero_coefficient():
    got = lin(3, X=1, Y=-1).rename({"X": "Z", "Y": "Z"})
    assert got == LinExpr((), Fraction(3))
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
        variables = {v: LinExpr.var(w) for v, w in names.items()}
        assert reference_subst(e, variables) == got


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


# One value of each value class; the last three hold dicts, so they do not hash.
_CLAUSE = Clause(Atom("p", ("A",)), Constraint((AtomicConstraint(LinExpr.var("A"), Rel.GE),)))
VALUES = [
    LinExpr((("A", Fraction(2)),), Fraction(-1)),
    AtomicConstraint(LinExpr.var("A"), Rel.GT),
    Constraint(()),
    Atom("p", ("A", "B")),
    _CLAUSE,
    Program((_CLAUSE,)),
    RawAtom("p", (LinExpr.var("A"),)),
    RawClause(RawAtom("p"), (AtomicConstraint(LinExpr.var("A"), Rel.EQ),)),
    Polyhedron(("A",), (((1, 0), Rel.GE),)),
    AnalysisStats(1, 2, 3),
    PipelineConfig(split=False),
    ThresholdSet({"p": ()}),
    AbstractModel({"p": Polyhedron(("A",), ())}),
    PipelineResult(
        Verdict.SAFE, AbstractModel({}), "false", (), ThresholdSet(), AnalysisStats(0, 0, 0)
    ),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_compare_and_hash_as_their_field_tuples(value):
    # What a frozen dataclass gave: equal to a copy built from its fields,
    # unequal to the field tuple itself, hashing as the field tuple (so set
    # and dict orders do not move), and no assignment or deletion.
    fields = tuple(getattr(value, f) for f in value._fields)
    copy = type(value)(*fields)
    assert copy == value and not copy != value
    assert value != fields
    try:
        want = hash(fields)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == want
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], fields[0])
    with pytest.raises(AttributeError):
        delattr(value, value._fields[0])
    with pytest.raises(AttributeError):
        value.other = None


def test_values_of_different_classes_with_equal_fields_are_unequal():
    atom, raw = Atom("p", ("A",)), RawAtom("p", ("A",))
    assert atom != raw and raw != atom
    assert len({atom, raw}) == 2


def test_value_repr_names_the_fields():
    assert repr(AnalysisStats(1, 2, 3)) == "AnalysisStats(passes=1, updates=2, widenings=3)"
    assert repr(Atom("p", ("A",))) == "Atom(pred='p', args=('A',))"


def test_program_compares_by_clauses_and_shows_its_tables():
    program = Program((_CLAUSE,))
    assert hash(program) == hash(((_CLAUSE,),))
    assert repr(program) == f"Program(clauses={(_CLAUSE,)!r}, arities={{'p': 1}}, succs={{'p': ()}})"


def test_program_rejects_a_head_that_repeats_an_argument():
    clause = Clause(Atom("p", ("A", "A")), Constraint(()), ())
    with pytest.raises(ChcError, match="head arguments of p are not distinct"):
        Program((clause,))


def test_import_loads_no_dataclasses():
    # ``dataclasses`` and what it imports took most of ``import hornchain``;
    # a fresh interpreter that imports the package must not load them.
    src = str(Path(hornchain.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import hornchain; print(*set(sys.modules) - before)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = set(proc.stdout.split())
    assert "hornchain" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
