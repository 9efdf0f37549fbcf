"""Polyhedral abstract interpretation of CHC programs.

``analyze`` computes, per predicate, a convex polyhedron over-approximating
the set of argument tuples in the program's least model.  Evaluation runs
one strongly connected component of the predicate dependency graph at a
time, callees first.  Inside a cyclic component, round-robin passes update
each predicate with the convex hull of its old value and its clause
contributions; after ``_WIDEN_DELAY`` strict updates the hull is replaced by
threshold-bounded widening, which forces termination.  Contributions are
built on ``lincon`` rows, and an evaluation whose operands all equal those
of the predicate's last unchanging evaluation is skipped.

``check_safety`` reads the verdict off the model: if the goal predicate's
polyhedron is empty, no derivation of the goal exists, so the program is
safe.  A non-empty goal polyhedron proves nothing (the model
over-approximates), hence the other verdict is Unknown, never Unsafe.
``check_model`` confirms a model clause by clause, with entailment alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from . import lincon, polydom
from .chc import (
    FALSE_PRED,
    FALSUM,
    Atom,
    AtomicConstraint,
    ChcError,
    Clause,
    Program,
    _walk,
    canonical_arg_names,
    format_atom,
)
from .polydom import Polyhedron, format_polyhedron
from .thresholds import ThresholdSet


class Verdict(Enum):
    SAFE = "safe"
    UNKNOWN = "unknown"


# Strict updates of a predicate in a cyclic component before its hull is
# replaced by widening.
_WIDEN_DELAY = 2

# Round-robin passes, counted over all components, before the analysis
# gives up.
_MAX_PASSES = 10_000


@dataclass(frozen=True)
class AbstractModel:
    """Map from predicate to polyhedron over its canonical argument names."""

    polys: Mapping[str, Polyhedron]

    def poly(self, pred: str) -> Polyhedron | None:
        return self.polys.get(pred)

    def nonempty_preds(self) -> tuple[str, ...]:
        return tuple(
            sorted(p for p, poly in self.polys.items() if not poly.is_empty)
        )


@dataclass(frozen=True)
class AnalysisStats:
    """Counters describing the fixpoint iteration, independent of timing."""

    passes: int      # total round-robin passes over components
    updates: int     # predicate value updates that strictly grew a value
    widenings: int   # updates that went through the widening operator


def contribution(
    clause: Clause, head_dims: tuple[str, ...], body: Sequence[Polyhedron]
) -> Polyhedron:
    """The head polyhedron that a clause derives from its body values.

    Each body polyhedron's rows move to the columns of the clause's
    prepared rows (``Clause.rows``), and one capped ``lincon._derive`` step
    decides emptiness, strict conjuncts included; the head's rows are then
    relaxed and made canonical (see ``polydom._from_rows``).
    """
    if any(poly.is_empty for poly in body):
        return Polyhedron.empty(head_dims)
    form = clause.rows
    facts = [lincon._embed(poly.rows, target, form.n) for poly, target in zip(body, form.targets)]
    rows = lincon._derive(form, facts, lincon.PROJECT_CAP)
    return Polyhedron.empty(head_dims) if rows is None else polydom._from_rows(head_dims, rows)


def analyze(
    program: Program, thresholds: ThresholdSet | None = None
) -> tuple[AbstractModel, AnalysisStats]:
    """Compute an over-approximating polyhedral model of the program."""
    ts = thresholds if thresholds is not None else ThresholdSet.empty()
    preds = list(program.arities)
    order = {p: i for i, p in enumerate(preds)}
    dims = {p: canonical_arg_names(n) for p, n in program.arities.items()}
    clauses_of = {p: program.clauses_for(p) for p in preds}
    succs = program.succs

    values: dict[str, Polyhedron] = {p: Polyhedron.empty(dims[p]) for p in preds}
    update_count = {p: 0 for p in preds}
    passes = updates = widenings = 0

    # One (body values, contribution) entry per clause: a contribution is
    # rebuilt only when one of its body polyhedra changed.  Canonical forms
    # are unique, so comparing them with == is exact.
    built = {p: [None] * len(cs) for p, cs in clauses_of.items()}
    # Per predicate, the operands of its last evaluation that left its
    # value unchanged.  The hull is a function of its operands, so the same
    # operands again need no hull.
    settled: dict[str, list[Polyhedron]] = {}

    def contributions(pred: str) -> list[Polyhedron]:
        out = []
        for k, clause in enumerate(clauses_of[pred]):
            body = tuple(values[atom.pred] for atom in clause.body)
            entry = built[pred][k]
            if entry is None or entry[0] != body:
                made = contribution(clause, dims[pred], body)
                entry = built[pred][k] = (body, made)
            out.append(entry[1])
        return out

    for comp in _walk(program, preds)[0]:
        members = sorted(comp, key=order.__getitem__)
        cyclic = len(members) > 1 or any(p in succs[p] for p in members)
        while True:
            passes += 1
            changed = False
            for p in members:
                operands = [values[p]] + contributions(p)
                if settled.get(p) == operands:
                    continue
                grown = values[p].hull(*operands[1:])
                if grown == values[p]:
                    settled[p] = operands
                    continue
                update_count[p] += 1
                if cyclic and update_count[p] > _WIDEN_DELAY:
                    values[p] = values[p].widen_upto(grown, ts.get(p))
                    widenings += 1
                else:
                    values[p] = grown
                updates += 1
                changed = True
            if not changed or not cyclic:
                break
            if passes > _MAX_PASSES:
                raise ChcError("abstract iteration exceeded its pass budget")

    model = AbstractModel(dict(values))
    return model, AnalysisStats(passes, updates, widenings)


def check_safety(model: AbstractModel, goal_pred: str = FALSE_PRED) -> Verdict:
    """Safe iff the model assigns the goal predicate the empty polyhedron."""
    poly = model.poly(goal_pred)
    if poly is None or poly.is_empty:
        return Verdict.SAFE
    return Verdict.UNKNOWN


def check_model(program: Program, model: AbstractModel, goal: str = FALSE_PRED) -> bool:
    """True iff ``model`` is an inductive invariant of ``program`` excluding ``goal``.

    For every clause, the clause constraint and each body predicate's
    polyhedron, renamed onto the atom's arguments, must entail the head
    predicate's polyhedron renamed onto the head's arguments, and the goal's
    polyhedron must be empty.  A predicate the model lacks counts as empty.
    Such a model contains every derivable fact, so it proves the goal
    underivable.  Each clause is one ``lincon.entails_all`` call: the check
    shares no code with hull or widening.
    """

    def renamed(atom: Atom) -> tuple[AtomicConstraint, ...] | None:
        poly = model.poly(atom.pred)
        if poly is None or poly.is_empty:
            return None
        mapping = dict(zip(poly.dims, atom.args))
        return tuple([a.rename(mapping) for a in poly.conjuncts()])

    goal_poly = model.poly(goal)
    if goal_poly is not None and not goal_poly.is_empty:
        return False
    for clause in program.clauses:
        body = [renamed(atom) for atom in clause.body]
        if None in body:
            continue
        head = renamed(clause.head)
        premise = clause.constr.conjuncts + tuple(a for b in body for a in b)
        if not lincon.entails_all(premise, (FALSUM,) if head is None else head):
            return False
    return True


def format_model(model: AbstractModel) -> str:
    """Constrained-fact lines for the non-empty predicates, in name order."""
    lines = []
    for p in model.nonempty_preds():
        poly = model.polys[p]
        atom = Atom(p, poly.dims)
        lines.append(f"{format_atom(atom)} :- {format_polyhedron(poly)}")
    return "".join(line + "\n" for line in lines)
