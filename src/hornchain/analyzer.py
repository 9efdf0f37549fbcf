"""Polyhedral abstract interpretation of CHC programs.

``analyze`` computes, per predicate, a convex polyhedron over-approximating
the set of argument tuples in the program's least model.  Evaluation runs
one strongly connected component of the predicate dependency graph at a
time, callees first.  Inside a cyclic component, round-robin passes update
each predicate with the convex hull of its old value and its clause
contributions; after ``_WIDEN_DELAY`` strict updates the hull is replaced by
threshold-bounded widening, which forces termination.  A contribution is
eliminated on ``lincon`` rows and kept as its homogenized cone, the
generators that the join reads, which also decide its emptiness, so it
never becomes a polyhedron of its own, and is built again only when one
of its body values is replaced.  A clause whose first body atom an
earlier component settled, and whose later atoms can still grow, folds
that atom's final value into its prepared rows once (``lincon._fold``),
and every later contribution steps from the fold; an empty fold ends the
clause's contributions.  A join drops the operand generators already inside
the old value and returns the old value itself when none is left;
otherwise the hull is strictly larger, so the analysis tells an unchanged
value by identity.  The widening after a join decides its candidate
bounds on the generators the join pooled, and the join's rows, converted
only when read, are never made for a join the widening replaces.

``check_safety`` reads the verdict off the model: if the goal predicate's
polyhedron is empty, no derivation of the goal exists, so the program is
safe.  A non-empty goal polyhedron proves nothing (the model
over-approximates), hence the other verdict is Unknown, never Unsafe.
``check_model`` confirms a model clause by clause, with entailment alone.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Sequence

from . import lincon, polydom
from .chc import (
    FALSE_PRED,
    FALSUM,
    Atom,
    AtomicConstraint,
    ChcError,
    Program,
    Rel,
    _Value,
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

# Round-robin passes of one component before the analysis gives up.
_MAX_PASSES = 10_000


class AbstractModel(_Value):
    """Map from predicate to polyhedron over its canonical argument names."""

    __slots__ = _fields = ("polys",)

    def __init__(self, polys: Mapping[str, Polyhedron]) -> None:
        object.__setattr__(self, "polys", polys)

    def poly(self, pred: str) -> Polyhedron | None:
        return self.polys.get(pred)

    def nonempty_preds(self) -> tuple[str, ...]:
        return tuple(
            sorted(p for p, poly in self.polys.items() if not poly.is_empty)
        )


class AnalysisStats(_Value):
    """Counters describing the fixpoint iteration, independent of timing:
    ``passes``, the round-robin passes over components; ``updates``, the
    predicate value updates that strictly grew a value; and ``widenings``,
    the updates that went through the widening operator."""

    __slots__ = _fields = ("passes", "updates", "widenings")

    def __init__(self, passes: int, updates: int, widenings: int) -> None:
        object.__setattr__(self, "passes", passes)
        object.__setattr__(self, "updates", updates)
        object.__setattr__(self, "widenings", widenings)


def contribution(
    form: lincon._Prepared, head_dims: tuple[str, ...], body: Sequence[Polyhedron], cones: dict
):
    """The cone of the head polyhedron that a clause derives from its body
    values, or None when that polyhedron is empty.

    ``form`` is the clause's prepared rows (``Clause.rows``), or a fold of
    them (see ``lincon._fold``), and ``body`` the values of the atoms it
    still takes, whose rows go in as they are.  A step whose body values
    bring rows takes only the elimination half of a projection
    (``lincon._shadow_step``); one whose values bring none reads the step
    the form keeps (``lincon._Prepared.top``), which split or the harvest
    may have taken already.  The head's rows go straight to their
    homogenized cone (see ``polydom._cone``), which decides emptiness with
    no second elimination: see :func:`_decided_cone`.  The cone is all
    that joining needs (see ``Polyhedron.join``), so the contribution's own
    canonical rows are never built.  ``cones`` keeps the cone of each row
    set met in the run, so each distinct set takes one double description.
    A cone depends only on its polyhedron, so cones compare exactly with
    ``==``.
    """
    if any(poly.is_empty for poly in body):
        return None
    facts = [poly.rows for poly in body]
    rows = lincon._shadow_step(form, facts) if any(facts) else form.top
    if rows is None:
        return None
    key = len(head_dims), frozenset(rows)
    if key not in cones:
        cones[key] = _decided_cone(rows, len(head_dims))
    return cones[key]


def _decided_cone(rows, n: int):
    """The homogenized cone of ``lincon`` rows over ``n`` columns, strict
    rows included, or None when the rows have no solution.

    The closure (every row relaxed) is empty exactly when no generator of
    its cone has ``t > 0``, and then so are the rows.  Otherwise a strict
    row is positive at some point of the closure exactly when it is
    positive on some ray; it is never negative on one, and zero on every
    line.  When each strict row is positive at some point, their centroid
    satisfies all of them, so the rows are empty exactly when some strict
    row is zero on every ray.  A non-empty polyhedron's cone depends only
    on its closure, so the cone is the one its canonical rows give.
    """
    lines, rays = polydom._cone(rows, n)
    if not any(v[-1] for v in rays):
        return None
    for r, rel in rows:
        if rel is Rel.GT and all(polydom._dot_ok(r, v, True) for v in rays):
            return None
    return lines, rays


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

    # Per predicate, one entry per clause: [prepared rows, the body atoms
    # they take, a final value still to fold in, the body values of the
    # last build, the cone it built].  A value is replaced only by a
    # strictly larger polyhedron, so a contribution is rebuilt exactly when
    # a body value is not the object it was built from.
    entries: dict[str, list] = {}
    # The cone of each row set that a contribution's step eliminated to.
    cones: dict = {}

    def contributions(pred: str) -> list:
        out = []
        for entry in entries[pred]:
            form, atoms, first, last, cone = entry
            body = [values[atom.pred] for atom in atoms]
            if last is None or any(v is not w for v, w in zip(body, last)):
                if first is not None and not any(poly.is_empty for poly in body):
                    # An empty value or fold ends the clause's contributions.
                    form = entry[0] = None if first.is_empty else lincon._fold(form, first.rows)
                    entry[2] = None
                cone = None if form is None else contribution(form, dims[pred], body, cones)
                entry[3:] = body, cone
            out.append(cone)
        return out

    for comp in _walk(program, preds)[0]:
        members = sorted(comp, key=order.__getitem__)
        cyclic = len(members) > 1 or any(p in succs[p] for p in members)
        for p in members:
            entries[p] = []
            for clause in clauses_of[p]:
                # A first body atom an earlier component settled has its
                # final value.  When a later atom can still grow, that value
                # is left to fold into the prepared rows once, at the first
                # build with no empty body value (``lincon._fold``).
                atoms, first = clause.body, None
                if atoms and atoms[0].pred not in comp and any(a.pred in comp for a in atoms[1:]):
                    atoms, first = atoms[1:], values[atoms[0].pred]
                entries[p].append([clause.rows, atoms, first, None, None])
        for _ in range(_MAX_PASSES):
            passes += 1
            changed = False
            for p in members:
                grown = values[p].join(contributions(p))
                if grown is values[p]:
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
        else:
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
