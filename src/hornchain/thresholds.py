"""Threshold constraints for bounded widening.

Thresholds are candidate bounds that the widening operator is allowed to
keep when both of its operands satisfy them.  They are harvested from a
short concrete prefix of the program's immediate-consequence iteration:
three steps starting from the top interpretation (every predicate holds of
every tuple), each fact projected onto the predicate's canonical argument
variables.  Every atomic conjunct appearing in those facts becomes a
threshold for its predicate.

Facts are ``Constraint`` values at the boundary of a step, in the
interpretations it takes and returns.  Inside a step they are ``lincon``'s
integer rows, so each body-fact combination costs one row projection and
no conversion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import lincon
from .chc import (
    Atom,
    AtomicConstraint,
    Constraint,
    Program,
    Rel,
    canonical_arg_names,
    format_atom,
    format_atomic_bracketed,
)

# Facts of an interpretation are constraints over the canonical argument
# names of their predicate (A, B, C, ... for positions 0, 1, 2, ...).
Interpretation = dict[str, tuple[Constraint, ...]]


def top_interpretation(program: Program) -> Interpretation:
    """Every predicate holds of every argument tuple."""
    return {p: (Constraint.true(),) for p in program.arities}


# Bounds on the work a single consequence step may do.  Thresholds are
# candidate widening bounds, so skipping body-fact combinations, stopping a
# flooded predicate early, or falling back to syntactic duplicate detection
# loses candidates at worst; it never affects soundness.
_COMBO_BUDGET = 512
_SEMANTIC_DEDUP_LIMIT = 24
# Facts kept per predicate after each step of ``compute_thresholds``.
_TP_CAP = 200

# Inside ``tp_step`` a fact is a tuple of ``lincon`` rows (coprime ints, the
# constant last) over its predicate's canonical columns in name order.
_Row = tuple[lincon._Vec, Rel]
_Fact = tuple[_Row, ...]


def _entails(f: _Fact, g: _Fact, n: int) -> bool:
    return all(lincon._entailed(f, g, n))


def _equivalent(f: _Fact, g: _Fact, n: int) -> bool:
    return _entails(f, g, n) and _entails(g, f, n)


def _maximal(facts: Iterable[_Fact], n: int) -> list[_Fact]:
    """The facts that no other fact strictly subsumes, in input order.

    Facts enter an antichain one at a time: a fact entailed by a kept fact
    is skipped, otherwise it evicts the kept facts it entails.  Of a group
    of equivalent facts the earliest is kept.  Every input fact entails
    some fact of the result, so the result covers the same tuples.
    """
    kept: list[_Fact] = []
    for f in facts:
        if any(_entails(f, g, n) for g in kept):
            continue
        kept = [g for g in kept if not _entails(g, f, n)]
        kept.append(f)
    return kept


def tp_step(program: Program, interp: Interpretation, cap: int | None = None) -> Interpretation:
    """One immediate-consequence step: facts derivable in a single round.

    For each clause, every combination of body facts is conjoined with the
    clause constraint and projected onto the head arguments; one that
    is unsatisfiable is skipped, and the others are recorded
    (renamed to canonical names) as facts of the head predicate.  Facts
    equivalent to an already recorded one are skipped.
    With ``cap`` set, a predicate exceeding it keeps only its
    :func:`_maximal` facts and is then truncated to the first ``cap``.

    Inside the step facts are ``lincon``'s integer rows: each fact of
    ``interp`` becomes rows over its predicate's canonical columns once.
    Each clause reads its prepared rows (``Clause.rows``): its constraint
    laid out over the clause's variables in name order (columns that its
    constraint never mentions change nothing in ``lincon._project_rows``),
    with its own equalities eliminated once per clause, not once per step.
    The body facts move to those columns, and each combination is one
    ``lincon._derive`` step.  A capped predicate sheds facts on rows too,
    and facts become ``Constraint`` values only when the step returns.
    """
    layouts = {p: lincon._layout(k) for p, k in program.arities.items()}
    known = {
        p: [lincon._rows(f.conjuncts, layouts[p][0])[1] for f in interp.get(p, ())]
        for p in program.arities
    }
    new: dict[str, list[_Fact]] = {p: [] for p in program.arities}
    seen: dict[str, set[_Fact]] = {p: set() for p in program.arities}
    for clause in program.clauses:
        head = clause.head
        bucket = new[head.pred]
        if cap is not None and len(bucket) >= 2 * cap:
            continue
        if not all(known[atom.pred] for atom in clause.body):
            continue
        form = clause.rows
        fact_lists = [
            [lincon._embed(f, target, form.n) for f in known[atom.pred]]
            for atom, target in zip(clause.body, form.targets)
        ]
        combos = itertools.islice(itertools.product(*fact_lists), _COMBO_BUDGET)
        for combo in combos:
            if cap is not None and len(bucket) >= 2 * cap:
                break
            # Capped growth: threshold facts are candidate bounds, so an
            # over-approximate projection only makes candidates weaker.
            fact = lincon._derive(form, combo, lincon.PROJECT_CAP)
            if fact is None or fact in seen[head.pred]:
                continue
            seen[head.pred].add(fact)
            if len(bucket) <= _SEMANTIC_DEDUP_LIMIT and any(
                _equivalent(fact, g, head.arity) for g in bucket
            ):
                continue
            bucket.append(fact)
    out: Interpretation = {}
    for p, facts in new.items():
        if cap is not None and len(facts) > cap:
            facts = _maximal(facts, program.arities[p])[:cap]
        order = layouts[p][0]
        out[p] = tuple(
            [Constraint(tuple([lincon._atom(order, r, rel) for r, rel in f])) for f in facts]
        )
    return out


@dataclass(frozen=True)
class ThresholdSet:
    """Per-predicate candidate bounds over canonical argument names."""

    entries: Mapping[str, tuple[AtomicConstraint, ...]] = field(default_factory=dict)

    @staticmethod
    def empty() -> "ThresholdSet":
        return ThresholdSet({})

    def get(self, pred: str) -> tuple[AtomicConstraint, ...]:
        return self.entries.get(pred, ())

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())


def atomconstraints(interp: Interpretation) -> ThresholdSet:
    """All atomic conjuncts of an interpretation's facts, per predicate."""
    entries: dict[str, tuple[AtomicConstraint, ...]] = {}
    for p, facts in interp.items():
        acc: set[AtomicConstraint] = set()
        for f in facts:
            for a in f:
                na = a.normalized()
                if not (na.is_trivially_true() or na.is_trivially_false()):
                    acc.add(na)
        entries[p] = tuple(sorted(acc, key=AtomicConstraint.sort_key))
    return ThresholdSet(entries)


def compute_thresholds(program: Program) -> ThresholdSet:
    """Thresholds from three concrete steps down from the top interpretation."""
    interp = top_interpretation(program)
    for _ in range(3):
        interp = tp_step(program, interp, cap=_TP_CAP)
    return atomconstraints(interp)


def format_thresholds(
    ts: ThresholdSet, arities: Mapping[str, int] | None = None
) -> str:
    """One constrained-fact line per predicate, in name order."""
    lines = []
    for p in sorted(ts.entries):
        arity = (arities or {}).get(p, 0)
        atom = Atom(p, canonical_arg_names(arity))
        body = ",".join(format_atomic_bracketed(a) for a in ts.entries[p])
        lines.append(f"{format_atom(atom)} :- [{body}]")
    return "".join(line + "\n" for line in lines)
