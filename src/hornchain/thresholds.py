"""Threshold constraints for bounded widening.

Thresholds are candidate bounds that the widening operator is allowed to
keep when both of its operands satisfy them.  They are harvested from a
short concrete prefix of the program's immediate-consequence iteration:
three steps starting from the top interpretation (every predicate holds of
every tuple), each fact projected onto the predicate's canonical argument
variables.  Every atomic conjunct appearing in those facts becomes a
threshold for its predicate.

Each predicate's facts in a step depend only on its own clauses and on its
body predicates' facts in the step before, so ``compute_thresholds``
harvests per predicate, on first read: the analysis reads a predicate's
thresholds only when it widens it, and a program that never widens
harvests nothing.  The harvest keeps facts as ``lincon``'s integer rows
through all three steps, so a body-fact combination costs at most one row
projection and no conversion; they become atoms only as thresholds.
``tp_step`` takes and returns ``Constraint`` facts for a whole step.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping

from . import lincon
from .chc import (
    FALSUM,
    VERUM,
    Atom,
    AtomicConstraint,
    Constraint,
    Program,
    Rel,
    _Value,
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
# flooded predicate early, falling back to syntactic duplicate detection, or
# a projection that ``lincon.PROJECT_CAP`` stops, which only weakens a fact,
# loses candidates at worst; it never affects soundness.
_COMBO_BUDGET = 512
_SEMANTIC_DEDUP_LIMIT = 24
# Facts kept per predicate after each step of ``compute_thresholds``.
_TP_CAP = 200

# Inside a step a fact is a tuple of ``lincon`` rows (coprime ints, the
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


def _head_facts(
    program: Program,
    p: str,
    known: Callable[[str], list[_Fact]],
    cap: int | None,
) -> list[_Fact]:
    """The facts one consequence step derives for head ``p``.

    ``known(q)`` gives the previous step's facts of body predicate ``q``,
    as rows over its canonical columns in name order; it is asked only for
    the body predicates of ``p``'s clauses, and only while every body atom
    before it has a fact.  For each of ``p``'s clauses in program order,
    every combination of body facts, up to ``_COMBO_BUDGET`` of them, is
    conjoined with the clause constraint and projected onto the head
    arguments, one ``lincon._derive`` step from the clause's prepared rows
    (``Clause.rows``).  An unsatisfiable combination derives nothing, and a
    fact already derived is skipped.  While the bucket holds at most
    ``_SEMANTIC_DEDUP_LIMIT`` facts, a fact equivalent to one in it is
    skipped too; past that only syntactic duplicates are.  With ``cap``
    set, the step stops at ``2 * cap`` facts, and a bucket past ``cap``
    keeps only its :func:`_maximal` facts, truncated to the first ``cap``.

    An exact shortcut leaves the facts as they are: a first-slot fact that
    at least two combinations follow is folded into the prepared rows once
    (``lincon._fold``), and its combinations step from the fold; when the
    fold is empty, they are skipped, and still count against the budget.
    """
    n = program.arities[p]
    bucket: list[_Fact] = []
    seen: set[_Fact] = set()
    for clause in program.clauses_for(p):
        if cap is not None and len(bucket) >= 2 * cap:
            break
        if not all(known(atom.pred) for atom in clause.body):
            continue
        form = clause.rows
        fact_lists = [known(atom.pred) for atom in clause.body]
        folds = math.prod(map(len, fact_lists[1:])) > 1
        first = folded = None
        for combo in itertools.islice(itertools.product(*fact_lists), _COMBO_BUDGET):
            if cap is not None and len(bucket) >= 2 * cap:
                break
            if folds:
                if combo[0] is not first:
                    first, folded = combo[0], lincon._fold(form, combo[0])
                if folded is None:
                    continue
                fact = lincon._derive(folded, combo[1:])
            else:
                fact = lincon._derive(form, combo)
            if fact is None or fact in seen:
                continue
            seen.add(fact)
            if len(bucket) <= _SEMANTIC_DEDUP_LIMIT and any(
                _equivalent(fact, g, n) for g in bucket
            ):
                continue
            bucket.append(fact)
    if cap is not None and len(bucket) > cap:
        bucket = _maximal(bucket, n)[:cap]
    return bucket


def tp_step(program: Program, interp: Interpretation, cap: int | None = None) -> Interpretation:
    """One immediate-consequence step: facts derivable in a single round.

    Each predicate's facts are :func:`_head_facts` of the facts of
    ``interp``, which become rows over their predicate's canonical columns
    once; a predicate ``interp`` leaves out has none.  The derived rows
    become ``Constraint`` values when the step returns.
    """
    orders = {p: lincon._layout(k)[0] for p, k in program.arities.items()}
    known = {
        p: [lincon._rows(f.conjuncts, orders[p])[1] for f in interp.get(p, ())]
        for p in program.arities
    }
    out: Interpretation = {}
    for p, order in orders.items():
        facts = _head_facts(program, p, known.__getitem__, cap)
        out[p] = tuple(
            [Constraint(tuple([lincon._atom(order, r, rel) for r, rel in f])) for f in facts]
        )
    return out


class ThresholdSet(_Value):
    """Per-predicate candidate bounds over canonical argument names.

    ``entries`` is read-only, and a new empty mapping by default; from
    :func:`compute_thresholds` it harvests each predicate on first read.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Mapping[str, tuple[AtomicConstraint, ...]] | None = None) -> None:
        object.__setattr__(self, "entries", {} if entries is None else entries)

    @staticmethod
    def empty() -> "ThresholdSet":
        return ThresholdSet({})

    def get(self, pred: str) -> tuple[AtomicConstraint, ...]:
        return self.entries.get(pred, ())

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())


def atomconstraints(interp: Interpretation) -> ThresholdSet:
    """All atomic conjuncts of an interpretation's facts, per predicate: the
    distinct normal forms other than the trivial ``VERUM`` and ``FALSUM``,
    in sort order."""
    return ThresholdSet({
        p: tuple(sorted(
            {a.normalized() for f in facts for a in f} - {VERUM, FALSUM},
            key=AtomicConstraint.sort_key,
        ))
        for p, facts in interp.items()
    })


class _Harvest(Mapping[str, tuple[AtomicConstraint, ...]]):
    """A program's thresholds per predicate, each harvested on first read.

    The facts of ``(p, step)`` are memoised rows: step 0 is the top
    interpretation's one empty fact, and step ``k`` is :func:`_head_facts`
    of ``p`` over step ``k - 1``.  Each head's facts depend only on its own
    clauses and its body predicates' facts, so they are the facts the whole
    step gives ``p``, and reading ``p`` harvests only the predicates within
    two body edges of it.  The rows of step 3 are already in
    ``lincon._normal_form``: coprime, equalities oriented, no ground row.
    So each distinct row stands for its own atom's normal form, and
    ``lincon._sort_key`` sorts them as the atoms; each threshold atom is
    built once, from its row.
    """

    def __init__(self, program: Program) -> None:
        self._program = program
        self._facts: dict[tuple[str, int], list[_Fact]] = {}
        self._entries: dict[str, tuple[AtomicConstraint, ...]] = {}

    def facts(self, p: str, step: int) -> list[_Fact]:
        if step == 0:
            return [()]
        got = self._facts.get((p, step))
        if got is None:
            got = self._facts[p, step] = _head_facts(
                self._program, p, lambda q: self.facts(q, step - 1), _TP_CAP
            )
        return got

    def __getitem__(self, p: str) -> tuple[AtomicConstraint, ...]:
        got = self._entries.get(p)
        if got is None:
            order = lincon._layout(self._program.arities[p])[0]
            rows = sorted({row for f in self.facts(p, 3) for row in f}, key=lincon._sort_key)
            got = self._entries[p] = tuple([lincon._atom(order, r, rel) for r, rel in rows])
        return got

    def __iter__(self) -> Iterator[str]:
        return iter(self._program.arities)

    def __len__(self) -> int:
        return len(self._program.arities)


def compute_thresholds(program: Program) -> ThresholdSet:
    """Thresholds from three concrete steps down from the top interpretation.

    The set is returned at once, and each predicate's thresholds are
    harvested when first read (see :class:`_Harvest`): a program whose
    analysis never widens harvests nothing, and whatever asks for the
    full set (``len``, ``==``, :func:`format_thresholds`) gets it then.
    """
    return ThresholdSet(_Harvest(program))


def format_thresholds(ts: ThresholdSet, arities: Mapping[str, int]) -> str:
    """One constrained-fact line per predicate, in name order."""
    lines = []
    for p in sorted(ts.entries):
        atom = Atom(p, canonical_arg_names(arities[p]))
        body = ",".join(format_atomic_bracketed(a) for a in ts.entries[p])
        lines.append(f"{format_atom(atom)} :- [{body}]")
    return "".join(line + "\n" for line in lines)
