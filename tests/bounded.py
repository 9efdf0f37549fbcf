"""Exact bounded bottom-up evaluation, an oracle for goal derivability.

Used when testing that transformations preserve derivability of the goal:
each program is evaluated concretely, one immediate-consequence round at a
time, starting from the bottom interpretation.  A round is this module's
own step: every combination of body facts, projected onto the head by
``oracles.rational_project`` with no row cap and no combination budget.  It
shares no code with ``thresholds.tp_step`` or the ``lincon`` consequence
step, so the suites that compare transformed programs by this oracle check
those against code of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from oracles import maximal, rational_project, subsumed_by

from hornchain.chc import FALSE_PRED, FALSUM, ChcError, Constraint, Program, canonical_arg_names
from hornchain.thresholds import Interpretation


def bottom_interpretation(program: Program) -> Interpretation:
    """No predicate holds of any argument tuple."""
    return {p: () for p in program.arities}


def exact_step(program: Program, interp: Interpretation) -> Interpretation:
    """Every fact one round derives: for each clause, each combination of
    its body atoms' facts in ``interp``, conjoined with the clause
    constraint and projected exactly onto the head's arguments, renamed to
    the head predicate's canonical names.  An empty projection derives
    nothing."""
    out: dict[str, list[Constraint]] = {p: [] for p in program.arities}
    for clause in program.clauses:
        fact_lists = []
        for atom in clause.body:
            mapping = dict(zip(canonical_arg_names(atom.arity), atom.args))
            fact_lists.append([f.rename(mapping) for f in interp.get(atom.pred, ())])
        head = dict(zip(clause.head.args, canonical_arg_names(clause.head.arity)))
        for combo in product(*fact_lists):
            conjuncts = [*clause.constr.conjuncts, *(a for f in combo for a in f.conjuncts)]
            proj = rational_project(conjuncts, clause.head.args)
            if proj != (FALSUM,):
                out[clause.head.pred].append(Constraint(tuple([a.rename(head) for a in proj])))
    return {p: tuple(facts) for p, facts in out.items()}


@dataclass(frozen=True)
class BoundedResult:
    derived: bool     # the goal was derived within the depth bound
    saturated: bool   # a fixpoint was reached before the bound
    rounds: int       # immediate-consequence rounds actually executed


class BudgetExceeded(ChcError):
    """Concrete evaluation grew past its fact budget."""


def bounded_concrete_eval(
    program: Program,
    goal_pred: str = FALSE_PRED,
    depth: int = 6,
    max_facts: int | None = None,
) -> BoundedResult:
    """Exact bottom-up evaluation, cut off after ``depth`` rounds.

    Returns whether the goal predicate became derivable, and whether the
    iteration provably saturated (the last round added nothing new), in
    which case the derivability answer is exact rather than bounded.
    Subsumed facts are dropped between rounds; that preserves the set of
    derivable tuples, so exactness is unaffected.
    """
    interp = bottom_interpretation(program)
    for round_no in range(1, depth + 1):
        nxt = {p: tuple(maximal(fs)) for p, fs in exact_step(program, interp).items()}
        if nxt.get(goal_pred):
            return BoundedResult(True, False, round_no)
        if max_facts is not None:
            total = sum(len(v) for v in nxt.values())
            if total > max_facts:
                raise BudgetExceeded(
                    f"round {round_no} holds {total} facts (budget {max_facts})"
                )
        if all(
            subsumed_by(f, interp[p]) for p, facts in nxt.items() for f in facts
        ):
            return BoundedResult(False, True, round_no)
        interp = nxt
    return BoundedResult(False, False, depth)
