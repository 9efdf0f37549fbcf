"""Exact bounded bottom-up evaluation, an oracle for goal derivability.

Used when testing that transformations preserve derivability of the goal:
each program is evaluated concretely, one immediate-consequence round at a
time, starting from the bottom interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass

from oracles import maximal, subsumed_by

from hornchain.chc import FALSE_PRED, ChcError, Program
from hornchain.thresholds import Interpretation, tp_step


def bottom_interpretation(program: Program) -> Interpretation:
    """No predicate holds of any argument tuple."""
    return {p: () for p in program.arities}


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
        nxt = {p: tuple(maximal(fs)) for p, fs in tp_step(program, interp).items()}
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
