"""Random small clause programs and the transformation-agreement suite.

Each retained program has an exact bounded-derivability verdict for the
goal (the bounded evaluation either derived the goal or saturated), and so
does every transformed version.  On that footing, agreement between input
and output verdicts is a hard requirement: any mismatch is a transformation
soundness bug, not sampling noise.  The suite also runs the full pipeline
on every retained program and flags a safety claim about a program whose
goal is concretely derivable as an unsoundness event, and a safety claim
whose model ``check_model`` rejects as a model-check failure.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bounded import BudgetExceeded, bounded_concrete_eval

from hornchain.analyzer import Verdict, check_model
from hornchain.chc import (
    FALSE_PRED,
    Atom,
    AtomicConstraint,
    ChcError,
    Clause,
    Constraint,
    LinExpr,
    Program,
    Rel,
    canonical_arg_names,
    print_program,
)
from hornchain.pipeline import run_pipeline
from hornchain.transform import (
    answer_pred,
    query_answer,
    raf_filter,
    split_predicates,
    unfold_forward,
)

PRED_POOL = ("p", "q", "r", "s")
EXTRA_VARS = ("X", "Y")
CONST_RANGE = 10

TRANSFORMS = (
    ("argument-filter", lambda p: FALSE_PRED, lambda p: raf_filter(p, FALSE_PRED)),
    ("unfold", lambda p: FALSE_PRED, unfold_forward),
    (
        "query-answer",
        lambda p: answer_pred(FALSE_PRED, p),
        lambda p: query_answer(p, FALSE_PRED),
    ),
    ("split", lambda p: FALSE_PRED, lambda p: split_predicates(p, FALSE_PRED)),
)


def random_atomic(rng: random.Random, pool: list[str]) -> AtomicConstraint:
    nvars = rng.randint(1, min(2, len(pool)))
    coeffs = {
        v: Fraction(rng.choice((-2, -1, 1, 2))) for v in rng.sample(pool, nvars)
    }
    const = Fraction(rng.randint(-CONST_RANGE, CONST_RANGE))
    rel = rng.choice((Rel.GE, Rel.GE, Rel.GE, Rel.GE, Rel.EQ, Rel.GT))
    return AtomicConstraint(LinExpr.build(coeffs, const), rel)


def random_constraint(rng: random.Random, pool: list[str]) -> Constraint:
    return Constraint(tuple(random_atomic(rng, pool) for _ in range(rng.randint(0, 2))))


def random_program(rng: random.Random) -> Program:
    """A small program: at most 4 defined predicates of arity <= 3 plus a goal."""
    preds = list(PRED_POOL[: rng.randint(1, 4)])
    arity = {pr: rng.randint(0, 3) for pr in preds}
    clauses = []
    for _ in range(rng.randint(2, 6)):
        head = rng.choice(preds)
        head_args = canonical_arg_names(arity[head])
        pool = list(head_args) + list(EXTRA_VARS)
        body = tuple(
            Atom(bp, tuple(rng.choice(pool) for _ in range(arity[bp])))
            for bp in (rng.choice(preds) for _ in range(rng.randint(0, 2)))
        )
        clauses.append(Clause(Atom(head, head_args), random_constraint(rng, pool), body))
    goal_body_pred = rng.choice(preds)
    pool = list(EXTRA_VARS) + ["Z"]
    goal_atom = Atom(
        goal_body_pred,
        tuple(rng.choice(pool) for _ in range(arity[goal_body_pred])),
    )
    clauses.append(Clause(Atom(FALSE_PRED), random_constraint(rng, pool), (goal_atom,)))
    return Program(tuple(clauses))


def run_transform_suite(
    seed: int = 20260815,
    want: int = 200,
    max_attempts: int = 6000,
    depth: int = 6,
    max_facts: int = 400,
):
    """Returns (retained, agreements, failures).

    A draw is retained only when the bounded evaluation is exact (derived or
    saturated) on the input and on all four transformed programs; draws that
    blow the fact budget or trip a transformation guard are discarded.  For
    retained programs, ``agreements`` counts transform verdicts equal to the
    input verdict (four per program when everything is sound), and
    ``failures`` records disagreements, pipeline errors, pipeline SAFE
    verdicts on concretely unsafe programs, and SAFE verdicts whose model
    fails ``check_model`` on the analyzed program.
    """
    rng = random.Random(seed)
    retained = 0
    agreements = 0
    failures: list[tuple] = []
    attempts = 0
    while retained < want and attempts < max_attempts:
        attempts += 1
        prog = random_program(rng)
        try:
            base = bounded_concrete_eval(prog, FALSE_PRED, depth=depth, max_facts=max_facts)
            if not (base.derived or base.saturated):
                continue
            outs = []
            exact = True
            for name, goal_of, transform in TRANSFORMS:
                out = transform(prog)
                r = bounded_concrete_eval(
                    out, goal_of(prog), depth=depth, max_facts=max_facts
                )
                if not (r.derived or r.saturated):
                    exact = False
                    break
                outs.append((name, r))
            if not exact:
                continue
        except (BudgetExceeded, ChcError):
            continue
        retained += 1
        for name, r in outs:
            if r.derived == base.derived:
                agreements += 1
            else:
                failures.append(
                    (attempts, name, base.derived, r.derived, print_program(prog))
                )
        try:
            res = run_pipeline(prog)
        except Exception as exc:  # a crash on a retained program is a bug
            failures.append((attempts, "pipeline-error", repr(exc), None, print_program(prog)))
        else:
            if res.verdict is Verdict.SAFE and base.derived:
                failures.append(
                    (attempts, "pipeline-unsound", True, res.verdict, print_program(prog))
                )
            if res.verdict is Verdict.SAFE and not check_model(
                res.stages[-1][1], res.model, res.goal
            ):
                failures.append(
                    (attempts, "model-check", False, res.verdict, print_program(prog))
                )
    return retained, agreements, failures
