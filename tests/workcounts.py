"""The kernel's work on two seed-0 benchmark corpora, counted.

The counts are deterministic: tests/test_analyzer.py and test_transform.py
pin them, and from the repository root ``python3 tests/workcounts.py
{loops-poly,cfg-chain}`` prints them as markdown bullets for CI's summary.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

if __name__ == "__main__":  # run as a script: find the package and the generator
    ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen

from hornchain import chc, lincon, pipeline, polydom, thresholds, transform
from hornchain.analyzer import format_model
from hornchain.parser import parse_program
from hornchain.pipeline import run_pipeline


@contextmanager
def counting():
    """Install every counting wrapper and yield what they see; on exit,
    however the block ends, every patched attribute is the original again.

    ``n`` counts each counted function's calls, in all and per ``stage`` (the
    innermost staged function running).  A projection (both halves of a
    consequence step) is counted when ``_derive`` makes one or a form takes
    its top step, and a memo hit when a step from no body rows through
    ``_derive`` makes none.  The analysis takes the elimination half of a
    step with body rows alone (``_shadow_step``): a contribution step.  A
    kept top read is a read of a top step the form already holds.  Per
    stage, ``n`` also counts the eliminations from no body rows, ``top
    steps``, and every read of a form's top step, ``top reads``.  ``folds``
    holds every fold made, to tell a step from a fold from a clause's own,
    and ``tops`` every form that took its top step.  ``rows from
    generators`` counts the conversions of a polyhedron's pooled
    generators to its canonical rows (``polydom._rows_of``), which happen
    on the first read of its rows only.
    """
    w = SimpleNamespace(n=Counter(), stage=None, deriving=False, folds=[], tops=[])
    derive, step, fold, top = lincon._derive, lincon._shadow_step, lincon._fold, lincon._Prepared.top
    saved = []

    def patch(owner, name, replacement):
        saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def staged(fn, name):
        def run(*args):
            outer, w.stage = w.stage, name
            try:
                return fn(*args)
            finally:
                w.stage = outer

        return run

    def counted(fn, name):
        def count(*args, **kwargs):
            w.n[name] += 1
            w.n[w.stage, name] += 1
            return fn(*args, **kwargs)

        return count

    def counting_derive(form, facts):
        made = w.n["_derive projections"]
        w.deriving = True
        try:
            got = derive(form, facts)
        finally:
            w.deriving = False
        w.n["_derive empty"] += got is None
        projected = w.n["_derive projections"] > made
        if not any(facts) and form.solved is not None:
            w.n["_derive memo hits"] += not projected
            if w.stage == "_head_facts" and all(form is not f for f in w.folds):
                w.n["harvest top-fact steps"] += 1
                w.n["harvest top-fact projections"] += projected
        return got

    def counting_step(form, facts):
        if not any(facts):
            w.tops.append(form)
            w.n[w.stage, "top steps"] += 1
        closed = w.deriving or not any(facts)
        w.n["_derive projections" if closed else "contribution steps"] += 1
        return step(form, facts)

    def reading_top(form):
        w.n["kept top reads"] += "top" in vars(form)
        w.n[w.stage, "top reads"] += 1
        return top.__get__(form)

    def counting_fold(form, fact):
        folded = fold(form, fact)
        w.folds.append(folded)
        w.n["_fold"] += 1
        w.n["dead folds"] += folded is None
        return folded

    try:
        for owner, name in ((pipeline, "unfold_forward"), (pipeline, "split_predicates"),
                            (pipeline, "analyze"), (thresholds, "_head_facts")):
            patch(owner, name, staged(getattr(owner, name), name))
        for owner, name in ((polydom, "_dual"), (lincon, "_reduce"),
                            (lincon, "_key"), (lincon, "_table"), (lincon, "_normal_form"),
                            (lincon, "_project_rows"), (transform, "_summary")):
            patch(owner, name, counted(getattr(owner, name), name))
        init = chc.AtomicConstraint.__init__
        patch(chc.AtomicConstraint, "__init__", counted(init, "AtomicConstraint"))
        patch(lincon, "_derive", counting_derive)
        patch(lincon, "_shadow_step", counting_step)
        patch(lincon._Prepared, "top", property(reading_top))
        patch(lincon, "_fold", counting_fold)
        patch(polydom, "_rows_of", counted(polydom._rows_of, "rows from generators"))
        yield w
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


def _verify(workload: str) -> None:
    """Verify the workload's seed-0 programs as bench/run.py verifies them."""
    for case, _ in gen.instance(workload, 0):
        format_model(run_pipeline(parse_program(case.text())).model)


def loops_poly() -> dict[str, int]:
    """The row kernel's consequence steps, folds, double descriptions and
    row work on loops-poly.  ``top steps`` counts the prepared forms that
    took their step from no body rows, none of them twice."""
    with counting() as w:
        _verify("loops-poly")
    if len({id(form) for form in w.tops}) != len(w.tops):
        raise AssertionError("a prepared form took its top step twice")
    keys = ("_derive projections", "_derive memo hits", "_derive empty", "kept top reads",
            "contribution steps", "_fold", "dead folds", "harvest top-fact steps",
            "harvest top-fact projections", "_dual", "rows from generators", "_reduce", "_key",
            "_table", "_normal_form")
    return {"top steps": len(w.tops)} | {k: w.n[k] for k in keys}


def cfg_chain_front_half() -> dict[str, int]:
    """Unfolding's summaries, projections and built conjuncts, and split's
    row reductions, on cfg-chain."""
    with counting() as w:
        _verify("cfg-chain")
    return {
        "summaries": w.n["unfold_forward", "_summary"],
        "unfold projections": w.n["unfold_forward", "_project_rows"],
        "unfold conjuncts": w.n["unfold_forward", "AtomicConstraint"],
        "split reductions": w.n["split_predicates", "_reduce"],
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", choices=("loops-poly", "cfg-chain"))
    counts = loops_poly() if parser.parse_args().corpus == "loops-poly" else cfg_chain_front_half()
    for key, value in counts.items():
        print(f"- `{key}`: {value}")
