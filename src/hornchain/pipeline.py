"""End-to-end verification pipeline.

The stages run in a fixed order, each on the previous stage's output:
argument filtering, forward unfolding, query-answer specialization,
predicate splitting, and finally the polyhedral fixpoint analysis, which
widens up to thresholds of the final program.  Those are harvested per
predicate when the analysis first widens it, so a run that never widens
harvests none; ``PipelineResult.thresholds`` gives the full set, harvested
when asked.  Every transformation preserves derivability of the goal, so
emptiness of the goal's polyhedron in the final model proves the original
program safe.
"""

from __future__ import annotations

from .analyzer import (
    AbstractModel,
    AnalysisStats,
    Verdict,
    analyze,
    check_safety,
)
from .chc import FALSE_PRED, Program, _Value
from .thresholds import ThresholdSet, compute_thresholds
from .transform import (
    answer_pred,
    query_answer,
    raf_filter,
    split_predicates,
    unfold_forward,
)


class PipelineConfig(_Value):
    """Stage toggles and the goal predicate for ``run_pipeline``."""

    __slots__ = _fields = ("raf", "unfold", "qa", "split", "thresholds", "goal")

    def __init__(
        self,
        raf: bool = True,
        unfold: bool = True,
        qa: bool = True,
        split: bool = True,
        thresholds: bool = True,
        goal: str = FALSE_PRED,
    ) -> None:
        object.__setattr__(self, "raf", raf)
        object.__setattr__(self, "unfold", unfold)
        object.__setattr__(self, "qa", qa)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "goal", goal)


class PipelineResult(_Value):
    """What ``run_pipeline`` found: ``goal`` is the goal predicate in the
    analyzed program, and ``stages`` pairs each stage name with the program
    after it, from ``"input"`` on."""

    __slots__ = _fields = ("verdict", "model", "goal", "stages", "thresholds", "stats")

    def __init__(
        self,
        verdict: Verdict,
        model: AbstractModel,
        goal: str,
        stages: tuple[tuple[str, Program], ...],
        thresholds: ThresholdSet,
        stats: AnalysisStats,
    ) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "goal", goal)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "stats", stats)


def run_pipeline(program: Program, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Transform, analyze, and judge a program."""
    goal = config.goal
    stages: list[tuple[str, Program]] = [("input", program)]

    if config.raf:
        program = raf_filter(program, goal)
        stages.append(("raf", program))
    if config.unfold:
        program = unfold_forward(program, goal)
        stages.append(("unfold", program))
    if config.qa:
        new_goal = answer_pred(goal, program)
        program = query_answer(program, goal)
        goal = new_goal
        stages.append(("qa", program))
    if config.split:
        program = split_predicates(program, goal)
        stages.append(("split", program))

    ts = compute_thresholds(program) if config.thresholds else ThresholdSet.empty()
    model, stats = analyze(program, ts)
    verdict = check_safety(model, goal)
    return PipelineResult(verdict, model, goal, tuple(stages), ts, stats)
