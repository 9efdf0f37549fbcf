"""Safety verification for constrained Horn clauses over linear rational
arithmetic: semantics-preserving transformations chained with a polyhedral
fixpoint analysis."""

from .analyzer import (
    AbstractModel,
    AnalysisStats,
    Verdict,
    analyze,
    check_safety,
    format_model,
)
from .chc import (
    FALSE_PRED,
    ArityError,
    Atom,
    AtomicConstraint,
    ChcError,
    Clause,
    Constraint,
    LinExpr,
    Program,
    Rel,
    backward_targets,
    canonical_arg_names,
    format_atom,
    format_atomic,
    format_clause,
    normalize_clause,
    print_program,
)
from .parser import NonlinearTermError, ParseError, parse_constraint, parse_program
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .polydom import Polyhedron, format_polyhedron
from .thresholds import (
    Interpretation,
    ThresholdSet,
    atomconstraints,
    compute_thresholds,
    format_thresholds,
    top_interpretation,
    tp_step,
)
from .transform import (
    answer_pred,
    query_answer,
    query_pred,
    raf_filter,
    split_predicates,
    unfold_clause,
    unfold_forward,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractModel",
    "AnalysisStats",
    "ArityError",
    "Atom",
    "AtomicConstraint",
    "ChcError",
    "Clause",
    "Constraint",
    "FALSE_PRED",
    "Interpretation",
    "LinExpr",
    "NonlinearTermError",
    "ParseError",
    "PipelineConfig",
    "PipelineResult",
    "Polyhedron",
    "Program",
    "Rel",
    "ThresholdSet",
    "Verdict",
    "analyze",
    "answer_pred",
    "atomconstraints",
    "backward_targets",
    "canonical_arg_names",
    "check_safety",
    "compute_thresholds",
    "format_atom",
    "format_atomic",
    "format_clause",
    "format_model",
    "format_polyhedron",
    "format_thresholds",
    "normalize_clause",
    "parse_constraint",
    "parse_program",
    "print_program",
    "query_answer",
    "query_pred",
    "raf_filter",
    "run_pipeline",
    "split_predicates",
    "top_interpretation",
    "tp_step",
    "unfold_clause",
    "unfold_forward",
]
