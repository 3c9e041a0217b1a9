"""The execution engine: operators, fixpoints, and the plan interpreter."""

from .evaluable import compare_terms, eval_term, solve_comparison, term_sort_key
from .faults import FaultInjector, FaultRule, InjectedFault
from .fixpoint import EvaluationResult, FixpointEngine, evaluate_program
from .governor import ResourceGovernor, make_governor
from .interpreter import Interpreter, QueryAnswers
from .operators import (
    BindingsTable,
    JOIN_METHODS,
    Row,
    apply_comparison,
    head_rows,
    negation_filter,
    scan_join,
)
from .maintenance import ViewSet
from .profiler import Profiler
from .topdown import TopDownEngine

__all__ = [
    "BindingsTable",
    "EvaluationResult",
    "FaultInjector",
    "FaultRule",
    "FixpointEngine",
    "InjectedFault",
    "Interpreter",
    "JOIN_METHODS",
    "Profiler",
    "QueryAnswers",
    "ResourceGovernor",
    "Row",
    "TopDownEngine",
    "ViewSet",
    "apply_comparison",
    "compare_terms",
    "eval_term",
    "evaluate_program",
    "head_rows",
    "make_governor",
    "negation_filter",
    "scan_join",
    "solve_comparison",
    "term_sort_key",
]
