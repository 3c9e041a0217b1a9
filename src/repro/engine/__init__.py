"""The execution engine: the lowered rule executor, fixpoints, and the plan interpreter."""

from .evaluable import compare_terms, eval_term, solve_comparison, term_sort_key
from .faults import FaultInjector, FaultRule, InjectedFault
from .batch import JOIN_METHODS
from .fixpoint import EvaluationResult, FixpointEngine, Row, evaluate_program
from .governor import ResourceGovernor, make_governor
from .interpreter import Interpreter, QueryAnswers
from .maintenance import ViewSet
from .profiler import Profiler
from .topdown import TopDownEngine

__all__ = [
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
    "compare_terms",
    "eval_term",
    "evaluate_program",
    "make_governor",
    "solve_comparison",
    "term_sort_key",
]
