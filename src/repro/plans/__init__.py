"""Processing trees: nodes, transformations, and the EXPLAIN printer."""

from .nodes import (
    DerivedPlan,
    FixpointNode,
    JoinNode,
    JoinStep,
    PlanCode,
    PlanNode,
    RECURSIVE_METHODS,
    count_nodes,
    plan_nodes,
)
from .dot import plan_to_dot
from .printer import explain, explain_analyzed
from .serialize import plan_to_dict, plan_to_json
from .transforms import (
    exchange_label,
    flatten_program,
    flatten_rule,
    permute,
    push_select,
    set_mode,
    unflatten_program,
)

__all__ = [
    "DerivedPlan",
    "FixpointNode",
    "JoinNode",
    "JoinStep",
    "PlanCode",
    "PlanNode",
    "RECURSIVE_METHODS",
    "count_nodes",
    "exchange_label",
    "explain",
    "explain_analyzed",
    "flatten_program",
    "flatten_rule",
    "permute",
    "plan_nodes",
    "plan_to_dict",
    "plan_to_dot",
    "plan_to_json",
    "push_select",
    "set_mode",
    "unflatten_program",
]
