"""The LDL language layer: terms, rules, parsing, and program analysis.

This package is the logic substrate of the reproduction — everything the
optimizer and engine need to *reason about* programs: term representation
and unification, the rule/program model, the parser, binding patterns and
sideways information passing, the predicate dependency graph with its
recursive cliques, the adornment/magic/counting rewrites of Section 7.3,
and the safety analysis of Section 8.
"""

from .adorn import (
    AdornedClique,
    AdornedRule,
    CPermutation,
    adorn_clique,
    enumerate_cpermutations,
    greedy_sip_permutation,
)
from .builtins import BuiltinPredicate, BuiltinRegistry, builtin_oracle, default_builtins
from .bindings import (
    BindingPattern,
    QueryForm,
    adorned_name,
    adornment_sequence,
    all_binding_patterns,
    binds_after,
    head_bound_vars,
    sip_bindings,
    split_adorned_name,
)
from .counting import counting_applicable, counting_rewrite
from .graph import Clique, DependencyGraph
from .literals import COMPARISON_OPS, Literal, PredicateRef, comparison, lit, pred_ref
from .magic import SeededProgram, magic_rewrite, supplementary_magic_rewrite
from .parser import parse_literal, parse_program, parse_query, parse_rule
from .rewrite import push_projections, relevant_program, rename_apart, specialize
from .rules import Program, Rule
from .safety import (
    ECReport,
    WellFoundedReport,
    ec_check,
    exists_safe_order,
    literal_is_ec,
    well_founded_order,
)
from .terms import (
    Constant,
    Struct,
    Term,
    Variable,
    is_ground,
    make_list,
    term_from_python,
    variables_of,
)
from .unify import Substitution, apply, match, unify, unify_sequences

__all__ = [
    "AdornedClique",
    "AdornedRule",
    "BindingPattern",
    "BuiltinPredicate",
    "BuiltinRegistry",
    "COMPARISON_OPS",
    "Clique",
    "Constant",
    "CPermutation",
    "DependencyGraph",
    "ECReport",
    "Literal",
    "PredicateRef",
    "Program",
    "QueryForm",
    "Rule",
    "SeededProgram",
    "Struct",
    "Substitution",
    "Term",
    "Variable",
    "WellFoundedReport",
    "adorn_clique",
    "adorned_name",
    "adornment_sequence",
    "all_binding_patterns",
    "apply",
    "binds_after",
    "builtin_oracle",
    "comparison",
    "default_builtins",
    "counting_applicable",
    "counting_rewrite",
    "ec_check",
    "enumerate_cpermutations",
    "exists_safe_order",
    "greedy_sip_permutation",
    "head_bound_vars",
    "is_ground",
    "lit",
    "literal_is_ec",
    "magic_rewrite",
    "make_list",
    "match",
    "parse_literal",
    "parse_program",
    "parse_query",
    "parse_rule",
    "pred_ref",
    "push_projections",
    "relevant_program",
    "rename_apart",
    "sip_bindings",
    "specialize",
    "split_adorned_name",
    "supplementary_magic_rewrite",
    "term_from_python",
    "unify",
    "unify_sequences",
    "variables_of",
    "well_founded_order",
]
