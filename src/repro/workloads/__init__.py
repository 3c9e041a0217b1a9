"""Workload generators: random queries, synthetic datasets, paper fixtures."""

from .datasets import (
    balanced_tree,
    bill_of_materials,
    chain,
    random_dag,
    random_graph,
    random_linear_program,
    same_generation_instance,
)
from .paper_rulebase import PAPER_RULEBASE, paper_database, paper_program
from .querygen import (
    DIFFERENTIAL_FEATURES,
    RUNAWAY_KINDS,
    SHAPES,
    ConjunctiveWorkload,
    DifferentialProgram,
    generate_batch,
    generate_conjunctive,
    generate_differential_program,
    generate_runaway_program,
)

__all__ = [
    "ConjunctiveWorkload",
    "DIFFERENTIAL_FEATURES",
    "DifferentialProgram",
    "PAPER_RULEBASE",
    "RUNAWAY_KINDS",
    "SHAPES",
    "balanced_tree",
    "bill_of_materials",
    "chain",
    "generate_batch",
    "generate_conjunctive",
    "generate_differential_program",
    "generate_runaway_program",
    "paper_database",
    "paper_program",
    "random_dag",
    "random_graph",
    "random_linear_program",
    "same_generation_instance",
]
