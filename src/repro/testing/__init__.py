"""Differential correctness harness across execution strategies.

The paper's execution space (Section 5) is the closure of a plan under
equivalence-preserving transformations, and the optimizer may pick *any*
point in it — which is only trustworthy if the evaluation paths really
are answer-equivalent.  This package enforces that mechanically:

* :mod:`~repro.testing.oracle` — run one program + query through every
  execution strategy (interpreted/compiled fixpoint, tabled SLD, direct
  basic/supplementary magic, and the optimizer under each search
  strategy) and diff the answer sets;
* :mod:`~repro.testing.shrink` — delta-debug a disagreeing case down to
  a minimal reproducer, emitted as a pytest test plus a corpus file;
* :mod:`~repro.testing.metamorphic` — re-run programs under the
  MP/PR/PS/EL plan transforms asserting answer stability, and check the
  cost model's internal consistency (the exhaustive optimum really is
  the minimum over the enumerated orders);
* :mod:`~repro.testing.sweep` — the CLI driver
  (``python -m repro.testing.sweep --seed 0 --count 200``);
* :mod:`~repro.testing.chaos` — seeded fault sweeps (injected
  operator and I/O errors, aborted transactions) asserting the
  fault-tolerance contract (``python -m repro.testing.chaos``); its
  names are imported from the module itself, which the package does not
  load, so ``-m`` runs it once.
"""

from .oracle import (
    Case,
    DifferentialOracle,
    Disagreement,
    OracleError,
    OracleSkip,
    StrategyOutcome,
    case_from_dict,
    case_to_dict,
    strategy_names,
)
from .metamorphic import MetamorphicChecker
from .shrink import shrink_case, to_corpus_dict, to_pytest_source

__all__ = [
    "Case",
    "DifferentialOracle",
    "Disagreement",
    "MetamorphicChecker",
    "OracleError",
    "OracleSkip",
    "StrategyOutcome",
    "case_from_dict",
    "case_to_dict",
    "shrink_case",
    "strategy_names",
    "to_corpus_dict",
    "to_pytest_source",
]
