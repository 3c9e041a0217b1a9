"""Cost model scaffolding: parameters and estimate records.

Section 6 of the paper deliberately treats cost formulae as a black box
and only fixes the architectural contract:

* a *single* scalar cost per execution, monotonically increasing in
  operand sizes;
* an **infinite cost for unsafe executions** — "the cost function should
  guarantee an infinite cost if the size approaches infinity";
* per-method cost and result-cardinality functions for every available
  join/union/recursion method;
* the sum over processing-tree nodes as the execution's cost.

:class:`CostParams` gathers every tunable so experiments can perturb the
model (the paper: "even an inexact cost model can achieve this goal
reasonably well" — EXP-7 checks exactly that), and the estimate records
are what the optimizer passes around.  ``float('inf')`` is the unsafe
cost; it propagates naturally through sums and comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

INFINITE_COST = math.inf


@dataclass(frozen=True, slots=True)
class CostParams:
    """Tunable constants of the default cost model."""

    #: selectivity of ordering comparisons (<, <=, >, >=) — System R's 1/3
    inequality_selectivity: float = 1.0 / 3.0
    #: selectivity of ``!=``
    disequality_selectivity: float = 0.9
    #: selectivity of ``=`` used as a filter between two bound sides
    equality_filter_selectivity: float = 0.1
    #: selectivity of a negated goal
    negation_selectivity: float = 0.5
    #: per-column distinct fraction assumed for derived predicates
    derived_distinct_fraction: float = 0.8
    #: rounds of fixpoint estimation (recursion-depth surrogate)
    fixpoint_rounds: int = 12
    #: convergence threshold for fixpoint estimation (relative growth)
    fixpoint_epsilon: float = 0.01
    #: hard cap on any estimated cardinality — beyond it, treat as infinite
    cardinality_cap: float = 1e15
    #: fallback statistics for predicates with no catalog entry
    default_cardinality: float = 1000.0
    default_distinct: float = 100.0
    #: charge for writing a tuple to a temporary (materialization)
    materialize_weight: float = 1.0
    #: charge for one index/hash probe
    probe_weight: float = 1.0


@dataclass(frozen=True, slots=True)
class Estimate:
    """Cost and output cardinality of evaluating something once."""

    cost: float
    card: float

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.cost) or math.isinf(self.card)

    @classmethod
    def unsafe(cls) -> "Estimate":
        return cls(INFINITE_COST, INFINITE_COST)

    def __add__(self, other: "Estimate") -> "Estimate":
        return Estimate(self.cost + other.cost, self.card + other.card)


@dataclass(frozen=True, slots=True)
class DerivedEstimate:
    """The optimizer's memoized summary of a derived predicate at a binding.

    * ``per_probe`` — cost/card of answering *one* instance of the bound
      arguments (what a pipelined bind-join pays per outer row);
    * ``materialized`` — cost/card of computing the full extension under
      this binding once (what a materialized node pays);
    * ``ndvs`` — per-column distinct-value estimates of the materialized
      extension, for join selectivity above this node;
    * ``set_oriented`` — the bound subplan answers the whole key set in one
      evaluation (a magic / supplementary clique seeded with every key),
      so a bind-join pays at most ``materialized`` plus a probe per row.
    """

    per_probe: Estimate
    materialized: Estimate
    ndvs: tuple[float, ...]
    set_oriented: bool = False

    @property
    def is_infinite(self) -> bool:
        return self.per_probe.is_infinite and self.materialized.is_infinite


@dataclass(frozen=True, slots=True)
class StepState:
    """The left-to-right state while costing one rule body.

    ``card`` is the current bindings-table cardinality, ``bound`` the
    variables bound so far, ``cost`` the accumulated cost.  The initial
    state for a head binding has ``card=1`` (one probe instance).

    ``var_ndvs`` maps each bound variable to the estimated number of
    distinct values it ranges over.  Join selectivity on a variable is
    ``1/max(seen, new)`` and the estimate then drops to ``min(seen,
    new)`` — the symmetric System R rule, which makes the cardinality of
    a literal *set* independent of join order (the property Selinger DP
    relies on).  Query-bound variables carry a single value: ndv 1.
    """

    card: float
    bound: frozenset
    cost: float = 0.0
    var_ndvs: Mapping = field(default_factory=dict)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.cost) or math.isinf(self.card)

    def ndv_of(self, var) -> float:
        """Distinct-value estimate for a bound variable (1 when unknown —
        head-bound and ``=``-computed variables hold one value per row)."""
        return self.var_ndvs.get(var, 1.0)

    def charged(
        self,
        extra_cost: float,
        new_card: float,
        newly_bound: frozenset,
        ndv_updates: Mapping | None = None,
    ) -> "StepState":
        ndvs = dict(self.var_ndvs)
        for var, value in (ndv_updates or {}).items():
            current = ndvs.get(var)
            ndvs[var] = value if current is None else min(current, value)
        return StepState(
            card=new_card,
            bound=self.bound | newly_bound,
            cost=self.cost + extra_cost,
            var_ndvs=ndvs,
        )


def clamp_card(card: float, params: CostParams) -> float:
    """Saturate a cardinality estimate at the cap.

    The cap stays *finite*: astronomically large estimates make a plan
    lose every comparison, but only the safety analysis (EC violations,
    missing well-founded orders) may price a plan at ``inf`` — size
    explosion in the estimator is a modelling artifact, not unsafety.
    """
    if math.isinf(card):
        return card  # already marked unsafe upstream
    if card > params.cardinality_cap:
        return params.cardinality_cap
    return max(card, 0.0)


def scaled(count: float, factor: float) -> float:
    """``count * factor`` with the convention ``0 * inf == 0``.

    A zero-cardinality input means the work is never performed, no matter
    how expensive a single unit would have been.
    """
    if count == 0.0 or factor == 0.0:
        return 0.0
    return count * factor
