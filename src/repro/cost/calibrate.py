"""Calibrating the cost model against the engine it predicts.

Section 7.1: the system "is initially intended as an experimental
vehicle ... new ideas will be forthcoming that the design should be
capable of incorporating".  The cost formulae are a black box with
tunable weights (:class:`~repro.cost.model.CostParams`); this module
closes the loop by *measuring* the engine on a seeded probe workload and
searching the weight space for the best rank agreement between estimated
cost and measured work.

Rank agreement (Kendall's τ) is the right target — per Section 6 the
model's job is to order executions, not to predict absolute costs.

Typical use::

    from repro.cost.calibrate import calibrate_cost_params
    result = calibrate_cost_params(seed=0)
    kb = KnowledgeBase(OptimizerConfig(params=result.params))
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from ..storage.catalog import Database
from .estimates import BodyEstimator
from .model import CostParams, StepState


@dataclass(frozen=True, slots=True)
class CalibrationSample:
    """One probe: a two-way join executed with a forced method."""

    description: str
    estimated: float
    measured: float


@dataclass(frozen=True, slots=True)
class CalibrationResult:
    params: CostParams
    tau_before: float
    tau_after: float
    samples: tuple[CalibrationSample, ...]


def kendall_tau(xs: list[float], ys: list[float]) -> float:
    """Kendall's τ-a on paired samples (no external dependency)."""
    assert len(xs) == len(ys)
    n = len(xs)
    if n < 2:
        return 1.0
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = (xs[i] - xs[j]) * (ys[i] - ys[j])
            if a > 0:
                concordant += 1
            elif a < 0:
                discordant += 1
    pairs = n * (n - 1) / 2
    return (concordant - discordant) / pairs


def _probe_workloads(seed: int, count: int):
    """Seeded two-relation join probes with varying sizes and skew."""
    from ..datalog.parser import parse_rule

    rng = random.Random(seed)
    probes = []
    for index in range(count):
        left_card = rng.choice([50, 200, 800])
        fanout = rng.choice([1, 4, 16])
        domain = max(4, left_card // rng.choice([2, 8, 32]))
        db = Database()
        db.load(
            "l", [(f"k{i % domain}", f"v{i}") for i in range(left_card)]
        )
        db.load(
            "r", [(f"v{rng.randrange(left_card)}", f"w{i}") for i in range(left_card * fanout // 4 + 1)]
        )
        rule = parse_rule("out(X, W) <- l(X, V), r(V, W).")
        probes.append((f"probe{index}(card={left_card},fanout={fanout})", db, rule))
    return probes


def _measure(db: Database, rule, method: str) -> float:
    """The work of *rule*'s lowered join steps, each running *method*."""
    from ..engine.batch import BatchExecutor, compile_batch_plan
    from ..engine.profiler import Profiler

    profiler = Profiler()
    plan = compile_batch_plan(rule, reorder=False, methods=(method,) * len(rule.body))
    BatchExecutor().execute(
        plan, lambda position, literal: db.relation(literal.predicate), profiler
    )
    return float(profiler.total_work)


def _estimate(db: Database, rule, method: str, params: CostParams) -> float:
    estimator = BodyEstimator(db, params=params, methods=(method,))
    state = StepState(card=1.0, bound=frozenset())
    for literal in rule.body:
        state, __ = estimator.literal_step(state, literal)
    return state.cost


#: the weight grid the search walks (kept small: ranking, not regression)
_GRID = {
    "probe_weight": (0.5, 1.0, 2.0, 4.0),
    "materialize_weight": (0.5, 1.0, 2.0),
}

METHODS = ("nested_loop", "hash", "merge")


def calibrate_cost_params(
    seed: int = 0,
    probes: int = 8,
    base: CostParams | None = None,
) -> CalibrationResult:
    """Grid-search the cost weights for the best estimate↔measurement
    rank correlation on a seeded probe workload."""
    base = base or CostParams()
    workloads = _probe_workloads(seed, probes)

    measured: list[float] = []
    labels: list[tuple[str, Database, object, str]] = []
    for description, db, rule in workloads:
        for method in METHODS:
            measured.append(_measure(db, rule, method))
            labels.append((f"{description}/{method}", db, rule, method))

    def estimates_for(params: CostParams) -> list[float]:
        return [
            _estimate(db, rule, method, params)
            for __, db, rule, method in labels
        ]

    tau_before = kendall_tau(estimates_for(base), measured)

    best_params = base
    best_tau = tau_before
    for combo in itertools.product(*_GRID.values()):
        candidate = replace(base, **dict(zip(_GRID.keys(), combo)))
        tau = kendall_tau(estimates_for(candidate), measured)
        if tau > best_tau:
            best_tau = tau
            best_params = candidate

    final_estimates = estimates_for(best_params)
    samples = tuple(
        CalibrationSample(label, est, meas)
        for (label, __, ___, ____), est, meas in zip(labels, final_estimates, measured)
    )
    return CalibrationResult(
        params=best_params,
        tau_before=tau_before,
        tau_after=best_tau,
        samples=samples,
    )
