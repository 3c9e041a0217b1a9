"""Simulated annealing over join orders and c-permutations (Section 7.1/7.3).

The paper characterizes its stochastic strategy entirely by the *neighbor
relation*:

* conjunctive queries — "define a neighbor to be any permutation that
  differs in exactly two places"; the closure of that relation is the
  whole permutation space;
* recursive cliques — a neighbor of a c-permutation changes exactly one
  of the per-rule permutations, by interchanging exactly two literals.

:func:`anneal` is the shared walker: given any state space expressed as
(initial state, neighbor sampler, cost function) it runs a classical
geometric-cooling annealing schedule and reports the best state seen and
the number of cost evaluations spent — the quantity EXP-2 compares
against exhaustive enumeration.  Unsafe states (infinite cost) are
handled by a large finite surrogate so the walk can escape them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from ..cost.estimates import BodyEstimator
from ..datalog.literals import Literal
from ..datalog.terms import Variable
from .conjunctive import OrderResult, cost_order, split_joinable

State = TypeVar("State")

#: Finite surrogate for infinite cost inside acceptance probabilities.
_UNSAFE_SURROGATE = 1e30


@dataclass(frozen=True, slots=True)
class AnnealingSchedule:
    """Cooling parameters; the defaults follow common practice [IW 87]."""

    initial_temperature: float | None = None  #: None: derived from initial cost
    cooling: float = 0.9
    steps_per_temperature: int = 16
    minimum_temperature_fraction: float = 1e-4
    max_evaluations: int = 2000


@dataclass(frozen=True, slots=True)
class AnnealingResult:
    state: object
    cost: float
    evaluations: int


def anneal(
    initial: State,
    neighbor: Callable[[State, random.Random], State],
    cost_of: Callable[[State], float],
    rng: random.Random,
    schedule: AnnealingSchedule | None = None,
) -> AnnealingResult:
    """Generic simulated annealing: random walk under the neighbor relation."""
    schedule = schedule or AnnealingSchedule()

    def finite(cost: float) -> float:
        return _UNSAFE_SURROGATE if math.isinf(cost) else cost

    current = initial
    current_cost = cost_of(current)
    evaluations = 1
    best, best_cost = current, current_cost

    temperature = schedule.initial_temperature
    if temperature is None:
        temperature = max(finite(current_cost) * 0.5, 1.0)
    floor = temperature * schedule.minimum_temperature_fraction

    while temperature > floor and evaluations < schedule.max_evaluations:
        for __ in range(schedule.steps_per_temperature):
            if evaluations >= schedule.max_evaluations:
                break
            candidate = neighbor(current, rng)
            candidate_cost = cost_of(candidate)
            evaluations += 1
            delta = finite(candidate_cost) - finite(current_cost)
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current, current_cost = candidate, candidate_cost
            if finite(candidate_cost) < finite(best_cost):
                best, best_cost = candidate, candidate_cost
        temperature *= schedule.cooling
    return AnnealingResult(best, best_cost, evaluations)


def _swap_two(perm: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """The paper's neighbor: interchange two positions."""
    if len(perm) < 2:
        return perm
    i, j = rng.sample(range(len(perm)), 2)
    out = list(perm)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def annealing_order(
    body: Sequence[Literal],
    initially_bound: frozenset[Variable],
    estimator: BodyEstimator,
    rng: random.Random | None = None,
    schedule: AnnealingSchedule | None = None,
) -> OrderResult:
    """Simulated-annealing join ordering with the swap-two neighborhood."""
    rng = rng or random.Random(0)
    joinable, floating = split_joinable(body)
    if len(joinable) <= 1:
        return cost_order(body, tuple(joinable), floating, initially_bound, estimator)

    # Per costed permutation its result and prefix checkpoints; a candidate
    # resumes from the checkpoint of the state it was swapped from, at the
    # first of the two exchanged positions.
    cache: dict[tuple[int, ...], tuple[OrderResult, list]] = {}
    origin: tuple[int, ...] = ()

    def neighbor(perm: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
        nonlocal origin
        origin = perm
        return _swap_two(perm, rng)

    def cost_of(perm: tuple[int, ...]) -> float:
        if perm not in cache:
            shared = next((k for k, (a, b) in enumerate(zip(origin, perm)) if a != b), 0)
            trail = cache[origin][1][: shared + 1] if origin else []
            result = cost_order(body, perm, floating, initially_bound, estimator, trail)
            cache[perm] = (result, trail)
        return cache[perm][0].est.cost

    initial = tuple(joinable)
    outcome = anneal(initial, neighbor, cost_of, rng, schedule)
    best = cache[outcome.state][0]  # type: ignore[index]
    return OrderResult(best.steps, best.est, outcome.evaluations)
