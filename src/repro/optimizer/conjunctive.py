"""Join-order search for conjunctive queries (Section 7.1).

"An important lesson learnt from the implementation of relational
database systems is that the execution space of a conjunctive query can
be viewed as the orderings of joins" — so the unit of search here is a
permutation of the *joinable* body literals (positive, non-evaluable).
Comparisons and negated goals float: each is applied at the earliest
position where it is effectively computable, which loses no optimality
(they only shrink intermediate results under a monotone cost model) and
realizes the PS part of the execution space for free, exactly as the
paper folds preselection into the join choice.

Two enumeration strategies live here:

* :func:`exhaustive_order` — all n! permutations (the reference the other
  strategies are measured against; the paper: "because of its complete
  nature, supplies the basis for assessing the soundness of the overall
  approach");
* :func:`dp_order` — the [Sel 79] dynamic program over the 2^n subsets,
  "reducing the n! permutations to 2^n choices" (Section 7.2), with
  branch-and-bound pruning against an incumbent found by a greedy
  connected-first probe.  Admissible completion bounds come from the same
  :class:`~repro.cost.estimates.BodyEstimator` statistics (see
  :class:`_CompletionBounds`), so pruning never changes the chosen cost:
  on every body the pruned search returns a plan cost-identical to
  :func:`exhaustive_order`.

Both delegate per-step costing to :class:`~repro.cost.estimates.BodyEstimator`,
so the EL (method) decision stays local to a fixed permutation, as the
paper observes.  Unsafe permutations cost ``inf`` and lose automatically
(Section 8.2); :func:`enumerate_orders` exposes the full cost spectrum
for the EXP-6 benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..cost.estimates import BodyEstimator, _no_derived
from ..cost.model import Estimate, INFINITE_COST, StepState
from ..datalog.literals import Literal
from ..datalog.safety import literal_is_ec
from ..datalog.terms import Variable


@dataclass(frozen=True, slots=True)
class CostedStep:
    """One literal placed in the chosen order, with its local decisions."""

    index: int          #: position of the literal in the original body
    method: str         #: EL label chosen for this step
    cost_delta: float   #: cost added by this step
    card_after: float   #: bindings-table cardinality after this step


@dataclass(frozen=True, slots=True)
class OrderResult:
    """A fully costed body ordering."""

    steps: tuple[CostedStep, ...]
    est: Estimate
    evaluations: int = 0  #: partial/full orders costed to find this result
    pruned: int = 0  #: partial orders discarded by branch-and-bound

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.steps)

    @property
    def is_safe(self) -> bool:
        return not self.est.is_infinite


def split_joinable(body: Sequence[Literal]) -> tuple[list[int], list[int]]:
    """Partition body positions into joinable and floating literals."""
    joinable: list[int] = []
    floating: list[int] = []
    for index, literal in enumerate(body):
        if literal.is_comparison or literal.negated:
            floating.append(index)
        else:
            joinable.append(index)
    return joinable, floating


#: A costed prefix: the state after it, the floating literals not yet
#: applied, and the steps so far.
Checkpoint = tuple[StepState, tuple[int, ...], tuple[CostedStep, ...]]


def _place(body, estimator, state: StepState, position: int, steps: list) -> StepState:
    before = state.cost
    state, method = estimator.literal_step(state, body[position])
    steps.append(CostedStep(position, method, state.cost - before, state.card))
    return state


def _extend(
    body: Sequence[Literal],
    estimator: BodyEstimator,
    entry: Checkpoint,
    position: int | None,
) -> Checkpoint:
    """Place joinable *position* after *entry* (``None``: nothing), then
    flush greedily every floating literal that has become EC."""
    state, pending, steps = entry
    out_steps = list(steps)
    if position is not None:
        state = _place(body, estimator, state, position, out_steps)
    remaining = list(pending)
    progressed = True
    while progressed and remaining:
        progressed = False
        for floating in list(remaining):
            ok, __ = literal_is_ec(body[floating], state.bound)
            if not ok:
                continue
            state = _place(body, estimator, state, floating, out_steps)
            remaining.remove(floating)
            progressed = True
    return state, tuple(remaining), tuple(out_steps)


def _root(body, floating, initially_bound, estimator) -> Checkpoint:
    """The empty prefix: the floats that are EC from the start, applied."""
    state = StepState(card=1.0, bound=frozenset(initially_bound), cost=0.0)
    return _extend(body, estimator, (state, tuple(floating), ()), None)


def _finalize(body: Sequence[Literal], estimator: BodyEstimator, entry: Checkpoint) -> OrderResult:
    """Force-apply the floats that never became EC (pricing the order unsafe)."""
    state, pending, steps = entry
    out_steps = list(steps)
    for position in pending:
        state = _place(body, estimator, state, position, out_steps)
    return OrderResult(tuple(out_steps), Estimate(state.cost, state.card))


def cost_order(
    body: Sequence[Literal],
    joinable_perm: Sequence[int],
    floating: Sequence[int],
    initially_bound: frozenset[Variable],
    estimator: BodyEstimator,
    checkpoints: list[Checkpoint] | None = None,
) -> OrderResult:
    """Cost one permutation of the joinable literals.

    Floating literals are flushed greedily as soon as they become EC;
    leftovers are force-applied at the end (pricing the order unsafe).

    *checkpoints* is the caller's list of the prefixes reached before the
    first and after each joinable position.  Entries already in it are
    trusted as this permutation's (a caller that changed the permutation
    from position *k* on hands over the first ``k + 1``); costing resumes
    after the last one and appends the rest, so an unchanged prefix is
    never re-costed.
    """
    trail = [] if checkpoints is None else checkpoints
    if not trail:
        trail.append(_root(body, floating, initially_bound, estimator))
    for position in joinable_perm[len(trail) - 1:]:
        trail.append(_extend(body, estimator, trail[-1], position))
    return _finalize(body, estimator, trail[-1])


def enumerate_orders(
    body: Sequence[Literal],
    initially_bound: frozenset[Variable],
    estimator: BodyEstimator,
) -> Iterator[OrderResult]:
    """Yield every joinable permutation, costed — the PR execution space.

    This is the raw material of the EXP-6 cost-spectrum experiment and of
    the quality baselines (EXP-1/EXP-2).
    """
    joinable, floating = split_joinable(body)
    for perm in itertools.permutations(joinable):
        yield cost_order(body, perm, floating, initially_bound, estimator)


def exhaustive_order(
    body: Sequence[Literal],
    initially_bound: frozenset[Variable],
    estimator: BodyEstimator,
) -> OrderResult:
    """Full enumeration; optimal over {MP, PR, PS, PP, EL}."""
    best: OrderResult | None = None
    evaluations = 0
    for result in enumerate_orders(body, initially_bound, estimator):
        evaluations += 1
        if best is None or result.est.cost < best.est.cost:
            best = result
    assert best is not None, "a body always has at least the empty permutation"
    return OrderResult(best.steps, best.est, evaluations)


class _CompletionBounds:
    """Admissible lower bounds on the cost of completing a partial order.

    The remaining literals must each still be placed; under the estimator's
    cost formulas every placement of a literal with input cardinality ``c``
    charges at least ``c * w`` where ``w = min(n, probe_weight, 1)`` for a
    base relation of ``n`` tuples (a floor under each of the nested/hash/
    index/merge formulas, so under any label set the estimator prices),
    ``probe_weight`` for a negated goal, and ``1`` for a comparison.  The
    input cardinality at any future placement is at least
    the current cardinality times the product of every remaining literal's
    *maximum possible shrink factor*: ``n / D**arity`` for a base literal
    (``D`` is the largest distinct count over the body's columns, an upper
    bound on every join divisor under the symmetric ``1/max(seen, new)``
    rule) and the declared filter selectivities for comparisons/negation.

    The bound is only claimed when every step is priced from catalog (or
    overlay) statistics with static selectivities: a derived oracle or
    builtin hints can price a step below the statistics floor, so their
    presence disables the bound (``lower()``
    returns 0.0 and pruning falls back to the accumulated prefix cost,
    which is always admissible — step deltas are non-negative).
    """

    def __init__(self, body: Sequence[Literal], estimator: BodyEstimator) -> None:
        self.shrink: dict[int, float] = {}
        self.weight: dict[int, float] = {}
        self.enabled = estimator.derived_oracle is _no_derived
        builtins = estimator.builtins
        if self.enabled and builtins is not None:
            for literal in body:
                if literal.is_comparison:
                    continue
                builtin = builtins.get(literal.predicate)
                if builtin is not None and builtin.arity == literal.arity:
                    self.enabled = False
                    break
        if not self.enabled:
            return
        params = estimator.params
        domain = 1.0
        positive = []
        for index, literal in enumerate(body):
            if literal.is_comparison or literal.negated:
                continue
            stats = estimator.stats_for(literal.predicate, literal.arity)
            positive.append((index, literal, stats))
            for position in range(literal.arity):
                domain = max(domain, stats.distinct(position))
        for index, literal, stats in positive:
            floor = stats.cardinality / (domain ** literal.arity)
            self.shrink[index] = min(1.0, floor)
            self.weight[index] = min(stats.cardinality, params.probe_weight, 1.0)
        for index, literal in enumerate(body):
            if literal.negated:
                self.shrink[index] = params.negation_selectivity
                self.weight[index] = params.probe_weight
            elif literal.is_comparison:
                if literal.predicate == "=":
                    self.shrink[index] = params.equality_filter_selectivity
                elif literal.predicate == "!=":
                    self.shrink[index] = params.disequality_selectivity
                else:
                    self.shrink[index] = params.inequality_selectivity
                self.weight[index] = 1.0

    def lower(self, state: StepState, remaining: Sequence[int]) -> float:
        """A cost every completion of *state* must still pay (0 when the
        bound cannot be claimed)."""
        if not self.enabled or not remaining or state.is_infinite:
            return 0.0
        card_floor = state.card
        total_weight = 0.0
        for position in remaining:
            card_floor *= self.shrink.get(position, 0.0)
            total_weight += self.weight.get(position, 0.0)
        return card_floor * total_weight


def _connected(literal: Literal, bound: frozenset) -> bool:
    """A literal extends the current frontier without a cross product when
    it shares a bound variable or carries only ground arguments."""
    return not literal.variables or bool(literal.variables & bound)


def dp_order(
    body: Sequence[Literal],
    initially_bound: frozenset[Variable],
    estimator: BodyEstimator,
) -> OrderResult:
    """Selinger dynamic programming over subsets of joinable literals,
    with branch-and-bound pruning against a greedy incumbent.

    Exact for this cost model: the (card, bound, ndv) state after a
    subset is order-independent — cardinality is a product of
    selectivities determined by the subset, and floating literals flush
    deterministically from the bound-variable set — so keeping the
    min-cost entry per subset is a lossless memo.  The table is keyed by
    the literal subset; the bound-variable frontier is a function of the
    subset and is recorded on the entry's state.  Each extension costs
    one incremental ``literal_step`` (plus float flushes) instead of
    re-costing the whole prefix, and cross products are *deferred*:
    connected extensions are explored first and seed the greedy
    incumbent, but disconnected ones are never eliminated (a cross
    product with a tiny relation can be strictly optimal).

    Branch-and-bound discards a partial order when its
    accumulated cost plus an admissible completion bound
    (:class:`_CompletionBounds`) already reaches the incumbent; since the
    bound never exceeds the true completion cost, the returned plan is
    cost-identical to :func:`exhaustive_order` on every body.
    """
    joinable, floating = split_joinable(body)
    if not joinable:
        return cost_order(body, (), floating, initially_bound, estimator)

    evaluations = 0
    pruned = 0
    bounds = _CompletionBounds(body, estimator)

    root = _root(body, floating, initially_bound, estimator)

    # Greedy incumbent: cheapest next step, connected extensions first —
    # the cross-product-deferring probe whose full cost seeds the bound.
    entry = root
    remaining = list(joinable)
    while remaining:
        best_key = None
        best_position = None
        best_child = None
        evaluations += len(remaining)
        for position in remaining:
            child = _extend(body, estimator, entry, position)
            key = (not _connected(body[position], entry[0].bound), child[0].cost)
            if best_key is None or key < best_key:
                best_key, best_position, best_child = key, position, child
        remaining.remove(best_position)
        entry = best_child
    best = _finalize(body, estimator, entry)
    incumbent_cost = best.est.cost

    # Subset DP, one layer per order length; entries carry the state
    # (with its bound-variable frontier), unflushed floats, and steps.
    table: dict[frozenset[int], tuple] = {frozenset(): root}
    for __ in range(len(joinable)):
        next_table: dict[frozenset[int], tuple] = {}
        for subset, entry in table.items():
            state = entry[0]
            candidates = sorted(
                (p for p in joinable if p not in subset),
                key=lambda p: (not _connected(body[p], state.bound), p),
            )
            evaluations += len(candidates)
            for position in candidates:
                child = _extend(body, estimator, entry, position)
                child_state = child[0]
                if incumbent_cost < INFINITE_COST:
                    left = [
                        p for p in joinable if p not in subset and p != position
                    ] + list(child[1])
                    if child_state.cost + bounds.lower(child_state, left) >= incumbent_cost:
                        pruned += 1
                        continue
                key = subset | {position}
                current = next_table.get(key)
                if current is not None and current[0].cost <= child_state.cost:
                    continue
                next_table[key] = child
        table = next_table

    full = table.get(frozenset(joinable))
    if full is not None:
        candidate = _finalize(body, estimator, full)
        if candidate.est.cost < best.est.cost:
            best = candidate
    return OrderResult(best.steps, best.est, evaluations, pruned)
