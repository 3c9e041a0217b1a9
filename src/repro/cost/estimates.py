"""The body estimator: costing rule bodies literal by literal.

This is the workhorse the search strategies drive.  Costing a permutation
of a rule body is a left-to-right fold over :class:`StepState`: each
literal contributes a method-dependent cost and transforms the
cardinality, with the SIP bindings implied by everything to its left —
the paper's observation that "the binding implied by the pipelining is
also treated as selections" (Section 7.1).

The same estimator, iterated, prices fixpoints: :func:`estimate_fixpoint`
runs rounds of per-rule estimation with growing derived-relation
estimates until they stabilize, which uniformly costs semi-naive on the
original clique, magic and counting on their rewritten programs — the
"applicable recursive methods" of the OPT algorithm, step 3.iii.

Unsafe steps (an evaluable predicate entered with insufficient bindings)
price at ``inf``, implementing Section 8.2: "this can be done by simply
assigning an extremely high cost to unsafe goals and then let the
standard optimization algorithm do the pruning".
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from ..datalog.bindings import BindingPattern, binds_after
from ..datalog.literals import Literal
from ..datalog.rules import Program, Rule
from ..datalog.safety import literal_is_ec
from ..datalog.terms import Variable, variables_of
from ..storage.statistics import RelationStats, StatisticsProvider
from .model import (
    CostParams,
    DerivedEstimate,
    Estimate,
    INFINITE_COST,
    StepState,
    clamp_card,
    scaled,
)

#: Resolves a derived literal at a binding to its memoized estimates; the
#: optimizer supplies this (NR-OPT step 2 recursion).  ``None`` means the
#: predicate is not derived after all.
DerivedOracle = Callable[[Literal, BindingPattern], DerivedEstimate | None]

#: Join / access methods available to leaf steps (the EL label set).
LEAF_METHODS = ("index", "hash", "nested_loop", "merge")


def _no_derived(literal: Literal, binding: BindingPattern) -> DerivedEstimate | None:
    return None


class _Profile:
    """What costing reads of one literal that no :class:`StepState` changes.

    ``args`` holds, per argument, the :class:`Variable` itself, ``None``
    for a ground term or the variable set of a struct that has some;
    ``derived`` is whether the predicate has rules (``None`` until the
    oracle was asked); ``adornments`` is :meth:`BodyEstimator.adornment`'s
    memo.
    """

    __slots__ = ("args", "variables", "derived", "adornments")

    def __init__(self, literal: Literal):
        self.args = tuple(
            arg if isinstance(arg, Variable) else variables_of(arg) or None
            for arg in literal.args
        )
        self.variables = literal.variables
        self.derived: bool | None = None
        self.adornments: dict[int, BindingPattern] = {}

    def join(
        self, distincts: Sequence[float], state: StepState
    ) -> tuple[float, int, dict[Variable, float]]:
        """Selectivity of the bound positions, those positions as a bit
        mask, and the per-variable distinct-count updates the join implies.

        Selectivity per bound position follows the symmetric rule
        ``1/max(seen, new)`` (see :class:`StepState`), which keeps
        cardinality estimates independent of join order — the property
        the Selinger DP relies on.
        """
        selectivity = 1.0
        mask = 0
        updates: dict[Variable, float] = {}
        bound, seen, known = state.bound, state.var_ndvs, len(distincts)
        for index, arg in enumerate(self.args):
            d_new = max(1.0, distincts[index] if index < known else 1.0)
            if arg.__class__ is Variable:
                if arg in bound:
                    mask |= 1 << index
                    d_seen = max(1.0, seen.get(arg, 1.0))
                    selectivity /= max(d_seen, d_new)
                    updates[arg] = min(updates.get(arg, d_new), d_new, d_seen)
                else:
                    # free position: the variable will range over this column
                    updates[arg] = min(updates.get(arg, d_new), d_new)
            elif arg is None or arg <= bound:
                # ground (or fully bound struct) argument: a point selection
                mask |= 1 << index
                selectivity /= d_new
        return selectivity, mask, updates


class BodyEstimator:
    """Prices one body literal at a time against catalog statistics.

    A step's anatomy: *per literal* (once, :class:`_Profile`) its
    argument kinds, variable set and whether it is derived; *per
    (literal, bound-argument mask)* (once, :meth:`adornment`) its binding
    pattern; *per step* a loop over the argument kinds reading floats
    plus the method formulas of :meth:`leaf_step`.  ``profiles`` is that
    memo; an owner of many estimators over one program assigns them one
    dict (the optimizer, for its own lifetime).
    """

    def __init__(
        self,
        stats: StatisticsProvider,
        params: CostParams | None = None,
        derived_oracle: DerivedOracle | None = None,
        extra_stats: Mapping[str, RelationStats] | None = None,
        builtins=None,
    ):
        self.stats = stats
        self.params = params or CostParams()
        self.derived_oracle = derived_oracle or _no_derived
        #: statistics overlay for predicates invented by rewrites (magic
        #: seeds, counting levels) that have no catalog entry
        self.extra_stats: dict[str, RelationStats] = dict(extra_stats or {})
        #: registry of built-in (infinite) predicates with declared modes
        self.builtins = builtins
        self.profiles: dict[Literal, _Profile] = {}

    # -- statistics access ---------------------------------------------------

    def stats_for(self, name: str, arity: int) -> RelationStats:
        found = self.extra_stats.get(name) or self.stats.stats_for(name)
        if found is not None and (not found.columns or found.arity == arity):
            return found
        # unknown, or stored at another arity: the literal is costed as
        # declared and the executor reports the mismatch
        params = self.params
        return RelationStats.declared(
            params.default_cardinality, [params.default_distinct] * arity
        )

    # -- literal profiles -------------------------------------------------------

    def _profile(self, literal: Literal) -> _Profile:
        profile = self.profiles.get(literal)
        if profile is None:
            profile = self.profiles[literal] = _Profile(literal)
        return profile

    def adornment(self, literal: Literal, bound: frozenset) -> BindingPattern:
        """The :class:`BindingPattern` of *literal* entered with *bound*,
        built once per bound-argument mask and shared by the derived
        oracle and the optimizer's plan steps."""
        profile = self._profile(literal)
        mask = profile.join((), StepState(1.0, bound))[1]
        pattern = profile.adornments.get(mask)
        if pattern is None:
            pattern = profile.adornments[mask] = BindingPattern.of_literal(literal, bound)
        return pattern

    def derived_estimate(self, state: StepState, literal: Literal) -> DerivedEstimate | None:
        """The derived oracle's answer for *literal* entered at *state*;
        a literal once found stored is not asked about again."""
        profile = self._profile(literal)
        if profile.derived is False:
            return None
        derived = self.derived_oracle(literal, self.adornment(literal, state.bound))
        profile.derived = derived is not None
        return derived

    # -- the step function --------------------------------------------------------

    def comparison_step(self, state: StepState, literal: Literal) -> StepState:
        """Cost a comparison; ``=`` may bind variables, others filter."""
        params = self.params
        ok, __ = literal_is_ec(literal, state.bound)
        if not ok:
            return StepState(INFINITE_COST, state.bound, INFINITE_COST)
        new_bound = binds_after(literal, state.bound) - state.bound
        if literal.predicate == "=":
            if new_bound:
                card = state.card  # computes a value per row
            else:
                card = state.card * params.equality_filter_selectivity
        elif literal.predicate == "!=":
            card = state.card * params.disequality_selectivity
        else:
            card = state.card * params.inequality_selectivity
        card = clamp_card(card, params)
        return state.charged(state.card, card, frozenset(new_bound))

    def negation_step(self, state: StepState, literal: Literal) -> StepState:
        """Cost a (fully bound) negated goal: one membership probe per row."""
        params = self.params
        ok, __ = literal_is_ec(literal, state.bound)
        if not ok:
            return StepState(INFINITE_COST, state.bound, INFINITE_COST)
        card = clamp_card(state.card * params.negation_selectivity, params)
        return state.charged(state.card * params.probe_weight, card, frozenset())

    def builtin_step(self, state: StepState, literal: Literal, builtin) -> StepState:
        """Cost a built-in call: infinite unless a declared mode is
        satisfied (Section 8.1's mode-declaration mechanism), else the
        registered per-probe hints scaled by the input cardinality."""
        params = self.params
        if not builtin.is_ec(literal, state.bound):
            return StepState(INFINITE_COST, state.bound, INFINITE_COST)
        cost = scaled(state.card, builtin.per_probe_cost)
        out_card = clamp_card(scaled(state.card, builtin.per_probe_card), params)
        newly = frozenset(literal.variables - state.bound)
        return state.charged(cost, out_card, newly)

    def leaf_step(
        self,
        state: StepState,
        literal: Literal,
        stats: RelationStats,
        methods: Sequence[str] = LEAF_METHODS,
    ) -> tuple[StepState, str]:
        """Cost joining the current table with a stored relation under
        every method in *methods*; returns the state and label of the
        first strictly cheapest.  What no method changes — selectivity,
        bound positions, ndv updates and the per-probe fanout — is
        derived once."""
        params = self.params
        profile = self._profile(literal)
        distincts = [stats.distinct(i) for i in range(len(profile.args))]
        selectivity, mask, ndv_updates = profile.join(distincts, state)
        card, n, probe_weight = state.card, stats.cardinality, params.probe_weight
        per_probe = n * selectivity
        out_card = clamp_card(scaled(card, per_probe), params)
        best_cost = best_work = best_card = best_method = None
        for method in methods:
            if method == "nested_loop" or (method == "index" and not mask):
                work = card * n  # an index probing nothing: degenerate scan
            elif method == "hash":
                work = n + card * probe_weight + out_card
            elif method == "index":
                work = card * (probe_weight + per_probe) + out_card
            elif method == "merge":
                work = n * math.log2(n + 2) + card * math.log2(card + 2) + out_card
            else:
                raise ValueError(f"unknown join method {method!r}")
            cost = state.cost + work
            if best_method is None or cost < best_cost:
                best_cost, best_work, best_card, best_method = cost, work, out_card, method
        return state.charged(best_work, best_card, profile.variables, ndv_updates), best_method

    def base_step(
        self,
        state: StepState,
        literal: Literal,
        stats: RelationStats,
        method: str,
    ) -> StepState:
        """Cost joining the current table with a base relation by *method*."""
        return self.leaf_step(state, literal, stats, (method,))[0]

    def derived_step(
        self,
        state: StepState,
        literal: Literal,
        derived: DerivedEstimate,
        pipelined: bool,
    ) -> StepState:
        """Cost joining with a derived predicate (pipelined or materialized)."""
        params = self.params
        profile = self._profile(literal)
        selectivity, __, ndv_updates = profile.join(derived.ndvs, state)
        if pipelined:
            # bind-join: re-evaluate the bound subplan per outer row -- or,
            # for a clique seeded with the whole key set, once (deriving no
            # more than the full extension does) and probe it per row.
            cost = scaled(state.card, derived.per_probe.cost)
            if derived.set_oriented:
                cost = min(cost, derived.materialized.cost + state.card * params.probe_weight)
            out_card = clamp_card(scaled(state.card, derived.per_probe.card), params)
            return state.charged(cost, out_card, profile.variables, ndv_updates)
        # materialized: compute once, then hash-join on bound positions.
        if derived.materialized.is_infinite:
            return StepState(INFINITE_COST, state.bound, INFINITE_COST)
        per_probe = derived.materialized.card * selectivity
        out_card = clamp_card(scaled(state.card, per_probe), params)
        cost = (
            derived.materialized.cost
            + derived.materialized.card * params.materialize_weight
            + state.card * params.probe_weight
            + out_card
        )
        return state.charged(cost, out_card, profile.variables, ndv_updates)

    def literal_step(
        self,
        state: StepState,
        literal: Literal,
        method: str | None = None,
    ) -> tuple[StepState, str]:
        """Cost one literal, choosing the cheapest method when not forced.

        Returns the new state and the method label used (the EL decision,
        which the paper notes is local for a fixed permutation).
        """
        if state.is_infinite:
            return state, method or "hash"
        if literal.is_comparison:
            return self.comparison_step(state, literal), "eval"
        if literal.negated:
            return self.negation_step(state, literal), "anti_probe"

        if self.builtins is not None:
            builtin = self.builtins.get(literal.predicate)
            if builtin is not None and builtin.arity == literal.arity:
                return self.builtin_step(state, literal, builtin), "builtin"

        # An overlay entry (fixpoint estimation in progress) shadows the
        # derived oracle: the predicate is priced as a growing relation,
        # never by recursive re-optimization.
        stats = self.extra_stats.get(literal.predicate)
        if stats is not None:
            if method not in LEAF_METHODS:
                method = None
        else:
            derived = self.derived_estimate(state, literal)
            if derived is not None:
                if method in ("pipelined", "materialized"):
                    pipelined = method == "pipelined"
                    return self.derived_step(state, literal, derived, pipelined), method
                pipe = self.derived_step(state, literal, derived, True)
                mat = self.derived_step(state, literal, derived, False)
                if pipe.cost <= mat.cost:
                    return pipe, "pipelined"
                return mat, "materialized"
            stats = self.stats_for(literal.predicate, literal.arity)
        return self.leaf_step(
            state, literal, stats, LEAF_METHODS if method is None else (method,)
        )

    # -- whole bodies ------------------------------------------------------------

    def body_estimate(
        self,
        body: Sequence[Literal],
        initially_bound: frozenset[Variable] = frozenset(),
        initial_card: float = 1.0,
    ) -> tuple[Estimate, tuple[str, ...]]:
        """Cost *body* in the given order; returns estimate + method labels."""
        state = StepState(card=initial_card, bound=frozenset(initially_bound), cost=0.0)
        methods: list[str] = []
        for literal in body:
            state, method = self.literal_step(state, literal)
            methods.append(method)
        return Estimate(state.cost, state.card), tuple(methods)


def derived_ndvs(card: float, arity: int, params: CostParams) -> tuple[float, ...]:
    """Default per-column distinct estimates for a derived extension."""
    if math.isinf(card):
        return tuple(INFINITE_COST for __ in range(arity))
    return tuple(max(1.0, card * params.derived_distinct_fraction) for __ in range(arity))


def estimate_fixpoint(
    program: Program,
    estimator_factory: Callable[[Mapping[str, RelationStats]], BodyEstimator],
    seed_cards: Mapping[str, tuple[float, int]],
    params: CostParams,
    level_indexed: frozenset[str] = frozenset(),
    cost_cap: float = INFINITE_COST,
) -> tuple[Estimate, dict[str, float]]:
    """Price a fixpoint computation of *program* by iterated estimation.

    ``cost_cap`` is a branch-and-bound cutoff: once the accumulated cost
    reaches it, estimation stops early and returns the partial (>= cap)
    estimate.  Because the per-round cost only ever accumulates, a capped
    candidate can never strictly beat the incumbent that set the cap, so
    the cutoff is choice-preserving for strict ``<`` comparisons.

    ``seed_cards`` maps seed predicate names to ``(cardinality, arity)``.
    Each round re-estimates every rule with the current derived-relation
    estimates (as a statistics overlay) and grows them; the loop stops on
    convergence or after ``params.fixpoint_rounds`` rounds — the rounds
    bound doubles as the recursion-depth surrogate.  The returned cost
    sums the per-round rule costs, mirroring semi-naive work; the
    cardinalities are the estimated final extents.

    Derived cardinalities *saturate*: a fixpoint over a finite database
    cannot exceed the domain product of its columns, so every derived
    predicate is capped at ``D**arity`` where D is the largest distinct
    count among the program's base-relation columns.  This is what keeps
    magic-set estimates honest — a magic set can never outgrow the domain
    of the bound argument, no matter how large the per-level fanout looks.
    Predicates in *level_indexed* (the counting rewrite's ``cnt_``/``ans_``
    relations, one of whose columns is a bounded iteration index) are capped
    at ``rounds * D**(arity-1)`` instead.

    Genuine unsafety is priced upstream (EC violations yield ``inf`` from
    the body estimator; termination is the safety analysis's job).
    """
    totals: dict[str, float] = {}
    arities: dict[str, int] = {}
    for rule in program:
        totals.setdefault(rule.head.predicate, 0.0)
        arities[rule.head.predicate] = rule.head.arity
    deltas: dict[str, float] = {name: 0.0 for name in totals}
    for name, (card, arity) in seed_cards.items():
        totals[name] = totals.get(name, 0.0) + card
        deltas[name] = deltas.get(name, 0.0) + card
        arities[name] = arity

    derived_names = set(totals)

    # Domain saturation: D = the largest distinct count among the base
    # columns the program touches (plus seeds), bounding every derived
    # predicate at D**arity.
    probe = estimator_factory({})
    domain = 1.0
    for rule in program:
        for literal in rule.body:
            if literal.is_comparison or literal.predicate in derived_names:
                continue
            stats = probe.stats_for(literal.predicate, literal.arity)
            for position in range(literal.arity):
                domain = max(domain, stats.distinct(position))
    caps: dict[str, float] = {}
    for name, arity in arities.items():
        if name in level_indexed and arity >= 1:
            cap = max(1.0, params.fixpoint_rounds) * domain ** max(0, arity - 1)
        else:
            cap = domain ** arity
        caps[name] = min(params.cardinality_cap, max(1.0, cap))

    def capped(name: str, value: float) -> float:
        return min(caps[name], value)

    def overlay_from(cards: Mapping[str, float]) -> dict[str, RelationStats]:
        return {
            name: RelationStats.declared(
                max(cards.get(name, 0.0), 0.0),
                derived_ndvs(max(cards.get(name, 0.0), 1.0), arities[name], params),
            )
            for name in derived_names
        }

    def is_recursive_rule(rule: Rule) -> bool:
        return any(
            not l.is_comparison and l.predicate in derived_names for l in rule.body
        )

    total_cost = 0.0

    # Round 0: exit rules fire against base relations (plus any seeds).
    estimator = estimator_factory(overlay_from(totals))
    for rule in program:
        if is_recursive_rule(rule):
            continue
        estimate, __ = estimator.body_estimate(rule.body)
        if estimate.is_infinite:
            return Estimate.unsafe(), totals
        total_cost += estimate.cost
        head = rule.head.predicate
        totals[head] = capped(head, totals[head] + estimate.card)
        deltas[head] = capped(head, deltas.get(head, 0.0) + estimate.card)
    if total_cost >= cost_cap:
        answer = max((totals[r.head.predicate] for r in program), default=0.0)
        return Estimate(total_cost, answer), totals

    # Rounds 1..R: recursive rules driven by the previous round's deltas,
    # one pass per derived body predicate with *that* predicate priced at
    # its delta and the others at their totals — the semi-naive
    # discipline the engine actually follows.
    for _round in range(max(1, params.fixpoint_rounds)):
        new_deltas: dict[str, float] = {name: 0.0 for name in derived_names}
        round_cost = 0.0
        for rule in program:
            if not is_recursive_rule(rule):
                continue
            body_derived = {
                l.predicate
                for l in rule.body
                if not l.is_comparison and l.predicate in derived_names
            }
            head = rule.head.predicate
            for delta_name in body_derived:
                if deltas.get(delta_name, 0.0) <= 0.0:
                    continue  # nothing new through this literal
                cards = dict(totals)
                cards[delta_name] = deltas[delta_name]
                estimator = estimator_factory(overlay_from(cards))
                estimate, __ = estimator.body_estimate(rule.body)
                if estimate.is_infinite:
                    return Estimate.unsafe(), totals
                round_cost += estimate.cost
                new_deltas[head] += estimate.card
        total_cost += round_cost
        if total_cost >= cost_cap:
            answer = max((totals[r.head.predicate] for r in program), default=0.0)
            return Estimate(total_cost, answer), totals
        converged = True
        for name in derived_names:
            # A predicate derives at most what its domain still allows;
            # once saturated the delta is zero and the loop converges.
            new_deltas[name] = min(new_deltas[name], max(0.0, caps[name] - totals[name]))
            headroom = totals[name] * params.fixpoint_epsilon + params.fixpoint_epsilon
            if new_deltas[name] > headroom:
                converged = False
            totals[name] = capped(name, totals[name] + new_deltas[name])
        deltas = new_deltas
        if converged:
            break

    answer_card = max((totals[r.head.predicate] for r in program), default=0.0)
    return Estimate(total_cost, answer_card), totals
