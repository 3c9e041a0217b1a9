"""The LDL optimizer: NR-OPT (Figure 7-1) and OPT (Figure 7-2).

The :class:`Optimizer` compiles a *query form* against a rule base and a
statistics catalog into a minimum-cost processing tree:

* **AND nodes** (step 1 of both algorithms) — each rule body is ordered
  by a pluggable search strategy (exhaustive, Selinger DP, KBZ quadratic,
  simulated annealing; Section 7.1's three generic strategies plus the
  textual/Prolog baseline), with join methods (EL) decided locally and
  comparisons placed at their earliest effectively computable position;
* **OR nodes** (step 2) — one subtree per rule, *memoized per binding
  pattern*: "this algorithm guarantees that each subtree is optimized
  exactly ONCE for each binding";
* **CC nodes** (step 3, recursive cliques) — c-permutations are
  enumerated (or annealed, for large cliques), each adorned per Section
  7.3; non-clique literals are optimized recursively for their
  adornments; each applicable recursive method (semi-naive, naive, magic
  sets, generalized counting) is costed and the minimum survives.

Safety (Section 8) is integrated, not bolted on: a permutation whose
evaluable goals cannot be made effectively computable prices at ``inf``;
a recursive method without a termination certificate (finiteness for the
materialized fixpoint, a well-founded order for the pipelined ones)
prices at ``inf``; and if the best plan overall is still infinite the
query is reported unsafe with the diagnostics gathered along the way —
"if the cost of the end-solution produced by the optimizer is not less
than this extreme value, a proper message must inform the user".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Mapping, Sequence

from ..cost.estimates import BodyEstimator, LEAF_METHODS, derived_ndvs, estimate_fixpoint
from ..cost.model import CostParams, DerivedEstimate, Estimate, INFINITE_COST
from ..datalog.adorn import AdornedClique, CPermutation, adorn_clique, enumerate_cpermutations
from ..datalog.bindings import BindingPattern, QueryForm, binds_after, head_bound_vars
from ..datalog.counting import counting_applicable, counting_rewrite
from ..datalog.graph import Clique, DependencyGraph
from ..datalog.literals import Literal, PredicateRef, pred_ref
from ..datalog.magic import magic_rewrite, supplementary_magic_rewrite
from ..datalog.rules import Program, Rule
from ..datalog.safety import ec_check, exists_safe_order, well_founded_order
from ..datalog.terms import Variable
from ..errors import ExecutionError, OptimizationError, UnsafeQueryError
from ..obs.tracer import NULL_TRACER
from ..plans.nodes import RECURSIVE_METHODS, FixpointNode, JoinNode, JoinStep, PlanCode, UnionNode
from ..storage.statistics import RelationStats, StatisticsProvider
from .annealing import AnnealingSchedule, annealing_order
from .conjunctive import OrderResult, cost_order, dp_order, exhaustive_order, split_joinable
from .kbz import kbz_order

#: Names of the available ordering strategies.
STRATEGIES = ("exhaustive", "dp", "kbz", "annealing", "textual")

#: Bodies with more joinable literals than ``LARGE_BODY_THRESHOLD`` are
#: ordered by ``LARGE_BODY_STRATEGY`` when the configured strategy is
#: ``exhaustive`` or ``dp`` (their n! / 2^n budgets explode past it).
LARGE_BODY_THRESHOLD = 9
LARGE_BODY_STRATEGY = "kbz"
#: What ``exhaustive`` / ``dp`` degrade to once the search deadline expires.
DEADLINE_FALLBACK = "kbz"
#: C-permutation budget before the enumeration switches to a seeded sample.
MAX_CPERMUTATIONS = 512
#: Keys a consumed bound clique is run from to price its output
#: (:meth:`Optimizer._sample_card`), and the live tuples that run may hold
#: before the formula estimate stands instead.
SAMPLE_KEYS = 8
SAMPLE_TUPLES = 20_000


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """Knobs of the search (Section 7: "capable of using multiple
    strategies interchangeably ... the choice of strategies may be made
    per rule")."""

    strategy: str = "dp"
    params: CostParams = field(default_factory=CostParams)
    #: recursive methods the CC search may label a clique with
    recursive_methods: tuple[str, ...] = (
        "seminaive", "magic", "supplementary", "counting"
    )
    #: force every base join step to one method (used by baselines)
    force_method: str | None = None
    seed: int = 0
    annealing: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    #: wall-clock budget for the whole search; once it expires the
    #: exhaustive/DP strategies degrade to ``DEADLINE_FALLBACK`` and the
    #: c-permutation enumeration is truncated (never an abort: the
    #: optimizer always returns *a* plan, just a cheaper-to-find one)
    deadline_seconds: float | None = None


def _check_config(config: OptimizerConfig) -> None:
    """Reject a name no search can act on before the first ask does."""
    if config.strategy not in STRATEGIES:
        raise OptimizationError(f"unknown strategy {config.strategy!r}")
    if not config.recursive_methods:
        raise OptimizationError(
            f"recursive_methods is empty; choose from {', '.join(RECURSIVE_METHODS)}"
        )
    for method in config.recursive_methods:
        if method not in RECURSIVE_METHODS:
            raise OptimizationError(
                f"unknown recursive method {method!r}; "
                f"choose from {', '.join(RECURSIVE_METHODS)}"
            )
    if config.force_method is not None and config.force_method not in LEAF_METHODS:
        raise OptimizationError(
            f"unknown join method {config.force_method!r} for force_method; "
            f"choose from {', '.join(LEAF_METHODS)}"
        )


@dataclass(frozen=True, slots=True)
class OptimizedQuery:
    """The compiled form of one query form."""

    query: QueryForm
    plan: UnionNode
    est: Estimate
    diagnostics: tuple[str, ...] = ()
    #: the plan's executable form; the engine fills it on first execution
    code: PlanCode = field(default_factory=PlanCode, compare=False, repr=False)

    @property
    def safe(self) -> bool:
        return not self.est.is_infinite


@dataclass(frozen=True, slots=True)
class _MemoEntry:
    """Per (predicate, binding) optimization result — NR-OPT step 2's
    "record the cost, cardinality, graph, etc., indexed by the binding"."""

    plan: UnionNode | FixpointNode
    est: Estimate
    ndvs: tuple[float, ...]
    #: the card was measured by :meth:`Optimizer._sampled`
    sampled: bool = False


class Optimizer:
    """Cost-based compiler for query forms over a program + catalog."""

    def __init__(
        self,
        program: Program,
        stats: StatisticsProvider,
        config: OptimizerConfig | None = None,
        builtins=None,
    ):
        from ..datalog.builtins import builtin_oracle, default_builtins

        self.program = program
        self.stats = stats
        self.config = config or OptimizerConfig()
        self.builtins = default_builtins() if builtins is None else builtins
        self._ec_oracle = builtin_oracle(self.builtins)
        _check_config(self.config)
        self.graph = DependencyGraph(program)
        self.graph.check_stratified()
        #: the literal-profile memo every estimator of this optimizer
        #: shares (:meth:`_estimator`); it lives and dies with the optimizer
        self._profiles: dict = {}
        self._memo: dict[tuple[str, str], _MemoEntry] = {}
        #: the ``_memo`` keys whose card a sample of the data has settled
        #: (:meth:`_sampled`); the statistics' owner builds a new optimizer
        #: when the data changes, so a sample never outlives its data
        self._sampled_keys: set[tuple[str, str]] = set()
        self._seminaive_cache: dict[frozenset[PredicateRef], Estimate] = {}
        self._diagnostics: list[str] = []
        self._rng = random.Random(self.config.seed)
        #: the governor of the optimize() call in flight (None between calls)
        self._governor = None
        #: tracer/metrics of the optimize() call in flight
        self._tracer = NULL_TRACER
        self._metrics = None
        #: counters exposed to the complexity benchmarks
        self.counters: dict[str, int] = {
            "and_optimizations": 0,
            "or_optimizations": 0,
            "cc_optimizations": 0,
            "order_evaluations": 0,
            "cpermutations": 0,
            "deadline_downgrades": 0,
            # partial/full plan candidates actually costed vs avoided by
            # branch-and-bound, dedup, prefix memos, and capped fixpoints
            "plans_costed": 0,
            "plans_pruned": 0,
        }

    # ------------------------------------------------------------------ API

    def optimize(
        self, query: QueryForm, governor=None, tracer=None, metrics=None
    ) -> OptimizedQuery:
        """Compile *query* to a minimum-cost processing tree.

        Raises :class:`UnsafeQueryError` when no safe execution exists in
        the searched space (Section 8.2).

        *governor* is an optional
        :class:`~repro.engine.governor.ResourceGovernor` whose deadline the
        search respects *gracefully*: on expiry, exhaustive/DP body
        ordering degrades to ``DEADLINE_FALLBACK`` and the
        c-permutation enumeration is truncated, with a diagnostic recorded
        on the returned plan.  When None and ``config.deadline_seconds``
        is set, a deadline-only governor is built internally.
        """
        from ..engine.governor import make_governor

        if governor is None and self.config.deadline_seconds is not None:
            governor = make_governor(
                deadline_seconds=self.config.deadline_seconds,
                max_tuples=None,
                max_iterations=None,
            )
        self._governor = governor
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics
        if governor is not None:
            governor.arm()
        try:
            with self._tracer.span(
                f"optimize:{self.config.strategy}", kind="phase"
            ) as span:
                span.note(query=str(query.goal), adornment=query.adornment.code)
                return self._optimize(query)
        finally:
            self._governor = None
            self._tracer = NULL_TRACER
            self._metrics = None

    def _optimize(self, query: QueryForm) -> OptimizedQuery:
        self._diagnostics = []
        ref = pred_ref(query.goal)
        if (
            ref not in self.program.predicates
            and self.stats.stats_for(ref.name) is None
            and ref.name not in self.builtins
        ):
            raise OptimizationError(f"unknown predicate {ref} in query {query}")

        wrapper = Rule(
            Literal("__query__", query.goal.args),
            (query.goal,),
            label="query wrapper",
        )
        # Nothing reads the wrapper's own estimate, so the goal is not
        # sampled for it: only a join that consumes a clique pays for that.
        join = self._optimize_and(wrapper, query.adornment, sample=False)
        plan = UnionNode(
            ref=PredicateRef("__query__", query.goal.arity),
            binding=query.adornment,
            children=(join,),
            est=join.est,
            ndvs=derived_ndvs(join.est.card, query.goal.arity, self.config.params),
        )
        if plan.est.is_infinite:
            raise UnsafeQueryError(
                f"query form {query} has no safe execution in the searched space",
                reasons=self._diagnostics or ["every permutation priced at infinite cost"],
            )
        return OptimizedQuery(query, plan, plan.est, tuple(self._diagnostics))

    # ------------------------------------------------------- derived oracle

    def _oracle(
        self, literal: Literal, binding: BindingPattern, sample: bool = True
    ) -> DerivedEstimate | None:
        """Estimates for a derived literal at a binding (NR-OPT recursion);
        with *sample*, a bound recursive clique is priced per probe at its
        sampled cardinality (:meth:`_sampled`)."""
        ref = pred_ref(literal)
        if not self.program.is_derived(ref):
            return None
        bound_entry = self._optimize_ref(ref, binding)
        if sample:
            bound_entry = self._sampled(bound_entry)
        if binding.is_all_free:
            free_entry = bound_entry
        else:
            free_entry = self._optimize_ref(ref, BindingPattern.all_free(ref.arity))
        # A seeded clique (magic, supplementary, counting) answers its whole
        # key set in one evaluation.  Only a measured per-key card prices
        # that pipelining (keys x card rows): the formula's can exceed what
        # a probe returns by orders, and the cheaper cost would spread that
        # into the body.  Only a seeded node is ever sampled.
        return DerivedEstimate(
            per_probe=bound_entry.est,
            materialized=free_entry.est,
            ndvs=free_entry.ndvs,
            set_oriented=bound_entry.sampled,
        )

    def _estimator(
        self, extra_stats: Mapping[str, RelationStats] | None = None, sample: bool = True
    ) -> BodyEstimator:
        estimator = BodyEstimator(
            self.stats,
            params=self.config.params,
            derived_oracle=self._oracle if sample else partial(self._oracle, sample=False),
            extra_stats=extra_stats,
            builtins=self.builtins,
        )
        estimator.profiles = self._profiles
        return estimator

    # --------------------------------------------------------- OR subtrees

    def _downgrade_for_aggregates(self, ref: PredicateRef, binding: BindingPattern) -> BindingPattern:
        """Aggregate head positions cannot receive sideways bindings (the
        value exists only after grouping), so they are planned free; the
        parent join filters on the aggregate value afterwards."""
        positions: set[int] = set()
        for rule in self.program.rules_for(ref):
            positions.update(rule.aggregate_positions)
        if not positions:
            return binding
        code = "".join(
            "f" if index in positions else c for index, c in enumerate(binding.code)
        )
        return BindingPattern(code)

    def _optimize_ref(self, ref: PredicateRef, binding: BindingPattern) -> _MemoEntry:
        """Step 2 (OR node) with per-binding memoization; recursive
        predicates divert to the CC optimization (step 3)."""
        binding = self._downgrade_for_aggregates(ref, binding)
        key = (str(ref), binding.code)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.graph.is_recursive(ref):
            entry = self._optimize_cc(ref, binding)
        else:
            entry = self._optimize_or(ref, binding)
        self._memo[key] = entry
        return entry

    def _optimize_or(self, ref: PredicateRef, binding: BindingPattern) -> _MemoEntry:
        self.counters["or_optimizations"] += 1
        children = []
        total = Estimate(0.0, 0.0)
        for rule in self.program.rules_for(ref):
            join = self._optimize_and(rule, binding)
            children.append(join)
            total = total + join.est
        ndvs = derived_ndvs(total.card, ref.arity, self.config.params)
        node = UnionNode(ref=ref, binding=binding, children=tuple(children), est=total, ndvs=ndvs)
        return _MemoEntry(plan=node, est=total, ndvs=ndvs)

    # --------------------------------------------------------- AND subtrees

    def _strategy_for(self, body: Sequence[Literal]) -> str:
        joinable, __ = split_joinable(body)
        config = self.config
        if (
            config.strategy in ("exhaustive", "dp")
            and self._governor is not None
            and self._governor.deadline_exceeded()
        ):
            # Graceful degradation: the expensive search ran out of time,
            # so remaining bodies are ordered by the cheap fallback.
            self.counters["deadline_downgrades"] += 1
            if self._metrics is not None:
                self._metrics.inc("optimizer_degradations_total", kind="order")
            self._diagnostics.append(
                f"optimizer deadline exceeded: downgraded {config.strategy} "
                f"to {DEADLINE_FALLBACK} for a {len(joinable)}-literal body"
            )
            return DEADLINE_FALLBACK
        if config.strategy in ("exhaustive", "dp") and len(joinable) > LARGE_BODY_THRESHOLD:
            return LARGE_BODY_STRATEGY
        return config.strategy

    def _order_body(
        self,
        body: Sequence[Literal],
        initially_bound: frozenset,
        estimator: BodyEstimator,
    ) -> OrderResult:
        if self._governor is not None:
            # Never raises on the deadline: the optimizer degrades instead
            # of aborting.  Fault plans can still target optimizer:order.
            self._governor.soft_checkpoint("optimizer:order")
        strategy = self._strategy_for(body)
        with self._tracer.span(f"optimize:order:{strategy}", kind="optimizer") as span:
            if strategy == "exhaustive":
                result = exhaustive_order(body, initially_bound, estimator)
            elif strategy == "dp":
                result = dp_order(body, initially_bound, estimator)
            elif strategy == "kbz":
                result = kbz_order(body, initially_bound, estimator)
            elif strategy == "annealing":
                result = annealing_order(
                    body, initially_bound, estimator,
                    rng=random.Random(self._rng.randrange(2**30)),
                    schedule=self.config.annealing,
                )
            elif strategy == "textual":
                joinable, floating = split_joinable(body)
                result = cost_order(body, tuple(joinable), floating, initially_bound, estimator)
            else:  # pragma: no cover - guarded in __init__
                raise OptimizationError(f"unknown strategy {strategy!r}")
            span.note(
                evaluations=result.evaluations,
                literals=len(body),
                pruned=result.pruned,
            )
        self.counters["order_evaluations"] += max(1, result.evaluations)
        self._charge_search(max(1, result.evaluations), result.pruned)
        return result

    def _charge_search(self, costed: int, pruned: int) -> None:
        """Account plan candidates costed vs avoided (counters + metrics)."""
        if costed:
            self.counters["plans_costed"] += costed
            if self._metrics is not None:
                self._metrics.inc("optimizer_plans_costed_total", costed)
        if pruned:
            self.counters["plans_pruned"] += pruned
            if self._metrics is not None:
                self._metrics.inc("optimizer_plans_pruned_total", pruned)

    def _optimize_and(
        self, rule: Rule, head_binding: BindingPattern, sample: bool = True
    ) -> JoinNode:
        """Step 1: order one rule body under the head's binding pattern."""
        self.counters["and_optimizations"] += 1
        initially_bound = head_bound_vars(rule.head, head_binding)
        estimator = self._estimator(sample=sample)
        if self.config.force_method is not None:
            estimator = _ForcedMethodEstimator(estimator, self.config.force_method)
        result = self._order_body(rule.body, initially_bound, estimator)
        if result.est.is_infinite:
            report = ec_check(
                [rule.body[s.index] for s in result.steps], initially_bound, self._ec_oracle
            )
            for failure in report.failures:
                self._diagnostics.append(f"rule '{rule}': {failure}")
        steps = self._build_steps(rule, result, initially_bound)
        return JoinNode(
            rule=rule, binding=head_binding, steps=steps, est=result.est,
            pruned=result.pruned,
        )

    def _build_steps(
        self,
        rule: Rule,
        result: OrderResult,
        initially_bound: frozenset,
    ) -> tuple[JoinStep, ...]:
        """Materialize the chosen ordering as plan steps with children."""
        steps: list[JoinStep] = []
        bound = frozenset(initially_bound)
        adornment = self._estimator().adornment  # what costing built per (literal, mask)
        running_cost = 0.0
        for costed in result.steps:
            literal = rule.body[costed.index]
            est = Estimate(costed.cost_delta, costed.card_after)
            running_cost += costed.cost_delta
            child = None
            method = costed.method
            pipelined = True
            if literal.is_comparison:
                method = "eval"
            elif literal.negated:
                ref = pred_ref(literal)
                if self.program.is_derived(ref):
                    child = self._optimize_ref(ref, BindingPattern.all_free(ref.arity)).plan
                method = "anti_probe"
            else:
                ref = pred_ref(literal)
                if self.program.is_derived(ref):
                    if method == "materialized":
                        child = self._optimize_ref(ref, BindingPattern.all_free(ref.arity)).plan
                        pipelined = False
                    else:
                        binding = adornment(literal, bound)
                        child = self._optimize_ref(ref, binding).plan
                        method = "pipelined"
                else:
                    pipelined = method in ("index", "builtin")
            steps.append(JoinStep(
                literal=literal, child=child, method=method, pipelined=pipelined, est=est,
            ))
            bound = binds_after(literal, bound)
        return tuple(steps)

    # ----------------------------------------------------------- CC nodes

    def _support_program(self, clique: Clique) -> list[Rule]:
        """Rules for non-clique predicates the clique (transitively) uses."""
        needed: set[PredicateRef] = set()
        for ref in clique.predicates:
            needed |= set(self.graph.reachable_from(ref))
        needed -= set(clique.predicates)
        return [r for r in self.program if r.head_ref in needed]

    def _reordered_clique_rules(self, clique: Clique) -> list[Rule] | None:
        """Clique rules with bodies in a greedily safe order, or None."""
        out = []
        for rule in clique.rules:
            order, reasons = exists_safe_order(rule.body, frozenset(), self._ec_oracle)
            if order is None:
                self._diagnostics.extend(f"rule '{rule}': {r}" for r in reasons)
                return None
            out.append(rule.with_body([rule.body[i] for i in order]))
        return out

    def _seminaive_estimate(self, clique: Clique) -> Estimate:
        """Cost of materializing the clique's full extension (cached)."""
        cached = self._seminaive_cache.get(clique.predicates)
        if cached is not None:
            return cached
        from ..datalog.safety import _has_value_invention

        if _has_value_invention([r for r in clique.recursive_rules]):
            estimate = Estimate.unsafe()
            self._diagnostics.append(
                f"{clique}: materialized fixpoint is unsafe (rules invent values)"
            )
        else:
            rules = self._reordered_clique_rules(clique)
            if rules is None:
                estimate = Estimate.unsafe()
            else:
                estimate, __ = estimate_fixpoint(
                    Program(rules),
                    lambda overlay: self._estimator(extra_stats=overlay),
                    seed_cards={},
                    params=self.config.params,
                )
        self._seminaive_cache[clique.predicates] = estimate
        return estimate

    def _cpermutations(self, clique: Clique, ref: PredicateRef, binding: BindingPattern):
        """The c-permutation candidates: exhaustive up to the budget,
        then a seeded random sample (the stochastic strategy)."""
        import math as _math

        # The greedy most-bound-first SIP first: it chooses per *replica*
        # (the paper's replication is per rule x binding pattern), which
        # the uniform cross-product enumeration below cannot express.
        yield CPermutation.greedy_sip()
        space = 1
        for rule in clique.rules:
            space *= max(1, _math.factorial(len(rule.body)))
        if space <= MAX_CPERMUTATIONS:
            yield from enumerate_cpermutations(clique, ref, binding)
            return
        yield CPermutation.identity()
        import zlib

        stable = zlib.crc32(f"{ref}:{binding.code}".encode())
        rng = random.Random(self.config.seed ^ stable)
        for __ in range(MAX_CPERMUTATIONS - 1):
            defaults = {}
            for index, rule in enumerate(clique.rules):
                perm = list(range(len(rule.body)))
                rng.shuffle(perm)
                defaults[index] = tuple(perm)
            yield CPermutation(defaults=defaults)

    def _optimize_cc(self, ref: PredicateRef, binding: BindingPattern) -> _MemoEntry:
        """Step 3: choose c-permutation + recursive method for a clique."""
        with self._tracer.span(f"optimize:cc:{ref.name}", kind="optimizer") as span:
            span.note(binding=binding.code)
            entry = self._optimize_cc_inner(ref, binding)
            span.note(method=entry.plan.method, cost=entry.est.cost)
            return entry

    def _optimize_cc_inner(self, ref: PredicateRef, binding: BindingPattern) -> _MemoEntry:
        self.counters["cc_optimizations"] += 1
        clique = self.graph.clique_of(ref)
        assert clique is not None
        params = self.config.params
        support = self._support_program(clique)

        seminaive_est = self._seminaive_estimate(clique)
        best_node: FixpointNode | None = None
        best_est = Estimate.unsafe()

        # The materialized (semi-naive) execution is binding-independent:
        # compute everything, filter by the subquery keys.
        if "seminaive" in self.config.recursive_methods and not seminaive_est.is_infinite:
            selectivity = 1.0
            ndvs = derived_ndvs(seminaive_est.card, ref.arity, params)
            for position in binding.bound_positions:
                selectivity /= max(1.0, ndvs[position])
            probe_est = Estimate(
                seminaive_est.cost + params.probe_weight,
                max(1.0, seminaive_est.card * selectivity),
            )
            rules = self._reordered_clique_rules(clique) or list(clique.rules)
            best_node = FixpointNode(
                ref=ref,
                binding=binding,
                method="seminaive",
                program=Program(rules + support),
                answer_predicate=ref.name,
                seed_predicate=None,
                est=probe_est,
                ndvs=ndvs,
            )
            best_est = probe_est
        if "naive" in self.config.recursive_methods and not seminaive_est.is_infinite:
            # naive re-derivation: same result, roughly rounds× the work
            naive_est = Estimate(
                seminaive_est.cost * params.fixpoint_rounds, seminaive_est.card
            )
            if naive_est.cost < best_est.cost:
                rules = self._reordered_clique_rules(clique) or list(clique.rules)
                best_node = FixpointNode(
                    ref=ref, binding=binding, method="naive",
                    program=Program(rules + support),
                    answer_predicate=ref.name, seed_predicate=None,
                    est=naive_est,
                    ndvs=derived_ndvs(naive_est.card, ref.arity, params),
                )
                best_est = naive_est

        bound_methods = [
            m
            for m in self.config.recursive_methods
            if m in ("magic", "supplementary", "counting")
        ]
        if binding.bound_count > 0 and bound_methods:
            seen_adorned: set[str] = set()
            governor = self._governor
            candidates = 0
            pruned_duplicates = 0
            # Structural sharing across c-permutations of the same clique:
            # whole-body estimates are memoized by (literal sequence,
            # frontier, derived-overlay cards), so two cperms that agree
            # on a rule's prefix pay for it once; per-replica EC verdicts
            # are memoized the same way.
            body_cache = _BodyEstimateCache()
            ec_memo: dict[tuple, bool] = {}
            with self._tracer.span(
                f"optimize:enumerate:{ref.name}", kind="cperm"
            ) as espan:
                for cperm in self._cpermutations(clique, ref, binding):
                    if governor is not None:
                        governor.soft_checkpoint("optimizer:cperm")
                        # Always cost at least the greedy-SIP candidate so an
                        # expired deadline still yields a bound-method plan.
                        if candidates >= 1 and governor.deadline_exceeded():
                            self.counters["deadline_downgrades"] += 1
                            if self._metrics is not None:
                                self._metrics.inc(
                                    "optimizer_degradations_total", kind="cperm"
                                )
                            self._diagnostics.append(
                                f"optimizer deadline exceeded: c-permutation "
                                f"search for {ref}{binding} truncated after "
                                f"{candidates} candidates"
                            )
                            break
                    candidates += 1
                    self.counters["cpermutations"] += 1
                    adorned = adorn_clique(
                        clique, ref, binding, cperm,
                        derived_predicates=self.program.derived_predicates,
                    )
                    signature = str(adorned)
                    if signature in seen_adorned:
                        pruned_duplicates += 1
                        self._charge_search(0, 1)
                        continue
                    seen_adorned.add(signature)
                    with self._tracer.span(
                        f"optimize:adorn:{ref.name}", kind="optimizer"
                    ) as aspan:
                        candidate = self._cost_adorned(
                            adorned, support, bound_methods,
                            cost_cap=best_est.cost,
                            ec_memo=ec_memo,
                            body_cache=body_cache,
                        )
                        aspan.note(safe=candidate is not None)
                    if candidate is not None and candidate.est.cost < best_est.cost:
                        best_node = candidate
                        best_est = candidate.est
                self._charge_search(body_cache.misses, body_cache.hits)
                espan.note(
                    candidates=candidates,
                    distinct=len(seen_adorned),
                    pruned_duplicates=pruned_duplicates,
                    prefix_memo_hits=body_cache.hits,
                )

        if best_node is None:
            self._diagnostics.append(
                f"{clique}: no safe recursive method for binding {binding} of {ref}"
            )
            rules = list(clique.rules)
            best_node = FixpointNode(
                ref=ref, binding=binding, method="seminaive",
                program=Program(rules + support),
                answer_predicate=ref.name, seed_predicate=None,
                est=Estimate.unsafe(),
                ndvs=derived_ndvs(INFINITE_COST, ref.arity, params),
            )
        return _MemoEntry(plan=best_node, est=best_node.est, ndvs=best_node.ndvs)

    def _cost_adorned(
        self,
        adorned: AdornedClique,
        support: list[Rule],
        methods: Sequence[str],
        cost_cap: float,
        ec_memo: dict,
        body_cache: "_BodyEstimateCache",
    ) -> FixpointNode | None:
        """Price one adorned program under each applicable bound method.

        ``cost_cap`` carries the incumbent cost across c-permutations:
        fixpoint estimation stops once it cannot beat the cap (the cap is
        choice-preserving — see :func:`estimate_fixpoint`).  ``ec_memo``
        shares EC verdicts for identical (rule, head adornment) replicas
        across c-permutations; ``body_cache`` shares whole-body estimates
        for shared order prefixes.
        """
        params = self.config.params

        # Safety of the pipelined fixpoint: EC of every adorned body in
        # its permutation order, and a well-founded iteration order.
        # Different c-permutations replicate many (rule, adornment) pairs
        # verbatim, so the verdict is memoized on that signature.
        for adorned_rule in adorned.rules:
            ec_key = (str(adorned_rule.rule), adorned_rule.head_adornment.code)
            if ec_key in ec_memo:
                if not ec_memo[ec_key]:
                    return None
                continue
            bound0 = head_bound_vars(adorned_rule.rule.head, adorned_rule.head_adornment)
            report = ec_check(adorned_rule.rule.body, bound0, self._ec_oracle)
            ec_memo[ec_key] = report.ok
            if not report.ok:
                self._diagnostics.extend(
                    f"adorned rule '{adorned_rule.rule}': {f}" for f in report.failures
                )
                return None
        wf = well_founded_order(adorned)
        if not wf.ok:
            self._diagnostics.append(f"{adorned.query_predicate}: {wf.argument}")
            return None

        # Optimize external (non-clique derived) goals for their adornments
        # — OPT step 3.1.ii — so the oracle has memoized estimates ready.
        for literal, pattern in adorned.external_goals:
            self._optimize_ref(pred_ref(literal), pattern)

        factory = lambda overlay: _CachingEstimator(  # noqa: E731
            self._estimator(extra_stats=overlay), body_cache
        )
        best: FixpointNode | None = None
        for method in methods:
            cap = min(cost_cap, best.est.cost if best is not None else INFINITE_COST)
            if method == "magic":
                rewritten = magic_rewrite(adorned)
            elif method == "supplementary":
                rewritten = supplementary_magic_rewrite(adorned)
            elif counting_applicable(adorned) and self._counting_data_safe(adorned):
                rewritten = counting_rewrite(adorned)
            else:
                continue
            est, __ = estimate_fixpoint(
                rewritten.program,
                factory,
                seed_cards={rewritten.seed_predicate: (1.0, rewritten.seed_arity)},
                params=params,
                level_indexed=rewritten.level_predicates,
                cost_cap=cap,
            )
            if est.is_infinite:
                continue
            if not math.isinf(cost_cap) and est.cost >= cost_cap:
                # Capped (or merely dominated) candidate: the incumbent from
                # an earlier c-permutation already beats it.
                self._charge_search(0, 1)
                continue
            node = FixpointNode(
                ref=adorned.query_ref,
                binding=adorned.query_adornment,
                method=method,
                program=rewritten.program.extend(support),
                answer_predicate=rewritten.answer_predicate,
                seed_predicate=rewritten.seed_predicate,
                est=est,
                ndvs=derived_ndvs(est.card, adorned.query_ref.arity, params),
            )
            if best is None or node.est.cost < best.est.cost:
                best = node
        return best

    # ------------------------------------------------- sampled cardinality

    def _sampled(self, entry: _MemoEntry) -> _MemoEntry:
        """*entry*, or, for a bound recursive clique (a CC node with a
        seed), the same node with its output cardinality measured on the
        data: the rewritten program run from :data:`SAMPLE_KEYS` keys,
        answer rows per key (Lipton & Naughton's sampled transitive
        closure).  Only the card moves, never the cost formula; the
        sample is taken once per (predicate, adornment) and replaces the
        memo entry, so the plan shows what its consumers were priced at."""
        node = entry.plan
        if not isinstance(node, FixpointNode) or node.seed_predicate is None:
            return entry
        key = (str(node.ref), node.binding.code)
        if key in self._sampled_keys:
            return self._memo[key]
        self._sampled_keys.add(key)
        card = self._sample_card(node)
        if card is None:
            return entry
        node = replace(
            node,
            est=Estimate(node.est.cost, card),
            ndvs=derived_ndvs(card, node.ref.arity, self.config.params),
        )
        entry = self._memo[key] = _MemoEntry(plan=node, est=node.est, ndvs=node.ndvs, sampled=True)
        return entry

    def _sample_card(self, node: FixpointNode) -> float | None:
        """Answer rows per sampled key of *node*, or None — with a
        diagnostic — when the formula estimate has to stand: no database
        to sample, no base column binding the key, a sample past
        :data:`SAMPLE_TUPLES`, or the optimizer's deadline gone."""
        from ..engine.governor import make_governor
        from ..engine.interpreter import Interpreter
        from ..storage.catalog import Database

        keys = None
        if not isinstance(self.stats, Database):
            reason = "the statistics are not a database"
        elif self._governor is not None and self._governor.deadline_exceeded():
            reason = "the optimizer deadline has passed"
        else:
            keys = self._sample_keys(node)
            reason = "no base column binds its bound arguments"
        if keys:
            governor = make_governor(max_tuples=SAMPLE_TUPLES, max_iterations=None)
            interpreter = Interpreter(self.stats, builtins=self.builtins, governor=governor)
            try:
                rows = len(interpreter.execute(node, keys))
            except ExecutionError as err:
                reason = f"the sample failed ({err.__class__.__name__})"
            else:
                card = rows / len(keys)
                self._diagnostics.append(
                    f"sampled: {node.ref}{node.binding} ({node.method}) output "
                    f"cardinality {card:.1f} from {len(keys)} keys "
                    f"(formula {node.est.card:.1f})"
                )
                return card
        self._diagnostics.append(
            f"sample: {node.ref}{node.binding} keeps its formula cardinality "
            f"{node.est.card:.1f}: {reason}"
        )
        return None

    def _sample_keys(self, node: FixpointNode) -> frozenset | None:
        """Up to :data:`SAMPLE_KEYS` id keys for *node*'s bound arguments,
        drawn with the config's seed from the sorted keys of the stored
        relations that bind all of them in the clique's rules for it."""
        bound = node.binding.bound_positions
        candidates: set = set()
        for rule in self.graph.clique_of(node.ref).rules:
            wanted = [rule.head.args[i] for i in bound]
            if rule.head_ref != node.ref or not all(isinstance(v, Variable) for v in wanted):
                continue
            for literal in rule.body:
                if literal.is_comparison or literal.negated or self.program.is_derived(pred_ref(literal)):
                    continue
                relation = self.stats.get(literal.predicate)
                if relation is None or relation.arity != literal.arity:
                    continue
                if all(v in literal.args for v in wanted):
                    positions = tuple(literal.args.index(v) for v in wanted)
                    store = relation.batch_store(relation.interner)
                    candidates.update(store.buckets_for(positions))
        if not candidates:
            return None
        drawn = random.Random(self.config.seed).sample(
            sorted(candidates), min(SAMPLE_KEYS, len(candidates))
        )
        return frozenset(key if isinstance(key, tuple) else (key,) for key in drawn)

    def _counting_data_safe(self, adorned: AdornedClique) -> bool:
        """Counting terminates only over acyclic data: every base relation
        in a recursive rule's pre-recursive prefix must be declared or
        measured acyclic (condition 3 in :mod:`repro.datalog.counting`)."""
        from ..datalog.bindings import split_adorned_name

        for adorned_rule in adorned.rules:
            if not adorned_rule.is_recursive:
                continue
            for literal in adorned_rule.rule.body:
                if literal.is_comparison:
                    continue
                base_name, pattern = split_adorned_name(literal.predicate)
                if pattern is not None:
                    break  # reached the recursive literal: prefix ends
                stats = self.stats.stats_for(literal.predicate)
                if stats is None or stats.acyclic is not True:
                    return False
        return True


class _BodyEstimateCache:
    """Whole-body estimate memo shared across c-permutations of a clique.

    C-permutations of the same clique replicate most rule bodies verbatim
    (only the permuted prefix differs), so their rewritten programs share
    rule bodies — and :func:`estimate_fixpoint` re-prices each body once
    per round.  The memo key is the literal sequence, the frontier
    (initially bound variables + initial cardinality), and the derived
    overlay cards the body can see; hits are "plans pruned" (costings
    avoided), misses are "plans costed"."""

    __slots__ = ("entries", "hits", "misses")

    def __init__(self) -> None:
        self.entries: dict = {}
        self.hits = 0
        self.misses = 0


class _CachingEstimator:
    """Wrap a :class:`BodyEstimator`, memoizing ``body_estimate`` calls
    into a shared :class:`_BodyEstimateCache` (see its docstring for the
    key).  Estimation inside one ``optimize()`` call is deterministic —
    derived-goal estimates are memoized per binding, a sample is taken
    once — so equal keys always reprice identically."""

    def __init__(self, inner: BodyEstimator, cache: _BodyEstimateCache):
        self._inner = inner
        self._cache = cache
        self.params = inner.params
        self.stats = inner.stats

    def stats_for(self, name: str, arity: int):
        return self._inner.stats_for(name, arity)

    def literal_step(self, state, literal, method=None):
        return self._inner.literal_step(state, literal, method)

    def body_estimate(self, body, initially_bound=frozenset(), initial_card=1.0):
        overlay = tuple(
            sorted(
                (name, stats.cardinality)
                for name, stats in self._inner.extra_stats.items()
            )
        )
        key = (tuple(body), frozenset(initially_bound), initial_card, overlay)
        cached = self._cache.entries.get(key)
        if cached is not None:
            self._cache.hits += 1
            return cached
        self._cache.misses += 1
        result = self._inner.body_estimate(body, initially_bound, initial_card)
        self._cache.entries[key] = result
        return result


class _ForcedMethodEstimator:
    """Estimator wrapper that pins every base join step to one method.

    Used by the Prolog-style baseline (textual order + nested loops) in
    the end-to-end experiment.
    """

    def __init__(self, inner: BodyEstimator, method: str):
        self._inner = inner
        self._method = method
        self.params = inner.params
        self.stats = inner.stats

    def stats_for(self, name: str, arity: int):
        return self._inner.stats_for(name, arity)

    def literal_step(self, state, literal, method=None):
        if (
            literal.is_comparison
            or literal.negated
            or self._inner.derived_estimate(state, literal) is not None
        ):
            return self._inner.literal_step(state, literal, method)
        return self._inner.literal_step(state, literal, self._method)

    def body_estimate(self, body, initially_bound=frozenset(), initial_card=1.0):
        return self._inner.body_estimate(body, initially_bound, initial_card)
