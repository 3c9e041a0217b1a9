"""The knowledge-base facade: the public face of the LDL system.

Section 2: "The knowledge base consists of a rule base and a database".
:class:`KnowledgeBase` bundles the two with the optimizer and the
interpreter, exposing the workflow a user of the paper's system would
have:

>>> kb = KnowledgeBase()
>>> kb.rules('''
...     anc(X, Y) <- par(X, Y).
...     anc(X, Y) <- par(X, Z), anc(Z, Y).
... ''')
2
>>> kb.facts("par", [("abe", "homer"), ("homer", "bart")])
2
>>> sorted(kb.ask("anc(abe, Y)?").to_python())
[('bart',), ('homer',)]

Query *forms* are compiled once and cached — ``anc($X, Y)?`` is optimized
a single time and can then be executed for many values of ``$X``
(Section 2: optimization is query-form specific).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Sequence

from .datalog.bindings import QueryForm
from .datalog.intern import INTERNER
from .datalog.literals import PredicateRef
from .datalog.parser import parse_program, parse_query
from .datalog.rules import Program, Rule
from .datalog.terms import Variable, is_ground, term_from_python
from .engine.governor import collector_paused
from .engine.interpreter import Interpreter, QueryAnswers
from .engine.maintenance import ViewSet, maintainable_cone
from .engine.profiler import Profiler
from .errors import KnowledgeBaseError, ResourceExhausted, TransactionError
from .obs.metrics import MetricsRegistry
from .obs.telemetry import TelemetryLog
from .obs.tracer import NULL_TRACER
from .optimizer.optimizer import MEMO_SIZE, OptimizedQuery, Optimizer, OptimizerConfig
from .plans.printer import explain, worst_q_error
from .storage.catalog import Database
from .storage.loader import parse_facts_text

#: q-error histogram buckets: powers of two, since q >= 1 by definition
#: and misestimates compound multiplicatively.
QERROR_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)

#: stand-in for an infinite q-error in the histogram (sums must be finite)
_QERROR_CEIL = 1e300


class _NetDelta:
    """Id rows written per base predicate, held net: a row inserted and
    retracted (or the reverse) in between cancels, so whoever catches up
    applies one before/after difference, not a call-by-call history."""

    __slots__ = ("inserted", "removed")

    def __init__(self, inserted=(), removed=()):
        self.inserted, self.removed = dict(inserted), dict(removed)

    def fold(self, predicate: str, rows: set, *, inserted: bool) -> None:
        mine, other = (self.inserted, self.removed) if inserted else (self.removed, self.inserted)
        cancels = other.get(predicate, set())
        mine.setdefault(predicate, set()).update(rows - cancels)
        cancels -= rows

    def __len__(self) -> int:
        return sum(map(len, self.inserted.values())) + sum(map(len, self.removed.values()))

    def apply(self, views) -> None:
        """Bring *views* up to date in commit order: deletions first (the
        inserts hidden), then the inserts, each against a consistent state."""
        views.delete(self.removed, self.inserted)
        views.insert(self.inserted)


class _KbTxn:
    """Knowledge-base side of one open transaction: snapshots of what the
    Database's own rollback cannot see (the rule list, the derived-extension
    store with its pending delta, fence and pin, and the cross-query result
    cache — whose entries added at intermediate version vectors would go
    stale-but-reachable if versions were restored under them), plus the
    net delta the store is owed, folded in once at commit."""

    __slots__ = ("rules", "store", "result_cache", "delta", "touched", "rules_changed")

    def __init__(self, kb: "KnowledgeBase"):
        self.rules = list(kb._rules)
        self.store = kb._views, kb._pending, kb._fence, kb._pinned
        self.result_cache = (
            dict(kb._result_cache) if kb._result_cache is not None else None
        )
        #: the net base delta owed to the store at commit
        self.delta = _NetDelta()
        #: base relations actually mutated inside the transaction (no-op
        #: writes never land here), each with its count of such writes —
        #: drives the footprint-scoped invalidation at commit
        self.touched: dict[str, int] = {}
        self.rules_changed = False


class KnowledgeBase:
    """Rules + facts + optimizer + engine, with per-query-form caching.

    *result_cache* enables the cross-query result cache: a repeat of an
    identical query (same goal, same adornment, same ``$``-bindings)
    against an unchanged fact base is served from the cache without
    touching the engine.  Freshness is keyed on the versions of the
    relations in the query's *dependency footprint* (the base relations
    it can transitively read), so a write invalidates exactly the
    cached queries that could observe it — writes to unrelated
    relations leave entries hot.  Queries run with an explicit profiler,
    governor, or tracer bypass the cache — those arguments signal that
    the caller wants a measured / governed / traced *execution*, and a
    hit would observably change what they record.

    Derived extensions live in one store (:meth:`_store`): one
    :class:`~repro.engine.maintenance.ViewSet` over the cones of the
    all-free forms asked, or over every rule once :meth:`materialize`
    pins it, the net delta it is owed, and its footprint's version
    vector, which catches writes made straight to ``kb.db``.

    Every query lands one record in :attr:`telemetry` — a
    :class:`~repro.obs.telemetry.TelemetryLog` ring buffer (wall time,
    tier taken, cache hit/miss, governor denials, worst q-error of the
    executed plan) whose *telemetry_sink* can stream
    ``repro.telemetry/2`` JSONL.
    """

    def __init__(
        self,
        config: OptimizerConfig | None = None,
        *,
        result_cache: bool = True,
        result_cache_size: int = 256,
        telemetry_capacity: int = 256,
        telemetry_sink=None,
    ):
        from .datalog.builtins import default_builtins

        self.db = Database()
        self.config = config or OptimizerConfig()
        self.builtins = default_builtins()
        self._rules: list[Rule] = []
        #: the rule base as a Program and its optimizer: built on first use
        #: after a rules change or a rollback, and kept across data writes
        #: (a write only makes the optimizer re-price)
        self._program: Program | None = None
        self._optimizer: Optimizer | None = None
        self._compiled: dict[tuple[str, str], OptimizedQuery] = {}
        #: query text -> its parsed form (forms are immutable)
        self._forms: dict[str, QueryForm] = {}
        #: lowered rules by value, shared by every compiled query's
        #: ``PlanCode``: a data write evicts plans, and the plans that
        #: replace them find their rules lowered already.  Like the forms,
        #: dropped wherever ``_compiled`` is dropped whole.
        self._lowered_rules: dict = {}
        #: per-predicate dependency footprints ("name/arity" -> base
        #: relation names transitively read, off the optimizer's graph) and
        #: the maintainable cones of the goals asked (see
        #: :meth:`_store_goal`), until the rules change
        self._footprints: dict[str, frozenset[str]] = {}
        self._cones: dict[PredicateRef, Program | None] = {}
        #: the store: its ViewSet (None until built, and once dropped), the
        #: net delta it is owed, the footprint versions it reflects with
        #: that delta applied (its fence), and whether it is pinned
        self._views: ViewSet | None = None
        self._pending = _NetDelta()
        self._fence: tuple[tuple[str, int], ...] = ()
        self._pinned = False
        if result_cache_size < 0:
            raise KnowledgeBaseError(f"result_cache_size must be >= 0, not {result_cache_size}")
        #: (goal, adornment, bindings, footprint, versions) -> answer
        self._result_cache: "dict[tuple, QueryAnswers] | None" = (
            {} if result_cache and result_cache_size else None
        )
        self._result_cache_size = result_cache_size
        self._txn: _KbTxn | None = None
        #: cross-query observability aggregates (plan-cache hit rate,
        #: governor denials, kernel compiles, ...); exportable via
        #: ``metrics.to_json()`` / ``metrics.to_prometheus_text()``
        self.metrics = MetricsRegistry()
        #: per-query telemetry ring buffer (see module docstring)
        self.telemetry = TelemetryLog(telemetry_capacity, sink=telemetry_sink)

    # ----------------------------------------------------------- transactions

    @contextmanager
    def transaction(self):
        """Atomic update group: ``with kb.transaction(): ...``.

        Every :meth:`facts` / :meth:`retract` / :meth:`rules` /
        :meth:`facts_text` inside the block applies atomically — commit
        on normal exit; on any exception the fact base, rule base, result
        cache, version vector and derived-extension store are restored
        byte-identically to the state at entry, then the exception
        propagates.  Plan/result-cache invalidation and the store's
        maintenance fire exactly once, at commit.  Mid-transaction queries
        see the transaction's own writes (except through pinned views,
        whose maintenance is deferred to commit).  No nesting.
        """
        if self._txn is not None:
            raise TransactionError("transaction already open on this KnowledgeBase")
        txn = _KbTxn(self)
        self.db.begin_transaction()
        self._txn = txn
        try:
            yield self
        except BaseException:
            self._txn = None
            self.db.rollback_transaction()
            self._rules = txn.rules
            self._views, self._pending, self._fence, self._pinned = txn.store
            if txn.result_cache is not None and self._result_cache is not None:
                self._result_cache.clear()
                self._result_cache.update(txn.result_cache)
            # Compiled plans and the optimizer may reflect in-transaction
            # rules/stats; drop them (they rebuild lazily and cheaply).
            self._drop_compiled()
            self.metrics.inc("transactions_total", outcome="rollback")
            raise
        else:
            self._txn = None
            self.db.commit_transaction()
            if txn.rules_changed:
                self._invalidate()
            elif txn.touched:
                self._data_invalidate(txn.touched, txn.delta)
            self.metrics.inc("transactions_total", outcome="commit")

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def close(self) -> None:
        """Roll back any open transaction and close the telemetry sink.
        Idempotent."""
        self._txn = None
        self.telemetry.close()
        self.db.close()

    # ----------------------------------------------------------- loading

    def rules(self, source: str) -> int:
        """Add rules written in LDL syntax; ground facts go to the database.

        Returns the number of rules added (facts not counted).
        """
        program = parse_program(source)
        added = 0
        try:
            for rule in program:
                if rule.is_fact and not rule.head.variables:
                    self.db.insert(rule.head.predicate, rule.head.args)
                    continue
                self._check_rule(rule)
                self._rules.append(rule)
                added += 1
        finally:
            # a rule refused part-way leaves those before it added
            if self._txn is not None:
                self._txn.rules_changed = True
            self._invalidate()
        return added

    def rule(self, rule: Rule) -> None:
        """Add one programmatically built rule."""
        self._check_rule(rule)
        self._rules.append(rule)
        if self._txn is not None:
            self._txn.rules_changed = True
        self._invalidate()

    def facts(self, predicate: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-load plain-value tuples for a base predicate — all of
        them, or none when one is malformed.

        The derived-extension store is maintained incrementally from the
        newly inserted tuples (at once when pinned by :meth:`materialize`).
        """
        if any(r.head.predicate == predicate for r in self._rules):
            raise KnowledgeBaseError(
                f"{predicate!r} is a derived predicate; facts must go to base predicates"
            )
        return self._wrote(predicate, self.db.add(predicate, rows), inserted=True)

    def retract(self, predicate: str, rows: Iterable[Sequence[object]]) -> int:
        """Remove facts from a base predicate; compiled plans are
        invalidated and the derived-extension store maintained."""
        return self._wrote(predicate, self.db.remove(predicate, rows), inserted=False)

    def _wrote(self, predicate: str, changed: set, inserted: bool) -> int:
        """What the knowledge base owes the id rows *changed* that went
        into (or out of) *predicate*; returns their count.  A no-op write
        leaves versions, plans, and caches exactly as they were."""
        if not changed:
            return 0
        txn = self._txn
        if txn is not None:
            # Deferred to commit: invalidation fires once, and the store's
            # maintenance never has to be undone on rollback.
            txn.touched[predicate] = txn.touched.get(predicate, 0) + 1
            txn.delta.fold(predicate, changed, inserted=inserted)
            return len(changed)
        written = {predicate: changed}
        delta = _NetDelta(written, ()) if inserted else _NetDelta((), written)
        self._data_invalidate({predicate: 1}, delta)
        return len(changed)

    # ----------------------------------------------------------- views

    def materialize(self):
        """Pin the derived-extension store to every derived predicate: it
        is maintained at each write from then on, and answers every ask of
        a predicate it holds.

        Returns the :class:`~repro.engine.maintenance.ViewSet`.  Stratified
        negation and aggregates are maintained too; an aggregate rule of a
        recursive predicate is refused.
        """
        views = self._build(self.program)
        self._pinned = True
        return views

    @property
    def materialized_views(self):
        """The pinned store's :class:`~repro.engine.maintenance.ViewSet`,
        current, or ``None`` when nothing is pinned (rule changes unpin)."""
        return self._store() if self._pinned else None

    def view_rows(self, predicate: str):
        """Current materialized extension of *predicate* (plain values)."""
        views = self.materialized_views
        if views is None:
            raise KnowledgeBaseError("no materialized views; call materialize() first")
        from .datalog.terms import Constant

        return {
            tuple(f.value if isinstance(f, Constant) else f for f in row)
            for row in views.rows(predicate)
        }

    def facts_text(self, source: str) -> int:
        """Load facts written in LDL syntax (supports complex terms).
        A write like :meth:`facts`, one predicate at a time: views are
        maintained, and only plans and cached answers that can read a
        loaded relation are evicted."""
        return sum(
            self._wrote(predicate, self.db.add(predicate, rows), inserted=True)
            for predicate, rows in parse_facts_text(source).items()
        )

    def register_builtin(self, builtin) -> None:
        """Register a user-defined built-in predicate (see
        :mod:`repro.datalog.builtins`)."""
        self.builtins.register(builtin)
        self._invalidate()

    def _check_rule(self, rule: Rule) -> None:
        if rule.head.predicate in self.db.names:
            raise KnowledgeBaseError(
                f"{rule.head.predicate!r} already holds facts; cannot also be derived"
            )
        if rule.head.predicate in self.builtins:
            raise KnowledgeBaseError(
                f"{rule.head.predicate!r} is a built-in predicate; it cannot be redefined"
            )

    def _drop_compiled(self) -> None:
        """Forget the rule base's Program and optimizer, every compiled
        query and what was derived for them: forms, lowered rules and what
        was read off the graph."""
        self._program = None
        self._optimizer = None
        self._compiled.clear()
        self._forms.clear()
        self._lowered_rules.clear()
        self._footprints.clear()
        self._cones.clear()

    def _invalidate(self) -> None:
        """Full invalidation, for rule/builtin changes: the dependency
        graph itself moved, so footprints, plans, and cached results are
        all void (see :meth:`_data_invalidate` for the surgical
        data-write path)."""
        self._drop_compiled()
        if self._result_cache is not None:
            # The footprint-versioned key already fences data changes;
            # this clear covers rule/builtin changes, which the key cannot
            # see, and keeps the cache from accumulating dead entries.
            self._result_cache.clear()
        self._drop()
        self._pinned = False

    # ------------------------------------------------ footprints + eviction

    def _dependency_footprint(self, predicate: str, arity: int) -> frozenset[str]:
        """The base relations a query against *predicate* can read,
        computed once per predicate from the rule dependency graph and
        cached until the rule base changes.

        For a derived predicate this is every non-derived predicate
        transitively reachable through rule bodies (built-ins excluded —
        they hold no stored rows); for a base or unknown predicate it is
        the predicate itself.
        """
        cache_key = f"{predicate}/{arity}"
        hit = self._footprints.get(cache_key)
        if hit is not None:
            return hit
        derived = {ref.name for ref in self.program.derived_predicates}
        if predicate not in derived:
            footprint = frozenset((predicate,))
        else:
            reachable = self.optimizer.graph.reachable_from(
                PredicateRef(predicate, arity)
            )
            footprint = frozenset(
                ref.name
                for ref in reachable
                if ref.name not in derived and ref.name not in self.builtins
            )
        self._footprints[cache_key] = footprint
        return footprint

    def _form_footprint(self, form: QueryForm) -> frozenset[str]:
        return self._dependency_footprint(form.predicate, form.goal.arity)

    def _store_goal(self, form: QueryForm, cacheable: bool) -> PredicateRef | None:
        """*form*'s goal when the store answers it, else None (the plan
        does).  A pinned store answers every ask of a predicate it holds.
        An unpinned one answers a cacheable all-free ask (every argument a
        distinct variable) outside a transaction, over a cone it can
        maintain, when it holds that cone already or the cone is memoized,
        i.e. from the goal's second such ask on: the first runs the plan,
        and a later miss builds or grows the store."""
        if not self._pinned:
            if not cacheable or self._txn is not None or form.bound_vars:
                return None
            args = form.goal.args
            if len(set(args)) != len(args) or not all(isinstance(arg, Variable) for arg in args):
                return None
        ref = PredicateRef(form.predicate, form.goal.arity)
        if ref in self._cones:
            return None if self._cones[ref] is None else ref
        self._cones[ref] = maintainable_cone(self.program, ref)
        held = self._pinned or self._holds(ref)
        return ref if held and self._cones[ref] is not None else None

    def _data_invalidate(self, writes: dict[str, int], delta: _NetDelta) -> None:
        """Surgical invalidation after *writes* (base relation -> count of
        writes that changed it): only compiled plans and cached results
        whose footprint intersects the mutated relations are evicted;
        queries over disjoint data keep their plans and cached answers.
        The cached answers are version-fenced by their key,
        so evicting them is memory hygiene, not correctness; the store owes
        the write's *delta* (:meth:`_owe`).
        """
        touched = writes.keys()
        if not touched:
            return
        # Statistics feeding cost models changed (and the samples the
        # optimizer took of them): it re-prices, keeping what the rules
        # alone fix (the expensive per-form work is in _compiled, evicted
        # selectively).
        if self._optimizer is not None:
            self._optimizer.reprice()
        stale = [
            key for key, compiled in self._compiled.items()
            if self._form_footprint(compiled.query) & touched
        ]
        for key in stale:
            del self._compiled[key]
        if self._result_cache is not None:
            for key in [key for key in self._result_cache if not key[3].isdisjoint(touched)]:
                del self._result_cache[key]
        self._owe(delta, writes)

    # ----------------------------------------------------------- compiling

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = Program(self._rules)
        return self._program

    @property
    def optimizer(self) -> Optimizer:
        if self._optimizer is None:
            self._optimizer = Optimizer(
                self.program, self.db, self.config, builtins=self.builtins
            )
        return self._optimizer

    def compile(
        self, query: str | QueryForm, governor=None, tracer=NULL_TRACER
    ) -> OptimizedQuery:
        """Optimize a query form (cached per form + adornment).

        *governor* bounds the search itself: on deadline expiry the
        optimizer degrades its strategy instead of aborting (see
        :meth:`Optimizer.optimize`).  Governed compilations are not
        cached — a degraded plan must not shadow the full one.

        *tracer* records parse / safety / optimize phase spans.
        """
        form = self._form(query, tracer)
        with tracer.span("safety", kind="phase"):
            # The first use after a rules change builds the dependency
            # graph and runs the stratification check; data writes keep
            # them, so later uses are an attribute read.
            optimizer = self.optimizer
        if governor is not None:
            return optimizer.optimize(
                form, governor=governor, tracer=tracer, metrics=self.metrics
            )
        key = (str(form.goal), form.adornment.code)
        hit = self._compiled.get(key)
        if hit is not None:
            self.metrics.inc("plan_cache_hits_total")
            return hit
        self.metrics.inc("plan_cache_misses_total")
        compiled = optimizer.optimize(form, tracer=tracer, metrics=self.metrics)
        if len(self._lowered_rules) >= MEMO_SIZE:
            self._lowered_rules.clear()  # goals with constants lower apart
        compiled.code.memo = self._lowered_rules
        self._compiled[key] = compiled
        return compiled

    def _form(self, query: str | QueryForm, tracer=NULL_TRACER) -> QueryForm:
        """The parsed form of a query text — parsed (under a ``parse``
        span) the first time the text is seen."""
        if not isinstance(query, str):
            return query
        form = self._forms.get(query)
        if form is None:
            with tracer.span("parse", kind="phase"):
                form = parse_query(query)
            if len(self._forms) >= MEMO_SIZE:
                self._forms.clear()
            self._forms[query] = form
        return form

    def explain(self, query: str | QueryForm) -> str:
        """The optimizer's chosen processing tree, pretty-printed."""
        return explain(self.compile(query).plan)

    def analyze(
        self, query: str | QueryForm, tracer=NULL_TRACER, **bindings: object
    ) -> str:
        """EXPLAIN ANALYZE: execute the query and render the plan with
        ``est=<estimated card> act=<measured tuples> err=<q-error>`` on
        every executed node, plus a top-misestimates summary.

        *tracer* additionally records the full span tree of the run
        (phases, plan nodes, operators, fixpoint rounds).
        """
        from .plans.printer import explain_analyzed

        profiler = Profiler()
        tracer.attach(profiler)
        started = time.perf_counter()
        before = self._denials()
        with tracer.span("query", kind="query") as root:
            compiled = self.compile(query, tracer=tracer)
            root.note(goal=str(compiled.query.goal))
            interpreter = Interpreter(
                self.db, profiler=profiler, builtins=self.builtins,
                tracer=tracer, metrics=self.metrics,
            )
            answers = interpreter.run(
                compiled.plan, compiled.query, compiled.code, **bindings
            )
        self.metrics.inc("queries_total")
        self._telemetry_note(
            compiled.query, started, before, tier="batch", cache="off",
            rows=len(answers), worst=self._qerror(compiled, interpreter.node_stats),
        )
        body = explain_analyzed(compiled.plan, interpreter.node_stats)
        summary = (
            f"-- answers: {len(answers)} | work: {profiler.total_work} tuples "
            f"(examined {profiler.examined}, produced {profiler.produced}, "
            f"iterations {profiler.iterations})"
        )
        return f"{body}\n{summary}"

    # ----------------------------------------------------------- running

    def ask(
        self,
        query: str | QueryForm,
        profiler: Profiler | None = None,
        governor=None,
        tracer=NULL_TRACER,
        **bindings: object,
    ) -> QueryAnswers:
        """Compile (cached) and execute a query.

        Bound variables (``$X``) take their values from keyword
        arguments: ``kb.ask("sg($X, Y)?", X="joe")``.  When the
        derived-extension store answers the form (see :meth:`_store_goal`),
        the answer is read from its incrementally maintained extension.

        *governor* (a :class:`~repro.engine.governor.ResourceGovernor`,
        or ``False`` to disable all limits) spans the whole execution:
        deadline, live-tuple/memory budgets, cancellation, fault
        injection.  The default builds one from the engine's standard
        guards.

        *tracer* (a :class:`~repro.obs.tracer.Tracer`) records the whole
        pipeline as one span tree rooted at ``query``: parse, safety,
        optimize phases, every plan node, operator, and fixpoint round.
        """
        self.metrics.inc("queries_total")
        cacheable = (
            self._result_cache is not None
            and profiler is None
            and governor is None
            and not tracer.enabled
        )
        profiler = profiler or Profiler()
        # Attach before opening the root span: attach only takes effect
        # between span trees, so counter deltas cover the whole query.
        tracer.attach(profiler)
        started = time.perf_counter()
        before = self._denials()
        with tracer.span("query", kind="query") as root:
            form = self._form(query, tracer)
            root.note(goal=str(form.goal))
            # The store answers without a plan; anything else is compiled
            # before the cache is consulted.
            goal = self._store_goal(form, cacheable)
            compiled = self.compile(form, tracer=tracer) if goal is None else None
            cache_key = self._result_cache_key(form, bindings) if cacheable else None
            if cache_key is not None:
                hit = self._result_cache.get(cache_key)
                if hit is not None:
                    self.metrics.inc("result_cache_hits_total")
                    # A warm serving workload is all hits: without this
                    # record the telemetry log would show an idle system.
                    self._telemetry_note(
                        form, started, before, tier="cache", cache="hit",
                        rows=len(hit), worst=1.0,
                    )
                    return hit
                self.metrics.inc("result_cache_misses_total")
            if goal is not None:
                # Tier attribution follows where the rows came from *this*
                # query: "cache" only on an actual hit above, "view" when
                # the store's extension was read.
                views = self._store(goal)
                answers = self._answer_from_view(views.ids(form.predicate), form, profiler, bindings)
                tier, worst = "view", 1.0
            else:
                interpreter = Interpreter(
                    self.db, profiler=profiler, builtins=self.builtins,
                    governor=governor, tracer=tracer, metrics=self.metrics,
                )
                try:
                    answers = interpreter.run(
                        compiled.plan, compiled.query, compiled.code, **bindings
                    )
                except Exception as err:
                    self._telemetry_note(
                        form, started, before, tier="batch",
                        cache="off", rows=0, worst=1.0,
                        status="denied" if isinstance(err, ResourceExhausted) else "error",
                    )
                    raise
                # The interpreter's node_stats exist with or without a
                # tracer, so every executed plan reports its q-error.
                worst = self._qerror(compiled, interpreter.node_stats)
                tier = "batch"
            if cache_key is not None:
                cache = self._result_cache
                while len(cache) >= self._result_cache_size:
                    cache.pop(next(iter(cache)))  # FIFO bound
                cache[cache_key] = answers
            self._telemetry_note(
                form, started, before, tier=tier,
                cache="miss" if cache_key is not None else "off",
                rows=len(answers), worst=worst,
            )
            return answers

    # --------------------------------------------------------- telemetry

    def _denials(self) -> int:
        """The governor denials counted so far (snapshot before a query)."""
        return self.metrics.counter_total("governor_denials_total")

    def _qerror(self, compiled: OptimizedQuery, node_stats: dict) -> float:
        """The executed plan's worst q-error, into the ``qerror`` histogram."""
        worst = worst_q_error(compiled.plan, node_stats)
        self.metrics.observe("qerror", min(worst, _QERROR_CEIL), buckets=QERROR_BUCKETS)
        return worst

    def _telemetry_note(
        self,
        form: QueryForm,
        started: float,
        before: int,
        *,
        tier: str,
        cache: str,
        rows: int,
        worst: float,
        status: str = "ok",
    ) -> None:
        denials = self._denials() - before
        self.telemetry.record(
            goal=str(form.goal),
            adornment=form.adornment.code,
            wall_ms=(time.perf_counter() - started) * 1000.0,
            tier=tier,
            cache=cache,
            rows=rows,
            worst_qerror=worst,
            denials=int(denials),
            status=status,
        )

    def _result_cache_key(self, form: QueryForm, bindings: dict) -> tuple | None:
        """(goal text, adornment, $-bindings, footprint, its version vector)
        — or None when a binding value cannot be lifted into a hashable term.

        Freshness is fenced per dependency footprint, not globally: the
        key carries ``(name, version)`` only for the base relations this
        form can actually read (``-1`` for a relation not created yet —
        its later creation must miss), so a write to an unrelated
        relation leaves the entry hot.
        """
        try:
            lifted = tuple(
                (name, term_from_python(bindings[name])) for name in sorted(bindings)
            )
        except TypeError:
            return None
        footprint = self._form_footprint(form)
        # the footprint rides along so that eviction tests it without a loop
        return str(form.goal), form.adornment.code, lifted, footprint, self._versions(footprint)

    def _versions(self, footprint: Iterable[str]) -> tuple[tuple[str, int], ...]:
        """``(name, version)`` over *footprint*, sorted; ``-1`` for a relation
        not created yet (its later creation must miss)."""
        return tuple(
            (name, relation.version if (relation := self.db.get(name)) is not None else -1)
            for name in sorted(footprint)
        )

    def _answer_from_view(
        self, view, form: QueryForm, profiler: Profiler, bindings: dict
    ) -> QueryAnswers:
        """Answer a query form from a materialized extension: the goal's
        ground arguments (constants, ``$``-values) select from the view's
        bucket map on their positions, so a bound read examines the rows
        that match them, not the view.  A flat goal — every other
        argument a variable of its own — is then a projection in id
        space; a struct pattern or a repeated variable is matched per
        decoded row."""
        from .datalog.unify import Substitution, apply, match
        from .errors import ExecutionError

        missing = {v.name for v in form.bound_vars} - set(bindings)
        if missing:
            raise ExecutionError(f"missing values for bound variables: {sorted(missing)}")
        base: Substitution = {
            v: term_from_python(bindings[v.name]) for v in form.bound_vars
        }
        patterns = [apply(arg, base) for arg in form.goal.args]
        ground = tuple(i for i, pattern in enumerate(patterns) if is_ground(pattern))
        # looked up, never admitted: a value no fact holds selects nothing
        key = tuple(INTERNER.lookup(patterns[i]) for i in ground)
        selected = view.select(ground, frozenset(() if None in key else (key,)))
        profiler.bump_examined(len(selected))
        out_vars = form.output_vars
        free = [pattern for pattern in patterns if not is_ground(pattern)]
        if all(isinstance(p, Variable) for p in free) and len(set(free)) == len(free):
            # only ground positions go: the rows stay distinct (copied, as
            # a write edits a view's own columns in place)
            length = len(selected)
            columns = [selected.columns[patterns.index(v)] for v in out_vars] if length else ()
            profiler.bump_produced(length)
            return QueryAnswers.from_columns(out_vars, list(map(list, columns)), length, profiler)
        rows = set()
        for stored in INTERNER.decode_rows(selected.rows):
            subst: Substitution | None = dict(base)
            for pattern, value in zip(patterns, stored):
                subst = match(pattern, value, subst)
                if subst is None:
                    break
            else:
                rows.add(INTERNER.encode_row(tuple(subst[v] for v in out_vars)))
        profiler.bump_produced(len(rows))
        return QueryAnswers(out_vars, rows, profiler)

    # ----------------------------------------------- derived-extension store

    def _holds(self, goal: PredicateRef) -> bool:
        """Whether the store holds *goal*'s cone: it holds every cone whose
        goal it derives, being a union of cones (each downward closed)."""
        return self._views is not None and self._views.program.is_derived(goal)

    def _store(self, goal: PredicateRef | None = None) -> ViewSet | None:
        """The store, current and holding *goal*'s cone.  It is dropped
        first when its footprint is not at its fence, advanced by the open
        transaction's writes (a write went past the knowledge base), rebuilt
        over the whole program when pinned and dropped, or grown over its
        rules plus the cone's when it lacks *goal*; then it is caught up."""
        fence = self._fence
        if self._txn is not None:
            fence = tuple((name, version + self._txn.touched.get(name, 0)) for name, version in fence)
        if self._views is not None and self._versions(name for name, __ in fence) != fence:
            self._drop()
        if self._views is None and self._pinned:
            self._build(self.program)
        elif goal is not None and not self._holds(goal):
            rules = set(self._views.program if self._views is not None else ())
            rules.update(self._cones[goal])
            self._build(Program(rule for rule in self._rules if rule in rules))
        if self._pending:
            self._catch_up()
        return self._views

    def _build(self, program: Program) -> ViewSet:
        """Make the store a fresh :class:`ViewSet` over *program*: it owes
        nothing, and its fence is its footprint's versions now."""
        views = ViewSet(self.db, program, builtins=self.builtins)
        views.materialize()
        footprint = frozenset().union(*(
            self._dependency_footprint(ref.name, ref.arity) for ref in program.derived_predicates
        ))
        self._views, self._pending, self._fence = views, _NetDelta(), self._versions(footprint)
        return views

    def _drop(self) -> None:
        self._views, self._pending = None, _NetDelta()

    def _owe(self, delta: _NetDelta, writes: dict[str, int]) -> None:
        """Fold a knowledge-base write, or a commit's net *delta*, into the
        store: the fence advances by *writes* (relation -> writes that
        changed it, one version bump each) and the footprint's rows join
        the pending delta.  A pinned store is brought up to date at once
        (:meth:`_store`); another is dropped once it is owed more rows than
        it holds (a rebuild beats that walk)."""
        footprint = dict(self._fence)
        if self._views is None or footprint.keys().isdisjoint(writes):
            return
        self._fence = tuple((name, version + writes.get(name, 0)) for name, version in self._fence)
        for rows_by, inserted in ((delta.inserted, True), (delta.removed, False)):
            for predicate, rows in rows_by.items():
                if predicate in footprint:
                    self._pending.fold(predicate, rows, inserted=inserted)
        if self._pinned:
            self._store()
        elif len(self._pending) > self._views.size():
            self._drop()

    @collector_paused
    def _catch_up(self) -> None:
        """Apply the pending delta to the store, detached meanwhile: a
        catch-up that raises half-way leaves it to be rebuilt."""
        views, pending = self._views, self._pending
        self._drop()
        pending.apply(views)
        self._views = views

    # ----------------------------------------------------------- persistence

    def save(self, directory: str) -> None:
        """Persist the knowledge base to *directory* (created if needed):
        ``rules.ldl`` holds the rule base, ``facts.ldl`` the fact base —
        both in LDL syntax, so they are diffable and hand-editable."""
        from pathlib import Path

        from .storage.loader import dump_facts_text

        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        (path / "rules.ldl").write_text(
            "\n".join(str(rule) for rule in self._rules) + "\n" if self._rules else ""
        )
        (path / "facts.ldl").write_text(dump_facts_text(self.db))

    @classmethod
    def load(cls, directory: str, config: OptimizerConfig | None = None) -> "KnowledgeBase":
        """Reload a knowledge base written by :meth:`save`."""
        from pathlib import Path

        path = Path(directory)
        kb = cls(config)
        rules_file = path / "rules.ldl"
        facts_file = path / "facts.ldl"
        if facts_file.exists():
            kb.facts_text(facts_file.read_text())
        if rules_file.exists():
            kb.rules(rules_file.read_text())
        return kb

    def __repr__(self) -> str:
        return (
            f"KnowledgeBase({len(self._rules)} rules, "
            f"{len(self.db.names)} relations, {len(self._compiled)} compiled forms)"
        )
