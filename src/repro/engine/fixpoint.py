"""Naive and semi-naive fixpoint evaluation of Horn-clause programs.

Bottom-up, stratum by stratum (SCCs of the dependency graph in *follows*
order, Section 2), with the classical delta-driven *semi-naive* iteration
inside each recursive clique and plain *naive* re-evaluation available
for comparison (it is one of the recursive methods the OPT algorithm may
cost, and the ablation benchmark measures the difference).

Every rule runs on its lowered columnar plan (:mod:`repro.engine.batch`):
complex terms, repeated variables and struct-building heads lower too,
so there is one executor and one workspace representation.  (The
term-space evaluator the differential oracle compares against lives in
:mod:`repro.testing.reference`.)

Everything :meth:`FixpointEngine.evaluate` needs that the program alone
decides is its *schedule*: the strata in evaluation order, and per rule
its lowered plan and the positions a delta can drive.  It is built once
per program (stratification checked then) and kept on a
:class:`~repro.plans.nodes.PlanCode` — the compiled query's, when the
plan interpreter runs the engine, so it is built once per plan, not per
ask — and an evaluation allocates workspaces only.

Every derived extension is an
:class:`~repro.storage.columnar.IdRelation` — a set of interned-id rows
with the same rows as columns and bucket maps: seeds are encoded once on
entry, a rule's head comes back as id rows, a round's new rows are
``produced - full`` as one set difference appended in bulk, and each
predicate's delta is one store per round shared by every firing that
reads it.  Nothing is decoded until the caller asks
:class:`EvaluationResult` for term rows.  By default each body is first
reordered by the greedy effective-computability order
(:func:`repro.datalog.safety.exists_safe_order`) so evaluable predicates
run only once their arguments are bound; the optimizer hands over bodies
already in its chosen order, in which case reordering is disabled and
the order is *trusted* — an unsafe order then raises
:class:`~repro.errors.ExecutionError`, which is exactly the run-time
behaviour the compile-time safety analysis exists to preclude.

Termination guards are enforced by a
:class:`~repro.engine.governor.ResourceGovernor` (built from
``max_iterations``/``max_tuples`` when none is supplied): live tuples —
workspace *plus* the current round's delta *plus* the in-flight
intermediate rows of the join being executed — are charged cooperatively
inside the hot loops, so an explosive join round aborts mid-join with
:class:`~repro.errors.ResourceExhausted` instead of blowing past the
budget unobserved.  That abort is the run-time manifestation of the
paper's "infinite cost".
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from ..datalog.graph import DependencyGraph
from ..datalog.literals import Literal, PredicateRef, pred_ref
from ..datalog.rules import Program, Rule
from ..datalog.terms import Term
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from ..plans.nodes import PlanCode
from ..storage.catalog import Database
from ..storage.columnar import IdRelation
from . import batch as _batch
from .governor import ResourceGovernor, adopt_governor, collector_paused
from .profiler import Profiler

Row = tuple[Term, ...]


class _ScheduledRule(NamedTuple):
    """A rule as the fixpoint fires it: its lowered *plan*, and per body
    literal a delta can drive (in body order) the clique predicate it
    reads and its position in execution order."""

    rule: Rule
    plan: "_batch.BatchPlan"
    deltas: tuple[tuple[str, int], ...]


class _Stratum(NamedTuple):
    """One component of the dependency graph that has rules; *clique* is
    its name on the ``fixpoint:clique:`` span."""

    refs: tuple[PredicateRef, ...]
    rules: tuple[_ScheduledRule, ...]
    recursive: bool
    clique: str


class EvaluationResult:
    """The outcome of a fixpoint evaluation.

    :meth:`rows`, ``result[predicate]`` and :attr:`relations` hand out
    ``frozenset[Row]`` extensions, each predicate decoded when first
    read, then kept — a caller that stays in id space (:meth:`ids`) or
    reads one predicate of many pays for what it reads.
    """

    def __init__(self, stores: Mapping[str, IdRelation], iterations: int, profiler: Profiler):
        self._stores = stores
        self._rows: dict[str, frozenset[Row]] = {}
        self.iterations = iterations
        self.profiler = profiler

    def rows(self, predicate: str) -> frozenset[Row]:
        rows = self._rows.get(predicate)
        if rows is None:
            store = self.ids(predicate)
            rows = self._rows[predicate] = store.interner.decode_rows(store.rows)
        return rows

    def __getitem__(self, predicate: str) -> frozenset[Row]:
        return self.rows(predicate)

    @property
    def relations(self) -> dict[str, frozenset[Row]]:
        """Every derived (and seeded) extension, by predicate."""
        return {name: self.rows(name) for name in self._stores}

    def ids(self, predicate: str) -> IdRelation:
        """The extension as the evaluation left it, in id space (an empty
        store for a predicate it does not hold)."""
        store = self._stores.get(predicate)
        return store if store is not None else IdRelation(_batch.INTERNER)


def stored_relation(db: Database, literal: Literal):
    """The stored relation *literal* reads — checked to exist and to have
    the literal's arity, so every evaluator fails alike."""
    relation = db.get(literal.predicate)
    if relation is None:
        raise ExecutionError(
            f"unknown predicate {literal.predicate!r} (no rules, no relation, no seed)"
        )
    if relation.arity != literal.arity:
        raise ExecutionError(
            f"literal {literal} has arity {literal.arity}, relation has {relation.arity}"
        )
    return relation


class FixpointEngine:
    """Bottom-up evaluator for a program over a database.

    Parameters
    ----------
    db:
        The fact base; base predicates scan its relations.
    profiler:
        Work counters; a fresh one is created if omitted.
    max_iterations / max_tuples:
        Termination guards; used to build a default governor when no
        *governor* is passed.  ``None`` disables the respective budget.
    governor:
        A :class:`~repro.engine.governor.ResourceGovernor` shared across
        the whole query (deadlines, query-wide budgets, cancellation,
        fault injection).  ``None`` builds one from the guards above;
        ``False`` disables governance entirely (the ungoverned escape
        hatch kept for overhead A/B measurement — no guards at all).
    reorder_bodies:
        When True (default) bodies are reordered by the greedy EC order
        before execution; when False the given order is trusted.

    Each rule is lowered to a columnar plan
    (:func:`repro.engine.batch.compile_batch_plan`) once per :attr:`code`
    — so once per compiled query when the plan interpreter shares the
    query's, once per engine otherwise — and derived extensions are
    id-space stores with persistent, bulk-extended bucket maps.
    """

    def __init__(
        self,
        db: Database,
        profiler: Profiler | None = None,
        max_iterations: int = 100_000,
        max_tuples: int = 5_000_000,
        reorder_bodies: bool = True,
        builtins: "BuiltinRegistry | None" = None,
        governor: "ResourceGovernor | None | bool" = None,
        tracer=NULL_TRACER,
        metrics=None,
    ):
        from ..datalog.builtins import builtin_oracle

        self.db = db
        self.profiler = profiler or Profiler()
        self.governor = adopt_governor(
            governor, self.profiler, tracer, metrics,
            max_tuples=max_tuples, max_iterations=max_iterations,
        )
        self.tracer = tracer
        self.metrics = metrics
        self.reorder_bodies = reorder_bodies
        self.builtins = builtins
        self._oracle = builtin_oracle(builtins)
        #: keeps schedules and lowered rules; private, unless the owner of
        #: a compiled query puts the query's own here
        self.code = PlanCode()
        self._batch_exec = _batch.BatchExecutor()

    # -- extensions ----------------------------------------------------------

    def _extension(
        self,
        literal: Literal,
        workspace: Mapping[str, IdRelation],
        derived: frozenset[PredicateRef],
    ):
        """What *literal* currently denotes: its workspace entry, else
        the stored relation."""
        name = literal.predicate
        if name in workspace:
            return workspace[name]
        if pred_ref(literal) in derived:
            # Derived but not yet computed (later stratum would be a bug;
            # same-stratum preds always have a workspace entry).
            return self._new_store(literal.arity)
        return stored_relation(self.db, literal)

    def _new_store(self, arity: int | None = None, rows: Iterable[Row] = ()) -> IdRelation:
        interner = self._batch_exec.interner
        return IdRelation(interner, arity, interner.encode_rows(rows))

    # -- rules -------------------------------------------------------------------

    def fire(
        self,
        entry: _ScheduledRule,
        extension_at: "_batch.StoreOf",
        delta_position: int | None = None,
        delta: IdRelation | None = None,
        batch: "tuple[list[list[int]], int] | None" = None,
        counted: bool = False,
    ):
        """One firing's head id rows — the one routine a rule is fired
        by, for the fixpoint's rounds and for view maintenance alike.

        ``extension_at(position, literal)`` is what the stored literal at
        *position* of the execution order denotes: an id store or a
        stored relation.  *delta* is the delta for the literal at
        *delta_position*.  *batch* is the input batch over the ``bound``
        schema the entry was scheduled with; *counted* asks for a
        ``Counter`` of head rows — one count per distinct body
        assignment — instead of a set."""
        with self.tracer.span(f"rule:{entry.rule.head.predicate}", kind="rule") as span:
            span.note(tier="batch", delta=delta_position is not None)
            if self.metrics is not None:
                self.metrics.inc("batch_rules_total")
            return self._batch_exec.execute(
                entry.plan, extension_at, self.profiler,
                delta_position=delta_position, delta=delta,
                governor=self.governor, tracer=self.tracer,
                batch=batch, counted=counted,
            )

    # -- the schedule ------------------------------------------------------------

    def scheduled(
        self,
        rule: Rule,
        reorder: bool,
        clique: "frozenset[str] | set[str]" = frozenset(),
        bound: tuple = (),
    ) -> _ScheduledRule:
        """*rule* as :meth:`fire` runs it: lowered (through the memo of
        :attr:`code`) over the input schema *bound*.  *reorder* searches a
        safe body order; without it the given order is trusted.  *clique*
        names the predicates a semi-naive round drives deltas through."""
        plan = _batch.lower_rule(
            self.code.memo, rule, reorder, self._oracle, self.builtins, bound
        )
        return _ScheduledRule(
            rule, plan,
            tuple(
                (literal.predicate, plan.delta_map[i])
                for i, literal in enumerate(rule.body)
                if not literal.is_comparison
                and not literal.negated
                and literal.predicate in clique
            ),
        )

    def _schedule(
        self, program: Program
    ) -> tuple[frozenset[PredicateRef], tuple[_Stratum, ...]]:
        """The program's derived predicates and its strata in evaluation
        order — all of an evaluation that does not depend on the data."""
        graph = DependencyGraph(program)
        graph.check_stratified()
        memo = self.code.memo
        lowered_before = len(memo)
        strata = []
        for component in graph.evaluation_order():
            rules = [r for r in program if r.head_ref in component]
            if not rules:
                continue  # base-only component
            names = {ref.name for ref in component}
            scheduled = [self.scheduled(rule, self.reorder_bodies, names) for rule in rules]
            strata.append(_Stratum(
                tuple(component),
                tuple(scheduled),
                any(ref in component for rule in rules for ref in rule.body_refs),
                "+".join(sorted(names)),
            ))
        if self.metrics is not None:
            self.metrics.inc("kernel_compiles_total", len(memo) - lowered_before)
        return program.derived_predicates, tuple(strata)

    # -- the fixpoint ------------------------------------------------------------

    @collector_paused
    def evaluate(
        self,
        program: Program,
        seeds: Mapping[str, Iterable[Row]] | None = None,
        naive: bool = False,
    ) -> EvaluationResult:
        """Compute all derived relations of *program*.

        *seeds* pre-populates derived-style relations (magic/counting
        seeds).  With ``naive=True`` recursive cliques use naive
        re-evaluation instead of semi-naive deltas.
        """
        derived, strata = self.code.once(
            program, self.reorder_bodies, self._schedule, program
        )
        governor = self.governor
        if governor is not None:
            governor.arm()
        self.tracer.attach(self.profiler)

        workspace: dict[str, IdRelation] = {
            name: self._new_store(rows=rows) for name, rows in (seeds or {}).items()
        }

        def extension_at(position: int, literal: Literal):
            return self._extension(literal, workspace, derived)

        total_iterations = 0
        for stratum in strata:
            for ref in stratum.refs:
                if ref.name not in workspace:
                    workspace[ref.name] = self._new_store(ref.arity)
            if not stratum.recursive:
                for entry in stratum.rules:
                    workspace[entry.rule.head.predicate].absorb(
                        self.fire(entry, extension_at)
                    )
                    if governor is not None:
                        governor.settle(self._live_tuples(workspace))
                continue
            with self.tracer.span(f"fixpoint:clique:{stratum.clique}", kind="fixpoint") as span:
                iterations = (
                    self._naive_clique(stratum, workspace, extension_at)
                    if naive
                    else self._seminaive_clique(stratum, workspace, extension_at)
                )
                span.note(rounds=iterations, naive=naive)
            if self.metrics is not None:
                self.metrics.observe("fixpoint_rounds", iterations)
            total_iterations += iterations

        self.profiler.bump_iterations(total_iterations)
        if governor is not None:
            governor.end_region()
        return EvaluationResult(workspace, total_iterations, self.profiler)

    # -- clique strategies ---------------------------------------------------

    @staticmethod
    def _live_tuples(workspace: Mapping[str, IdRelation]) -> int:
        return sum(len(rows) for rows in workspace.values())

    def _check_guards(self, workspace: Mapping[str, IdRelation]) -> None:
        """Round-boundary guard check: refresh the governor's view of the
        workspace (which already holds this round's delta) and charge one
        fixpoint round against the iteration budget."""
        if self.governor is not None:
            self.governor.checkpoint_round(self._live_tuples(workspace))

    def _seminaive_clique(
        self,
        stratum: _Stratum,
        workspace: dict[str, IdRelation],
        extension_at: "_batch.StoreOf",
    ) -> int:
        names = [ref.name for ref in stratum.refs]
        delta: dict[str, set] = {name: set() for name in names}
        governor = self.governor
        tracer = self.tracer

        # Round 0: all rules against the current workspace (exit rules fire;
        # seeds participate).
        with tracer.span("fixpoint:round:0", kind="round"):
            for entry in stratum.rules:
                head_name = entry.rule.head.predicate
                delta[head_name] |= workspace[head_name].absorb(
                    self.fire(entry, extension_at)
                )
                if governor is not None:
                    governor.settle(self._live_tuples(workspace))
            self._check_guards(workspace)

        iterations = 1
        while any(delta.values()):
            with tracer.span(f"fixpoint:round:{iterations}", kind="round"):
                # one delta store per predicate per round, shared by
                # every firing that reads it
                interner = self._batch_exec.interner
                delta = {name: IdRelation(interner, rows=rows) for name, rows in delta.items()}
                new_delta: dict[str, set] = {name: set() for name in names}
                for entry in stratum.rules:
                    head_name = entry.rule.head.predicate
                    for name, position in entry.deltas:
                        fired = delta[name]
                        if not fired:
                            continue
                        new_delta[head_name] |= workspace[head_name].absorb(
                            self.fire(entry, extension_at, position, fired)
                        )
                        if governor is not None:
                            governor.settle(self._live_tuples(workspace))
                delta = new_delta
                iterations += 1
                # Checked *after* the round so the final round's production
                # is still guarded (the old guard skipped it).
                self._check_guards(workspace)
        return iterations

    def _naive_clique(
        self,
        stratum: _Stratum,
        workspace: dict[str, IdRelation],
        extension_at: "_batch.StoreOf",
    ) -> int:
        governor = self.governor
        iterations = 0
        changed = True
        while changed:
            with self.tracer.span(f"fixpoint:round:{iterations}", kind="round"):
                iterations += 1
                changed = False
                for entry in stratum.rules:
                    if workspace[entry.rule.head.predicate].absorb(
                        self.fire(entry, extension_at)
                    ):
                        changed = True
                    if governor is not None:
                        governor.settle(self._live_tuples(workspace))
                self._check_guards(workspace)
        return iterations


def evaluate_program(
    db: Database,
    program: Program,
    seeds: Mapping[str, Iterable[Row]] | None = None,
    naive: bool = False,
    profiler: Profiler | None = None,
    **engine_kwargs,
) -> EvaluationResult:
    """One-shot convenience wrapper around :class:`FixpointEngine`."""
    engine = FixpointEngine(db, profiler=profiler, **engine_kwargs)
    return engine.evaluate(program, seeds=seeds, naive=naive)
