"""The term-space reference evaluator: the baseline the oracle trusts.

The engine (:mod:`repro.engine.batch`) lowers every rule to id-space
steps.  This module evaluates programs as the paper's semantics reads
them, nothing lowered: a rule body runs left to right over a
:class:`BindingsTable` — ground rows under a schema of *variables* —
which each literal extends by unification (:func:`scan_join`, the one
join; :func:`apply_comparison`, :func:`builtin_join`,
:func:`negation_filter`), and the head instantiates or groups it
(:func:`head_rows`, :func:`aggregate_rows`).  :class:`ReferenceEngine`
runs strata with semi-naive (or naive) cliques over term-row workspaces,
charging the profiler, governor and spans as the engine's fixpoint
does.  The oracle's ``fixpoint-interpreted`` / ``fixpoint-naive``
strategies run it and the tests compare the engine with it;
:func:`lowered_join` checks a lowered join variant against
:func:`scan_join`.  Nothing under ``repro`` outside ``repro.testing``
imports this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..datalog.builtins import builtin_oracle
from ..datalog.graph import DependencyGraph
from ..datalog.intern import INTERNER
from ..datalog.literals import Literal, pred_ref
from ..datalog.rules import Program, Rule, aggregate_spec
from ..datalog.terms import Term, Variable, is_ground, variables_of
from ..datalog.unify import Substitution, apply, match
from ..engine.batch import (
    builtin_for,
    builtin_row,
    comparison_row,
    compile_batch_plan,
    fold_aggregate,
    literal_vars_in_order,
    ordered_body,
    project_ids,
    run_step,
)
from ..engine.fixpoint import stored_relation
from ..engine.governor import adopt_governor
from ..engine.profiler import Profiler
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from ..storage.columnar import IdRelation
from ..storage.relation import Relation

Row = tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class BindingsTable:
    """A set of ground rows under a variable schema."""

    schema: tuple[Variable, ...]
    rows: frozenset[Row]

    @classmethod
    def unit(cls) -> "BindingsTable":
        """The empty-schema table with one row: the join identity."""
        return cls((), frozenset({()}))

    @classmethod
    def from_rows(cls, schema: Sequence[Variable], rows: Iterable[Row]) -> "BindingsTable":
        return cls(tuple(schema), frozenset(rows))

    def __len__(self) -> int:
        return len(self.rows)

    def substitutions(self) -> Iterable[Substitution]:
        """Each row as a substitution dict."""
        for row in self.rows:
            yield dict(zip(self.schema, row))

    def project(self, variables: Sequence[Variable]) -> "BindingsTable":
        """Keep only *variables* (duplicates collapse — set semantics)."""
        slot = {v: i for i, v in enumerate(self.schema)}
        positions = [slot[v] for v in variables]
        rows = frozenset(tuple(row[p] for p in positions) for row in self.rows)
        return BindingsTable(tuple(variables), rows)


def _extended(table: BindingsTable, literal: Literal) -> tuple[list[Variable], tuple]:
    """The variables *literal* adds to *table*'s schema, and the schema after."""
    new_vars = [v for v in literal_vars_in_order(literal) if v not in set(table.schema)]
    return new_vars, table.schema + tuple(new_vars)


def _id_store(extension) -> IdRelation | None:
    """The id store *extension* is held in — a base relation's own or a
    derived :class:`IdRelation` — or None for a plain set of term rows."""
    if isinstance(extension, Relation):
        return extension.batch_store(extension.interner)
    return extension if isinstance(extension, IdRelation) else None


def scan_join(
    table: BindingsTable,
    literal: Literal,
    extension: "Relation | IdRelation | Iterable[Row]",
    profiler: Profiler | None = None,
    governor=None,
) -> BindingsTable:
    """Join *table* with *extension*, what *literal*'s predicate denotes
    — a base relation or a derived id store, read through its bucket
    maps, or a set of term rows, hashed per call (one ``examined`` per
    row) — by unification.  The output schema is the input schema
    extended with the literal's not-yet-bound variables, in
    first-occurrence order.

    Per input row the literal's arguments are instantiated; those left
    ground select the candidates (an id store is probed with their ids,
    looked up and never interned, so a key nobody stored matches
    nothing) and every candidate is matched on the others.
    """
    profiler = profiler or Profiler()
    new_vars, out_schema = _extended(table, literal)
    schema_set = set(table.schema)
    bound_positions = tuple(
        i for i, arg in enumerate(literal.args) if variables_of(arg) <= schema_set
    )
    store = _id_store(extension)
    if store is not None:
        buckets = store.buckets_for(bound_positions)
        lookup, decode = store.interner.lookup, store.interner.terms.__getitem__

        def candidates(applied):
            ids = [lookup(applied[i]) for i in bound_positions]
            key = ids[0] if len(ids) == 1 else tuple(ids)
            return [
                tuple(decode(column[i]) for column in store.columns)
                for i in buckets.get(key, ())
            ]
    else:
        built: dict[tuple[Term, ...], list[Row]] = {}
        for row in extension:
            built.setdefault(tuple(row[i] for i in bound_positions), []).append(row)
            profiler.bump_examined()  # the build side, read once

        def candidates(applied):
            return built.get(tuple(applied[i] for i in bound_positions), ())

    out_rows: set[Row] = set()
    for base_row in table.rows:
        subst: Substitution = dict(zip(table.schema, base_row))
        applied = [apply(arg, subst) for arg in literal.args]
        profiler.bump_probes()
        for stored in candidates(applied):
            profiler.bump_examined()
            extended: Substitution | None = subst
            for pattern, value in zip(applied, stored):
                extended = match(pattern, value, extended)
                if extended is None:
                    break
            if extended is not None:
                _emit(out_rows, base_row + tuple(extended[var] for var in new_vars), governor)
    profiler.bump_produced(len(out_rows))
    return BindingsTable(out_schema, frozenset(out_rows))


def _emit(rows: set[Row], row: Row, governor) -> None:
    """Add *row* to a join's output, charging the governor per new row."""
    if row not in rows:
        rows.add(row)
        if governor is not None:
            governor.tick(1)


def builtin_join(
    table: BindingsTable,
    literal: Literal,
    builtin,
    profiler: Profiler | None = None,
    governor=None,
) -> BindingsTable:
    """Join with a built-in (infinite) predicate by per-row evaluation:
    one :func:`~repro.engine.batch.builtin_row` per input row."""
    profiler = profiler or Profiler()
    new_vars, out_schema = _extended(table, literal)
    out_rows: set[Row] = set()
    for base_row in table.rows:
        profiler.bump_probes()
        examined, extras = builtin_row(
            literal, builtin, dict(zip(table.schema, base_row)), new_vars
        )
        profiler.bump_examined(examined)
        for extra in extras:
            _emit(out_rows, base_row + extra, governor)
    profiler.bump_produced(len(out_rows))
    return BindingsTable(out_schema, frozenset(out_rows))


def apply_comparison(
    table: BindingsTable,
    literal: Literal,
    profiler: Profiler | None = None,
    governor=None,
) -> BindingsTable:
    """Execute a comparison literal against every row: ``=`` may bind new
    variables, extending the schema; ordering comparisons only filter."""
    profiler = profiler or Profiler()
    new_vars, out_schema = _extended(table, literal)
    out_rows: set[Row] = set()
    for row in table.rows:
        profiler.bump_examined()
        extra = comparison_row(literal, dict(zip(table.schema, row)), new_vars)
        if extra is not None:
            out_rows.add(row + extra)
    if governor is not None:
        governor.tick()
    profiler.bump_produced(len(out_rows))
    return BindingsTable(out_schema, frozenset(out_rows))


def negation_filter(
    table: BindingsTable,
    literal: Literal,
    extension: "Relation | IdRelation | Iterable[Row]",
    profiler: Profiler | None = None,
    governor=None,
) -> BindingsTable:
    """Keep rows for which the (fully bound) negated literal has no
    match: a membership test of its ids in an id store (a row with a
    term nobody interned is absent), of its terms in a set of term rows."""
    profiler = profiler or Profiler()
    store = _id_store(extension)
    held = set(extension) if store is None else store.rows
    key = tuple if store is None else store.interner.lookup_row  # None: absent
    out_rows: set[Row] = set()
    for row in table.rows:
        profiler.bump_examined()
        subst: Substitution = dict(zip(table.schema, row))
        applied = tuple(apply(arg, subst) for arg in literal.args)
        if not all(map(is_ground, applied)):
            raise ExecutionError(
                f"negated literal {literal} entered with unbound arguments (unsafe)"
            )
        if key(applied) not in held:
            out_rows.add(row)
    if governor is not None:
        governor.tick()
    profiler.bump_produced(len(out_rows))
    return BindingsTable(table.schema, frozenset(out_rows))


def aggregate_rows(
    table: BindingsTable,
    head: Literal,
    profiler: Profiler | None = None,
    governor=None,
) -> set[Row]:
    """Instantiate an *aggregate* head: group by the plain arguments, and
    fold each wrapped variable over the group's distinct derivations
    (:func:`~repro.engine.batch.fold_aggregate`)."""
    profiler = profiler or Profiler()
    specs = [aggregate_spec(arg) for arg in head.args]
    groups: dict[tuple[Term, ...], list[Substitution]] = {}
    for subst in table.substitutions():
        key = tuple(apply(arg, subst) for arg, spec in zip(head.args, specs) if spec is None)
        if not all(map(is_ground, key)):
            raise ExecutionError(
                f"aggregate head {head}: group argument unbound (unsafe execution)"
            )
        groups.setdefault(key, []).append(subst)
        profiler.bump_examined()
    out: set[Row] = set()
    for key, substs in groups.items():
        row: list[Term] = []
        key_iter = iter(key)
        for spec in specs:
            if spec is None:
                row.append(next(key_iter))
                continue
            functor, var = spec
            if any(var not in subst for subst in substs):
                raise ExecutionError(f"aggregate {functor}({var}) over unbound variable")
            row.append(fold_aggregate(functor, [subst[var] for subst in substs]))
        out.add(tuple(row))
    profiler.bump_produced(len(out))
    if governor is not None:
        governor.tick(len(out))
    return out


def head_rows(
    table: BindingsTable,
    head: Literal,
    profiler: Profiler | None = None,
    governor=None,
    counted: bool = False,
) -> "set[Row] | Counter":
    """Instantiate *head* for every row — the tuples a rule derives; with
    *counted*, each with its number of distinct body assignments."""
    profiler = profiler or Profiler()
    rows = [
        tuple(apply(arg, subst) for arg in head.args) for subst in table.substitutions()
    ]
    out = Counter(rows) if counted else set(rows)
    if not all(is_ground(field) for row in out for field in row):
        raise ExecutionError(
            f"rule head {head} not fully bound by body (unsafe execution)"
        )
    profiler.bump_produced(len(out))
    if governor is not None:
        governor.tick(len(out))
    return out


def step_kind(literal: Literal, builtins=None) -> str:
    """A body literal's step kind, as the lowering names it (the prefix
    of its span name): ``compare`` / ``negation`` / ``builtin`` / ``join``."""
    if literal.is_comparison:
        return "compare"
    if literal.negated:
        return "negation"
    return "join" if builtin_for(literal, builtins) is None else "builtin"


def reference_step(
    table: BindingsTable, literal: Literal, extension_of,
    profiler: Profiler, governor=None, builtins=None,
) -> BindingsTable:
    """One body literal over a bindings table, by kind.
    ``extension_of(positive literal)`` is asked for a stored literal's
    extension only."""
    if literal.is_comparison:
        return apply_comparison(table, literal, profiler, governor=governor)
    if literal.negated:
        positive = literal.positive()
        return negation_filter(
            table, positive, extension_of(positive), profiler, governor=governor
        )
    builtin = builtin_for(literal, builtins)
    if builtin is not None:
        return builtin_join(table, literal, builtin, profiler, governor=governor)
    return scan_join(table, literal, extension_of(literal), profiler, governor=governor)


def lowered_join(
    table: BindingsTable,
    literal: Literal,
    extension: "Relation | IdRelation | Iterable[Row]",
    method: str = "index",
    profiler: Profiler | None = None,
    governor=None,
) -> BindingsTable:
    """:func:`scan_join`'s answer from the engine: *literal* lowered to
    one join step running the *method* variant, over *table*'s rows
    encoded as its input batch, and the output decoded."""
    profiler = profiler or Profiler()
    __, out_schema = _extended(table, literal)
    if not table.rows:
        return BindingsTable(out_schema, frozenset())
    plan = compile_batch_plan(
        Rule(Literal("lowered", out_schema), (literal,)),
        reorder=False, bound=table.schema, methods=(method,),
    )
    store = _id_store(extension)
    if store is None:
        store = IdRelation(INTERNER, literal.arity, INTERNER.encode_rows(extension))
    rows = [INTERNER.encode_row(row) for row in table.rows]
    columns = [list(column) for column in zip(*rows)]
    columns, length = run_step(
        plan.steps[0], columns, len(rows), store, profiler, governor, INTERNER
    )
    found = project_ids(plan, columns, length) if length else ()
    return BindingsTable(out_schema, INTERNER.decode_rows(found))


class ReferenceResult:
    """A reference evaluation's extensions, as term rows."""

    def __init__(self, workspace: Mapping[str, set[Row]], iterations: int, profiler: Profiler):
        self._workspace = workspace
        self.iterations = iterations
        self.profiler = profiler

    def rows(self, predicate: str) -> frozenset[Row]:
        return frozenset(self._workspace.get(predicate, ()))

    def __getitem__(self, predicate: str) -> frozenset[Row]:
        return self.rows(predicate)

    @property
    def relations(self) -> dict[str, frozenset[Row]]:
        """Every derived (and seeded) extension, by predicate."""
        return {name: self.rows(name) for name in self._workspace}

    def ids(self, predicate: str) -> IdRelation:
        """The extension encoded, as the engine's result hands it out."""
        return IdRelation(INTERNER, None, INTERNER.encode_rows(self.rows(predicate)))


class ReferenceEngine:
    """Bottom-up evaluation over term-row workspaces: strata in
    dependency order, each recursive clique semi-naive (or naive), every
    body run by :func:`reference_step`.  Takes the arguments of
    :class:`~repro.engine.fixpoint.FixpointEngine`, and evaluates alike."""

    def __init__(
        self,
        db,
        profiler: Profiler | None = None,
        max_iterations: int = 100_000,
        max_tuples: int = 5_000_000,
        reorder_bodies: bool = True,
        builtins=None,
        governor=None,
        tracer=NULL_TRACER,
        metrics=None,
    ):
        self.db = db
        self.profiler = profiler or Profiler()
        self.governor = adopt_governor(
            governor, self.profiler, tracer, metrics,
            max_tuples=max_tuples, max_iterations=max_iterations,
        )
        self.tracer = tracer
        self.reorder_bodies = reorder_bodies
        self.builtins = builtins
        self._oracle = builtin_oracle(builtins)

    def evaluate(
        self,
        program: Program,
        seeds: Mapping[str, Iterable[Row]] | None = None,
        naive: bool = False,
    ) -> ReferenceResult:
        graph = DependencyGraph(program)
        graph.check_stratified()
        derived = program.derived_predicates
        governor = self.governor
        if governor is not None:
            governor.arm()
        self.tracer.attach(self.profiler)
        workspace: dict[str, set[Row]] = {
            name: set(map(tuple, rows)) for name, rows in (seeds or {}).items()
        }

        def extension(literal: Literal):
            if literal.predicate in workspace:
                return workspace[literal.predicate]
            return set() if pred_ref(literal) in derived else stored_relation(self.db, literal)

        total = 0
        for component in graph.evaluation_order():
            rules = [rule for rule in program if rule.head_ref in component]
            if not rules:
                continue
            names = {ref.name for ref in component}
            for ref in component:
                workspace.setdefault(ref.name, set())
            scheduled = []
            for rule in rules:
                body, delta_map = ordered_body(rule, self.reorder_bodies, self._oracle)
                deltas = tuple(
                    (literal.predicate, delta_map[i]) for i, literal in enumerate(rule.body)
                    if not literal.is_comparison and not literal.negated
                    and literal.predicate in names
                )
                scheduled.append((rule, body, deltas))
            if not any(ref in component for rule in rules for ref in rule.body_refs):
                for entry in scheduled:
                    self._absorb(workspace, entry[0], self._fire(entry, extension))
                continue
            with self.tracer.span(
                f"fixpoint:clique:{'+'.join(sorted(names))}", kind="fixpoint"
            ) as span:
                rounds = self._clique(scheduled, names, workspace, extension, naive)
                span.note(rounds=rounds, naive=naive)
            total += rounds
        self.profiler.bump_iterations(total)
        if governor is not None:
            governor.end_region()
        return ReferenceResult(workspace, total, self.profiler)

    def _absorb(self, workspace, rule: Rule, rows: set[Row]) -> set[Row]:
        held = workspace[rule.head.predicate]
        new = rows - held
        held |= new
        if self.governor is not None:
            self.governor.settle(sum(map(len, workspace.values())))
        return new

    def _clique(self, scheduled, names, workspace, extension, naive: bool) -> int:
        """Rounds of one recursive clique to its fixpoint: every rule
        against the workspace in round 0 (and every round, *naive*), then
        each rule once per position a delta drives."""
        delta: dict[str, set[Row]] = {name: set() for name in names}
        rounds = 0
        while True:
            with self.tracer.span(f"fixpoint:round:{rounds}", kind="round"):
                fresh: dict[str, set[Row]] = {name: set() for name in names}
                for entry in scheduled:
                    firings = (
                        [(None, None)] if naive or not rounds
                        else [(at, delta[name]) for name, at in entry[2] if delta[name]]
                    )
                    for position, rows in firings:
                        fresh[entry[0].head.predicate] |= self._absorb(
                            workspace, entry[0], self._fire(entry, extension, position, rows)
                        )
                rounds += 1
                if self.governor is not None:
                    self.governor.checkpoint_round(sum(map(len, workspace.values())))
            delta = fresh
            if not any(delta.values()):
                return rounds

    def _fire(self, entry, extension, delta_position=None, delta_rows=None) -> set[Row]:
        """One firing of a scheduled rule: its body left to right over a
        bindings table (the literal at *delta_position* reading
        *delta_rows*), then its head."""
        rule, body, __ = entry
        head_name = rule.head.predicate
        with self.tracer.span(f"rule:{head_name}", kind="rule") as span:
            span.note(tier="reference", delta=delta_position is not None)
            table = BindingsTable.unit()
            for position, literal in enumerate(body):
                if not table.rows:
                    break
                with self.tracer.span(
                    f"{step_kind(literal, self.builtins)}:{head_name}:{literal.predicate}",
                    kind="operator",
                ):
                    driven = position == delta_position
                    table = reference_step(
                        table, literal,
                        (lambda stored: delta_rows) if driven else extension,
                        self.profiler, self.governor, self.builtins,
                    )
            if rule.is_aggregate:
                return aggregate_rows(table, rule.head, self.profiler, self.governor)
            return head_rows(table, rule.head, self.profiler, self.governor)


def evaluate_program(
    db,
    program: Program,
    seeds: Mapping[str, Iterable[Row]] | None = None,
    naive: bool = False,
    profiler: Profiler | None = None,
    **engine_kwargs,
) -> ReferenceResult:
    """One-shot :class:`ReferenceEngine` evaluation."""
    engine = ReferenceEngine(db, profiler=profiler, **engine_kwargs)
    return engine.evaluate(program, seeds=seeds, naive=naive)
