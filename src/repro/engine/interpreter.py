"""Execution of optimized processing trees (Section 4's semantics).

The interpreter gives each plan node the operational meaning the paper
assigns it: execution "proceeds bottom-up left to right", materialized
subtrees are computed completely before their ancestor starts, pipelined
subtrees are evaluated lazily "using the binding from the result of the
subquery to the left" — realized here by passing a relation of
bound-argument *keys* down into the subtree, which is exactly what a
derived predicate node (OR or CC) accepts:

    execute(node, keys) -> all head tuples matching some key
    execute(node, None) -> the full extension (materialized)

Everything that crosses a node boundary is in **id space**: keys are
sets of interned-id tuples and a node's result is an
:class:`~repro.storage.columnar.IdRelation` (id rows, columns, bucket
maps), from the fixpoint's workspace up to :class:`QueryAnswers`, which
decodes only when a caller asks for terms or Python values.

An AND node (the ``__query__`` wrapper included) is lowered once per way
of entering it (keyed or not) with
:func:`repro.engine.batch.compile_batch_plan` — every step's EL label
picks its join step's variant — and its steps run on the shared step
executor over id columns.  A child's result store is probed directly,
sideways keys are the distinct tuples of the key columns (a struct key
built from them), the head is an id-space projection or group.

CC nodes dispatch on their recursive-method label: ``seminaive``/``naive``
compute the clique's full extension and probe it with the keys;
``magic``, ``supplementary`` and ``counting`` seed their rewritten
program once with the whole key set (set-oriented sideways passing) and
select the keys' answers (counting carries the key as leading columns,
so one evaluation keeps every subquery's levels apart).

Results are cached per (node, key-set), so repeated probes of a memoized
subtree — the run-time mirror of NR-OPT's per-binding memoization — are
free after the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from ..datalog.bindings import QueryForm
from ..datalog.intern import INTERNER
from ..datalog.literals import Literal
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Term, Variable, term_from_python
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from ..plans.nodes import FixpointNode, JoinNode, JoinStep, PlanCode, UnionNode
from ..storage.catalog import Database
from ..storage.columnar import IdRelation, IdRow
from . import batch as _batch
from .fixpoint import FixpointEngine, stored_relation
from .governor import ResourceGovernor, adopt_governor, collector_paused
from .profiler import Profiler

Row = tuple[Term, ...]
Keys = frozenset[IdRow] | None


def _plain(term: Term) -> object:
    return term.value if isinstance(term, Constant) else term


class QueryAnswers:
    """The result set of one executed query form instance.

    Held as columns of interned ids: ``len`` and ``bool`` read a count,
    ``==``, ``hash`` and membership compare id rows, and none of them —
    nor the result cache, which only stores the object — decodes a term.
    :attr:`rows`, iteration, :meth:`to_python`, :meth:`to_dicts` and
    :meth:`first` decode when called, each distinct id once; only
    :attr:`rows` keeps what it built.  (Columns rather than a set of id
    tuples, so holding a large answer in the cache costs two flat lists
    and evicting it on a write frees nothing row by row.)

    Two answers are equal when their variables and rows are; the
    profiler records how the rows were obtained and is not part of the
    value.
    """

    __slots__ = ("variables", "profiler", "_columns", "_length", "_rows")

    def __init__(
        self, variables: tuple[Variable, ...], ids: Iterable[IdRow], profiler: Profiler
    ):
        """*ids* are distinct rows of ids in the process-wide interner."""
        self.variables = variables
        self.profiler = profiler
        if not isinstance(ids, (set, frozenset)):
            ids = set(ids)
        self._length = len(ids)
        #: one list of ids per variable; empty for no rows or no variables
        self._columns = tuple(map(list, zip(*ids)))
        self._rows: frozenset[Row] | None = None

    @classmethod
    def from_columns(
        cls, variables: tuple[Variable, ...], columns: Sequence[list[int]],
        length: int, profiler: Profiler,
    ) -> "QueryAnswers":
        """Answers already laid out as *length* distinct rows in *columns*
        — taken, not copied: the lists of a finished result store."""
        answers = cls(variables, (), profiler)
        answers._columns, answers._length = tuple(columns), length
        return answers

    def __len__(self) -> int:
        return self._length

    def _id_rows(self) -> frozenset[IdRow]:
        return frozenset(zip(*self._columns) if self._columns else [()] * self._length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryAnswers):
            return NotImplemented
        return (
            self.variables == other.variables
            and self._length == other._length
            and self._id_rows() == other._id_rows()
        )

    def __hash__(self) -> int:
        return hash((self.variables, self._id_rows()))

    def __contains__(self, row: object) -> bool:
        """Whether *row* — terms or plain Python values — is an answer."""
        try:
            # lifted as kb.facts lifts it, and looked up: a probe value
            # is never admitted to the interner
            ids = INTERNER.lookup_row(row)
        except TypeError:  # not a row, or a field no term can hold
            return False
        return ids is not None and ids in self._id_rows()

    def _distinct(self) -> dict[int, Term]:
        """Every distinct id of the answer, decoded — once each."""
        terms = INTERNER.terms
        return {i: terms[i] for i in set(chain.from_iterable(self._columns))}

    def _render(self, by_id: dict) -> list[tuple]:
        """The rows, in stored order, with ``by_id[i]`` for each id."""
        if not self._columns:
            return [()] * self._length
        return list(zip(*(map(by_id.__getitem__, column) for column in self._columns)))

    def _keys(self, decoded: dict[int, Term]) -> list[int]:
        """Per row, an integer ordered as the tuple of its fields' ``str()``:
        each distinct id is ranked once by its text (``Constant(1)`` and
        ``Constant("1")`` share a rank); a row's ranks are its key's digits."""
        text = {i: str(term) for i, term in decoded.items()}
        rank, ranks, last = {}, 0, None
        for i in sorted(text, key=text.__getitem__):
            ranks += text[i] != last
            rank[i], last = ranks, text[i]
        keys = [0] * self._length
        for column in self._columns:
            keys = [key * (ranks + 1) + rank[i] for key, i in zip(keys, column)]
        return keys

    @collector_paused
    def _listed(self, of) -> list[tuple]:
        """The rows as ``of(term)`` fields, in listing order (ties in
        stored order)."""
        if not self._columns:
            return [()] * self._length
        decoded = self._distinct()
        value = {i: of(term) for i, term in decoded.items()}
        if len(self._columns) == 1:  # one id per row: the ids sorted by text
            text = {i: str(term) for i, term in decoded.items()}
            return [(value[i],) for i in sorted(self._columns[0], key=text.__getitem__)]
        order = sorted(range(self._length), key=self._keys(decoded).__getitem__)
        return list(zip(*([value[column[k]] for k in order] for column in self._columns)))

    @property
    @collector_paused
    def rows(self) -> frozenset[Row]:
        """The answers as ground term tuples (decoded once, then kept)."""
        if self._rows is None:
            self._rows = frozenset(self._render(self._distinct()))
        return self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._listed(lambda term: term))

    def to_python(self) -> list[tuple]:
        """Rows as plain Python values (Constant payloads unwrapped)."""
        return self._listed(_plain)

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as ``{variable_name: value}`` dicts, in sorted row order."""
        names = [v.name for v in self.variables]
        return [dict(zip(names, row)) for row in self.to_python()]

    def first(self) -> tuple | None:
        """The first row as plain values, or ``None`` when empty."""
        if not self._length:
            return None
        decoded = self._distinct()
        at = min(range(self._length), key=self._keys(decoded).__getitem__)
        return tuple(_plain(decoded[column[at]]) for column in self._columns)

    def __repr__(self) -> str:
        header = ", ".join(v.name for v in self.variables)
        return f"QueryAnswers[{header}]({self._length} rows)"


@dataclass(frozen=True, slots=True)
class _LoweredNode:
    """An AND node lowered for one way of entering it (keyed or not)."""

    #: the steps and head, over the key variables as input schema
    plan: _batch.BatchPlan
    #: how sideways keys become the input batch
    keys: _batch.KeyLayout
    #: per step: the key fields of its lowered step forming a pipelined
    #: child's sideways key, or None when the step sends no keys
    child_keys: tuple[tuple[int, ...] | None, ...]


class Interpreter:
    """Executes processing trees against a database."""

    def __init__(
        self,
        db: Database,
        profiler: Profiler | None = None,
        max_iterations: int = 100_000,
        max_tuples: int = 5_000_000,
        builtins=None,
        deadline_seconds: float | None = None,
        max_memory_bytes: int | None = None,
        governor: "ResourceGovernor | None | bool" = None,
        tracer=NULL_TRACER,
        metrics=None,
    ):
        self.db = db
        self.profiler = profiler or Profiler()
        self.governor = adopt_governor(
            governor, self.profiler, tracer, metrics,
            deadline_seconds=deadline_seconds, max_tuples=max_tuples,
            max_memory_bytes=max_memory_bytes, max_iterations=max_iterations,
        )
        self.tracer = tracer
        self.metrics = metrics
        self.builtins = builtins
        self._cache: dict[tuple[int, Keys], IdRelation] = {}
        #: the running plan's executable form (AND-node lowerings, fixpoint
        #: schedules); private until :meth:`run` is handed the query's own
        self._code = PlanCode()
        #: per-plan-node measured execution stats (id(node) -> counters),
        #: consumed by EXPLAIN ANALYZE
        self.node_stats: dict[int, dict[str, int]] = {}

    # ------------------------------------------------------------- queries

    @collector_paused
    def run(
        self, plan_root: UnionNode, query: QueryForm, code: PlanCode | None = None, /,
        **bindings: object,
    ) -> QueryAnswers:
        """Execute an optimized query form with values for its $-variables.

        *bindings* maps bound-variable names to plain Python values.
        *code* is the compiled query's executable form
        (``OptimizedQuery.code``): what this run lowers is kept there for
        the next one, instead of on this interpreter.
        """
        if code is not None:
            self._code = code
        missing = {v.name for v in query.bound_vars} - set(bindings)
        if missing:
            raise ExecutionError(f"missing values for bound variables: {sorted(missing)}")
        extra = set(bindings) - {v.name for v in query.bound_vars}
        if extra:
            raise ExecutionError(f"values supplied for unknown variables: {sorted(extra)}")

        schema = tuple(sorted(query.bound_vars, key=lambda v: v.name))
        row = tuple(term_from_python(bindings[v.name]) for v in schema)

        if self.governor is not None:
            self.governor.arm()
        self.tracer.attach(self.profiler)
        wrapper = plan_root.children[0]
        out_vars = query.output_vars
        with self.tracer.span(f"execute:{query.predicate}", kind="phase") as span:
            # The wrapper is an AND node whose input is the one row of
            # $-values and whose head is the projection on the output
            # variables (empty for a boolean query: zero or one row).
            lowered = self._code.once(
                wrapper, False, self._lower, wrapper, Literal("__query__", out_vars), (), schema
            )
            span.note(tier="batch")
            columns, length = self._run_lowered(
                wrapper, lowered, [[i] for i in INTERNER.encode_row(row)], 1
            )
            # A child's result store is finished, so when the head keeps
            # its columns whole they *are* the answer (a base relation's
            # columns are not: they grow with the relation).
            taken = (
                _batch.head_columns(lowered.plan, columns)
                if length and wrapper.steps[0].child is not None
                else None
            )
            if taken is not None:
                answers = QueryAnswers.from_columns(out_vars, taken, length, self.profiler)
            else:
                ids = _batch.project_ids(lowered.plan, columns, length) if length else ()
                answers = QueryAnswers(out_vars, ids, self.profiler)
        # The synthetic __query__ wrapper never goes through execute(),
        # so record its stats here: EXPLAIN ANALYZE annotates every node.
        self._record(wrapper, length)
        self._record(plan_root, length)
        return answers

    # --------------------------------------------------------------- nodes

    def execute(
        self, node: UnionNode | FixpointNode, keys: Keys, code: PlanCode | None = None
    ) -> IdRelation:
        """All head tuples of *node* matching *keys* (all of them if None).
        *code* keeps what this execution lowers, as in :meth:`run`."""
        if code is not None:
            self._code = code
        cache_key = (id(node), keys)
        hit = self._cache.get(cache_key)
        if hit is not None:
            self._record(node, len(hit), cached=True)
            return hit
        tag = "or" if isinstance(node, UnionNode) else "cc"
        with self.tracer.span(f"{tag}:{node.ref.name}", kind="node") as span:
            if isinstance(node, UnionNode):
                result = self._execute_union(node, keys)
            else:
                span.note(method=node.method)
                result = self._execute_fixpoint(node, keys)
            span.note(rows=len(result))
        self._cache[cache_key] = result
        if self.governor is not None:
            # Cached extensions stay live for the rest of the query, so
            # they count against the query-wide tuple/memory budgets.
            self.governor.retain(len(result))
        self._record(node, len(result))
        return result

    def _record(self, node, rows: int, cached: bool = False) -> None:
        stats = self.node_stats.setdefault(
            id(node), {"calls": 0, "cached_calls": 0, "rows": 0}
        )
        stats["calls"] += 1
        if cached:
            stats["cached_calls"] += 1
        else:
            stats["rows"] = max(stats["rows"], rows)

    def _execute_union(self, node: UnionNode, keys: Keys) -> IdRelation:
        out: set[IdRow] = set()
        for child in node.children:
            with self.tracer.span(f"and:{child.rule.head.predicate}", kind="node") as span:
                rows = self._execute_join(child, keys, span)
            self._record(child, len(rows))
            out |= rows
        return IdRelation(INTERNER, node.ref.arity, out)

    def _execute_join(self, node: JoinNode, keys: Keys, span) -> set[IdRow]:
        head = node.rule.head
        patterns = (
            () if keys is None
            else tuple(head.args[i] for i in node.binding.bound_positions)
        )
        lowered = self._code.once(
            node, bool(patterns), self._lower, node, head, patterns, ()
        )
        span.note(tier="batch")
        columns, length = (
            ([], 1) if keys is None else _batch.key_batch(lowered.keys, keys)
        )
        columns, length = self._run_lowered(node, lowered, columns, length)
        return _batch.instantiate_head(
            lowered.plan, columns, length, INTERNER, self.profiler, self.governor
        )

    # ------------------------------------------------------- lowered nodes

    def _lower(
        self,
        node: JoinNode,
        head: Literal,
        patterns: Sequence[Term],
        schema: tuple[Variable, ...],
    ) -> _LoweredNode:
        """The node's lowering for one way of entering it — with keys
        binding the head arguments *patterns*, or (the wrapper) with one
        row over *schema*.  Decided once per node and way, and kept on
        the plan's :class:`PlanCode`."""
        layout = _batch.key_layout(patterns)
        plan = _batch.lower_rule(
            self._code.memo,
            Rule(head, tuple(step.literal for step in node.steps)),
            reorder=False, builtins=self.builtins,
            bound=schema or layout.schema,
            methods=tuple(
                # a child's extension is joined as a hash join, its build paid
                step.method if step.child is None and step.method in _batch.JOIN_METHODS
                else "hash"
                for step in node.steps
            ),
        )
        child_keys = []
        for step, lowered_step in zip(node.steps, plan.steps):
            sideways = None
            if step.child is not None and step.pipelined and lowered_step.kind == "join":
                field_at = {p: i for i, p in enumerate(lowered_step.bound_positions)}
                wanted = step.child.binding.bound_positions
                if not all(position in field_at for position in wanted):
                    raise ExecutionError(
                        f"sideways keys of {step.literal} are not all bound"
                    )
                sideways = tuple(field_at[position] for position in wanted)
            child_keys.append(sideways)
        return _LoweredNode(plan, layout, tuple(child_keys))

    def _run_lowered(
        self, node: JoinNode, lowered: _LoweredNode, columns: list[list[int]], length: int
    ) -> tuple[list[list[int]], int]:
        """Run *node*'s lowered steps left to right over the input batch,
        with the bookkeeping around each step: the operator span noting
        the EL label, governor settling, and the node statistics EXPLAIN
        ANALYZE reads."""
        governor = self.governor
        for step, lowered_step, child_keys in zip(
            node.steps, lowered.plan.steps, lowered.child_keys
        ):
            if not length:
                break
            with self.tracer.span(lowered_step.label, kind="operator") as span:
                span.note(method=step.method)
                store = self._step_store(step, lowered_step, child_keys, columns, length)
                columns, length = _batch.run_step(
                    lowered_step, columns, length, store,
                    self.profiler, governor, INTERNER,
                )
            if governor is not None:
                governor.settle(length)
            stats = self.node_stats.setdefault(
                id(step), {"calls": 0, "cached_calls": 0, "rows": 0}
            )
            stats["calls"] += 1
            stats["rows"] = max(stats["rows"], length)
        return columns, length

    def _step_store(self, step: JoinStep, lowered_step, child_keys, columns, length):
        """The store a lowered stored step probes (None for a computed
        one): the child's result, or the base relation's own store."""
        if lowered_step.kind not in ("join", "negation"):
            return None
        if step.child is None:
            return stored_relation(self.db, step.literal).batch_store(INTERNER)
        if child_keys is None:
            keys = None
        elif child_keys:
            fields = _batch.key_fields(lowered_step, columns, length, INTERNER, admit=True)
            keys = frozenset(zip(*(fields[field] for field in child_keys)))
        else:  # pipelined with nothing bound: the one empty key
            keys = frozenset(((),))
        return self.execute(step.child, keys)

    # ------------------------------------------------------------ fixpoints

    def _fixpoint_engine(self) -> FixpointEngine:
        engine = FixpointEngine(
            self.db,
            profiler=self.profiler,
            builtins=self.builtins,
            # the query-wide governor, or none at all: an ungoverned
            # interpreter's fixpoints build no default of their own
            governor=self.governor if self.governor is not None else False,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        engine.code = self._code  # schedules are kept with the plan
        return engine

    def _execute_fixpoint(self, node: FixpointNode, keys: Keys) -> IdRelation:
        bound_positions = node.binding.bound_positions
        if node.method in ("seminaive", "naive"):
            # Materialized fixpoint: full extension (cached), then probe.
            full = self._cache.get((id(node), None))
            if full is None:
                result = self._fixpoint_engine().evaluate(
                    node.program, naive=(node.method == "naive")
                )
                full = result.ids(node.answer_predicate)
                self._cache[(id(node), None)] = full
            if keys is None:
                return full
            return full.select(bound_positions, keys)

        if node.method not in ("magic", "supplementary", "counting"):
            raise ExecutionError(f"unknown recursive method {node.method!r}")
        if keys is None:
            raise ExecutionError(
                f"{node.method} fixpoint for {node.ref} requires sideways bindings"
            )
        # Seeded fixpoint: one evaluation for the whole key set (its seeds
        # are terms, encoded once on entry), then select the keys' answers
        # in one pass: a bucket map over an extension dropped with the
        # result would be built for this single probe.
        seeds = {node.seed_predicate: INTERNER.decode_rows(keys)}
        result = self._fixpoint_engine().evaluate(node.program, seeds=seeds)
        return result.ids(node.answer_predicate).select(bound_positions, keys, probe=False)
