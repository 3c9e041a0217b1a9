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

CC nodes dispatch on their recursive-method label: ``seminaive``/``naive``
compute the clique's full extension and filter; ``magic`` seeds the magic
program with the whole key set (set-oriented sideways passing);
``counting`` runs once per key, since the level index identifies a single
subquery instance.

Results are cached per (node, key-set), so repeated probes of a memoized
subtree — the run-time mirror of NR-OPT's per-binding memoization — are
free after the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..datalog.bindings import QueryForm
from ..datalog.literals import Literal
from ..datalog.terms import Constant, Term, Variable, term_from_python
from ..datalog.unify import Substitution, apply, match
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from ..plans.nodes import FixpointNode, JoinNode, UnionNode
from ..storage.catalog import Database
from .fixpoint import FixpointEngine
from .governor import ResourceGovernor, make_governor
from .operators import (
    BindingsTable,
    Row,
    aggregate_rows,
    apply_comparison,
    head_rows,
    negation_filter,
    scan_join,
    )
from .profiler import Profiler

Keys = frozenset[Row] | None


@dataclass(frozen=True, slots=True)
class QueryAnswers:
    """The result set of one executed query form instance."""

    variables: tuple[Variable, ...]
    rows: frozenset[Row]
    profiler: Profiler

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(sorted(self.rows, key=lambda r: tuple(str(f) for f in r)))

    def to_python(self) -> list[tuple]:
        """Rows as plain Python values (Constant payloads unwrapped)."""
        out = []
        for row in self:
            out.append(tuple(f.value if isinstance(f, Constant) else f for f in row))
        return out

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as ``{variable_name: value}`` dicts, in sorted row order."""
        names = [v.name for v in self.variables]
        return [dict(zip(names, row)) for row in self.to_python()]

    def first(self) -> tuple | None:
        """The first row as plain values, or ``None`` when empty."""
        rows = self.to_python()
        return rows[0] if rows else None

    def __repr__(self) -> str:
        header = ", ".join(v.name for v in self.variables)
        return f"QueryAnswers[{header}]({len(self.rows)} rows)"


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
        self.max_iterations = max_iterations
        self.max_tuples = max_tuples
        if governor is False:
            # The ungoverned escape hatch (overhead A/B): no guards at all.
            self.governor: ResourceGovernor | None = None
        elif governor is not None:
            self.governor = governor
            if governor.profiler is None:
                governor.profiler = self.profiler
        else:
            self.governor = make_governor(
                deadline_seconds=deadline_seconds,
                max_tuples=max_tuples,
                max_memory_bytes=max_memory_bytes,
                max_iterations=max_iterations,
                profiler=self.profiler,
            )
        self.tracer = tracer
        self.metrics = metrics
        if self.governor is not None:
            if tracer.enabled and self.governor.tracer is None:
                self.governor.tracer = tracer
            if metrics is not None and self.governor.metrics is None:
                self.governor.metrics = metrics
        self.builtins = builtins
        self._cache: dict[tuple[int, Keys], frozenset[Row]] = {}
        #: per-plan-node measured execution stats (id(node) -> counters),
        #: consumed by EXPLAIN ANALYZE
        self.node_stats: dict[int, dict[str, int]] = {}

    # ------------------------------------------------------------- queries

    def run(self, plan_root: UnionNode, query: QueryForm, **bindings: object) -> QueryAnswers:
        """Execute an optimized query form with values for its $-variables.

        *bindings* maps bound-variable names to plain Python values.
        """
        missing = {v.name for v in query.bound_vars} - set(bindings)
        if missing:
            raise ExecutionError(f"missing values for bound variables: {sorted(missing)}")
        extra = set(bindings) - {v.name for v in query.bound_vars}
        if extra:
            raise ExecutionError(f"values supplied for unknown variables: {sorted(extra)}")

        schema = tuple(sorted(query.bound_vars, key=lambda v: v.name))
        row = tuple(term_from_python(bindings[v.name]) for v in schema)
        table = BindingsTable.from_rows(schema, [row]) if schema else BindingsTable.unit()

        if self.governor is not None:
            self.governor.arm()
        self.tracer.attach(self.profiler)
        wrapper = plan_root.children[0]
        with self.tracer.span(f"execute:{query.predicate}", kind="phase"):
            final = self._run_steps(wrapper, table)
        # The synthetic __query__ wrapper never goes through execute(),
        # so record its stats here: EXPLAIN ANALYZE annotates every node.
        self._record(wrapper, len(final.rows))
        self._record(plan_root, len(final.rows))
        out_vars = query.output_vars
        projected = final.project(out_vars) if out_vars else final.project(())
        if not out_vars:
            # boolean query: empty schema, zero or one row
            return QueryAnswers((), projected.rows, self.profiler)
        return QueryAnswers(out_vars, projected.rows, self.profiler)

    # --------------------------------------------------------------- nodes

    def execute(self, node: UnionNode | FixpointNode, keys: Keys) -> frozenset[Row]:
        """All head tuples of *node* matching *keys* (all of them if None)."""
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

    def _execute_union(self, node: UnionNode, keys: Keys) -> frozenset[Row]:
        out: set[Row] = set()
        for child in node.children:
            with self.tracer.span(f"and:{child.rule.head.predicate}", kind="node"):
                rows = self._execute_join(child, keys)
            self._record(child, len(rows))
            out |= rows
        return frozenset(out)

    def _execute_join(self, node: JoinNode, keys: Keys) -> frozenset[Row]:
        head = node.rule.head
        if keys is None:
            table = BindingsTable.unit()
        else:
            patterns = [head.args[i] for i in node.binding.bound_positions]
            schema: list[Variable] = []
            for pattern in patterns:
                for var in _pattern_vars(pattern):
                    if var not in schema:
                        schema.append(var)
            rows: set[Row] = set()
            for key in keys:
                subst: Substitution | None = {}
                for pattern, value in zip(patterns, key):
                    subst = match(pattern, value, subst)
                    if subst is None:
                        break
                if subst is None:
                    continue
                rows.add(tuple(subst[v] for v in schema))
            table = BindingsTable.from_rows(tuple(schema), rows)
        final = self._run_steps(node, table)
        if node.rule.is_aggregate:
            return frozenset(aggregate_rows(final, head, self.profiler, governor=self.governor))
        return frozenset(head_rows(final, head, self.profiler, governor=self.governor))

    def _run_steps(self, node: JoinNode, table: BindingsTable) -> BindingsTable:
        governor = self.governor
        tracer = self.tracer
        head_name = node.rule.head.predicate
        # Remember the join's input width: the feedback store divides each
        # step's output rows by its predecessor's to learn per-row fanouts.
        node_stats = self.node_stats.setdefault(
            id(node), {"calls": 0, "cached_calls": 0, "rows": 0}
        )
        node_stats["in_rows"] = max(node_stats.get("in_rows", 0), len(table.rows))
        for step in node.steps:
            if not table.rows:
                return table
            with tracer.span(
                f"{_step_kind(step)}:{head_name}:{step.literal.predicate}",
                kind="operator",
            ) as span:
                span.note(method=step.method)
                table = self._apply_step(step, table)
            if governor is not None:
                governor.settle(len(table.rows))
            stats = self.node_stats.setdefault(
                id(step), {"calls": 0, "cached_calls": 0, "rows": 0}
            )
            stats["calls"] += 1
            stats["rows"] = max(stats["rows"], len(table))
        return table

    def _apply_step(self, step, table: BindingsTable) -> BindingsTable:
        literal = step.literal
        governor = self.governor
        if literal.is_comparison:
            return apply_comparison(table, literal, self.profiler, governor=governor)
        if literal.negated:
            extension = self._step_extension(step, literal, None)
            return negation_filter(
                table, literal.positive(), extension, self.profiler, governor=governor
            )
        if step.child is not None:
            if step.pipelined:
                keys = self._probe_keys(table, literal, step.child.binding.bound_positions)
                extension = self.execute(step.child, keys)
            else:
                extension = self.execute(step.child, None)
            return scan_join(
                table, literal, extension, "hash", self.profiler, governor=governor
            )
        if self.builtins is not None and literal.predicate in self.builtins:
            builtin = self.builtins.get(literal.predicate)
            if builtin is not None and builtin.arity == literal.arity:
                from .operators import builtin_join

                return builtin_join(
                    table, literal, builtin, self.profiler, governor=governor
                )
        relation = self.db.relation(literal.predicate)
        method = step.method if step.method in ("nested_loop", "hash", "index", "merge") else "hash"
        return scan_join(
            table, literal, relation, method, self.profiler, governor=governor
        )

    def _step_extension(self, step, literal: Literal, keys: Keys) -> Iterable[Row]:
        """Extension of a (possibly derived) literal for a negation check."""
        if step.child is not None:
            return self.execute(step.child, keys)
        return self.db.relation(literal.predicate).rows

    def _probe_keys(
        self, table: BindingsTable, literal: Literal, bound_positions: Sequence[int]
    ) -> frozenset[Row]:
        """Distinct bound-argument values flowing sideways into a child."""
        keys: set[Row] = set()
        for subst in table.substitutions():
            key = tuple(apply(literal.args[i], subst) for i in bound_positions)
            keys.add(key)
        return frozenset(keys)

    # ------------------------------------------------------------ fixpoints

    def _fixpoint_engine(self) -> FixpointEngine:
        return FixpointEngine(
            self.db,
            profiler=self.profiler,
            max_iterations=self.max_iterations,
            max_tuples=self.max_tuples,
            builtins=self.builtins,
            # Share the query-wide governor; an explicitly ungoverned
            # interpreter keeps its fixpoints ungoverned too (rather than
            # letting FixpointEngine build its own default).
            governor=self.governor if self.governor is not None else False,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    def _execute_fixpoint(self, node: FixpointNode, keys: Keys) -> frozenset[Row]:
        bound_positions = node.binding.bound_positions
        if node.method in ("seminaive", "naive"):
            # Materialized fixpoint: full extension (cached), then filter.
            full = self._cache.get((id(node), None))
            if full is None:
                result = self._fixpoint_engine().evaluate(
                    node.program, naive=(node.method == "naive")
                )
                full = result.rows(node.answer_predicate)
                self._cache[(id(node), None)] = full
            if keys is None:
                return full
            return frozenset(
                row for row in full
                if tuple(row[i] for i in bound_positions) in keys
            )

        if keys is None:
            raise ExecutionError(
                f"{node.method} fixpoint for {node.ref} requires sideways bindings"
            )

        if node.method in ("magic", "supplementary"):
            seeds = {node.seed_predicate: set(keys)}
            result = self._fixpoint_engine().evaluate(node.program, seeds=seeds)
            answers = result.rows(node.answer_predicate)
            return frozenset(
                row for row in answers
                if tuple(row[i] for i in bound_positions) in keys
            )

        if node.method == "counting":
            free_positions = [i for i in range(node.ref.arity) if i not in bound_positions]
            out: set[Row] = set()
            zero = Constant(0)
            # One engine for all keys: each evaluate() builds a fresh
            # workspace, while the rule plans lowered for the first key
            # are reused for every subsequent one.
            engine = self._fixpoint_engine()
            for key in keys:
                seeds = {node.seed_predicate: {(zero,) + key}}
                result = engine.evaluate(node.program, seeds=seeds)
                for row in result.rows(node.answer_predicate):
                    if not node.answer_any_level and row[0] != zero:
                        continue
                    full_row: list[Term] = [zero] * node.ref.arity
                    for position, value in zip(bound_positions, key):
                        full_row[position] = value
                    for position, value in zip(free_positions, row[1:]):
                        full_row[position] = value
                    out.add(tuple(full_row))
            return frozenset(out)

        if node.method == "qsqn":
            from ..datalog.rules import Program
            from .qsqn import QSQNEngine

            if node.adorned is None:
                raise ExecutionError(
                    f"qsqn fixpoint for {node.ref} carries no adorned clique"
                )
            adorned_predicates = node.adorned.adorned_predicates
            support = Program(
                [r for r in node.program if r.head.predicate not in adorned_predicates]
            )
            engine = QSQNEngine(
                self.db,
                builtins=self.builtins,
                governor=self.governor,
                profiler=self.profiler,
                tracer=self.tracer,
                metrics=self.metrics,
                support_engine=self._fixpoint_engine(),
            )
            answers = engine.solve(node.adorned, support, keys)
            return frozenset(
                row for row in answers
                if tuple(row[i] for i in bound_positions) in keys
            )

        raise ExecutionError(f"unknown recursive method {node.method!r}")


def _step_kind(step) -> str:
    """Span-name prefix for a JoinStep — mirrors the batch step kinds."""
    literal = step.literal
    if literal.is_comparison:
        return "compare"
    if literal.negated:
        return "negation"
    if step.method == "builtin":
        return "builtin"
    return "join"


def _pattern_vars(term: Term) -> list[Variable]:
    out: list[Variable] = []
    stack = [term]
    while stack:
        t = stack.pop(0)
        if isinstance(t, Variable):
            if t not in out:
                out.append(t)
        elif hasattr(t, "args"):
            stack = list(t.args) + stack  # type: ignore[union-attr]
    return out
