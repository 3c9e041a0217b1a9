"""The rule executor: rules lowered to columnar steps over interned ids.

A rule body is lowered once (:func:`compile_batch_plan`, memoized by
:func:`lower_rule`) into a sequence of steps, LDL++'s move of compiling
rules into reusable physical plans (Arni et al.): the safe-order search
runs once, the schema growth of the body is simulated left to right, and
every literal's argument layout is baked into slot tuples.  An
intermediate result is a list of parallel **columns of interned term
ids** (:mod:`repro.datalog.intern`), and each step processes the entire
batch per Python-level call.  The step kinds are a closed set:

* **join** — a stored positive literal.  The probe pass streams the key
  column(s) against the extension's precomputed row-index buckets
  (:class:`~repro.storage.columnar.IdRelation`), producing two parallel
  *selection vectors*; the gather pass builds each output column with
  one list comprehension over a selection vector.
* **negation** (anti-join) — a stored negated literal, every argument
  bound: keep the rows whose key is absent from the extension.
* **compare** / **builtin** — Section 8's "infinite relations".  The
  literal is a relation restricted to its bound arguments: the
  restriction is computed once per distinct key by the same per-row
  routines the reference operators call
  (:func:`~repro.engine.operators.comparison_row`,
  :func:`~repro.engine.operators.builtin_row`) over decoded values of
  only the columns the literal reads, then joined like a stored one;
  values it binds are interned and appended as new columns.

The head is a **projection** (dedup as id tuples) or, for an aggregate
head, a **group** on id tuples of the plain arguments with the folded
values interned.  Either way the result is a set of **id rows**: nothing
on this path builds a term tuple, and the caller
(:class:`~repro.engine.fixpoint.FixpointEngine`'s workspace, the plan
interpreter's AND nodes) keeps them as ids.

Only *flat* rules lower: every stored literal's arguments are ground
terms or plain variables with the free ones distinct, and likewise the
head.  A struct argument containing a variable or a repeated free
variable needs unification; such a rule runs on the reference evaluator
(:meth:`FixpointEngine._eval_body`) and the lowering says why.  The same
lowering serves a plan's AND nodes: *bound* names the variables the
node's sideways keys bind before the first step, and the interpreter
runs the steps through :func:`run_step` under its own spans.

Deduplication is deferred to the head: a step over duplicate-free input
cannot produce duplicate rows (distinct input rows stay distinct in
their prefix; two extension rows in one bucket share their key fields so
they differ in a gathered free field; a computed literal's restriction
is a set), and the input table starts as the duplicate-free unit table —
so intermediate batches are duplicate-free by induction, one row is one
derivation, and the per-step ``produced`` counts match the reference
operators exactly.

Steps charge the same profiler counters as the reference operators,
fire the same governor checkpoints, and open the same tracer spans (one
per step, at batch granularity), so span trees, fault-injection sites
and EXPLAIN ANALYZE do not depend on which evaluator ran a rule.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from ..datalog.intern import INTERNER, TermInterner
from ..datalog.literals import Literal
from ..datalog.rules import Rule, aggregate_spec
from ..datalog.safety import exists_safe_order
from ..datalog.terms import Constant, Variable, is_ground
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from ..storage.columnar import IdRelation, IdRow
from .operators import (
    _literal_vars_in_order,
    builtin_row,
    comparison_row,
    fold_aggregate,
)
from .profiler import Profiler

#: Resolves the stored body literal at a step position to what the step
#: probes: an :class:`~repro.storage.columnar.IdRelation` (a derived
#: extension), or a stored relation, which hands over its own store.  By
#: position, not by predicate: view maintenance reads a predicate's
#: pre-update extension at one occurrence and its current one at another.
StoreOf = Callable[[int, Literal], object]


@dataclass(frozen=True, slots=True)
class BatchStep:
    """One body literal with its columnar layout precompiled."""

    #: "join" | "negation" | "compare" | "builtin" — also the label prefix.
    kind: str
    #: The literal; the positive form for a negation.
    literal: Literal
    #: Span / checkpoint / timing label: ``<kind>:<head>:<predicate>``.
    label: str
    #: Per key field: input column to stream, or None for a constant.
    key_slots: tuple[int | None, ...]
    #: Per key field: interned id of the fixed term, or None.
    key_const_ids: tuple[int | None, ...]
    #: join / negation: the extension positions the key addresses.
    bound_positions: tuple[int, ...] = ()
    #: join: extension positions appended to the output, in new-variable order.
    free_out: tuple[int, ...] = ()
    #: compare / builtin: the variable each key field carries (None for a
    #: constant, which only a by_id key has).
    key_vars: tuple[Variable | None, ...] = ()
    #: compare / builtin: the variables the literal binds (appended columns).
    new_vars: tuple[Variable, ...] = ()
    builtin: object = None
    #: compare: ``=`` / ``!=`` between two columns or a column and a
    #: constant — the key is exactly the two sides, see :func:`_same_term`.
    by_id: bool = False


@dataclass(frozen=True, slots=True)
class BatchPlan:
    """A rule lowered to columnar steps and a project or group head."""

    rule: Rule
    steps: tuple[BatchStep, ...]
    #: Maps an original-body literal index to its step position.
    delta_map: tuple[int, ...]
    #: Per head argument: the column it reads, or None for a constant.
    head_slots: tuple[int | None, ...]
    head_const_ids: tuple[int | None, ...]
    #: Group head only: per head argument the aggregate functor folding
    #: its column, or None for a grouping argument.  Empty = projection.
    head_aggregates: tuple[str | None, ...] = ()


def _stored_layout(literal: Literal, slot: dict[Variable, int]):
    """Slot layout of a stored literal over the schema *slot*:
    ``(key_slots, key_consts, bound_positions, free)`` with *free* the
    ``(position, variable)`` pairs the literal binds — or the reason it
    is not flat."""
    key_slots: list[int | None] = []
    key_consts = []
    bound_positions: list[int] = []
    free: list[tuple[int, Variable]] = []
    for position, arg in enumerate(literal.args):
        if isinstance(arg, Variable):
            if arg in slot:
                bound_positions.append(position)
                key_slots.append(slot[arg])
                key_consts.append(None)
            elif any(arg == var for __, var in free):
                # needs unification between extension fields
                return f"repeated free variable {arg} in {literal}"
            else:
                free.append((position, arg))
        elif is_ground(arg):
            bound_positions.append(position)
            key_slots.append(None)
            key_consts.append(arg)
        else:
            # needs apply() per row (bound) or unification (free)
            return f"struct argument {arg} in {literal}"
    return tuple(key_slots), key_consts, tuple(bound_positions), free


def ordered_body(
    rule: Rule, reorder: bool = True, oracle=None, builtins=None
) -> tuple[tuple[Literal, ...], tuple[int, ...]]:
    """The body in execution order — the greedy safe order when *reorder*
    is set, the given (trusted) order otherwise — and the map from an
    original-body literal index to its position in it."""
    if not reorder:
        return rule.body, tuple(range(len(rule.body)))
    if oracle is None:
        from ..datalog.builtins import builtin_oracle

        oracle = builtin_oracle(builtins)
    order, reasons = exists_safe_order(rule.body, frozenset(), oracle)
    if order is None:
        raise ExecutionError(
            f"no effectively computable order for rule '{rule}': " + "; ".join(reasons)
        )
    positions = {original: position for position, original in enumerate(order)}
    return (
        tuple(rule.body[i] for i in order),
        tuple(positions[i] for i in range(len(rule.body))),
    )


def compile_batch_plan(
    rule: Rule,
    reorder: bool = True,
    oracle=None,
    builtins=None,
    interner: TermInterner = INTERNER,
    bound: tuple[Variable, ...] = (),
) -> tuple[BatchPlan | None, str]:
    """Lower *rule* to ``(plan, "")``, or ``(None, why)`` when its shape
    needs unification (module docstring) and it stays on the reference.

    Runs the safe-order search once (:func:`ordered_body`; a trusted
    order is lowered as given, and a literal reached without its
    bindings raises from its own step), then simulates the left-to-right
    schema growth exactly as the reference operators extend it.  *bound*
    is the schema of the input batch — empty for a fixpoint rule (the
    unit table), the key variables for a plan's AND node.
    """
    body, delta_map = ordered_body(rule, reorder, oracle, builtins)

    head_name = rule.head.predicate
    slot: dict[Variable, int] = {var: i for i, var in enumerate(bound)}
    steps: list[BatchStep] = []
    for literal in body:
        builtin = None
        if not literal.is_comparison and not literal.negated and builtins is not None:
            builtin = builtins.get(literal.predicate)
            if builtin is not None and builtin.arity != literal.arity:
                builtin = None
        if literal.is_comparison or builtin is not None:
            kind = "compare" if literal.is_comparison else "builtin"
            in_order = _literal_vars_in_order(literal)
            by_id = literal.predicate in ("=", "!=") and all(
                isinstance(arg, Constant) or arg in slot for arg in literal.args
            )
            fields = literal.args if by_id else [v for v in in_order if v in slot]
            key_vars = tuple(f if isinstance(f, Variable) else None for f in fields)
            new_vars = tuple(v for v in in_order if v not in slot)
            steps.append(
                BatchStep(
                    kind, literal, f"{kind}:{head_name}:{literal.predicate}",
                    tuple(None if v is None else slot[v] for v in key_vars),
                    tuple(
                        interner.id_of(f) if v is None else None
                        for f, v in zip(fields, key_vars)
                    ),
                    key_vars=key_vars, new_vars=new_vars, builtin=builtin, by_id=by_id,
                )
            )
            for var in new_vars:
                slot[var] = len(slot)
            continue
        kind = "negation" if literal.negated else "join"
        stored = literal.positive() if literal.negated else literal
        layout = _stored_layout(stored, slot)
        if isinstance(layout, str):
            return None, layout
        key_slots, key_consts, bound_positions, free = layout
        if literal.negated and free:
            return None, f"negated literal {literal} with an unbound argument"
        steps.append(
            BatchStep(
                kind, stored, f"{kind}:{head_name}:{literal.predicate}",
                key_slots,
                tuple(None if c is None else interner.id_of(c) for c in key_consts),
                bound_positions,
                tuple(position for position, __ in free),
            )
        )
        for __, var in free:
            slot[var] = len(slot)

    head_slots: list[int | None] = []
    head_const_ids: list[int | None] = []
    aggregates: list[str | None] = []
    for arg in rule.head.args:
        spec = aggregate_spec(arg)
        var = spec[1] if spec is not None else arg
        if isinstance(var, Variable):
            if var not in slot:
                return None, f"head variable {var} not bound by the body"
            head_slots.append(slot[var])
            head_const_ids.append(None)
        elif is_ground(var):
            head_slots.append(None)
            head_const_ids.append(interner.id_of(var))
        else:
            return None, f"struct argument {var} in head {rule.head}"  # needs apply()
        aggregates.append(spec[0] if spec is not None else None)
    return (
        BatchPlan(
            rule, tuple(steps), delta_map,
            tuple(head_slots), tuple(head_const_ids),
            tuple(aggregates) if rule.is_aggregate else (),
        ),
        "",
    )


def lower_rule(
    memo: dict, rule: Rule, reorder: bool = True, oracle=None, builtins=None,
    bound: tuple[Variable, ...] = (),
) -> tuple[BatchPlan | None, str]:
    """:func:`compile_batch_plan` through *memo* (a
    :class:`~repro.plans.nodes.PlanCode`'s): rules are frozen and a plan
    reads nothing but its rule, so one lowering per rule value, ordering
    mode and input schema outlives the query plan that first needed it."""
    key = (rule, reorder, bound)
    entry = memo.get(key)
    if entry is None:  # by the module-level name the ledger's tracer rebinds
        entry = memo[key] = compile_batch_plan(rule, reorder, oracle, builtins, bound=bound)
    return entry


class KeyLayout(NamedTuple):
    """How ground keys for some of a head's arguments enter a lowered
    plan as its input batch: a plan's AND node entered with sideways
    keys, a rule re-derived for candidate head rows."""

    #: the key fields that become input columns, in schema order
    columns: tuple[int, ...]
    #: (field, earlier field) pairs a key must agree on (``p(X, X)``)
    equal: tuple[tuple[int, int], ...]
    #: (field, id) pairs a key must hold (a ground argument)
    consts: tuple[tuple[int, int], ...]
    #: the variable each input column binds — the plan's ``bound`` schema
    schema: tuple[Variable, ...]


def key_layout(patterns: Sequence, interner: TermInterner = INTERNER) -> "KeyLayout | str":
    """The layout of keys matching *patterns* (one argument per key
    field), or the reason they need unification."""
    columns: list[int] = []
    equal: list[tuple[int, int]] = []
    consts: list[tuple[int, int]] = []
    first_field: dict[Variable, int] = {}
    for field, pattern in enumerate(patterns):
        if isinstance(pattern, Variable):
            if pattern in first_field:
                equal.append((field, first_field[pattern]))
            else:
                first_field[pattern] = field
                columns.append(field)
        elif is_ground(pattern):
            consts.append((field, interner.id_of(pattern)))
        else:
            return f"struct argument {pattern} in a bound head position"
    return KeyLayout(tuple(columns), tuple(equal), tuple(consts), tuple(first_field))


def key_batch(layout: KeyLayout, keys: Iterable[IdRow]) -> tuple[list[list[int]], int]:
    """The input batch *keys* make: those that fit the layout's constants
    and equalities, as one column per variable."""
    if layout.consts or layout.equal:
        keys = [
            key for key in keys
            if all(key[field] == const for field, const in layout.consts)
            and all(key[field] == key[other] for field, other in layout.equal)
        ]
    if not keys or not layout.columns:
        return [], 1 if keys else 0
    # dropped fields are fixed by the kept ones, so rows stay distinct
    columns = list(zip(*keys))
    return [list(columns[field]) for field in layout.columns], len(keys)


class BatchExecutor:
    """Executes batch plans; one per engine, sharing the global interner."""

    def __init__(self, interner: TermInterner = INTERNER):
        self.interner = interner

    def execute(
        self,
        plan: BatchPlan,
        store_of: StoreOf,
        profiler: Profiler,
        delta_position: int | None = None,
        delta: IdRelation | None = None,
        governor=None,
        tracer=NULL_TRACER,
        batch: tuple[list[list[int]], int] | None = None,
        counted: bool = False,
    ) -> "set[IdRow] | Counter":
        """Evaluate the body over whole batches and instantiate the head
        as id rows.  With *delta*, the step at *delta_position* joins it
        instead of its literal's extension (a semi-naive delta firing).
        *batch* is the input ``(columns, length)`` over the plan's
        ``bound`` schema instead of the unit table (:func:`key_batch`);
        *counted* asks for each head row's number of derivations
        (:func:`count_ids`) instead of the bare set."""
        interner = self.interner
        columns, length = batch if batch is not None else ([], 1)  # the unit table
        for position, step in enumerate(plan.steps):
            if length == 0:
                return Counter() if counted else set()
            label = step.label
            # The span opens before the checkpoint so a budget abort's
            # open-span stack names the operator that was running.
            with tracer.span(label, kind="operator"):
                if governor is not None:
                    governor.checkpoint(label)
                start = time.perf_counter()
                store = self._store_for(
                    step, position, store_of, profiler, delta_position, delta
                )
                columns, length = run_step(
                    step, columns, length, store, profiler, governor, interner
                )
                profiler.add_time(label, time.perf_counter() - start)
        return instantiate_head(
            plan, columns, length, interner, profiler, governor, counted
        )

    def _store_for(
        self,
        step: BatchStep,
        position: int,
        store_of: StoreOf,
        profiler: Profiler,
        delta_position: int | None,
        delta: IdRelation | None,
    ):
        """The store a join / negation step probes: its literal's, whose
        bucket maps persist and grow with it, or the round's delta —
        charged, per firing that reads it, as the hash build the
        reference does over a delta (one ``examined`` per row).  None for
        a computed literal, which has no extension."""
        if step.kind not in ("join", "negation"):
            return None
        if position == delta_position and delta is not None:
            profiler.bump_examined(delta.length)
            return delta
        extension = store_of(position, step.literal)
        if isinstance(extension, IdRelation):
            return extension
        return extension.batch_store(self.interner)


def run_step(
    step: BatchStep,
    columns: list[list[int]],
    length: int,
    store,
    profiler: Profiler,
    governor,
    interner: TermInterner,
) -> tuple[list[list[int]], int]:
    """One whole-batch step, by kind (module docstring)."""
    if step.kind == "join":
        return _batch_join(step, columns, length, store, profiler, governor)
    if step.kind == "negation":
        return _anti_join(step, columns, length, store, profiler, governor)
    return _computed_join(step, columns, length, profiler, governor, interner)


def _key_stream(step: BatchStep, columns: list[list[int]], length: int) -> Iterable[object]:
    """The step's probe keys, one per input row, shaped like
    :class:`IdRelation` bucket keys: the bare id for a single field, a
    tuple of ids otherwise."""
    slots = step.key_slots
    const_ids = step.key_const_ids
    if len(slots) == 1:
        if const_ids[0] is None:
            return columns[slots[0]]
        return repeat(const_ids[0], length)
    if not slots:
        return repeat((), length)
    return zip(
        *(
            columns[slot] if slot is not None else repeat(const, length)
            for slot, const in zip(slots, const_ids)
        )
    )


def _probe(keys: Iterable[object], get, governor) -> tuple[list[int], list]:
    """The probe pass: stream *keys* against ``get(key) -> bucket`` (None
    or empty on a miss) and return the two selection vectors — the input
    row index and the bucket entry of every match."""
    left: list[int] = []
    right: list = []
    push_left = left.append
    push_right = right.append
    # Cooperative budget enforcement at tuple granularity for the price
    # of one comparison per matching probe: while the output stays below
    # check_at the governor's budgets cannot be crossed (grant()'s
    # contract) — explosive joins abort mid-batch.
    charged = 0
    check_at = governor.grant() if governor is not None else float("inf")
    for i, key in enumerate(keys):
        bucket = get(key)
        if bucket:
            for j in bucket:
                push_left(i)
                push_right(j)
            if len(right) >= check_at:
                emitted = len(right)
                governor.tick(emitted - charged)
                charged = emitted
                check_at = emitted + governor.grant()
    if governor is not None and len(right) > charged:
        governor.tick(len(right) - charged)
    return left, right


def _batch_join(
    step: BatchStep,
    columns: list[list[int]],
    length: int,
    store: IdRelation,
    profiler: Profiler,
    governor,
) -> tuple[list[list[int]], int]:
    """A stored positive literal: probe pass + gather pass."""
    if not columns and not step.bound_positions:
        # Unit-input full scan: the output *is* the extension's columns,
        # reused by reference — stores are append-only and never shrink
        # during a rule evaluation, so aliasing is safe.
        matches = store.length
        profiler.bump_probes(1)
        profiler.bump_examined(matches)
        profiler.bump_produced(matches)
        if governor is not None and matches:
            governor.tick(matches)
        if matches == 0:
            return [], 0
        return [store.columns[p] for p in step.free_out], matches

    buckets = store.buckets_for(step.bound_positions)
    profiler.bump_probes(length)
    left, right = _probe(_key_stream(step, columns, length), buckets.get, governor)
    matches = len(right)
    profiler.bump_examined(matches)
    profiler.bump_produced(matches)
    if matches == 0:
        return [], 0
    out_columns = [[column[i] for i in left] for column in columns]
    extension_columns = store.columns
    for p in step.free_out:
        column = extension_columns[p]
        out_columns.append([column[j] for j in right])
    return out_columns, matches


def _anti_join(
    step: BatchStep,
    columns: list[list[int]],
    length: int,
    store: IdRelation,
    profiler: Profiler,
    governor,
) -> tuple[list[list[int]], int]:
    """A stored negated literal, fully bound: keep the rows whose key is
    not in the extension.  Charged as ``negation_filter`` charges."""
    keys = _key_stream(step, columns, length)
    present = store.buckets_for(step.bound_positions)
    keep = [i for i, key in enumerate(keys) if key not in present]
    profiler.bump_examined(length)
    if governor is not None:
        governor.tick()
    profiler.bump_produced(len(keep))
    if len(keep) == length:
        return columns, length
    return [[column[i] for i in keep] for column in columns], len(keep)


def _same_term(a: int, b: int, decode) -> bool | None:
    """Whether ids *a* and *b* denote terms ``compare_terms`` calls equal,
    where the ids alone decide it: one id is one term, and two strings
    with different ids differ.  None otherwise — numbers compare through
    ``float`` and other payloads through ``str``, which can both collapse
    distinct terms, so those are evaluated."""
    if a == b:
        return True
    left, right = decode(a), decode(b)
    if (
        isinstance(left, Constant) and isinstance(right, Constant)
        and type(left.value) is str and type(right.value) is str
    ):
        return False
    return None


def _computed_join(
    step: BatchStep,
    columns: list[list[int]],
    length: int,
    profiler: Profiler,
    governor,
    interner: TermInterner,
) -> tuple[list[list[int]], int]:
    """A comparison or built-in: join with the literal's relation
    restricted to the distinct keys of this batch, computed on first
    probe.  Charged per input row as ``apply_comparison`` /
    ``builtin_join`` charge."""
    literal = step.literal
    builtin = step.builtin
    key_vars = step.key_vars
    new_vars = step.new_vars
    bare = len(key_vars) == 1
    decode = interner.terms.__getitem__
    id_of = interner.id_of
    restriction: dict[object, tuple[int, tuple[tuple[int, ...], ...]]] = {}
    examined = 0

    def restrict(key) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(tuples examined, id rows bound for new_vars)`` under *key*."""
        ids = (key,) if bare else key
        if step.by_id:
            same = _same_term(*ids, decode)
            if same is not None:
                return 1, ((),) if same == (literal.predicate == "=") else ()
        subst = {var: decode(i) for var, i in zip(key_vars, ids) if var is not None}
        if builtin is None:
            found = comparison_row(literal, subst, new_vars)
            raw, rows = 1, (() if found is None else (found,))
        else:
            raw, rows = builtin_row(literal, builtin, subst, new_vars)
        return raw, tuple(tuple(map(id_of, row)) for row in rows)

    def bucket_of(key):
        nonlocal examined
        bucket = restriction.get(key)
        if bucket is None:
            bucket = restriction[key] = restrict(key)
        examined += bucket[0]
        return bucket[1]

    keys = _key_stream(step, columns, length)
    if builtin is None:
        # Filters cannot emit more than their (already charged) input,
        # so one cancellation/deadline probe per call is enough.
        left, fresh = _probe(keys, bucket_of, None)
        if governor is not None:
            governor.tick()
    else:
        profiler.bump_probes(length)
        left, fresh = _probe(keys, bucket_of, governor)
    profiler.bump_examined(examined)
    matches = len(left)
    profiler.bump_produced(matches)
    if matches == 0:
        return [], 0
    if builtin is None and matches == length:
        out_columns = list(columns)  # a comparison matches a row at most once
    else:
        out_columns = [[column[i] for i in left] for column in columns]
    if new_vars:
        out_columns.extend(list(column) for column in zip(*fresh))
    return out_columns, matches


def _head_stream(plan: BatchPlan, columns: list[list[int]], length: int) -> Iterable[IdRow]:
    """The head's id row of every row of a non-empty batch."""
    streams = [
        columns[slot] if slot is not None else repeat(const, length)
        for slot, const in zip(plan.head_slots, plan.head_const_ids)
    ]
    return zip(*streams) if streams else repeat((), length)


def project_ids(
    plan: BatchPlan, columns: list[list[int]], length: int
) -> set[IdRow]:
    """The head projection of a non-empty batch, deduplicated in id space."""
    return set(_head_stream(plan, columns, length))


def count_ids(plan: BatchPlan, columns: list[list[int]], length: int) -> Counter:
    """The head projection with each row's support: a batch row is one
    derivation (module docstring), so a head row's count is the number of
    distinct body assignments deriving it — what view maintenance keeps
    for a non-recursive predicate."""
    return Counter(_head_stream(plan, columns, length))


def head_columns(plan: BatchPlan, columns: list[list[int]]) -> list[list[int]] | None:
    """The head projection of a batch as its own columns, when the head
    keeps every one of them: the rows are then as distinct as the batch's
    (module docstring) and :func:`project_ids` would dedup nothing.  None
    when the head drops a column, holds a constant or groups."""
    slots = plan.head_slots
    if plan.head_aggregates or None in slots or len(set(slots)) != len(columns):
        return None
    return [columns[slot] for slot in slots]


def _charge_head(id_rows, profiler: Profiler, governor):
    """Charge a head's output (a set of id rows, or a counter keyed by
    them) as ``head_rows`` / ``aggregate_rows`` do."""
    profiler.bump_produced(len(id_rows))
    if governor is not None:
        governor.tick(len(id_rows))
    return id_rows


def instantiate_head(
    plan: BatchPlan,
    columns: list[list[int]],
    length: int,
    interner: TermInterner,
    profiler: Profiler,
    governor,
    counted: bool = False,
) -> "set[IdRow] | Counter":
    """Project (with support when *counted*) or group the final batch
    into the head's id rows."""
    if length == 0:
        # As the reference heads over an empty table: produced(0), tick(0).
        return _charge_head(Counter() if counted else set(), profiler, governor)
    if not plan.head_aggregates:
        head = count_ids if counted else project_ids
        return _charge_head(head(plan, columns, length), profiler, governor)

    # Group head, charged as ``aggregate_rows`` charges: a batch row is
    # one derivation (module docstring), so a group is a list of row
    # indices, ``count`` is its size and the folds read one column.  Only
    # the folded columns are decoded; the folded value is interned.
    aggregates = plan.head_aggregates
    key_streams = [
        columns[slot] if slot is not None else repeat(const, length)
        for slot, const, functor in zip(plan.head_slots, plan.head_const_ids, aggregates)
        if functor is None
    ]
    groups: dict[IdRow, list[int]] = {}
    for i, key in enumerate(zip(*key_streams) if key_streams else repeat((), length)):
        members = groups.get(key)
        if members is None:
            groups[key] = [i]
        else:
            members.append(i)
    profiler.bump_examined(length)
    decode = interner.terms.__getitem__
    id_of = interner.id_of
    out: set[IdRow] = set()
    for key, members in groups.items():
        key_ids = iter(key)
        row = []
        for slot, functor in zip(plan.head_slots, aggregates):
            if functor is None:
                row.append(next(key_ids))
            elif functor == "count":
                row.append(id_of(Constant(len(members))))
            else:
                column = columns[slot]
                row.append(
                    id_of(fold_aggregate(functor, [decode(column[i]) for i in members]))
                )
        out.add(tuple(row))
    return _charge_head(out, profiler, governor)
