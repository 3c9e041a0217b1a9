"""The rule executor: every rule lowered to columnar steps over interned ids.

A rule body is lowered once (:func:`compile_batch_plan`, memoized by
:func:`lower_rule`) into one step per literal, LDL++'s move of compiling
rules into reusable physical plans (Arni et al.): the safe-order search
runs once, the schema growth of the body is simulated left to right, and
every literal's argument layout is baked into slot tuples.  An
intermediate result is a list of parallel **columns of interned term
ids** (:mod:`repro.datalog.intern`), and each step processes the entire
batch per Python-level call.  The step kinds are a closed set:

* **join** — a stored positive literal: a probe pass streams the key
  column(s) against the extension's row-index buckets
  (:class:`~repro.storage.columnar.IdRelation`) into two *selection
  vectors*, a gather pass builds each output column with one list
  comprehension.  The EL label picks the variant (:data:`JOIN_METHODS`):
  ``index`` probes the bucket maps as they stand, ``hash`` is charged
  the build a hash join pays (one ``examined`` per stored row),
  ``nested_loop`` reads every stored row for each input row, ``merge``
  sorts both sides on their key ids and merges them.
* **negation** (anti-join) — a stored negated literal, every argument
  bound: keep the rows whose key is absent from the extension.
* **compare** / **builtin** — Section 8's "infinite relations": the
  literal's relation restricted to each distinct key of the batch
  (:func:`comparison_row`, :func:`builtin_row` over decoded values of
  the columns it reads), joined like a stored one; values it binds are
  interned as new columns.  ``=`` / ``!=`` between ground sides is id
  equality.

Complex terms are data, as in LDL++: a ground struct *is* an id.  A
struct argument whose variables are bound is **built** from their
columns into an id by a lookup that admits nothing (a struct nobody
stored matches nothing) and probes as a key field; one with a free
variable is gathered as a column and **matched** — ``unify.match`` per
distinct id, its variables interned as new columns.  A repeated free
variable is gathered twice and rows whose ids differ are dropped (ids
are injective).  The head is a **projection** (dedup as id tuples) or,
for an aggregate head, a **group** on the id tuples of the plain
arguments with the folded values interned; a head struct is built,
admitting its id, into a column first.  Either way the result is a set
of **id rows**, kept as ids by the caller
(:class:`~repro.engine.fixpoint.FixpointEngine`'s workspace, the plan
interpreter's AND nodes, which run the steps through :func:`run_step`;
*bound* names the variables its keys bind, :func:`key_layout`).  An
unsafe shape — a head variable the body does not bind, a negated
literal with a free argument — lowers too, and raises its
:class:`~repro.errors.ExecutionError` when rows reach it.

Deduplication is deferred to the head: a step over duplicate-free input
cannot produce duplicate rows (distinct input rows stay distinct in
their prefix; two extension rows in one bucket differ in a gathered
field; a computed restriction is a set; every column beyond the
variables' is a function of them), so one batch row is one derivation.
Steps charge the profiler counters of the term-space reference
(:mod:`repro.testing.reference`), fire governor checkpoints and open one
tracer span each, so spans, fault sites and EXPLAIN ANALYZE name body
literals.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from ..datalog.intern import INTERNER, TermInterner
from ..datalog.literals import Literal
from ..datalog.rules import Rule, aggregate_spec
from ..datalog.safety import exists_safe_order
from ..datalog.terms import Constant, Term, Variable, is_ground, variables_of
from ..datalog.unify import Substitution, apply, match
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from ..storage.columnar import IdRelation, IdRow
from .evaluable import solve_comparison, term_sort_key
from .profiler import Profiler

#: Resolves the stored body literal at a step position to what the step
#: probes: an :class:`~repro.storage.columnar.IdRelation` (a derived
#: extension), or a stored relation, which hands over its own store.  By
#: position, not by predicate: view maintenance reads a predicate's
#: pre-update extension at one occurrence and its current one at another.
StoreOf = Callable[[int, Literal], object]

#: Join method names — the EL labels a join step runs.
JOIN_METHODS = ("nested_loop", "hash", "index", "merge")

#: The key id of a built struct nobody interned: no bucket holds it.
MISSING = -1

#: ``(variable, column)`` pairs: where a pattern's bound variables are.
Bound = tuple[tuple[Variable, int], ...]


class Match(NamedTuple):
    """A struct pattern matched against a gathered column."""

    column: int
    pattern: Term
    #: the pattern's variables bound before the match, and their columns
    bound: Bound
    #: the variables the match binds, appended as columns in this order
    new: tuple[Variable, ...]


@dataclass(frozen=True, slots=True)
class BatchStep:
    """One body literal with its columnar layout precompiled."""

    #: "join" | "negation" | "compare" | "builtin" — also the label prefix.
    kind: str
    #: The literal; the positive form for a negation.
    literal: Literal
    #: Span / checkpoint / timing label: ``<kind>:<head>:<predicate>``.
    label: str
    #: Per key field: input column to stream, or None (a constant or a build).
    key_slots: tuple[int | None, ...]
    #: Per key field: interned id of the fixed term, or None.
    key_const_ids: tuple[int | None, ...]
    #: join / negation: the extension positions the key addresses.
    bound_positions: tuple[int, ...] = ()
    #: join: extension positions appended to the output, in layout order.
    free_out: tuple[int, ...] = ()
    #: compare / builtin: the variable each key field carries (None for a
    #: constant, which only a by_id key has).
    key_vars: tuple[Variable | None, ...] = ()
    #: compare / builtin: the variables the literal binds (appended columns).
    new_vars: tuple[Variable, ...] = ()
    builtin: object = None
    #: compare: ``=`` / ``!=`` between two columns or a column and a
    #: constant — decided by the two ids alone.
    by_id: bool = False
    #: join / negation: ``(key field, struct, bound)`` per key field built
    #: from bound columns.
    key_builds: tuple[tuple[int, Term, Bound], ...] = ()
    #: join: ``(column, earlier column)`` pairs of gathered columns that
    #: must hold one id (a repeated free variable).
    equal: tuple[tuple[int, int], ...] = ()
    #: join: struct patterns matched against gathered columns, in order.
    matches: tuple[Match, ...] = ()
    #: join: the EL label's variant (:data:`JOIN_METHODS`).
    method: str = "index"
    #: negation: the error of a free argument, raised when reached with rows.
    unsafe: str = ""


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
    #: ``(struct, bound)`` per head struct with variables, built (ids
    #: admitted) into the columns after the body's, in order.
    head_builds: tuple[tuple[Term, Bound], ...] = ()
    #: the error of a head the body does not bind, raised
    #: when the head is reached with rows.
    unsafe: str = ""


def literal_vars_in_order(literal: Literal) -> list[Variable]:
    """The variables of *literal*'s arguments, in first-occurrence order."""
    return list(dict.fromkeys(var for arg in literal.args for var in vars_in_order(arg)))


def vars_in_order(term: Term) -> list[Variable]:
    """The variables of *term*, in first-occurrence order."""
    if isinstance(term, Variable):
        return [term]
    args = getattr(term, "args", ())
    return list(dict.fromkeys(var for arg in args for var in vars_in_order(arg)))


def builtin_for(literal: Literal, builtins):
    """The registered built-in a positive literal calls, or None."""
    builtin = builtins.get(literal.predicate) if builtins is not None else None
    return builtin if builtin is not None and builtin.arity == literal.arity else None


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


def _bound_pairs(term: Term, slot: dict[Variable, int]) -> Bound:
    return tuple((var, slot[var]) for var in vars_in_order(term) if var in slot)


def _stored_step(
    kind: str, literal: Literal, label: str, slot: dict[Variable, int], width: int,
    method: str, interner: TermInterner,
) -> tuple[BatchStep, int]:
    """A stored literal's step over the schema *slot* of a *width*-column
    batch, and the width after it; *slot* gains the variables it binds.
    Gathered columns follow the input's in argument order, then the
    variables its struct matches bind."""
    key_slots: list[int | None] = []
    key_consts: list[int | None] = []
    bound_positions: list[int] = []
    builds: list[tuple[int, Term, Bound]] = []
    free_out: list[int] = []
    equal: list[tuple[int, int]] = []
    patterns: list[tuple[int, Term]] = []
    gathered: dict[Variable, int] = {}
    for position, arg in enumerate(literal.args):
        if is_ground(arg) or variables_of(arg) <= slot.keys():
            bound_positions.append(position)
            if isinstance(arg, Variable):
                key_slots.append(slot[arg])
                key_consts.append(None)
            elif is_ground(arg):
                key_slots.append(None)
                key_consts.append(interner.id_of(arg))
            else:
                builds.append((len(key_slots), arg, _bound_pairs(arg, slot)))
                key_slots.append(None)
                key_consts.append(None)
            continue
        column = width + len(free_out)
        free_out.append(position)
        if not isinstance(arg, Variable):
            patterns.append((column, arg))
        elif arg in gathered:
            equal.append((column, gathered[arg]))
        else:
            gathered[arg] = column
    keyed = dict(
        bound_positions=tuple(bound_positions), key_builds=tuple(builds), method=method
    )
    if kind == "negation":
        if free_out:
            keyed["unsafe"] = (
                f"negated literal {literal} entered with unbound arguments (unsafe)"
            )
        return BatchStep(
            kind, literal, label, tuple(key_slots), tuple(key_consts), **keyed
        ), width
    slot.update(gathered)
    width += len(free_out)
    matches = []
    for column, pattern in patterns:
        new = tuple(var for var in vars_in_order(pattern) if var not in slot)
        matches.append(Match(column, pattern, _bound_pairs(pattern, slot), new))
        for var in new:
            slot[var] = width
            width += 1
    return BatchStep(
        kind, literal, label, tuple(key_slots), tuple(key_consts),
        free_out=tuple(free_out), equal=tuple(equal), matches=tuple(matches), **keyed,
    ), width


def compile_batch_plan(
    rule: Rule,
    reorder: bool = True,
    oracle=None,
    builtins=None,
    interner: TermInterner = INTERNER,
    bound: tuple[Variable, ...] = (),
    methods: tuple[str, ...] = (),
) -> BatchPlan:
    """Lower *rule* to columnar steps and a head (module docstring).

    Runs the safe-order search once (:func:`ordered_body`; a trusted
    order is lowered as given, and a literal reached without its
    bindings raises from its own step), then simulates the left-to-right
    schema growth.  *bound* is the schema of the input batch — empty for
    a fixpoint rule (the unit table), the key variables for a plan's AND
    node.  *methods* gives, per literal of the execution order, the EL
    label its join step runs (``index`` for all when empty).
    """
    body, delta_map = ordered_body(rule, reorder, oracle, builtins)

    head_name = rule.head.predicate
    slot: dict[Variable, int] = {var: i for i, var in enumerate(bound)}
    width = len(bound)
    steps: list[BatchStep] = []
    for index, literal in enumerate(body):
        builtin = (
            None if literal.is_comparison or literal.negated
            else builtin_for(literal, builtins)
        )
        if literal.is_comparison or builtin is not None:
            kind = "compare" if literal.is_comparison else "builtin"
            in_order = literal_vars_in_order(literal)
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
                slot[var] = width
                width += 1
            continue
        kind = "negation" if literal.negated else "join"
        method = methods[index] if methods else "index"
        if method not in JOIN_METHODS:
            raise ExecutionError(f"unknown join method {method!r}")
        step, width = _stored_step(
            kind, literal.positive() if literal.negated else literal,
            f"{kind}:{head_name}:{literal.predicate}", slot, width, method, interner,
        )
        steps.append(step)

    head_slots: list[int | None] = []
    head_const_ids: list[int | None] = []
    aggregates: list[str | None] = []
    builds: list[tuple[Term, Bound]] = []
    unsafe = ""
    for arg in rule.head.args:
        spec = aggregate_spec(arg)
        term = spec[1] if spec is not None else arg
        if is_ground(term):
            head_slots.append(None)
            head_const_ids.append(interner.id_of(term))
        elif isinstance(term, Variable) and term in slot:
            head_slots.append(slot[term])
            head_const_ids.append(None)
        else:
            head_slots.append(width + len(builds))
            head_const_ids.append(None)
            builds.append((term, _bound_pairs(term, slot)))
            if not variables_of(term) <= slot.keys() and not unsafe:
                unsafe = (
                    f"aggregate {spec[0]}({term}) over unbound variable" if spec
                    else f"aggregate head {rule.head}: group argument unbound "
                    "(unsafe execution)" if rule.is_aggregate
                    else f"rule head {rule.head} not fully bound by body (unsafe execution)"
                )
        aggregates.append(spec[0] if spec is not None else None)
    return BatchPlan(
        rule, tuple(steps), delta_map,
        tuple(head_slots), tuple(head_const_ids),
        tuple(aggregates) if rule.is_aggregate else (),
        tuple(builds), unsafe,
    )


def lower_rule(
    memo: dict, rule: Rule, reorder: bool = True, oracle=None, builtins=None,
    bound: tuple[Variable, ...] = (), methods: tuple[str, ...] = (),
) -> BatchPlan:
    """:func:`compile_batch_plan` through *memo* (a
    :class:`~repro.plans.nodes.PlanCode`'s): rules are frozen and a plan
    reads nothing but its rule, so one lowering per rule value, ordering
    mode, input schema and join labels outlives the query plan that
    first needed it."""
    key = (rule, reorder, bound, methods)
    plan = memo.get(key)
    if plan is None:  # by the module-level name the ledger's tracer rebinds
        plan = memo[key] = compile_batch_plan(
            rule, reorder, oracle, builtins, bound=bound, methods=methods
        )
    return plan


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
    #: the variable each input column binds — the plan's ``bound`` schema:
    #: the plain fields' variables, then those only a pattern binds
    schema: tuple[Variable, ...]
    #: (field, struct) pairs a key's field is matched against
    patterns: tuple[tuple[int, Term], ...] = ()


def key_layout(patterns: Sequence, interner: TermInterner = INTERNER) -> KeyLayout:
    """The layout of keys matching *patterns*, one argument per key field."""
    columns: list[int] = []
    equal: list[tuple[int, int]] = []
    consts: list[tuple[int, int]] = []
    structs: list[tuple[int, Term]] = []
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
            structs.append((field, pattern))
    schema = list(first_field)
    for __, pattern in structs:
        schema.extend(var for var in vars_in_order(pattern) if var not in schema)
    return KeyLayout(
        tuple(columns), tuple(equal), tuple(consts), tuple(schema), tuple(structs)
    )


def key_batch(
    layout: KeyLayout, keys: Iterable[IdRow], interner: TermInterner = INTERNER
) -> tuple[list[list[int]], int]:
    """The input batch *keys* make: those that fit the layout's constants,
    equalities and struct patterns, as one column per variable."""
    if layout.consts or layout.equal:
        keys = [
            key for key in keys
            if all(key[field] == const for field, const in layout.consts)
            and all(key[field] == key[other] for field, other in layout.equal)
        ]
    if layout.patterns:
        # a key column, then a match per key: a pattern's variables are
        # parts of an interned term, so their ids exist already
        decode, id_of = interner.terms.__getitem__, interner.id_of
        plain = tuple(zip(layout.schema, layout.columns))
        rows = []
        for key in keys:
            subst: Substitution | None = {var: decode(key[field]) for var, field in plain}
            for field, pattern in layout.patterns:
                subst = match(pattern, decode(key[field]), subst)
                if subst is None:
                    break
            else:
                rows.append(tuple(id_of(subst[var]) for var in layout.schema))
        # the key fields are functions of the variables: rows stay distinct
        return [list(column) for column in zip(*rows)], len(rows)
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
        charged, per firing that reads it, as a hash build over the delta
        (one ``examined`` per row).  None for a computed literal, which
        has no extension."""
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
        return _batch_join(step, columns, length, store, profiler, governor, interner)
    if step.kind == "negation":
        return _anti_join(step, columns, length, store, profiler, governor, interner)
    return _computed_join(step, columns, length, profiler, governor, interner)


def _built(
    term: Term, bound: Bound, columns: list[list[int]], interner: TermInterner,
    admit: bool,
) -> list[int]:
    """*term*'s id for every row of a batch, its variables read from the
    *bound* columns: built once per distinct tuple of their ids, then
    admitted (*admit*) or looked up, :data:`MISSING` when nobody stored it."""
    decode, intern = interner.terms.__getitem__, interner.id_of
    if not admit:
        def intern(term: Term) -> int:
            found = interner.lookup(term)
            return MISSING if found is None else found
    ids: dict[tuple[int, ...], int] = {}
    out = []
    for key in zip(*(columns[column] for __, column in bound)):
        found = ids.get(key)
        if found is None:
            found = ids[key] = intern(
                apply(term, {var: decode(i) for (var, __), i in zip(bound, key)})
            )
        out.append(found)
    return out


def key_fields(
    step: BatchStep, columns: list[list[int]], length: int, interner: TermInterner,
    admit: bool = False,
) -> list[Iterable[int]]:
    """Per key field of a join / negation step, its id in every row of
    the batch: an input column, a constant repeated, or a struct built
    from bound columns (:func:`_built`)."""
    built = {
        field: _built(term, bound, columns, interner, admit)
        for field, term, bound in step.key_builds
    }
    return [
        columns[slot] if slot is not None
        else repeat(const, length) if const is not None
        else built[field]
        for field, (slot, const) in enumerate(zip(step.key_slots, step.key_const_ids))
    ]


def _key_stream(
    step: BatchStep, columns: list[list[int]], length: int, interner: TermInterner
) -> Iterable[object]:
    """The step's probe keys, one per input row, shaped like
    :class:`IdRelation` bucket keys: the bare id for a single field, a
    tuple of ids otherwise."""
    slots = step.key_slots
    if step.key_builds:
        fields = key_fields(step, columns, length, interner)
        return fields[0] if len(fields) == 1 else zip(*fields)
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


def _stored_keys(store: IdRelation, positions: tuple[int, ...]) -> list:
    """Every stored row's key on *positions*, shaped as :func:`_key_stream`'s."""
    if len(positions) == 1:
        return store.columns[positions[0]]
    if not positions:
        return [()] * store.length
    return list(zip(*(store.columns[p] for p in positions)))


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


def _merge_groups(keys: list, stored: list, profiler: Profiler):
    """The merge pass: both sides sorted on their key ids, then every
    pair of rows in two groups of one key — yielded as the pair of index
    lists.  Charged as a sort-merge join is: one ``examined`` per row of
    each sorting pass and per pair of rows a group meets."""
    lefts = sorted(range(len(keys)), key=keys.__getitem__)
    rights = sorted(range(len(stored)), key=stored.__getitem__)
    profiler.bump_examined(len(stored) + len(keys))
    left = right = 0
    while left < len(lefts) and right < len(rights):
        lkey, rkey = keys[lefts[left]], stored[rights[right]]
        if lkey < rkey:
            left += 1
        elif rkey < lkey:
            right += 1
        else:
            left_end, right_end = left + 1, right + 1
            while left_end < len(lefts) and keys[lefts[left_end]] == lkey:
                left_end += 1
            while right_end < len(rights) and stored[rights[right_end]] == rkey:
                right_end += 1
            profiler.bump_examined((left_end - left) * (right_end - right))
            yield lefts[left:left_end], rights[right:right_end]
            left, right = left_end, right_end


def _batch_join(
    step: BatchStep,
    columns: list[list[int]],
    length: int,
    store: IdRelation,
    profiler: Profiler,
    governor,
    interner: TermInterner,
) -> tuple[list[list[int]], int]:
    """A stored positive literal: probe (or scan, or merge) pass, gather
    pass, then the equalities and matches of its non-flat arguments."""
    method, left = step.method, None
    if method == "hash":
        profiler.bump_examined(store.length)  # the build side, read once
    if method in ("nested_loop", "merge"):
        keys = list(_key_stream(step, columns, length, interner))
        stored = _stored_keys(store, step.bound_positions)
        if method == "nested_loop":
            # every stored row is read for every input row
            profiler.bump_examined(length * store.length)

            def get(key):
                return [j for j, other in enumerate(stored) if other == key]

            left, right = _probe(keys, get, governor)
        else:
            pairs = {}
            for lefts, rights in _merge_groups(keys, stored, profiler):
                for i in lefts:
                    pairs[i] = rights
            left, right = _probe(range(length), pairs.get, governor)
    elif not columns and not step.bound_positions:
        # Unit-input full scan: the output *is* the extension's columns,
        # reused by reference — stores are append-only and never shrink
        # during a rule evaluation, so aliasing is safe.
        matches = store.length
        profiler.bump_probes(1)
        profiler.bump_examined(matches)
        if governor is not None and matches:
            governor.tick(matches)
        if matches == 0:
            return [], 0
        out_columns = [store.columns[p] for p in step.free_out]
    else:
        buckets = store.buckets_for(step.bound_positions)
        profiler.bump_probes(length)
        left, right = _probe(
            _key_stream(step, columns, length, interner), buckets.get, governor
        )
        profiler.bump_examined(len(right))
    if left is not None:
        matches = len(right)
        if matches == 0:
            return [], 0
        out_columns = [[column[i] for i in left] for column in columns]
        extension_columns = store.columns
        for p in step.free_out:
            column = extension_columns[p]
            out_columns.append([column[j] for j in right])
    if step.equal or step.matches:
        return _refined(step, out_columns, matches, profiler, interner)
    profiler.bump_produced(matches)
    return out_columns, matches


def _refined(
    step: BatchStep, columns: list[list[int]], length: int, profiler: Profiler,
    interner: TermInterner,
) -> tuple[list[list[int]], int]:
    """A join's gathered batch with its repeated variables equal and its
    struct patterns matched; charged as the join's output."""
    if step.equal:
        keep = [
            i for i in range(length)
            if all(columns[a][i] == columns[b][i] for a, b in step.equal)
        ]
        if len(keep) < length:
            columns = [[column[i] for i in keep] for column in columns]
            length = len(keep)
    decode, id_of = interner.terms.__getitem__, interner.id_of
    for column, pattern, bound, new in step.matches:
        if not length:
            break
        bindings: dict[tuple[int, ...], tuple[int, ...] | None] = {}

        def bind(key: tuple[int, ...]) -> tuple[int, ...] | None:
            subst = match(
                pattern, decode(key[0]),
                {var: decode(i) for (var, __), i in zip(bound, key[1:])},
            )
            return None if subst is None else tuple(id_of(subst[var]) for var in new)

        keep, fresh = [], []
        keys = zip(columns[column], *(columns[slot] for __, slot in bound))
        for i, key in enumerate(keys):
            if key in bindings:
                found = bindings[key]
            else:
                found = bindings[key] = bind(key)
            if found is not None:
                keep.append(i)
                fresh.append(found)
        if len(keep) < length:
            columns = [[column[i] for i in keep] for column in columns]
            length = len(keep)
        columns = list(columns) + [list(values) for values in zip(*fresh)]
    profiler.bump_produced(length)
    return (columns, length) if length else ([], 0)


def _anti_join(
    step: BatchStep,
    columns: list[list[int]],
    length: int,
    store: IdRelation,
    profiler: Profiler,
    governor,
    interner: TermInterner,
) -> tuple[list[list[int]], int]:
    """A stored negated literal, fully bound: keep the rows whose key is
    not in the extension.  One ``examined`` per input row."""
    if step.unsafe:
        raise ExecutionError(step.unsafe)
    keys = _key_stream(step, columns, length, interner)
    present = store.buckets_for(step.bound_positions)
    keep = [i for i, key in enumerate(keys) if key not in present]
    profiler.bump_examined(length)
    if governor is not None:
        governor.tick()
    profiler.bump_produced(len(keep))
    if len(keep) == length:
        return columns, length
    return [[column[i] for i in keep] for column in columns], len(keep)


def comparison_row(
    literal: Literal, subst: Substitution, new_vars: Sequence[Variable]
) -> tuple[Term, ...] | None:
    """One input row of a comparison: the values it binds for *new_vars*
    under *subst* (``()`` for a pure filter), or None when it fails."""
    solved = solve_comparison(literal, subst)
    if solved is None:
        return None
    extra = []
    for var in new_vars:
        value = solved.get(var)
        if value is None or not is_ground(value):
            raise ExecutionError(
                f"comparison {literal} left variable {var} unbound (unsafe execution)"
            )
        extra.append(apply(value, solved))
    return tuple(extra)


def builtin_row(
    literal: Literal,
    builtin,
    subst: Substitution,
    new_vars: Sequence[Variable],
) -> tuple[int, set[tuple[Term, ...]]]:
    """One input row of a built-in bind-join: check a declared mode is
    satisfied under *subst*, call the evaluator, and match the produced
    ground tuples against the (substituted) argument patterns.

    Returns ``(tuples the evaluator produced, distinct value rows for
    new_vars)`` — the built-in's relation restricted to this row's bound
    arguments.
    """
    from ..datalog.bindings import BindingPattern

    applied = tuple(apply(arg, subst) for arg in literal.args)
    adornment = BindingPattern(
        "".join("b" if is_ground(arg) else "f" for arg in applied)
    )
    if builtin.satisfied_mode(adornment) is None:
        raise ExecutionError(
            f"builtin {literal} entered with adornment {adornment}, "
            f"no declared mode satisfied (unsafe execution)"
        )
    examined = 0
    out: set[tuple[Term, ...]] = set()
    for produced in builtin.evaluate(applied):
        examined += 1
        extended: Substitution | None = subst
        for pattern, value in zip(applied, produced):
            extended = match(pattern, value, extended)
            if extended is None:
                break
        if extended is None:
            continue
        extra = []
        for var in new_vars:
            value = extended.get(var)
            if value is None or not is_ground(value):
                raise ExecutionError(
                    f"builtin {literal} left variable {var} unbound"
                )
            extra.append(value)
        out.add(tuple(extra))
    return examined, out


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
    probe.  A comparison charges one ``examined`` per input row, a
    built-in a probe per input row and what its evaluator produced."""
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
        if step.by_id:  # one id is one term, two ids are two
            return 1, ((),) if (ids[0] == ids[1]) == (literal.predicate == "=") else ()
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

    keys = _key_stream(step, columns, length, interner)
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
    when the head drops a column, holds a constant, builds or groups."""
    slots = plan.head_slots
    if (
        plan.head_aggregates or plan.head_builds or None in slots
        or len(set(slots)) != len(columns)
    ):
        return None
    return [columns[slot] for slot in slots]


def _charge_head(id_rows, profiler: Profiler, governor):
    """Charge a head's output (a set of id rows, or a counter keyed by
    them): one ``produced`` per row."""
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
        # As a head over an empty table: produced(0), tick(0).
        return _charge_head(Counter() if counted else set(), profiler, governor)
    if plan.unsafe:
        raise ExecutionError(plan.unsafe)
    if plan.head_builds:
        columns = list(columns) + [
            _built(term, bound, columns, interner, admit=True)
            for term, bound in plan.head_builds
        ]
    if not plan.head_aggregates:
        head = count_ids if counted else project_ids
        return _charge_head(head(plan, columns, length), profiler, governor)

    # Group head: a batch row is one derivation (module docstring), so a
    # group is a list of row indices, ``count`` is its size and the folds
    # read one column.  Only the folded columns are decoded; the folded
    # value is interned.
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


# -- aggregates ------------------------------------------------------------


def numeric_value(functor: str, value: Term) -> "int | Fraction":
    """The number a ``sum`` / ``avg`` folds for *value*, exactly: a float
    as the fraction it equals, so a total is the same whatever order its
    values are added in — :class:`GroupFolds`' running total included."""
    number = value.value if isinstance(value, Constant) else None
    if isinstance(number, int) and not isinstance(number, bool):
        return number
    if isinstance(number, float) and math.isfinite(number):
        return Fraction(number)
    raise ExecutionError(f"{functor} over non-numeric value {value}")


def numeric_total(total: "int | Fraction", floats: int) -> "int | float":
    """A sum's value from its exact *total*: rounded once to a float when
    *floats* of the summed values are floats, an int when none is."""
    return float(total) if floats else int(total)


def fold_aggregate(functor: str, values: Sequence[Term]) -> Term:
    """One aggregate over a group's values, one value per derivation:
    ``count`` is the group size, ``sum``/``avg`` fold numbers exactly
    (:func:`numeric_value`) and round once, ``min_of``/``max_of`` pick by
    the total term order."""
    if functor == "count":
        return Constant(len(values))
    if functor in ("sum", "avg"):
        total = numeric_total(
            sum(numeric_value(functor, v) for v in values),
            sum(isinstance(v.value, float) for v in values),
        )
        return Constant(total if functor == "sum" else total / len(values))
    if functor == "min_of":
        return min(values, key=term_sort_key)
    return max(values, key=term_sort_key)  # max_of


class GroupFolds:
    """An aggregate head's groups, kept under signed derivations in id
    space with state per group, never per derivation: its derivation
    count, per summed column the exact total and how many of its values
    are floats (so a row equals what :func:`fold_aggregate` recomputes,
    whatever order the derivations came in), per ``min_of`` /
    ``max_of`` the picked value's id, re-picked from the group's members
    whenever the group moves.  A derivation is a row of
    :attr:`projection`: the grouping arguments, then each aggregated
    variable once — one per distinct derivation, as a group head counts."""

    def __init__(self, head: Literal, interner):
        specs = [aggregate_spec(arg) for arg in head.args]
        keys = [arg for arg, spec in zip(head.args, specs) if spec is None]
        values = list(dict.fromkeys(spec[1] for spec in specs if spec is not None))
        #: how many leading projection columns are the group key
        self.width = len(keys)
        #: per head argument: None (grouping) or (functor, projection column)
        self.folds = tuple(
            spec and (spec[0], len(keys) + values.index(spec[1])) for spec in specs
        )
        self.projection = Literal(head.predicate, tuple(keys + values))
        #: projection column -> the ``sum`` / ``avg`` functor reading it
        self.summed = {f[1]: f[0] for f in self.folds if f and f[0] in ("sum", "avg")}
        #: the ``min_of`` / ``max_of`` folds, in head order
        self.picks = tuple(f for f in self.folds if f and f[0] in ("min_of", "max_of"))
        #: group key -> (derivations, ((total, floats) per summed column),
        #: (value id per pick))
        self.state: dict = {}
        self._interner = interner

    def fold(self, derivations: Counter, members) -> Counter:
        """Fold signed projection-row *derivations* in; returns -1 for
        each moved group's old head row and +1 for its new one.
        ``members(keys)`` gives the projection rows derived now for the
        group keys *keys*; it is called only when there are picks."""
        width, summed, state = self.width, self.summed, self.state
        decode, id_of = self._interner.terms.__getitem__, self._interner.id_of
        moved: dict = {}
        for row, n in derivations.items():
            change = moved.get(row[:width])
            if change is None:
                change = moved[row[:width]] = [0] + [[0, 0] for __ in summed]
            change[0] += n
            for pair, (column, functor) in zip(change[1:], summed.items()):
                term = decode(row[column])
                pair[0] += numeric_value(functor, term) * n
                pair[1] += isinstance(term.value, float) * n
        grouped: dict = {}
        if self.picks:
            for row in members(set(moved)):
                grouped.setdefault(row[:width], []).append(row)
        out = Counter()
        for key, change in moved.items():
            old = state.pop(key, None)
            count = change[0] + (old[0] if old else 0)
            if count > 0:
                totals = tuple(
                    (t + dt, f + df) for (t, f), (dt, df)
                    in zip(old[1] if old else [(0, 0)] * len(summed), change[1:])
                )
                picked = tuple(
                    id_of(fold_aggregate(functor, [decode(row[column]) for row in grouped[key]]))
                    for functor, column in self.picks
                )
                state[key] = (count, totals, picked)
                out[self._row(key, state[key])] += 1
            if old:
                out[self._row(key, old)] -= 1
        return out

    def _row(self, key: tuple, entry: tuple) -> tuple:
        """The head row (ids) of the group *key* in state *entry*."""
        count, totals, picked = entry
        keys, picks, row = iter(key), iter(picked), []
        columns = list(self.summed)
        for fold in self.folds:
            if fold is None:
                row.append(next(keys))
            elif fold[0] in ("min_of", "max_of"):
                row.append(next(picks))
            else:
                value = count
                if fold[0] != "count":
                    value = numeric_total(*totals[columns.index(fold[1])])
                    value = value / count if fold[0] == "avg" else value
                row.append(self._interner.id_of(Constant(value)))
        return tuple(row)
