"""Physical operators over bindings tables.

The engine "relationalizes" logic evaluation: the intermediate state of a
rule body being executed left to right is a :class:`BindingsTable` — a
relation whose schema is a tuple of *variables* and whose rows are ground
instantiations of them.  Each body literal extends the table:

* a positive literal joins the table with its predicate's extension
  (:func:`scan_join`) — this one operator realizes the paper's join
  methods (the EL labels): ``nested_loop``, ``hash``, ``index`` and
  ``merge``;
* a comparison filters rows, and ``=`` can extend the schema with newly
  bound variables (:func:`apply_comparison`);
* a negated literal filters by non-membership (:func:`negation_filter`).

Pipelining vs. materialization (the MP transformation) is a property of
*how* these operators are composed, decided by the processing tree — a
pipelined subtree is evaluated per input row via the bindings it implies,
a materialized one is computed once with an empty bindings context.

All operators charge their tuple traffic to a :class:`Profiler`, which is
how benchmarks observe "measured cost".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..datalog.literals import Literal
from ..datalog.terms import Constant, Term, Variable, is_ground, variables_of
from ..datalog.unify import Substitution, apply, match
from ..errors import ExecutionError
from ..storage.columnar import IdRelation
from ..storage.relation import Relation
from .evaluable import solve_comparison, term_sort_key
from .profiler import Profiler

Row = tuple[Term, ...]

#: Join method names — the engine's available EL labels.
JOIN_METHODS = ("nested_loop", "hash", "index", "merge")


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
    def empty(cls, schema: tuple[Variable, ...] = ()) -> "BindingsTable":
        return cls(schema, frozenset())

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


def _literal_vars_in_order(literal: Literal) -> list[Variable]:
    out: list[Variable] = []
    for arg in literal.args:
        for var in _vars_in_order(arg):
            if var not in out:
                out.append(var)
    return out


def _vars_in_order(term: Term) -> list[Variable]:
    if isinstance(term, Variable):
        return [term]
    if hasattr(term, "args"):
        out: list[Variable] = []
        for arg in term.args:  # type: ignore[union-attr]
            for var in _vars_in_order(arg):
                if var not in out:
                    out.append(var)
        return out
    return []


def _id_store(extension) -> IdRelation | None:
    """The id store *extension* is held in — a base relation's own or a
    derived :class:`IdRelation` — or None for a plain set of term rows."""
    if isinstance(extension, Relation):
        return extension.batch_store(extension.interner)
    return extension if isinstance(extension, IdRelation) else None


def _store_rows(store: IdRelation, indices: Iterable[int]) -> list[Row]:
    """The rows at *indices* of *store*, decoded to terms."""
    decode = store.interner.terms.__getitem__
    columns = store.columns or ()
    return [tuple([decode(column[i]) for column in columns]) for i in indices]


def scan_join(
    table: BindingsTable,
    literal: Literal,
    extension: "Relation | IdRelation | Iterable[Row]",
    method: str = "hash",
    profiler: Profiler | None = None,
    label: str = "",
    governor=None,
) -> BindingsTable:
    """Join *table* with the extension of *literal*'s predicate.

    *extension* is what the predicate currently denotes: a base
    :class:`~repro.storage.relation.Relation` or a derived
    :class:`~repro.storage.columnar.IdRelation` — both read through their
    id store — or a plain set of term rows (a delta, a child's decoded
    result, a ``compile=False`` workspace entry).  The output schema is
    the input schema extended with the literal's not-yet-bound variables,
    in first-occurrence order.

    ``method`` selects the physical algorithm:

    * ``nested_loop`` — every input row examines every extension tuple;
    * ``hash`` — build a hash table on the literal's bound argument
      positions once, probe per input row;
    * ``index`` — like hash, but an id store's bucket map is probed as
      it stands, with no build to pay (a set of term rows is hashed per
      call, as ``hash`` does);
    * ``merge`` — sort both sides on the bound key and merge.

    An id store is probed with the ids of the key's terms, looked up and
    never interned (a key nobody stored matches nothing), and only the
    rows a key selects are decoded; under ``hash`` the build it replaces
    is still charged, one ``examined`` per stored row.  All methods
    produce identical results; they differ in the work profile, which is
    the point of the EL transformation.
    """
    profiler = profiler or Profiler()
    if method not in JOIN_METHODS:
        raise ExecutionError(f"unknown join method {method!r}")

    schema_set = set(table.schema)
    new_vars = [v for v in _literal_vars_in_order(literal) if v not in schema_set]
    out_schema = table.schema + tuple(new_vars)

    bound_positions = tuple(
        i for i, arg in enumerate(literal.args) if variables_of(arg) <= schema_set
    )
    free_positions = tuple(i for i in range(literal.arity) if i not in bound_positions)

    store = _id_store(extension)
    probe = None  # applied arguments -> candidate rows, for hash / index
    if store is not None and method in ("hash", "index"):
        if method == "hash":
            profiler.bump_examined(store.length)  # the build side, read once
        buckets = store.buckets_for(bound_positions)
        lookup = store.interner.lookup
        if len(bound_positions) == 1:
            at, = bound_positions

            def probe(applied):
                return _store_rows(store, buckets.get(lookup(applied[at]), ()))
        else:
            def probe(applied):
                key = tuple([lookup(applied[i]) for i in bound_positions])
                return _store_rows(store, buckets.get(key, ()))
    else:
        ext_rows = (
            _store_rows(store, range(store.length)) if store is not None else list(extension)
        )
        if method in ("hash", "index"):
            built: dict[tuple[Term, ...], list[Row]] = {}
            for row in ext_rows:
                built.setdefault(tuple(row[i] for i in bound_positions), []).append(row)
            profiler.bump_examined(len(ext_rows))  # build side read once

            def probe(applied):
                return built.get(tuple(applied[i] for i in bound_positions), ())

    if method == "merge":
        keyed_ext = sorted(
            ((tuple(term_sort_key(row[i]) for i in bound_positions), row) for row in ext_rows),
            key=lambda pair: pair[0],
        )
        profiler.bump_examined(len(keyed_ext))  # the extension sorting pass
        return _merge_join(
            table, literal, keyed_ext, bound_positions, out_schema, new_vars, profiler,
            governor=governor,
        )

    out_rows: set[Row] = set()

    def emit(subst: Substitution, base_row: Row) -> None:
        extra = []
        for var in new_vars:
            value = subst.get(var)
            if value is None or not is_ground(value):
                raise ExecutionError(
                    f"literal {literal} left variable {var} unbound (unsafe execution)"
                )
            extra.append(value)
        out_rows.add(base_row + tuple(extra))

    charged = 0
    check_at = governor.grant() if governor is not None else float("inf")
    for base_row in table.rows:
        subst: Substitution = dict(zip(table.schema, base_row))
        applied = [apply(arg, subst) for arg in literal.args]
        if probe is not None:
            candidates: Iterable[Row] = probe(applied)
            profiler.bump_probes()
        else:
            candidates = ext_rows
        for tuple_row in candidates:
            profiler.bump_examined()
            extended = _match_free(applied, tuple_row, free_positions, subst)
            if extended is not None:
                emit(extended, base_row)
        if len(out_rows) >= check_at:
            emitted = len(out_rows)
            governor.tick(emitted - charged)
            charged = emitted
            check_at = emitted + governor.grant()

    if governor is not None and len(out_rows) > charged:
        governor.tick(len(out_rows) - charged)
    profiler.bump_produced(len(out_rows))
    if label:
        profiler.charge(label, len(out_rows))
    return BindingsTable(out_schema, frozenset(out_rows))


def _match_free(
    applied: Sequence[Term],
    tuple_row: Row,
    free_positions: Sequence[int],
    subst: Substitution,
) -> Substitution | None:
    """Match the not-fully-bound argument positions against a stored tuple.

    Bound positions are known equal when reached via a key lookup, but a
    nested-loop scan must verify them too — so *all* positions are
    checked here (match on a ground pair is just an equality test).
    """
    out = subst
    for position, (pattern, value) in enumerate(zip(applied, tuple_row)):
        if position in free_positions:
            out = match(pattern, value, out)
            if out is None:
                return None
        elif pattern != value:
            return None
    return out


def _merge_join(
    table: BindingsTable,
    literal: Literal,
    keyed_ext: list[tuple[tuple, Row]],
    bound_positions: tuple[int, ...],
    out_schema: tuple[Variable, ...],
    new_vars: list[Variable],
    profiler: Profiler,
    governor=None,
) -> BindingsTable:
    """Sort-merge implementation of :func:`scan_join`.

    *keyed_ext* is the extension already sorted on the join key; only
    the input side is sorted here.
    """
    free_positions = tuple(i for i in range(len(literal.args)) if i not in bound_positions)

    keyed_inputs: list[tuple[tuple, Row, Substitution, list[Term]]] = []
    for base_row in table.rows:
        subst: Substitution = dict(zip(table.schema, base_row))
        applied = [apply(arg, subst) for arg in literal.args]
        key = tuple(term_sort_key(applied[i]) for i in bound_positions)
        keyed_inputs.append((key, base_row, subst, applied))
    keyed_inputs.sort(key=lambda item: item[0])
    profiler.bump_examined(len(keyed_inputs))  # the input sorting pass

    out_rows: set[Row] = set()
    charged = 0
    check_at = governor.grant() if governor is not None else float("inf")
    left = 0
    right = 0
    while left < len(keyed_inputs) and right < len(keyed_ext):
        lkey = keyed_inputs[left][0]
        rkey = keyed_ext[right][0]
        if lkey < rkey:
            left += 1
            continue
        if lkey > rkey:
            right += 1
            continue
        right_end = right
        while right_end < len(keyed_ext) and keyed_ext[right_end][0] == rkey:
            right_end += 1
        left_end = left
        while left_end < len(keyed_inputs) and keyed_inputs[left_end][0] == lkey:
            left_end += 1
        for __, base_row, subst, applied in keyed_inputs[left:left_end]:
            for ___, tuple_row in keyed_ext[right:right_end]:
                profiler.bump_examined()
                extended = _match_free(applied, tuple_row, free_positions, subst)
                if extended is not None:
                    extra = []
                    ok = True
                    for var in new_vars:
                        value = extended.get(var)
                        if value is None or not is_ground(value):
                            raise ExecutionError(
                                f"literal {literal} left variable {var} unbound"
                            )
                        extra.append(value)
                    if ok:
                        out_rows.add(base_row + tuple(extra))
        if len(out_rows) >= check_at:
            emitted = len(out_rows)
            governor.tick(emitted - charged)
            charged = emitted
            check_at = emitted + governor.grant()
        left = left_end
        right = right_end

    if governor is not None and len(out_rows) > charged:
        governor.tick(len(out_rows) - charged)
    profiler.bump_produced(len(out_rows))
    return BindingsTable(out_schema, frozenset(out_rows))


def builtin_row(
    literal: Literal,
    builtin,
    subst: Substitution,
    new_vars: Sequence[Variable],
) -> tuple[int, set[Row]]:
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
    out: set[Row] = set()
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


def builtin_join(
    table: BindingsTable,
    literal: Literal,
    builtin,
    profiler: Profiler | None = None,
    governor=None,
) -> BindingsTable:
    """Join with a built-in (infinite) predicate by per-row evaluation.

    Built-ins have no stored extension, so the only execution is the
    bind-join: one :func:`builtin_row` per input row.
    """
    profiler = profiler or Profiler()
    schema_set = set(table.schema)
    new_vars = [v for v in _literal_vars_in_order(literal) if v not in schema_set]
    out_schema = table.schema + tuple(new_vars)

    out_rows: set[Row] = set()
    charged = 0
    check_at = governor.grant() if governor is not None else float("inf")
    for base_row in table.rows:
        if len(out_rows) >= check_at:
            emitted = len(out_rows)
            governor.tick(emitted - charged)
            charged = emitted
            check_at = emitted + governor.grant()
        profiler.bump_probes()
        examined, extras = builtin_row(
            literal, builtin, dict(zip(table.schema, base_row)), new_vars
        )
        profiler.bump_examined(examined)
        for extra in extras:
            out_rows.add(base_row + extra)
    if governor is not None and len(out_rows) > charged:
        governor.tick(len(out_rows) - charged)
    profiler.bump_produced(len(out_rows))
    return BindingsTable(out_schema, frozenset(out_rows))


def comparison_row(
    literal: Literal, subst: Substitution, new_vars: Sequence[Variable]
) -> Row | None:
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


def apply_comparison(
    table: BindingsTable,
    literal: Literal,
    profiler: Profiler | None = None,
    governor=None,
) -> BindingsTable:
    """Execute a comparison literal against every row.

    ``=`` may bind new variables, extending the schema; ordering
    comparisons only filter.
    """
    profiler = profiler or Profiler()
    schema_set = set(table.schema)
    new_vars = [v for v in _literal_vars_in_order(literal) if v not in schema_set]
    out_schema = table.schema + tuple(new_vars)

    out_rows: set[Row] = set()
    for row in table.rows:
        profiler.bump_examined()
        extra = comparison_row(literal, dict(zip(table.schema, row)), new_vars)
        if extra is not None:
            out_rows.add(row + extra)
    if governor is not None:
        # Filters cannot emit more than their (already charged) input,
        # so one cancellation/deadline probe per call is enough.
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
    if store is not None:
        lookup_row, held = store.interner.lookup_row, store.rows

        def absent(applied: Row) -> bool:
            ids = lookup_row(applied)
            return ids is None or ids not in held
    else:
        ext_rows = extension if isinstance(extension, (set, frozenset)) else set(extension)

        def absent(applied: Row) -> bool:
            return applied not in ext_rows
    out_rows: set[Row] = set()
    for row in table.rows:
        profiler.bump_examined()
        subst: Substitution = dict(zip(table.schema, row))
        applied = tuple(apply(arg, subst) for arg in literal.args)
        for arg in applied:
            if not is_ground(arg):
                raise ExecutionError(
                    f"negated literal {literal} entered with unbound arguments (unsafe)"
                )
        if absent(applied):
            out_rows.add(row)
    if governor is not None:
        governor.tick()
    profiler.bump_produced(len(out_rows))
    return BindingsTable(table.schema, frozenset(out_rows))


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
    variable once — one per distinct derivation, as in
    :func:`aggregate_rows`."""

    def __init__(self, head: Literal, interner):
        from ..datalog.rules import aggregate_spec

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


def aggregate_rows(
    table: BindingsTable,
    head: Literal,
    profiler: Profiler | None = None,
    governor=None,
) -> set[Row]:
    """Instantiate an *aggregate* head: group-by plain arguments,
    aggregate the wrapped variables over the rule's distinct derivations.

    Each distinct bindings-table row is one derivation; see
    :func:`fold_aggregate` for the per-group folds.
    """
    from ..datalog.rules import aggregate_spec

    profiler = profiler or Profiler()
    specs = [aggregate_spec(arg) for arg in head.args]
    group_positions = [i for i, spec in enumerate(specs) if spec is None]

    groups: dict[tuple[Term, ...], list[Substitution]] = {}
    for subst in table.substitutions():
        key = []
        for position in group_positions:
            value = apply(head.args[position], subst)
            if not is_ground(value):
                raise ExecutionError(
                    f"aggregate head {head}: group argument unbound (unsafe execution)"
                )
            key.append(value)
        groups.setdefault(tuple(key), []).append(subst)
        profiler.bump_examined()

    out: set[Row] = set()
    for key, substs in groups.items():
        row: list[Term] = []
        key_iter = iter(key)
        for position, spec in enumerate(specs):
            if spec is None:
                row.append(next(key_iter))
                continue
            functor, var = spec
            values = []
            for subst in substs:
                value = subst.get(var)
                if value is None or not is_ground(value):
                    raise ExecutionError(
                        f"aggregate {functor}({var}) over unbound variable"
                    )
                values.append(value)
            row.append(fold_aggregate(functor, values))
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
    for row in out:
        for field in row:
            if not is_ground(field):
                raise ExecutionError(
                    f"rule head {head} not fully bound by body (unsafe execution)"
                )
    profiler.bump_produced(len(out))
    if governor is not None:
        governor.tick(len(out))
    return out


def keys_table(patterns: Sequence[Term], keys: Iterable[Row]) -> BindingsTable:
    """What ground *keys* bind the variables of *patterns* to, matched
    field by field (a key that does not fit drops out); the schema is the
    variables in first-occurrence order."""
    schema: list[Variable] = []
    for pattern in patterns:
        schema.extend(v for v in _vars_in_order(pattern) if v not in schema)
    rows: set[Row] = set()
    for key in keys:
        subst: Substitution | None = {}
        for pattern, value in zip(patterns, key):
            subst = match(pattern, value, subst)
            if subst is None:
                break
        else:
            rows.add(tuple(subst[v] for v in schema))
    return BindingsTable.from_rows(schema, rows)


def builtin_for(literal: Literal, builtins):
    """The registered built-in a positive literal calls, or None."""
    builtin = builtins.get(literal.predicate) if builtins is not None else None
    return builtin if builtin is not None and builtin.arity == literal.arity else None


def step_kind(literal: Literal, builtins=None) -> str:
    """A body literal's step kind, as the lowering names it (the prefix
    of its span name): ``compare`` / ``negation`` / ``builtin`` / ``join``."""
    if literal.is_comparison:
        return "compare"
    if literal.negated:
        return "negation"
    return "join" if builtin_for(literal, builtins) is None else "builtin"


def reference_step(
    table: BindingsTable, literal: Literal, extension_of, method: str,
    profiler: Profiler, governor=None, builtins=None,
) -> BindingsTable:
    """One body literal over a bindings table, by kind — the one dispatch
    of every term-space evaluator.  ``extension_of(positive literal)`` is
    asked for a stored literal's extension only; *method* joins it."""
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
    return scan_join(
        table, literal, extension_of(literal), method, profiler, governor=governor
    )
