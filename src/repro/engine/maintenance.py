"""Incremental maintenance of materialized views (counting + DRed).

LDL includes updates among its constructs ([NK] in the paper's
references); the natural companion on the evaluation side is keeping a
materialized derived relation consistent under fact insertions and
deletions without recomputation.  The machinery here is the classical
pair, applied per stratum of the dependency graph:

* **counting** — for the non-recursive strata the view set tracks, per
  derived tuple, its number of distinct immediate derivations.  An
  insertion delta is finite-differenced through each rule (delta at one
  body position, pre-update extensions on one side, post-update on the
  other, so every new derivation is counted exactly once); a tuple whose
  support goes ``0 -> n`` is a genuine insert, one whose support drops
  ``n -> 0`` is a genuine delete — no rederivation pass is ever needed,
  and a tuple with an alternative derivation through a *different rule*
  of the same view simply keeps a positive count;
* **DRed** (delete-and-rederive) — recursive strata cannot carry finite
  derivation counts usefully, so deletions there over-delete every
  tuple with a suspect derivation (evaluated against the *pre-deletion*
  extensions — the classical algorithm; using post-deletion state would
  miss derivations that used two deleted tuples at once, e.g. a deleted
  row joined with itself), then re-derive the survivors from what
  remains; insertions propagate semi-naively from the delta.

Both directions touch only the strata downstream of the mutated
relation and do work proportional to the deltas flowing through them —
a write never re-materializes an unaffected view.

Restrictions: the maintained program must be negation- and
aggregation-free (their incremental maintenance needs stratified
recomputation, which defeats the purpose here); built-ins are allowed.
:class:`ViewSet` enforces this at materialization time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from ..datalog.builtins import BuiltinRegistry, builtin_oracle
from ..datalog.graph import DependencyGraph
from ..datalog.literals import Literal
from ..datalog.rules import Program, Rule
from ..datalog.safety import exists_safe_order
from ..datalog.terms import Variable, is_ground, variables_of
from ..datalog.unify import apply
from ..errors import ExecutionError, KnowledgeBaseError
from ..storage.catalog import Database
from ..storage.relation import DerivedRelation
from .operators import BindingsTable, Row, builtin_for, head_rows, reference_step
from .profiler import Profiler


@dataclass(frozen=True, slots=True)
class _Stratum:
    """One SCC of the maintained program's derived predicates, in
    topological (callees-first) order."""

    names: frozenset[str]
    rules: tuple[Rule, ...]
    recursive: bool
    #: non-comparison, non-builtin body predicate names across the rules
    #: — the predicates whose deltas can reach this stratum
    body_predicates: frozenset[str]


class ViewSet:
    """Materialized extensions of derived predicates, kept incrementally
    consistent with the fact base.

    :meth:`insert` and :meth:`delete` propagate base-fact deltas through
    the strata in dependency order and return the net derived deltas —
    per-tuple derivation counts for the non-recursive strata, DRed for
    the recursive ones (see the module docstring)."""

    def __init__(
        self,
        db: Database,
        program: Program,
        builtins: BuiltinRegistry | None = None,
        profiler: Profiler | None = None,
    ):
        self.db = db
        self.program = program
        self.builtins = builtins
        self.profiler = profiler or Profiler()
        #: maintained extensions — :class:`DerivedRelation` rather than a
        #: plain set, so every delta firing probes persistent, incrementally
        #: maintained indexes instead of rebuilding hash buckets per call
        self._stored: dict[str, DerivedRelation] = {}
        #: per-tuple derivation counts, for predicates of non-recursive
        #: strata only (recursive predicates are maintained by DRed)
        self._counts: dict[str, dict[Row, int]] = {}
        self._rules: list[Rule] = []
        self._strata: list[_Stratum] = []
        #: safe body order per rule, keyed by id(rule) — the order depends
        #: only on the rule and the (fixed) builtin registry, so computing
        #: it once instead of per firing is free speedup on the
        #: delta-propagation hot path
        self._body_order: dict[int, list[Literal]] = {}
        #: delta-first evaluation orders per (rule, delta position) — see
        #: :meth:`_delta_first_order`
        self._delta_order: dict[tuple[int, int], tuple[int, ...]] = {}
        #: base extensions minus rows the database already holds but the
        #: views have not been told about yet — see :meth:`delete`
        self._masked: dict[str, DerivedRelation] = {}
        self._validate_and_collect()

    # ------------------------------------------------------------ set-up

    def _validate_and_collect(self) -> None:
        for rule in self.program:
            if rule.is_aggregate:
                raise KnowledgeBaseError(
                    "incremental maintenance does not support aggregate rules"
                )
            for literal in rule.body:
                if literal.negated:
                    raise KnowledgeBaseError(
                        "incremental maintenance does not support negation"
                    )
        graph = DependencyGraph(self.program)
        graph.check_stratified()
        self._rules = list(self.program)
        derived = {ref.name for ref in self.program.derived_predicates}
        for component in graph.evaluation_order():
            names = frozenset(ref.name for ref in component if ref.name in derived)
            if not names:
                continue  # base-only component
            recursive = len(component) > 1 or graph.is_recursive(
                next(iter(component))
            )
            rules = tuple(r for r in self._rules if r.head.predicate in names)
            body_preds = frozenset(
                literal.predicate
                for rule in rules
                for literal in rule.body
                if self._is_stored_literal(literal)
            )
            self._strata.append(
                _Stratum(
                    names=names,
                    rules=rules,
                    recursive=recursive,
                    body_predicates=body_preds,
                )
            )

    def _is_stored_literal(self, literal: Literal) -> bool:
        """True when *literal* scans a stored extension (base or derived)
        rather than being evaluated as a comparison or built-in."""
        return not literal.is_comparison and builtin_for(literal, self.builtins) is None

    def _ordered_body(self, rule: Rule) -> list[Literal]:
        cached = self._body_order.get(id(rule))
        if cached is not None:
            return cached
        oracle = builtin_oracle(self.builtins)
        order, __ = exists_safe_order(rule.body, frozenset(), oracle)
        if order is None:  # pragma: no cover - validated earlier
            raise KnowledgeBaseError(f"rule '{rule}' has no safe order")
        body = [rule.body[i] for i in order]
        self._body_order[id(rule)] = body
        return body

    def _delta_first_order(self, rule: Rule, delta_position: int) -> tuple[int, ...]:
        """Evaluation permutation of the safe body order that scans the
        literal at *delta_position* first.

        With the delta in front, every downstream stored literal probes
        its (persistently indexed) extension with keys bound by the delta
        rows, so a firing costs work proportional to the delta flowing
        through it rather than to the extension sizes.  Falls back to the
        plain safe order when no delta-first permutation is safe (e.g.
        the delta literal needs a built-in to bind an argument first)."""
        key = (id(rule), delta_position)
        cached = self._delta_order.get(key)
        if cached is not None:
            return cached
        body = self._ordered_body(rule)
        bound: frozenset[Variable] = frozenset()
        for arg in body[delta_position].args:
            bound |= variables_of(arg)
        rest = [literal for i, literal in enumerate(body) if i != delta_position]
        oracle = builtin_oracle(self.builtins)
        order, __ = exists_safe_order(rest, bound, oracle)
        if order is None:
            permutation = tuple(range(len(body)))
        else:
            back = [i for i in range(len(body)) if i != delta_position]
            permutation = (delta_position,) + tuple(back[i] for i in order)
        self._delta_order[key] = permutation
        return permutation

    def materialize(self) -> None:
        """Compute every derived predicate's extension — and, for the
        non-recursive strata, its per-tuple derivation counts — from
        scratch."""
        from .fixpoint import evaluate_program

        result = evaluate_program(
            self.db, self.program, profiler=self.profiler, builtins=self.builtins
        )
        # The views are term-space: adopt each extension's decoded view
        # (decoded straight from the id columns, no intermediate copy).
        self._stored = {
            ref.name: result.ids(ref.name).decoded()
            for ref in self.program.derived_predicates
        }
        self._counts = {}
        for stratum in self._strata:
            if stratum.recursive:
                continue
            for name in stratum.names:
                self._counts.setdefault(name, {})
            for rule in stratum.rules:
                counts = self._counts[rule.head.predicate]
                table = self._join_body(
                    rule, lambda index, literal: self._ext_by_name(literal.predicate)
                )
                for row, count in self._head_counts(table, rule.head).items():
                    counts[row] = counts.get(row, 0) + count

    # ------------------------------------------------------------ access

    def rows(self, predicate: str) -> frozenset[Row]:
        stored = self._stored.get(predicate)
        return stored.rows if stored is not None else frozenset()

    def lookup(
        self, predicate: str, positions: tuple[int, ...], key: Row
    ) -> Iterable[Row]:
        """The rows of *predicate* whose *positions* fields equal *key*,
        through a persistent index on those positions (built on the first
        such read, then maintained by every delta like the indexes rule
        firing uses).  Not to be held across a write."""
        stored = self._stored.get(predicate)
        if stored is None:
            return ()
        return stored.ensure_index(positions).get_bucket(tuple(key))

    def predicates(self) -> tuple[str, ...]:
        """The maintained derived predicates, sorted."""
        return tuple(sorted(self._stored))

    def maintenance_mode(self, predicate: str) -> str:
        """``"counting"`` (non-recursive stratum, per-tuple support) or
        ``"dred"`` (recursive stratum, delete-and-rederive)."""
        return "counting" if predicate in self._counts else "dred"

    def support(self, predicate: str, row: Row) -> int | None:
        """Derivation count of *row* (``None`` for recursive predicates,
        which are maintained by DRed, not counting)."""
        counts = self._counts.get(predicate)
        if counts is None:
            return None
        return counts.get(tuple(row), 0)

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._stored

    # -------------------------------------------------------- rule firing

    def _ext_by_name(
        self, name: str, overrides: Mapping[str, Iterable[Row]] | None = None
    ):
        if overrides and name in overrides:
            return overrides[name]
        if name in self._stored:
            return self._stored[name]
        if name in self._masked:
            return self._masked[name]
        relation = self.db.get(name)
        if relation is not None:
            return relation
        return frozenset()

    def _stored_for(self, name: str) -> DerivedRelation:
        stored = self._stored.get(name)
        if stored is None:
            stored = self._stored[name] = DerivedRelation(name)
        return stored

    def _join_body(
        self,
        rule: Rule,
        ext_for: Callable[[int, Literal], Iterable[Row]],
        order: Sequence[int] | None = None,
        seed: BindingsTable | None = None,
    ) -> BindingsTable:
        """Join the rule body, drawing each stored literal's extension
        from *ext_for* (keyed by the literal's position in the safe body
        order).  *order* permutes the evaluation (delta-first firing —
        the result is order-independent, only the cost changes); *seed*
        starts the join from an existing bindings table instead of the
        unit table (candidate-seeded rederivation).  Extensions that are
        :class:`Relation`/:class:`DerivedRelation` are joined with their
        persistent indexes; ad-hoc sets (deltas) fall back to a one-shot
        hash build."""
        body = self._ordered_body(rule)
        table = BindingsTable.unit() if seed is None else seed
        for index in order if order is not None else range(len(body)):
            literal = body[index]
            if not table.rows:
                break
            # "index" probes a relation's persistent index and is a
            # one-shot hash build over anything else
            table = reference_step(
                table, literal, lambda stored, index=index: ext_for(index, stored),
                "index", self.profiler, builtins=self.builtins,
            )
        return table

    def _head_counts(self, table: BindingsTable, head: Literal) -> Counter:
        """Head tuples with their multiplicity: the number of distinct
        body-variable assignments deriving each (what the counting
        strata record as per-tuple support)."""
        out: Counter = Counter()
        for subst in table.substitutions():
            row = tuple(apply(arg, subst) for arg in head.args)
            for field in row:
                if not is_ground(field):
                    raise ExecutionError(
                        f"rule head {head} not fully bound by body (unsafe execution)"
                    )
            out[row] += 1
        self.profiler.bump_produced(len(out))
        return out

    def _fire_rule(
        self,
        rule: Rule,
        delta_name: str,
        delta_rows: Iterable[Row],
        overrides: Mapping[str, Iterable[Row]] | None = None,
    ) -> set[Row]:
        """Head tuples derivable with *delta_name*'s delta at one of its
        occurrences; *overrides* substitutes extensions at the non-delta
        positions (DRed's over-delete phase passes the pre-deletion
        extensions here, so derivations that used several deleted tuples
        at once — a row joined with itself included — are still seen)."""
        body = self._ordered_body(rule)
        positions = [
            index
            for index, literal in enumerate(body)
            if self._is_stored_literal(literal) and literal.predicate == delta_name
        ]
        out: set[Row] = set()
        for delta_position in positions:
            table = self._join_body(
                rule,
                lambda index, literal: (
                    delta_rows
                    if index == delta_position
                    else self._ext_by_name(literal.predicate, overrides)
                ),
                order=self._delta_first_order(rule, delta_position),
            )
            out |= head_rows(table, rule.head, self.profiler)
        return out

    def _fire_rule_counted(
        self,
        rule: Rule,
        deltas: Mapping[str, set[Row]],
        old_ext: Callable[[str], Iterable[Row]],
        phase: str,
    ) -> Counter:
        """Finite-differenced counted firing: the multiset of derivations
        gained (``phase="insert"``) or lost (``phase="delete"``) by the
        per-predicate *deltas*.

        With the delta-carrying body positions ordered ``i1 < i2 < ...``,
        the telescoping split puts the delta at one position per pass and
        — for insertions — the *pre-update* extension at earlier delta
        positions and the *post-update* one at later positions (the
        mirror image for deletions).  Every gained/lost body assignment
        is then counted at exactly one pass, even when it uses delta
        tuples at several positions, so counts stay exact.
        """
        body = self._ordered_body(rule)
        delta_positions = [
            index
            for index, literal in enumerate(body)
            if self._is_stored_literal(literal) and literal.predicate in deltas
        ]
        total: Counter = Counter()
        inserting = phase == "insert"
        for delta_position in delta_positions:

            def ext_for(index: int, literal: Literal):
                if index == delta_position:
                    return deltas[literal.predicate]
                if index in delta_positions and (index < delta_position) == inserting:
                    return old_ext(literal.predicate)
                return self._ext_by_name(literal.predicate)

            table = self._join_body(
                rule, ext_for, order=self._delta_first_order(rule, delta_position)
            )
            total += self._head_counts(table, rule.head)
        return total

    # --------------------------------------------------------- insertions

    def insert(self, base_rows: Mapping[str, Iterable[Row]]) -> dict[str, set[Row]]:
        """Propagate base-fact insertions (base predicate -> new tuples,
        all predicates of one update at once); returns the derived deltas.

        The base tuples must already be present in the database and must
        be genuinely new (the caller inserts them first and filters
        duplicates); this routine only updates the views.
        """
        deltas = _nonempty_deltas(base_rows)
        if not deltas:
            return {}
        derived_new: dict[str, set[Row]] = {}
        for stratum in self._strata:
            relevant = {
                name: deltas[name]
                for name in stratum.body_predicates
                if deltas.get(name)
            }
            if not relevant:
                continue
            if stratum.recursive:
                fresh = self._insert_recursive(stratum, relevant)
            else:
                fresh = self._insert_counted(stratum, relevant)
            for name, new_rows in fresh.items():
                if new_rows:
                    deltas[name] = new_rows
                    derived_new.setdefault(name, set()).update(new_rows)
        return derived_new

    def _insert_counted(
        self, stratum: _Stratum, deltas: dict[str, set[Row]]
    ) -> dict[str, set[Row]]:
        old_memo: dict[str, DerivedRelation] = {}

        def old_ext(name: str) -> DerivedRelation:
            cached = old_memo.get(name)
            if cached is None:
                rows = set(self._ext_by_name(name)) - deltas[name]
                cached = old_memo[name] = DerivedRelation(name, rows)
            return cached

        fresh: dict[str, set[Row]] = {}
        for rule in stratum.rules:
            gained = self._fire_rule_counted(rule, deltas, old_ext, "insert")
            if not gained:
                continue
            head = rule.head.predicate
            counts = self._counts.setdefault(head, {})
            stored = self._stored_for(head)
            for row, count in gained.items():
                previous = counts.get(row, 0)
                counts[row] = previous + count
                if previous == 0:
                    stored.add(row)
                    fresh.setdefault(head, set()).add(row)
        return fresh

    def _insert_recursive(
        self, stratum: _Stratum, external: dict[str, set[Row]]
    ) -> dict[str, set[Row]]:
        """Semi-naive propagation from the delta: each round fires every
        rule once per delta-carrying predicate, against the accumulated
        extensions — never a from-scratch re-materialization."""
        fresh_all: dict[str, set[Row]] = {}
        deltas = {name: set(rows) for name, rows in external.items()}
        while deltas:
            next_deltas: dict[str, set[Row]] = {}
            for rule in stratum.rules:
                head = rule.head.predicate
                for delta_name, delta_rows in deltas.items():
                    if not delta_rows:
                        continue
                    if all(
                        not self._is_stored_literal(l) or l.predicate != delta_name
                        for l in rule.body
                    ):
                        continue
                    produced = self._fire_rule(rule, delta_name, delta_rows)
                    stored = self._stored_for(head)
                    new_rows = produced - stored.rows
                    if new_rows:
                        stored.update(new_rows)
                        fresh_all.setdefault(head, set()).update(new_rows)
                        next_deltas.setdefault(head, set()).update(new_rows)
            deltas = next_deltas
        return fresh_all

    # ---------------------------------------------------------- deletions

    def delete(
        self,
        base_rows: Mapping[str, Iterable[Row]],
        pending_inserts: Mapping[str, Iterable[Row]] | None = None,
    ) -> dict[str, set[Row]]:
        """Propagate base-fact deletions (base predicate -> removed
        tuples, all predicates of one update at once); returns the net
        removals.

        The base tuples must already be removed from the database; this
        routine decrements derivation counts in the counting strata and
        runs DRed in the recursive ones.  All of an update's deletions
        must arrive in one call: over-deletion evaluates against the
        pre-deletion extensions, which it can only reconstruct from the
        complete delta.  *pending_inserts* names base tuples the database
        already holds but :meth:`insert` has not been called for yet (a
        committing transaction that both retracted and inserted); they
        are hidden for the duration, so a derivation pairing a deleted
        tuple with a not-yet-propagated one — which the views never
        counted — is not subtracted.
        """
        deltas = _nonempty_deltas(base_rows)
        if not deltas:
            return {}
        for name, rows in _nonempty_deltas(pending_inserts or {}).items():
            self._masked[name] = DerivedRelation(
                name, set(self._ext_by_name(name)) - rows
            )
        net_removed: dict[str, set[Row]] = {}
        try:
            for stratum in self._strata:
                relevant = {
                    name: deltas[name]
                    for name in stratum.body_predicates
                    if deltas.get(name)
                }
                if not relevant:
                    continue
                if stratum.recursive:
                    gone = self._delete_recursive(stratum, relevant)
                else:
                    gone = self._delete_counted(stratum, relevant)
                for name, gone_rows in gone.items():
                    if gone_rows:
                        deltas[name] = gone_rows
                        net_removed.setdefault(name, set()).update(gone_rows)
        finally:
            self._masked.clear()
        return net_removed

    def _delete_counted(
        self, stratum: _Stratum, deltas: dict[str, set[Row]]
    ) -> dict[str, set[Row]]:
        old_memo: dict[str, DerivedRelation] = {}

        def old_ext(name: str) -> DerivedRelation:
            cached = old_memo.get(name)
            if cached is None:
                rows = set(self._ext_by_name(name)) | deltas[name]
                cached = old_memo[name] = DerivedRelation(name, rows)
            return cached

        gone: dict[str, set[Row]] = {}
        for rule in stratum.rules:
            lost = self._fire_rule_counted(rule, deltas, old_ext, "delete")
            if not lost:
                continue
            head = rule.head.predicate
            counts = self._counts.setdefault(head, {})
            stored = self._stored_for(head)
            for row, count in lost.items():
                remaining = counts.get(row, 0) - count
                if remaining > 0:
                    counts[row] = remaining
                    continue
                # Support exhausted: a genuine deletion.  (A tuple with an
                # alternative derivation — through the same or a different
                # rule — still has positive support and never gets here.)
                counts.pop(row, None)
                if row in stored:
                    stored.discard(row)
                    gone.setdefault(head, set()).add(row)
        return gone

    def _delete_recursive(
        self, stratum: _Stratum, external: dict[str, set[Row]]
    ) -> dict[str, set[Row]]:
        """DRed, scoped to one recursive stratum: over-delete against the
        pre-deletion extensions, then re-derive the survivors."""
        # Phase 1 — over-delete.  A deleted tuple may invalidate any
        # derivation that used it; candidate derivations are evaluated
        # with the *pre-deletion* extensions at the non-delta positions
        # (upstream deltas are already applied to the database/stored
        # sets, so they are added back here), which also catches
        # derivations that used two deleted tuples at once.
        old_overrides: dict[str, DerivedRelation] = {}
        for name, rows in external.items():
            old = DerivedRelation(name, self._ext_by_name(name))
            old.update(rows)
            old_overrides[name] = old
        over: dict[str, set[Row]] = {}
        deltas = {name: set(rows) for name, rows in external.items()}
        while deltas:
            next_deltas: dict[str, set[Row]] = {}
            for rule in stratum.rules:
                head = rule.head.predicate
                for delta_name, delta_rows in deltas.items():
                    if not delta_rows:
                        continue
                    if all(
                        not self._is_stored_literal(l) or l.predicate != delta_name
                        for l in rule.body
                    ):
                        continue
                    produced = self._fire_rule(
                        rule, delta_name, delta_rows, overrides=old_overrides
                    )
                    candidates = produced & self._stored_for(head).rows
                    fresh = candidates - over.get(head, set())
                    if fresh:
                        over.setdefault(head, set()).update(fresh)
                        next_deltas.setdefault(head, set()).update(fresh)
            deltas = next_deltas

        for name, suspect in over.items():
            stored = self._stored_for(name)
            for row in suspect:
                stored.discard(row)

        # Phase 2 — re-derive survivors from what remains.  Every rule of
        # the stratum is consulted (to fixpoint), so a tuple whose
        # remaining derivation goes through a different rule than the one
        # that over-deleted it is put back.  Rederivation is seeded with
        # the still-missing candidates (see :meth:`_rederive`) — the cost
        # follows the over-deleted set, not the view size.
        changed = True
        rederived: dict[str, set[Row]] = {}
        while changed:
            changed = False
            for rule in stratum.rules:
                head = rule.head.predicate
                candidates = over.get(head)
                if not candidates:
                    continue
                missing = candidates - rederived.get(head, set())
                if not missing:
                    continue
                survivors = self._rederive(rule, missing)
                stored = self._stored_for(head)
                fresh = survivors - stored.rows
                if fresh:
                    stored.update(fresh)
                    rederived.setdefault(head, set()).update(fresh)
                    changed = True

        net: dict[str, set[Row]] = {}
        for name, suspect in over.items():
            really_gone = suspect - rederived.get(name, set())
            if really_gone:
                net[name] = really_gone
        return net

    def _rederive(self, rule: Rule, candidates: set[Row]) -> set[Row]:
        """The subset of *candidates* derivable by *rule* under the
        current stored/base state.

        When the head is a tuple of distinct variables, the candidate
        rows seed the join directly: the body then probes its extensions
        with head-bound keys, so the cost follows the candidate set the
        way delta-first firings follow the delta.  Other head shapes
        (constants, repeated variables) fall back to intersecting the
        rule's full derivation set."""
        head_args = rule.head.args
        seedable = len(set(head_args)) == len(head_args) and all(
            isinstance(arg, Variable) for arg in head_args
        )
        if not seedable:
            return self._derivable(rule) & candidates
        seed = BindingsTable.from_rows(tuple(head_args), candidates)
        table = self._join_body(
            rule,
            lambda index, literal: self._ext_by_name(literal.predicate),
            seed=seed,
        )
        return head_rows(table, rule.head, self.profiler)

    def _derivable(self, rule: Rule) -> set[Row]:
        """All head tuples of *rule* under the current stored/base state."""
        table = self._join_body(
            rule, lambda index, literal: self._ext_by_name(literal.predicate)
        )
        return head_rows(table, rule.head, self.profiler)


def _nonempty_deltas(base_rows: Mapping[str, Iterable[Row]]) -> dict[str, set[Row]]:
    deltas = {name: {tuple(row) for row in rows} for name, rows in base_rows.items()}
    return {name: rows for name, rows in deltas.items() if rows}
