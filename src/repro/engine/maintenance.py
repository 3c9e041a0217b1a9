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

Only what is maintenance's own lives here: the strata, the delta-first
body orders, the counting telescope, DRed's two loops.  A rule is
*fired* by :meth:`~repro.engine.fixpoint.FixpointEngine.fire`, the
fixpoint's own routine: scheduled once per body position a delta can
arrive at, that literal first, and lowered to the columnar steps a
fixpoint round runs (the engine's reference branch when its shape needs
unification).  Everything is in id space: an extension is the
:class:`~repro.storage.columnar.IdRelation` the materializing fixpoint
left, a delta is the id rows ``Database.add`` / ``remove`` returned, a
base literal probes the relation's own store.

Restrictions: the maintained program must be negation- and
aggregation-free (their incremental maintenance needs stratified
recomputation, which defeats the purpose here); built-ins are allowed.
:class:`ViewSet` enforces this at materialization time.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Mapping, NamedTuple

from ..datalog.builtins import BuiltinRegistry, builtin_oracle
from ..datalog.graph import DependencyGraph
from ..datalog.literals import Literal, PredicateRef
from ..datalog.rules import Program, Rule
from ..datalog.safety import exists_safe_order
from ..datalog.terms import Term, variables_of
from ..errors import KnowledgeBaseError
from ..storage.catalog import Database
from ..storage.columnar import IdRelation, IdRow
from . import batch as _batch
from .fixpoint import FixpointEngine, _ScheduledRule, evaluate_program
from .operators import builtin_for
from .profiler import Profiler

Row = tuple[Term, ...]
Deltas = dict[str, set[IdRow]]


class _Firing(NamedTuple):
    """A rule scheduled for a delta arriving at one stored body literal:
    that literal first, so every later literal is probed with keys the
    delta rows bind and a firing costs work proportional to the delta."""

    #: the delta literal's predicate and its index in the safe body order
    predicate: str
    position: int
    #: the rule with its body in delta-first order, as the engine fires it
    entry: _ScheduledRule
    #: where the delta literal sits in that order: 0, unless no
    #: delta-first order is safe (a built-in must bind an argument first)
    step: int
    #: per step of that order, the literal's index in the safe body order
    origin: tuple[int, ...]


class _ViewRule(NamedTuple):
    #: the head predicate
    head: str
    #: the body in safe order with nothing driving it: materialization's
    #: counts, rederivation when the candidates cannot seed it
    full: _ScheduledRule
    #: recursive strata: the rule entered with candidate head rows as its
    #: input batch, when the head's arguments lay out as keys
    keyed: "tuple[_batch.KeyLayout, _ScheduledRule] | None"
    firings: tuple[_Firing, ...]


class _Stratum(NamedTuple):
    """One SCC of the maintained program's derived predicates, in
    topological (callees-first) order."""

    names: frozenset[str]
    rules: tuple[_ViewRule, ...]
    recursive: bool
    #: non-comparison, non-builtin body predicate names across the rules
    #: — the predicates whose deltas can reach this stratum
    body_predicates: frozenset[str]


def _unsupported(rules: Iterable[Rule]) -> str | None:
    """What among *rules* incremental maintenance cannot keep, if anything."""
    for rule in rules:
        if rule.is_aggregate:
            return "aggregate rules"
        if any(literal.negated for literal in rule.body):
            return "negation"
    return None


def maintainable_cone(program: Program, goal: PredicateRef) -> Program | None:
    """The rules a query of the derived *goal* reads (its dependency cone),
    when a :class:`ViewSet` can maintain them; None otherwise."""
    cone = DependencyGraph(program).reachable_from(goal)
    rules = [rule for rule in program if rule.head_ref in cone]
    return None if _unsupported(rules) or goal not in {r.head_ref for r in rules} else Program(rules)


class ViewSet:
    """Materialized extensions of derived predicates, kept incrementally
    consistent with the fact base.

    :meth:`insert` and :meth:`delete` propagate base-fact deltas (sets of
    interned-id rows, as ``Database.add`` / ``remove`` return them)
    through the strata in dependency order and return the net derived
    deltas — per-tuple derivation counts for the non-recursive strata,
    DRed for the recursive ones (see the module docstring).  :meth:`rows`
    and :meth:`support` speak term rows; :meth:`ids` hands a reader the
    id store."""

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
        #: fires every rule; ungoverned, like the join loop it replaced
        self._engine = FixpointEngine(
            db, profiler=self.profiler, builtins=builtins, governor=False
        )
        self._interner = _batch.INTERNER
        #: maintained extensions, as the materializing fixpoint left them
        self._stored: dict[str, IdRelation] = {}
        #: per-tuple derivation counts, for predicates of non-recursive
        #: strata only (recursive predicates are maintained by DRed)
        self._counts: dict[str, Counter] = {}
        self._strata: list[_Stratum] = []
        #: base extensions minus rows the database already holds but the
        #: views have not been told about yet — see :meth:`delete`
        self._masked: dict[str, IdRelation] = {}
        self._validate_and_collect()

    # ------------------------------------------------------------ set-up

    def _validate_and_collect(self) -> None:
        why = _unsupported(self.program)
        if why is not None:
            raise KnowledgeBaseError(f"incremental maintenance does not support {why}")
        graph = DependencyGraph(self.program)
        graph.check_stratified()
        derived = {ref.name for ref in self.program.derived_predicates}
        for component in graph.evaluation_order():
            names = frozenset(ref.name for ref in component if ref.name in derived)
            if not names:
                continue  # base-only component
            recursive = len(component) > 1 or graph.is_recursive(
                next(iter(component))
            )
            rules = tuple(
                self._view_rule(rule, recursive)
                for rule in self.program if rule.head.predicate in names
            )
            self._strata.append(
                _Stratum(
                    names=names,
                    rules=rules,
                    recursive=recursive,
                    body_predicates=frozenset(
                        firing.predicate for rule in rules for firing in rule.firings
                    ),
                )
            )

    def _view_rule(self, rule: Rule, recursive: bool) -> _ViewRule:
        """*rule* scheduled every way maintenance fires it — decided once:
        the orders depend only on the rule and the builtin registry."""
        oracle = builtin_oracle(self.builtins)
        order, __ = exists_safe_order(rule.body, frozenset(), oracle)
        if order is None:  # pragma: no cover - validated earlier
            raise KnowledgeBaseError(f"rule '{rule}' has no safe order")
        body = tuple(rule.body[i] for i in order)
        schedule = self._engine.scheduled
        firings = []
        for position, literal in enumerate(body):
            if literal.is_comparison or builtin_for(literal, self.builtins) is not None:
                continue  # evaluated, not stored: no delta arrives here
            origin = self._delta_first_order(body, position, oracle)
            firings.append(_Firing(
                literal.predicate, position,
                schedule(Rule(rule.head, tuple(body[i] for i in origin)), reorder=False),
                origin.index(position), origin,
            ))
        in_order = Rule(rule.head, body)
        keyed = None
        if recursive:
            layout = _batch.key_layout(rule.head.args)
            if not isinstance(layout, str):
                entry = schedule(in_order, reorder=False, bound=layout.schema)
                if entry.plan is not None:
                    keyed = (layout, entry)
        return _ViewRule(
            rule.head.predicate, schedule(in_order, reorder=False), keyed, tuple(firings)
        )

    @staticmethod
    def _delta_first_order(
        body: tuple[Literal, ...], delta_position: int, oracle
    ) -> tuple[int, ...]:
        """Evaluation permutation of the safe body order that scans the
        literal at *delta_position* first; the plain safe order when no
        delta-first permutation is safe (e.g. the delta literal needs a
        built-in to bind an argument first)."""
        bound = frozenset().union(*map(variables_of, body[delta_position].args))
        back = [i for i in range(len(body)) if i != delta_position]
        order, __ = exists_safe_order([body[i] for i in back], bound, oracle)
        if order is None:
            return tuple(range(len(body)))
        return (delta_position,) + tuple(back[i] for i in order)

    def materialize(self) -> None:
        """Compute every derived predicate's extension — and, for the
        non-recursive strata, its per-tuple derivation counts — from
        scratch."""
        result = evaluate_program(
            self.db, self.program, profiler=self.profiler, builtins=self.builtins
        )
        # The fixpoint's own stores become the views: nothing is copied.
        self._stored = {
            ref.name: result.ids(ref.name) for ref in self.program.derived_predicates
        }
        counted = [stratum for stratum in self._strata if not stratum.recursive]
        self._counts = {name: Counter() for stratum in counted for name in stratum.names}
        for stratum in counted:
            for rule in stratum.rules:
                self._counts[rule.head].update(
                    self._engine.fire(rule.full, self._extension_at, counted=True)
                )

    # ------------------------------------------------------------ access

    def rows(self, predicate: str) -> frozenset[Row]:
        stored = self._stored.get(predicate)
        if stored is None:
            return frozenset()
        return self._interner.decode_rows(stored.rows)

    def ids(self, predicate: str) -> IdRelation | None:
        """The maintained extension in id space (None when *predicate* is
        not maintained) — to select from, never to hold across a write."""
        return self._stored.get(predicate)

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
        return counts[self._interner.lookup_row(row)]

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._stored

    # -------------------------------------------------------- rule firing

    def _extension(self, name: str):
        """What *name* denotes now: a view, a base relation (with the
        rows :meth:`delete` was asked to hide taken out), or nothing."""
        found = self._stored.get(name)
        if found is None:
            found = self._masked.get(name)
        if found is None:
            found = self.db.get(name)
        return found if found is not None else IdRelation(self._interner)

    def _extension_at(self, position: int, literal: Literal):
        return self._extension(literal.predicate)

    def _id_rows(self, name: str) -> "set[IdRow]":
        extension = self._extension(name)
        if not isinstance(extension, IdRelation):
            extension = extension.batch_store(self._interner)
        return extension.rows

    def _delta_stores(self, deltas: Deltas) -> dict[str, IdRelation]:
        """One store per delta, shared by every firing that reads it."""
        return {
            name: IdRelation(self._interner, rows=rows)
            for name, rows in deltas.items() if rows
        }

    def _fire_deltas(
        self,
        rule: _ViewRule,
        deltas: Mapping[str, IdRelation],
        old: "Callable[[str], IdRelation] | None" = None,
        inserting: bool = True,
        counted: bool = False,
    ):
        """Head rows derivable with one of *deltas* at one body position,
        over every position that carries one (*counted*: the multiset of
        derivations).  Without *old* the other positions read the current
        extensions.  With it the firing is finite-differenced: the
        telescoping split puts the delta at one position per pass and —
        for insertions — the *pre-update* extension (``old(name)``) at
        earlier delta-carrying positions and the post-update one at later
        ones (the mirror image for deletions), so every gained / lost
        body assignment is seen at exactly one pass even when it uses
        delta tuples at several positions: counts stay exact, and a rule
        carrying deltas at one position never asks for an old extension.
        """
        carrying = {f.position for f in rule.firings if f.predicate in deltas}
        out = Counter() if counted else set()
        for firing in rule.firings:
            delta = deltas.get(firing.predicate)
            if delta is None:
                continue

            def extension_at(step: int, literal: Literal):
                index = firing.origin[step]
                if (
                    old is not None
                    and index in carrying
                    and (index < firing.position) == inserting
                ):
                    return old(literal.predicate)
                return self._extension(literal.predicate)

            out.update(self._engine.fire(
                firing.entry, extension_at, firing.step, delta, counted=counted
            ))
        return out

    def _old_extensions(self, deltas: Deltas, inserting: bool) -> Callable[[str], IdRelation]:
        """Pre-update extensions of the predicates of *deltas*, each
        built when first asked for: what is there now without the
        inserted rows, or with the deleted ones put back."""
        memo: dict[str, IdRelation] = {}

        def old(name: str) -> IdRelation:
            cached = memo.get(name)
            if cached is None:
                now, delta = self._id_rows(name), deltas[name]
                cached = memo[name] = IdRelation(
                    self._interner, rows=now - delta if inserting else now | delta
                )
            return cached

        return old

    def _propagate(self, base_rows, counted, recursive) -> Deltas:
        """Walk the strata in dependency order, handing each the deltas
        that reach it and folding its own net delta in for the strata
        above; returns the derived deltas."""
        deltas: Deltas = {name: set(rows) for name, rows in base_rows.items() if rows}
        derived: Deltas = {}
        if not deltas:
            return derived
        for stratum in self._strata:
            relevant = {
                name: deltas[name] for name in stratum.body_predicates if deltas.get(name)
            }
            if not relevant:
                continue
            changed = (recursive if stratum.recursive else counted)(stratum, relevant)
            for name, rows in changed.items():
                if rows:
                    deltas[name] = rows
                    derived.setdefault(name, set()).update(rows)
        return derived

    # --------------------------------------------------------- insertions

    def insert(self, base_rows: Mapping[str, Iterable[IdRow]]) -> Deltas:
        """Propagate base-fact insertions (base predicate -> new id rows,
        all predicates of one update at once); returns the derived deltas.

        The base tuples must already be present in the database and must
        be genuinely new (the caller inserts them first and filters
        duplicates); this routine only updates the views.
        """
        return self._propagate(base_rows, self._insert_counted, self._insert_recursive)

    def _insert_counted(self, stratum: _Stratum, deltas: Deltas) -> Deltas:
        stores = self._delta_stores(deltas)
        old = self._old_extensions(deltas, inserting=True)
        fresh: Deltas = {}
        for rule in stratum.rules:
            gained = self._fire_deltas(rule, stores, old, inserting=True, counted=True)
            if not gained:
                continue
            head = rule.head
            counts = self._counts[head]
            new = {row for row in gained if not counts[row]}
            counts.update(gained)
            if new:
                self._stored[head].absorb(new)
                fresh.setdefault(head, set()).update(new)
        return fresh

    def _insert_recursive(self, stratum: _Stratum, external: Deltas) -> Deltas:
        """Semi-naive propagation from the delta: each round fires every
        rule once per delta-carrying position, against the accumulated
        extensions — never a from-scratch re-materialization."""
        fresh_all: Deltas = {}
        deltas = external
        while deltas:
            stores = self._delta_stores(deltas)
            deltas = {}
            for rule in stratum.rules:
                head = rule.head
                new = self._stored[head].absorb(self._fire_deltas(rule, stores))
                if new:
                    fresh_all.setdefault(head, set()).update(new)
                    deltas.setdefault(head, set()).update(new)
        return fresh_all

    # ---------------------------------------------------------- deletions

    def delete(
        self,
        base_rows: Mapping[str, Iterable[IdRow]],
        pending_inserts: Mapping[str, Iterable[IdRow]] | None = None,
    ) -> Deltas:
        """Propagate base-fact deletions (base predicate -> removed id
        rows, all predicates of one update at once); returns the net
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
        if not any(base_rows.values()):
            return {}
        for name, rows in (pending_inserts or {}).items():
            if rows:
                self._masked[name] = IdRelation(
                    self._interner, rows=self._id_rows(name) - set(rows)
                )
        try:
            return self._propagate(base_rows, self._delete_counted, self._delete_recursive)
        finally:
            self._masked.clear()

    def _delete_counted(self, stratum: _Stratum, deltas: Deltas) -> Deltas:
        stores = self._delta_stores(deltas)
        old = self._old_extensions(deltas, inserting=False)
        gone: Deltas = {}
        for rule in stratum.rules:
            lost = self._fire_deltas(rule, stores, old, inserting=False, counted=True)
            if not lost:
                continue
            head = rule.head
            counts = self._counts[head]
            counts.subtract(lost)
            # Support exhausted: a genuine deletion.  (A tuple with an
            # alternative derivation — through the same or a different
            # rule — still has positive support and never gets here.)
            dead = {row for row in lost if counts[row] <= 0}
            for row in dead:
                del counts[row]
            dead = self._stored[head].discard(dead)
            if dead:
                gone.setdefault(head, set()).update(dead)
        return gone

    def _delete_recursive(self, stratum: _Stratum, external: Deltas) -> Deltas:
        """DRed, scoped to one recursive stratum: over-delete against the
        pre-deletion extensions, then re-derive the survivors."""
        # Phase 1 — over-delete.  A deleted tuple may invalidate any
        # derivation that used it.  The first round fires the external
        # deltas (already applied to the database / the stored sets
        # below) finite-differenced as a deletion, which also catches a
        # derivation that used two deleted tuples at once; the stratum's
        # own extensions are untouched until the phase ends, so they
        # *are* the pre-deletion state for the rounds that follow.
        old = self._old_extensions(external, inserting=False)
        over: Deltas = {}
        deltas = external
        while deltas:
            stores = self._delta_stores(deltas)
            deltas = {}
            for rule in stratum.rules:
                head = rule.head
                produced = self._fire_deltas(rule, stores, old, inserting=False)
                suspects = over.setdefault(head, set())
                fresh = (produced & self._stored[head].rows) - suspects
                if fresh:
                    suspects |= fresh
                    deltas.setdefault(head, set()).update(fresh)
            old = None
        for name, suspects in over.items():
            self._stored[name].discard(suspects)

        # Phase 2 — re-derive survivors from what remains.  Every rule of
        # the stratum is consulted (to fixpoint), so a tuple whose
        # remaining derivation goes through a different rule than the one
        # that over-deleted it is put back.  Rederivation is seeded with
        # the still-missing candidates (see :meth:`_rederive`) — the cost
        # follows the over-deleted set, not the view size.
        changed = True
        while changed:
            changed = False
            for rule in stratum.rules:
                stored = self._stored[rule.head]
                missing = over[rule.head] - stored.rows
                if missing and stored.absorb(self._rederive(rule, missing)):
                    changed = True
        return {
            name: suspects - self._stored[name].rows for name, suspects in over.items()
        }

    def _rederive(self, rule: _ViewRule, candidates: "set[IdRow]") -> "set[IdRow]":
        """The subset of *candidates* derivable by *rule* under the
        current stored/base state.

        When the head's arguments lay out as keys (variables, repeated
        or not, and constants) the candidate rows are the rule's input
        batch: the body then probes its extensions with head-bound keys,
        so the cost follows the candidate set the way delta-first
        firings follow the delta.  A struct-with-variable head argument
        falls back to intersecting the rule's full derivation set."""
        if rule.keyed is None:
            return self._engine.fire(rule.full, self._extension_at) & candidates
        layout, entry = rule.keyed
        batch = _batch.key_batch(layout, candidates)
        if not batch[1]:
            return set()
        return self._engine.fire(entry, self._extension_at, batch=batch)
