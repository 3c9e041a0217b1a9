"""Incremental maintenance of materialized views (counting + DRed).

LDL includes updates among its constructs ([NK] in the paper's
references); the evaluation side's companion keeps a materialized
derived relation consistent under fact insertions and deletions
without recomputation.  Per stratum of the dependency graph:

* **counting** — a non-recursive stratum tracks, per derived tuple, its
  number of distinct immediate derivations.  A delta is
  finite-differenced through each rule (delta at one body position,
  pre-update extensions on one side, post-update on the other, so every
  new or lost derivation is counted once); support ``0 -> n`` is a
  genuine insert, ``n -> 0`` a genuine delete, and a tuple with another
  derivation, through any rule, keeps a positive count;
* **DRed** (delete-and-rederive) — a recursive stratum over-deletes
  every held tuple with a suspect derivation, evaluated against the
  *pre-deletion* extensions (post-deletion state would miss derivations
  that used two deleted tuples at once, e.g. a row joined with itself),
  leaving the views untouched.  Rederivation is one *witness* pass:
  each rule fires once, entered with the suspects of its head, against
  the post-delete base and those views; a witness row is a derivation's
  head plus its body rows over the stratum.  A witness with no suspect
  in its body proves its head; any other proves it once each of its
  distinct suspects is proved (unit propagation).  The proved suspects
  are the least fixpoint of the rules over the views minus the
  suspects — exactly what DRed's discard-then-rederive loop re-adds —
  so mutually supporting suspects on a cycle stay lost, and only the
  unproved suspects are discarded.  Insertions propagate semi-naively.

Both directions touch only the strata downstream of the mutated
relation and do work proportional to the deltas flowing through them.

Stratified negation and grouping (LDL++ maintains both stratum by
stratum) ride the same routines.  ``~q(...)`` reads as a positive
literal over q's complement: an insert into q is a *loss* there and a
delete a *gain*, so each negated literal gets a firing that joins q's
delta positively, delta first, with the opposite sign; a stratum's net
delta is signed.  An **aggregate rule** fires with a projection head
(grouping arguments, then aggregated variables), counted, into the
rule's :class:`~repro.engine.batch.GroupFolds`: a group keeps its
derivation count and an exact running total per ``sum`` / ``avg``,
``min_of`` / ``max_of`` re-fold only the touched groups through a
firing keyed on the group key, and a changed group's old row goes out
as a delete and its new one as an insert.

A rule is *fired* by :meth:`~repro.engine.fixpoint.FixpointEngine.fire`,
the fixpoint's own routine: scheduled once per body position a delta
can arrive at, that literal first, and lowered to columnar steps.  All
in id space: an extension is the :class:`~repro.storage.columnar.IdRelation`
the materializing fixpoint left, a delta the id rows ``Database.add`` /
``remove`` returned.

Restrictions: the program must be stratified, and an aggregate rule may
not define a recursive predicate.  :class:`ViewSet` enforces both.
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
from .batch import GroupFolds, builtin_for
from .fixpoint import FixpointEngine, _ScheduledRule, evaluate_program
from .profiler import Profiler

Row = tuple[Term, ...]
Deltas = dict[str, set[IdRow]]
#: per predicate, the id rows it gained and the id rows it lost
Signed = dict[str, tuple[set[IdRow], set[IdRow]]]


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
    #: fired as the positive form of a negated literal: inserts lose
    negated: bool


class _ViewRule(NamedTuple):
    #: the head predicate
    head: str
    #: the body in safe order with nothing driving it: materialization's
    #: counts, and the order of the keyed and witness forms
    full: _ScheduledRule
    #: a ``min_of`` / ``max_of`` rule entered with group keys, to re-fold
    #: the touched groups (:meth:`ViewSet._keyed_form`)
    keyed: "tuple | None"
    firings: tuple[_Firing, ...]
    #: an aggregate rule's groups (its entries carry the projection head)
    group: "GroupFolds | None" = None


class _Stratum(NamedTuple):
    """One SCC of the maintained program's derived predicates, in
    topological (callees-first) order."""

    names: frozenset[str]
    rules: tuple[_ViewRule, ...]
    recursive: bool
    #: non-comparison, non-builtin body predicate names across the rules
    #: — the predicates whose deltas can reach this stratum
    body_predicates: frozenset[str]


def _unsupported(rules: Iterable[Rule], graph: DependencyGraph) -> str | None:
    """What among *rules* incremental maintenance cannot keep, if anything."""
    recursive = [r.head_ref for r in rules if r.is_aggregate and graph.is_recursive(r.head_ref)]
    return f"an aggregate rule of the recursive predicate {recursive[0]}" if recursive else None


def maintainable_cone(program: Program, goal: PredicateRef) -> Program | None:
    """The rules a query of the derived *goal* reads (its dependency cone),
    when a :class:`ViewSet` can maintain them; None otherwise."""
    graph = DependencyGraph(program)
    cone = graph.reachable_from(goal)
    rules = [rule for rule in program if rule.head_ref in cone]
    return None if _unsupported(rules, graph) or goal not in {r.head_ref for r in rules} else Program(rules)


class ViewSet:
    """Materialized extensions of derived predicates, kept incrementally
    consistent with the fact base.

    :meth:`insert` and :meth:`delete` propagate base-fact deltas (sets of
    interned-id rows, as ``Database.add`` / ``remove`` return them)
    through the strata in dependency order and return the derived rows
    that changed — per-tuple derivation counts for the non-recursive
    strata, DRed for the recursive ones (see the module docstring).
    :meth:`rows` and :meth:`support` speak term rows; :meth:`ids` hands
    a reader the id store."""

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
        #: per recursive stratum, its rules' witness forms
        self._witnesses: dict[frozenset[str], tuple] = {}
        self._validate_and_collect()

    # ------------------------------------------------------------ set-up

    def _validate_and_collect(self) -> None:
        graph = DependencyGraph(self.program)
        graph.check_stratified()
        why = _unsupported(self.program, graph)
        if why is not None:
            raise KnowledgeBaseError(f"incremental maintenance does not support {why}")
        derived = {ref.name for ref in self.program.derived_predicates}
        for component in graph.evaluation_order():
            names = frozenset(ref.name for ref in component if ref.name in derived)
            if not names:
                continue  # base-only component
            recursive = len(component) > 1 or graph.is_recursive(next(iter(component)))
            rules = tuple(self._view_rule(r) for r in self.program if r.head.predicate in names)
            body = frozenset(firing.predicate for rule in rules for firing in rule.firings)
            self._strata.append(_Stratum(names, rules, recursive, body))

    def _view_rule(self, rule: Rule) -> _ViewRule:
        """*rule* scheduled every way maintenance fires it — decided once:
        the orders depend only on the rule and the builtin registry."""
        oracle = builtin_oracle(self.builtins)
        order, __ = exists_safe_order(rule.body, frozenset(), oracle)
        if order is None:  # pragma: no cover - validated earlier
            raise KnowledgeBaseError(f"rule '{rule}' has no safe order")
        body = tuple(rule.body[i] for i in order)
        head, group, keys = rule.head, None, None
        if rule.is_aggregate:
            group = GroupFolds(head, self._interner)
            head = group.projection
            if group.picks:
                keys = head.args[:group.width]
        schedule = self._engine.scheduled
        firings = []
        for position, literal in enumerate(body):
            if literal.is_comparison or (
                not literal.negated and builtin_for(literal, self.builtins) is not None
            ):
                continue  # evaluated, not stored: no delta arrives here
            driven = body[:position] + (literal.positive(),) + body[position + 1:]
            origin = self._delta_first_order(driven, position, oracle)
            firings.append(_Firing(
                literal.predicate, position,
                schedule(Rule(head, tuple(driven[i] for i in origin)), reorder=False),
                origin.index(position), origin, literal.negated,
            ))
        in_order = Rule(head, body)
        return _ViewRule(
            rule.head.predicate, schedule(in_order, reorder=False),
            None if keys is None else self._keyed_form(keys, in_order),
            tuple(firings), group,
        )

    def _keyed_form(self, keys: tuple, rule: Rule) -> tuple:
        """*rule* entered with ground rows for *keys*, its head's leading
        arguments, as its input batch."""
        layout = _batch.key_layout(keys)
        return layout, self._engine.scheduled(rule, reorder=False, bound=layout.schema)

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
        non-recursive strata, its per-tuple derivation counts and an
        aggregate rule's groups — from scratch."""
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
                found = self._engine.fire(rule.full, self._extension_at, counted=True)
                if rule.group is not None:
                    rule.group.state.clear()
                    found = rule.group.fold(found, lambda keys: self._fire_keyed(rule.keyed, keys))
                self._counts[rule.head].update(found)

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

    def size(self) -> int:
        """The rows held across every maintained predicate."""
        return sum(map(len, self._stored.values()))

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
        """The id store *name* denotes now: a view, a base relation's
        (with the rows :meth:`delete` was asked to hide taken out), or
        an empty one."""
        found = self._stored.get(name)
        if found is None:
            found = self._masked.get(name)
        if found is None:
            found = self.db.get(name)
            return IdRelation(self._interner) if found is None else found.batch_store(self._interner)
        return found

    def _extension_at(self, position: int, literal: Literal):
        return self._extension(literal.predicate)

    def _delta_stores(self, deltas: Signed) -> dict:
        """One store per delta side, shared by every firing that reads it."""
        store = lambda rows: IdRelation(self._interner, rows=rows) if rows else None  # noqa: E731
        return {name: (store(gained), store(lost)) for name, (gained, lost) in deltas.items()}

    def _fire_deltas(
        self,
        rule: _ViewRule,
        deltas: Mapping[str, "tuple[IdRelation | None, IdRelation | None]"],
        old: "Callable[[str], IdRelation] | None" = None,
        inserting: bool = True,
        effect: int = 0,
    ):
        """Head rows derivable with one of *deltas* at one body position,
        over every position that carries one: with *effect* 0 the signed
        multiset of derivations gained (+) and lost (-), with +1 / -1 the
        rows of the firings with that effect (a positive literal's inserts
        and a negated one's deletes gain).  With *old* the firing is
        finite-differenced: the delta at one position per pass, the
        pre-update extension ``old(name)`` at earlier delta-carrying
        positions and the current one at later ones (mirrored when not
        *inserting*), so each gained / lost body assignment is seen once."""
        carrying = {f.position for f in rule.firings if f.predicate in deltas}
        out, fire = set() if effect else Counter(), self._engine.fire
        for firing in rule.firings:
            sides = deltas.get(firing.predicate)
            if sides is None:
                continue
            extension_at = self._extension_at
            if old is not None:
                def extension_at(step: int, literal: Literal, firing=firing):
                    index = firing.origin[step]
                    if index in carrying and (index < firing.position) == inserting:
                        return old(literal.predicate)
                    return self._extension(literal.predicate)

            if effect:  # side 0 (inserts) gains at a positive literal, side 1 at a negated one
                delta = sides[firing.negated != (effect < 0)]
                if delta is not None:
                    out.update(fire(firing.entry, extension_at, firing.step, delta))
                continue
            for side, delta in enumerate(sides):
                if delta is not None:
                    fired = fire(firing.entry, extension_at, firing.step, delta, counted=True)
                    (out.update if side == firing.negated else out.subtract)(fired)
        return out

    def _old_extensions(self, deltas: Signed) -> Callable[[str], IdRelation]:
        """Pre-update extensions of the predicates of *deltas*, each
        built when first asked for: what is there now without the rows
        gained, with the ones lost put back."""
        memo: dict[str, IdRelation] = {}

        def old(name: str) -> IdRelation:
            if name not in memo:
                gained, lost = deltas[name]
                memo[name] = IdRelation(self._interner, rows=(self._extension(name).rows - gained) | lost)
            return memo[name]

        return old

    def _fire_keyed(self, form: tuple, keys: "set[IdRow]") -> "set[IdRow]":
        """The rows *form*'s rule (:meth:`_keyed_form`) derives now whose
        leading fields are one of *keys*.  Keyed, the body probes its
        extensions with head-bound keys, so the cost follows the keys the
        way delta-first firings follow the delta."""
        layout, entry = form
        batch = _batch.key_batch(layout, keys)
        return self._engine.fire(entry, self._extension_at, batch=batch) if batch[1] else set()

    def _propagate(self, base_rows, inserting: bool) -> Deltas:
        """Walk the strata in dependency order, handing each the deltas
        that reach it and folding its own net delta in for the strata
        above; returns the derived rows that changed."""
        deltas: Signed = {
            name: (set(rows), set()) if inserting else (set(), set(rows))
            for name, rows in base_rows.items() if rows
        }
        derived: Deltas = {}
        for stratum in self._strata:
            relevant = {name: deltas[name] for name in stratum.body_predicates if name in deltas}
            if not relevant:
                continue
            apply = self._recursive if stratum.recursive else self._counted
            for name, (gained, lost) in apply(stratum, relevant, inserting).items():
                if gained or lost:
                    deltas[name] = (gained, lost)
                    derived.setdefault(name, set()).update(gained, lost)
        return derived

    # ------------------------------------------------------------ updates

    def insert(self, base_rows: Mapping[str, Iterable[IdRow]]) -> Deltas:
        """Propagate base-fact insertions (base predicate -> new id rows,
        already in the database and genuinely new; all predicates of one
        update at once); returns per changed derived predicate the id rows
        it gained or lost, either way (above a negation an insert
        removes): the ledger's ``engine.view_delta_rows``."""
        return self._propagate(base_rows, inserting=True)

    def delete(
        self,
        base_rows: Mapping[str, Iterable[IdRow]],
        pending_inserts: Mapping[str, "set[IdRow]"] | None = None,
    ) -> Deltas:
        """Propagate base-fact deletions (base predicate -> id rows
        already removed from the database); returns the derived rows that
        changed, as :meth:`insert` does.  All of an update's deletions
        must arrive in one call: over-deletion reconstructs the
        pre-deletion extensions from the complete delta.
        *pending_inserts* names base tuples the database holds but
        :meth:`insert` has not been told of yet (a committing transaction
        that both retracted and inserted); they are hidden meanwhile, so
        a derivation pairing a deleted tuple with one the views never
        counted is not subtracted."""
        if not any(base_rows.values()):
            return {}
        for name, rows in (pending_inserts or {}).items():
            if rows:
                self._masked[name] = IdRelation(self._interner, rows=self._extension(name).rows - rows)
        try:
            return self._propagate(base_rows, inserting=False)
        finally:
            self._masked.clear()

    def _counted(self, stratum: _Stratum, deltas: Signed, inserting: bool) -> Signed:
        """A non-recursive stratum: the signed telescope moves each head
        row's support; ``0 -> n`` is a genuine insert, ``n -> 0`` a delete."""
        stores, old = self._delta_stores(deltas), self._old_extensions(deltas)
        moved: dict[str, Counter] = {}
        for rule in stratum.rules:
            fired = self._fire_deltas(rule, stores, old, inserting)
            if fired and rule.group is not None:
                fired = rule.group.fold(fired, lambda keys: self._fire_keyed(rule.keyed, keys))
            if fired:
                moved.setdefault(rule.head, Counter()).update(fired)
        out: Signed = {}
        for head, change in moved.items():
            counts = self._counts[head]
            gained, lost = set(), set()
            for row, n in change.items():
                before = counts[row]
                after = counts[row] = before + n
                if after <= 0:
                    del counts[row]
                if before <= 0 < after:
                    gained.add(row)
                elif after <= 0 < before:
                    lost.add(row)
            stored = self._stored[head]
            out[head] = (stored.absorb(gained), stored.discard(lost))
        return out

    def _spread(self, stratum: _Stratum, deltas, effect: int, old=None, inserting=True) -> Deltas:
        """Rounds of one *effect*'s firings, each round's new rows the next
        one's delta: the held rows over-deletion suspects (-1; extensions
        left as they are) or the rows insertion adds (+1)."""
        reached: Deltas = {name: set() for name in stratum.names}
        firings = [f for rule in stratum.rules for f in rule.firings if f.predicate in deltas]
        if not any(deltas[f.predicate][f.negated != (effect < 0)] for f in firings):
            return reached  # no delta of this effect reaches the stratum
        while deltas:
            fresh_by: Deltas = {}
            for rule in stratum.rules:
                produced = self._fire_deltas(rule, deltas, old, inserting, effect)
                stored, seen = self._stored[rule.head], reached[rule.head]
                fresh = (produced & stored.rows) - seen if effect < 0 else stored.absorb(produced)
                if fresh:
                    seen |= fresh
                    fresh_by.setdefault(rule.head, set()).update(fresh)
            deltas = self._delta_stores({
                name: ((), rows) if effect < 0 else (rows, ()) for name, rows in fresh_by.items()
            })
            old = None
        return reached

    def _witness_form(self, names: frozenset[str], rule: _ViewRule) -> tuple:
        """*rule* firing its witnesses: the head's arguments, then those of
        each positive body literal over a predicate of *names* (the spans
        say where), entered with candidate head rows as its input batch."""
        head, body = rule.full.rule.head, rule.full.rule.body
        args, spans = list(head.args), []
        for literal in body:
            if not literal.negated and literal.predicate in names:
                spans.append((literal.predicate, len(args), len(args) + literal.arity))
                args += literal.args
        witness = Rule(Literal(head.predicate, tuple(args)), body)
        return self._keyed_form(head.args, witness), tuple(spans)

    def _unproved(self, stratum: _Stratum, suspects: Deltas) -> Deltas:
        """The *suspects* no derivation supports once they are gone: one
        witness firing per rule against the untouched views, then unit
        propagation — a witness with no suspect among its stratum body
        rows proves its head, any other proves it once each of its
        distinct suspects is proved.  The proved rows are the least
        fixpoint of the rules over the views minus the suspects (what
        DRed's rederivation re-adds), so suspects that only support each
        other through a cycle stay unproved."""
        forms = self._witnesses.get(stratum.names)
        if forms is None:  # scheduled at the stratum's first delete
            forms = self._witnesses[stratum.names] = tuple(
                self._witness_form(stratum.names, rule) for rule in stratum.rules
            )
        waiting: dict[tuple[str, IdRow], list] = {}
        ready: list[tuple[str, IdRow]] = []
        for rule, (form, spans) in zip(stratum.rules, forms):
            width = rule.full.rule.head.arity
            for w in self._fire_keyed(form, suspects[rule.head]):
                need = {(name, w[a:b]) for name, a, b in spans if w[a:b] in suspects[name]}
                count = [len(need), (rule.head, w[:width])]
                for suspect in need:
                    waiting.setdefault(suspect, []).append(count)
                if not need:
                    ready.append(count[1])
        lost = {name: set(rows) for name, rows in suspects.items()}
        while ready:
            name, row = suspect = ready.pop()
            if row in lost[name]:
                lost[name].remove(row)
                for count in waiting.pop(suspect, ()):
                    count[0] -= 1
                    if not count[0]:
                        ready.append(count[1])
        return lost

    def _recursive(self, stratum: _Stratum, external: Signed, inserting: bool) -> Signed:
        """A recursive stratum: DRed for the losses its external deltas
        carry, then semi-naive propagation of the gains."""
        stores = self._delta_stores(external)
        # Over-delete.  A lost tuple (a positive literal's delete, a
        # negated literal's insert) may invalidate any derivation that
        # used it.  The first round fires the external losses (already
        # applied to the database / the stored sets below)
        # finite-differenced, which also catches a derivation that used
        # two lost tuples at once; the stratum's own extensions stay
        # untouched, so they *are* the pre-deletion state throughout.
        over = self._spread(stratum, stores, -1, self._old_extensions(external), inserting)
        # Rederive in one witness pass over the suspects, then discard,
        # once, only the ones no witness supports: what DRed would have
        # left out after discarding every suspect and re-deriving to
        # fixpoint.  Every rule of the stratum is consulted, so a tuple
        # whose remaining derivation goes through another rule survives;
        # ``~q`` is checked against the new state.
        lost = self._unproved(stratum, over) if any(over.values()) else over
        for name, rows in lost.items():
            if rows:
                self._stored[name].discard(rows)
        # Propagate the gains (a positive literal's inserts, a negated
        # literal's deletes) semi-naively from the delta: each round
        # fires every rule once per delta-carrying position, against the
        # accumulated extensions — never a from-scratch re-materialization.
        added = self._spread(stratum, stores, 1)
        held = self._stored  # a row lost and added back did not change
        return {name: (added[name] - rows if rows else added[name], rows - held[name].rows)
                for name, rows in lost.items()}
