"""Query-Subquery Nets: a top-down set-oriented recursive method.

QSQN (Nguyen & Cao, arXiv 1201.2564) evaluates an *adorned* clique
directly — no magic rewrite is shipped.  The net built from the adorned
rules has, per rule of ``n`` body literals, ``n+1`` *supplement* stores
(``sup_0`` holds the instantiations of the head's bound variables,
``sup_i`` the variables still needed after the first ``i`` literals),
plus per adorned predicate an *input* store of subquery keys and an
*answer* store of derived tuples.  Evaluation is a worklist of three
event kinds:

* ``sub`` — new subquery keys for an adorned predicate fire each of its
  rules, seeding ``sup_0`` through the head's bound arguments;
* ``sup`` — new rows in ``sup_i`` flow through body literal ``i`` (a
  join against a base/support extension, a comparison, a negation check,
  or — for a clique literal — the generation of new subqueries plus a
  join against the answers known so far) into ``sup_{i+1}``; rows
  leaving the last supplement become answers;
* ``ans`` — new answers for an adorned predicate re-join every
  supplement store blocked on it.

Rows are added to their store *when enqueued*, so a (supplement, answer)
pair is always covered by at least one of the two event directions —
never missed, at worst joined twice (set semantics absorbs the repeat).
Termination is by subsumption, which for ground tuples is set
membership: every store only grows inside finite domains, so the
worklist drains.

The interpreter prices this method via the supplementary-magic estimate
(both materialize the same supplements) scaled by
:attr:`repro.cost.model.CostParams.qsqn_weight`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import Iterable

from ..datalog.adorn import AdornedClique
from ..datalog.bindings import binds_after, head_bound_vars, sip_bindings, split_adorned_name
from ..datalog.literals import Literal
from ..datalog.rules import Program, Rule
from ..datalog.terms import Term, Variable
from ..datalog.unify import apply
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from .operators import (
    BindingsTable,
    Row,
    head_rows,
    keys_table,
    reference_step,
    scan_join,
)
from .profiler import Profiler


@dataclass(frozen=True, slots=True)
class _RuleNet:
    """The static net fragment of one adorned rule replica."""

    rule: Rule
    #: head argument patterns at the bound positions (the subquery key shape)
    key_patterns: tuple[Term, ...]
    #: supplement schemas: ``schemas[i]`` is the schema of ``sup_i``
    schemas: tuple[tuple[Variable, ...], ...]
    #: body positions holding positive clique literals, with the adorned
    #: predicate and its bound argument positions
    clique_positions: dict[int, tuple[str, tuple[int, ...]]]


class QSQNEngine:
    """Evaluates one adorned clique top-down by query-subquery nets."""

    def __init__(
        self,
        db,
        builtins=None,
        governor=None,
        profiler: Profiler | None = None,
        tracer=NULL_TRACER,
        metrics=None,
        support_engine=None,
    ):
        self.db = db
        self.builtins = builtins
        self.governor = governor
        self.profiler = profiler or Profiler()
        self.tracer = tracer
        self.metrics = metrics
        #: optional :class:`repro.engine.fixpoint.FixpointEngine` used to
        #: materialize support (non-clique derived) predicates
        self.support_engine = support_engine
        self.counters = {"subqueries": 0, "answers": 0, "events": 0}
        self._support_result = None

    # -------------------------------------------------------------- net

    def _build_net(self, adorned: AdornedClique) -> list[_RuleNet]:
        nets: list[_RuleNet] = []
        for adorned_rule in adorned.rules:
            rule = adorned_rule.rule
            if rule.is_aggregate:
                raise ExecutionError(
                    f"qsqn cannot evaluate aggregate rule '{rule}'"
                )
            head = rule.head
            pattern = adorned_rule.head_adornment
            key_patterns = tuple(head.args[i] for i in pattern.bound_positions)
            entries = sip_bindings(rule.body, head_bound_vars(head, pattern))
            # suffix[i] = variables still useful after literal i-1: the
            # head's plus everything the remaining literals mention.
            tail: frozenset[Variable] = frozenset(head.variables)
            suffix = [tail]
            for literal in reversed(rule.body):
                tail = tail | literal.variables
                suffix.append(tail)
            suffix.reverse()  # suffix[i] = head vars ∪ vars(body[i:])
            # sup_0 keeps every head-bound variable in first-occurrence order
            schemas: list[tuple[Variable, ...]] = [keys_table(key_patterns, ()).schema]
            for i, literal in enumerate(rule.body):
                bound = binds_after(literal, entries[i])
                schemas.append(tuple(sorted(bound & suffix[i + 1], key=lambda v: v.name)))
            clique_positions: dict[int, tuple[str, tuple[int, ...]]] = {}
            for i, literal in enumerate(rule.body):
                if literal.is_comparison or literal.negated:
                    if literal.negated and literal.predicate in adorned.adorned_predicates:
                        raise ExecutionError(
                            f"qsqn cannot evaluate negated clique literal {literal}"
                        )
                    continue
                if literal.predicate in adorned.adorned_predicates:
                    __, literal_pattern = split_adorned_name(literal.predicate)
                    assert literal_pattern is not None
                    clique_positions[i] = (
                        literal.predicate,
                        literal_pattern.bound_positions,
                    )
            nets.append(
                _RuleNet(
                    rule=rule,
                    key_patterns=key_patterns,
                    schemas=tuple(schemas),
                    clique_positions=clique_positions,
                )
            )
        return nets

    # -------------------------------------------------------- extensions

    def _support_rows(self, support: Program, name: str) -> Iterable[Row]:
        if self._support_result is None:
            if self.support_engine is not None:
                engine = self.support_engine
            else:
                from .fixpoint import FixpointEngine

                engine = FixpointEngine(
                    self.db,
                    profiler=self.profiler,
                    builtins=self.builtins,
                    governor=self.governor if self.governor is not None else False,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
            self._support_result = engine.evaluate(support)
        return self._support_result.rows(name)

    # -------------------------------------------------------------- solve

    def solve(
        self,
        adorned: AdornedClique,
        support: Program,
        seeds: Iterable[Row],
    ) -> frozenset[Row]:
        """All tuples of ``adorned.query_predicate`` reachable from *seeds*.

        *seeds* are subquery keys: tuples of ground values for the query
        adornment's bound positions (the empty tuple for an all-free
        query).  *support* defines the non-clique derived predicates the
        bodies reference; it is materialized lazily, at most once.
        """
        nets = self._build_net(adorned)
        rules_for: dict[str, list[int]] = {}
        for index, net in enumerate(nets):
            rules_for.setdefault(net.rule.head.predicate, []).append(index)
        consumers: dict[str, list[tuple[int, int]]] = {}
        for index, net in enumerate(nets):
            for position, (predicate, __) in net.clique_positions.items():
                consumers.setdefault(predicate, []).append((index, position))
        support_heads = {rule.head.predicate for rule in support}

        inputs: dict[str, set[Row]] = {name: set() for name in adorned.adorned_predicates}
        answers: dict[str, set[Row]] = {name: set() for name in adorned.adorned_predicates}
        sups: list[list[set[Row]]] = [
            [set() for __ in net.schemas] for net in nets
        ]

        queue: deque[tuple] = deque()
        query_predicate = adorned.query_predicate
        seed_keys = frozenset(tuple(row) for row in seeds)
        inputs.setdefault(query_predicate, set()).update(seed_keys)
        if seed_keys:
            self.counters["subqueries"] += len(seed_keys)
            queue.append(("sub", query_predicate, seed_keys))

        def extension_of(literal: Literal) -> Iterable[Row]:
            name = literal.predicate
            if name in support_heads:
                return self._support_rows(support, name)
            return self.db.relation(name).rows

        def enqueue_sup(rule_index: int, position: int, table: BindingsTable) -> None:
            net = nets[rule_index]
            projected = table.project(net.schemas[position])
            store = sups[rule_index][position]
            fresh = projected.rows - store
            if not fresh:
                return
            store.update(fresh)
            queue.append(("sup", rule_index, position, fresh))

        def apply_literal(
            rule_index: int, position: int, table: BindingsTable
        ) -> BindingsTable:
            net = nets[rule_index]
            literal = net.rule.body[position]
            if position in net.clique_positions:
                predicate, bound_positions = net.clique_positions[position]
                new_keys: set[Row] = set()
                store = inputs[predicate]
                for subst in table.substitutions():
                    key = tuple(apply(literal.args[i], subst) for i in bound_positions)
                    if key not in store:
                        new_keys.add(key)
                if new_keys:
                    store.update(new_keys)
                    self.counters["subqueries"] += len(new_keys)
                    queue.append(("sub", predicate, frozenset(new_keys)))
                return scan_join(
                    table, literal, frozenset(answers[predicate]), "hash",
                    self.profiler, governor=self.governor,
                )
            return reference_step(
                table, literal, extension_of, "hash",
                self.profiler, self.governor, self.builtins,
            )

        with self.tracer.span(f"qsqn:{query_predicate}", kind="qsqn") as span:
            while queue:
                event = queue.popleft()
                self.counters["events"] += 1
                if self.governor is not None:
                    self.governor.soft_checkpoint("qsqn:event")
                if event[0] == "sub":
                    __, predicate, keys = event
                    for rule_index in rules_for.get(predicate, ()):
                        # sup_0's schema: the key variables, first occurrence
                        table = keys_table(nets[rule_index].key_patterns, keys)
                        if table.rows:
                            enqueue_sup(rule_index, 0, table)
                elif event[0] == "sup":
                    __, rule_index, position, rows = event
                    net = nets[rule_index]
                    table = BindingsTable.from_rows(net.schemas[position], rows)
                    if position == len(net.rule.body):
                        head = net.rule.head
                        derived = head_rows(
                            table, head, self.profiler, governor=self.governor
                        )
                        store = answers[head.predicate]
                        fresh_rows = frozenset(derived) - store
                        if fresh_rows:
                            store.update(fresh_rows)
                            self.counters["answers"] += len(fresh_rows)
                            queue.append(("ans", head.predicate, fresh_rows))
                    else:
                        enqueue_sup(
                            rule_index, position + 1, apply_literal(rule_index, position, table)
                        )
                else:  # "ans"
                    __, predicate, rows = event
                    for rule_index, position in consumers.get(predicate, ()):
                        net = nets[rule_index]
                        store = sups[rule_index][position]
                        if not store:
                            continue
                        table = BindingsTable.from_rows(net.schemas[position], store)
                        literal = net.rule.body[position]
                        joined = scan_join(
                            table, literal, rows, "hash",
                            self.profiler, governor=self.governor,
                        )
                        enqueue_sup(rule_index, position + 1, joined)
                if self.governor is not None:
                    self.governor.settle(
                        sum(len(store) for store in answers.values())
                    )
            span.note(
                subqueries=self.counters["subqueries"],
                answers=self.counters["answers"],
                events=self.counters["events"],
            )
        if self.metrics is not None:
            self.metrics.inc("qsqn_subqueries_total", self.counters["subqueries"])
            self.metrics.inc("qsqn_answers_total", self.counters["answers"])
            self.metrics.inc("qsqn_events_total", self.counters["events"])
        # The query predicate's answer store also holds answers to the
        # *internal* subqueries recursion spawned; only rows matching the
        # seeds answer the caller's question.
        bound_positions = adorned.query_adornment.bound_positions
        return frozenset(
            row for row in answers[query_predicate]
            if tuple(row[i] for i in bound_positions) in seed_keys
        )
