"""A tabled top-down (SLD) evaluator — the Prolog-side comparison point.

The paper frames the LDL optimizer *against* Prolog's strategy: "Prolog
visits and expands the rule goals in a strictly lexicographical order;
thus, it is up to the programmer to make sure that this order leads to a
safe and efficient execution."  This module implements that strategy
faithfully enough to compare against:

* goals resolve **top-down, left to right, in textual rule order** — no
  reordering, no cost model;
* **tabling** (memoized subgoals, iterated to fixpoint) replaces
  Prolog's unbounded depth-first search so that left-recursive programs
  terminate — the classical result that tabled top-down evaluation
  computes the same answers as bottom-up evaluation with magic sets, and
  with comparable work (benchmark EXP-10 measures exactly this);
* with ``tabling=False`` the evaluator is plain SLD with a depth guard,
  which demonstrates the non-termination Prolog suffers on
  left-recursive rules (it raises instead of looping forever).

Subgoals are tabled by *variant*: the call's bound arguments ground, its
free arguments canonicalized.  Completion uses the simple iterate-to-
fixpoint discipline (re-run until no table grows) rather than full SLG
scheduling — quadratically more rounds in the worst case, but compact
and obviously correct, which is what a comparison baseline needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..datalog.builtins import BuiltinRegistry
from ..datalog.graph import DependencyGraph
from ..datalog.literals import Literal, pred_ref
from ..datalog.rules import Program, Rule
from ..datalog.terms import Term, Variable, is_ground
from ..datalog.unify import Substitution, apply, match, unify, unify_sequences
from ..errors import ExecutionError
from ..obs.tracer import NULL_TRACER
from ..storage.catalog import Database
from .evaluable import solve_comparison
from .governor import ResourceGovernor
from .profiler import Profiler

Row = tuple[Term, ...]


def _canonical_call(literal: Literal, subst: Substitution) -> tuple:
    """The variant key of a call: ground where bound, numbered holes
    where free (two calls differing only in free-variable names share a
    table)."""
    holes: dict[Variable, int] = {}

    def canon(term: Term):
        term = apply(term, subst)
        if is_ground(term):
            return ("g", term)
        if isinstance(term, Variable):
            if term not in holes:
                holes[term] = len(holes)
            return ("v", holes[term])
        return ("s", term.functor, tuple(canon(a) for a in term.args))  # type: ignore[union-attr]

    return (literal.predicate, tuple(canon(arg) for arg in literal.args))


@dataclass
class _Table:
    answers: set[Row] = field(default_factory=set)
    complete: bool = False


class TopDownEngine:
    """Tabled SLD resolution over a program and fact base."""

    def __init__(
        self,
        db: Database,
        program: Program,
        builtins: BuiltinRegistry | None = None,
        profiler: Profiler | None = None,
        tabling: bool = True,
        max_depth: int = 2_000,
        governor: ResourceGovernor | None = None,
        tracer=NULL_TRACER,
    ):
        self.db = db
        self.program = program
        self.builtins = builtins
        self.profiler = profiler or Profiler()
        self.tabling = tabling
        self.max_depth = max_depth
        self.governor = governor
        self.tracer = tracer
        if governor is not None and governor.profiler is None:
            governor.profiler = self.profiler
        if governor is not None and tracer.enabled and governor.tracer is None:
            governor.tracer = tracer
        self._tables: dict[tuple, _Table] = {}
        self._fresh = itertools.count()
        self._graph: DependencyGraph | None = None
        self._closures: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------- public

    def solve(self, goal: Literal) -> frozenset[Row]:
        """All ground argument tuples satisfying *goal* (its free
        variables range over the answers)."""
        if self.governor is not None:
            self.governor.arm()
        self.tracer.attach(self.profiler)
        # The span sits at this non-generator boundary only: resolution
        # below is generator-driven, and suspended generators would
        # interleave span open/close out of tree order.
        with self.tracer.span(f"sld:{goal.predicate}", kind="sld") as span:
            span.note(tabling=self.tabling)
            try:
                if self.tabling:
                    # iterate to fixpoint: re-derive until no table grows
                    while True:
                        for table in self._tables.values():
                            table.complete = False
                        before = self._total_answers()
                        rows = self._goal_rows(goal)
                        if self._total_answers() == before:
                            return frozenset(rows)
                return frozenset(self._goal_rows(goal))
            except RecursionError:
                # the Python stack ran out before max_depth: same diagnosis
                raise ExecutionError(
                    "SLD resolution exhausted the stack "
                    "(left recursion without tabling?)"
                ) from None

    def _total_answers(self) -> int:
        return sum(len(t.answers) for t in self._tables.values())

    def _goal_rows(self, goal: Literal) -> set[Row]:
        """One pass over the goal's derivations, ground answers only.

        A non-ground answer means a head variable the body never bound —
        a rule outside the range-restricted fragment.  The bottom-up
        engines refuse such rules at execution time; raising the same
        diagnosis here keeps the strategies behaviourally aligned instead
        of silently returning rows containing variables.
        """
        rows: set[Row] = set()
        for subst in self._solve_literal(goal, {}, 0):
            row = tuple(apply(arg, subst) for arg in goal.args)
            if not all(is_ground(term) for term in row):
                raise ExecutionError(
                    f"goal {goal} derived non-ground answer {row} — rule "
                    "head not fully bound by body (unsafe execution)"
                )
            rows.add(row)
        return rows

    # -------------------------------------------------------- resolution

    def _solve_literal(
        self, literal: Literal, subst: Substitution, depth: int
    ) -> Iterator[Substitution]:
        if self.governor is not None:
            self.governor.tick()
        if depth > self.max_depth:
            raise ExecutionError(
                f"SLD resolution exceeded depth {self.max_depth} "
                f"(left recursion without tabling?)"
            )
        if literal.is_comparison:
            solved = solve_comparison(literal, subst)
            self.profiler.bump_examined()
            if solved is not None:
                yield solved
            return
        if literal.negated:
            inner = literal.positive()
            applied = tuple(apply(arg, subst) for arg in inner.args)
            for arg in applied:
                if not is_ground(arg):
                    raise ExecutionError(
                        f"negated goal {literal} entered with unbound arguments"
                    )
            self.profiler.bump_examined()
            if self._negation_holds(Literal(inner.predicate, applied), depth + 1):
                yield subst
            return
        if self.builtins is not None:
            builtin = self.builtins.get(literal.predicate)
            if builtin is not None and builtin.arity == literal.arity:
                applied = tuple(apply(arg, subst) for arg in literal.args)
                self.profiler.bump_probes()
                for produced in builtin.evaluate(applied):
                    self.profiler.bump_examined()
                    extended: Substitution | None = subst
                    for pattern, value in zip(literal.args, produced):
                        extended = match(apply(pattern, extended), value, extended)
                        if extended is None:
                            break
                    if extended is not None:
                        yield extended
                return

        relation = self.db.get(literal.predicate)
        if relation is not None:
            yield from self._scan_facts(literal, subst, relation)
            return

        rules = self.program.rules_for(pred_ref(literal))
        if not rules:
            raise ExecutionError(f"unknown predicate {literal.predicate!r}")
        if self.governor is not None:
            # A named site on every rule resolution: fault plans target
            # sld:<predicate>, and the checkpoint observes deadlines and
            # cancellation between tick intervals.
            self.governor.checkpoint(f"sld:{literal.predicate}")
        if self.tabling:
            yield from self._solve_tabled(literal, subst, rules, depth)
        else:
            yield from self._expand_rules(literal, subst, rules, depth)

    def _scan_facts(
        self, literal: Literal, subst: Substitution, relation
    ) -> Iterator[Substitution]:
        # Facts are read from the relation's id store in stored order: the
        # order answers reach a table decides how many passes tabling
        # takes, so a term-set order (one per string-hash seed) would make
        # the work differ from run to run.
        applied = [apply(arg, subst) for arg in literal.args]
        bound = tuple(i for i, a in enumerate(applied) if is_ground(a))
        store = relation.batch_store(relation.interner)
        if store.columns is None:
            return
        if bound:
            key = relation.interner.lookup_row(applied[i] for i in bound)
            if len(bound) < literal.arity:
                self.profiler.bump_probes()
            if key is None:
                return
            indices: Iterable[int] = store.buckets_for(bound).get(
                key[0] if len(bound) == 1 else key, ()
            )
        else:
            indices = range(store.length)
        decode = relation.interner.terms.__getitem__
        columns = store.columns
        governor = self.governor
        for index in indices:
            if governor is not None:
                governor.tick()
            self.profiler.bump_examined()
            extended: Substitution | None = subst
            for pattern, column in zip(literal.args, columns):
                extended = match(apply(pattern, extended), decode(column[index]), extended)
                if extended is None:
                    break
            if extended is not None:
                yield extended

    def _expand_rules(
        self, literal: Literal, subst: Substitution, rules, depth: int
    ) -> Iterator[Substitution]:
        """Plain SLD: resolve against each rule, textual body order."""
        applied = tuple(apply(arg, subst) for arg in literal.args)
        for rule in rules:
            fresh = self._freshen(rule)
            head_subst = unify_sequences(fresh.head.args, applied)
            if head_subst is None:
                continue
            self.profiler.bump_produced()
            for body_subst in self._solve_body(fresh.body, head_subst, depth + 1):
                # Full unification, not one-way match: an unsafe rule can
                # leave a head variable unbound, and match()'s ground-side
                # contract would then write a self-referential binding
                # (X -> X) that turns every later walk() into an infinite
                # loop.  unify() handles the variable-variable case and
                # keeps the occurs check.
                merged: Substitution | None = dict(subst)
                for pattern, head_arg in zip(literal.args, fresh.head.args):
                    merged = unify(
                        apply(pattern, merged), apply(head_arg, body_subst), merged
                    ) if merged is not None else None
                    if merged is None:
                        break
                if merged is not None:
                    yield merged

    def _solve_body(
        self, body: tuple[Literal, ...], subst: Substitution, depth: int
    ) -> Iterator[Substitution]:
        if not body:
            yield subst
            return
        first, rest = body[0], body[1:]
        for solved in self._solve_literal(first, subst, depth):
            yield from self._solve_body(rest, solved, depth)

    # ---------------------------------------------------------- negation

    def _negation_holds(self, goal: Literal, depth: int) -> bool:
        """Decide ``~goal`` (*goal* ground) soundly under tabling.

        Negation-as-failure is only sound against a *completed* table:
        mid-fixpoint, the positive subgoal's tables may still be growing,
        and a premature "no answer" verdict would park a wrong derivation
        in the caller's table forever (answers are never retracted).  So
        before testing emptiness we drive the subgoal's own dependency
        closure to a local fixpoint: re-un-complete exactly the closure
        tables and re-solve until no closure table grows.  Stratification
        (checked on first use) guarantees the caller's predicate is
        outside that closure, so suspended caller expansions stay intact.
        """
        if not self.tabling:
            return next(iter(self._solve_literal(goal, {}, depth)), None) is None
        closure = self._closure_names(goal.predicate)
        while True:
            before = self._closure_answer_count(closure)
            for key, table in self._tables.items():
                if key[0] in closure:
                    table.complete = False
            if next(iter(self._solve_literal(goal, {}, depth)), None) is not None:
                # Tabled answers are sound the moment they appear, so any
                # positive answer refutes the negation immediately.
                return False
            if self._closure_answer_count(closure) == before:
                return True

    def _closure_names(self, predicate: str) -> frozenset[str]:
        cached = self._closures.get(predicate)
        if cached is not None:
            return cached
        if self._graph is None:
            graph = DependencyGraph(self.program)
            graph.check_stratified()
            self._graph = graph
        refs = {
            ref
            for ref in self.program.predicates
            if ref.name == predicate
        }
        names = frozenset(
            dep.name for ref in refs for dep in self._graph.reachable_from(ref)
        ) | {predicate}
        self._closures[predicate] = names
        return names

    def _closure_answer_count(self, closure: frozenset[str]) -> int:
        return sum(
            len(table.answers)
            for key, table in self._tables.items()
            if key[0] in closure
        )

    # ----------------------------------------------------------- tabling

    def _solve_tabled(
        self, literal: Literal, subst: Substitution, rules, depth: int
    ) -> Iterator[Substitution]:
        key = _canonical_call(literal, subst)
        table = self._tables.get(key)
        if table is None:
            table = _Table()
            self._tables[key] = table
        governor = self.governor
        if not table.complete:
            table.complete = True  # mark first: recursive calls consume answers-so-far
            try:
                for answer_subst in self._expand_rules(literal, subst, rules, depth):
                    row = tuple(apply(arg, answer_subst) for arg in literal.args)
                    if not all(is_ground(f) for f in row):
                        # Range-restricted rules always ground their head;
                        # a variable surviving here means an unsafe rule.
                        # Dropping the row would silently under-answer —
                        # raise the same diagnosis as the bottom-up engines.
                        raise ExecutionError(
                            f"subgoal {literal.predicate} derived non-ground "
                            f"answer {row} — rule head not fully bound by "
                            "body (unsafe execution)"
                        )
                    if row not in table.answers:
                        table.answers.add(row)
                        if governor is not None:
                            # Tabled answers persist for the whole query, so
                            # they count against the live-tuple budget.
                            governor.tick(1)
            except BaseException:
                # An abort mid-expansion (fault, exhausted budget, or an
                # abandoned generator unwinding via GeneratorExit) leaves
                # the table partial; keeping it marked complete would make
                # a later query on this engine silently read short answers.
                table.complete = False
                raise
        for row in sorted(table.answers, key=str):
            self.profiler.bump_examined()
            extended: Substitution | None = subst
            for pattern, value in zip(literal.args, row):
                extended = match(apply(pattern, extended), value, extended)
                if extended is None:
                    break
            if extended is not None:
                yield extended

    def _freshen(self, rule: Rule) -> Rule:
        suffix = next(self._fresh)
        mapping = {v: Variable(f"{v.name}@{suffix}") for v in rule.variables}
        return rule.rename_variables(mapping)
