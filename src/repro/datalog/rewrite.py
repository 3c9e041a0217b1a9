"""Compile-time rule rewrites used as optimizer pre-processing.

Section 7.2: "selects/projects are always pushed down any number of levels
for non-recursive rules by simply migrating to the lower level rules the
constraints inherited from the upper rules.  Simple compile-time
rule-rewriting techniques can be used to push selection/projection down
into non-recursive rules."  Section 7.3 adds that projections are pushed
into recursive predicates with the techniques of [RBK 87], "used as a
pre-processing step to the optimizer".

This module provides those rewrites:

* :func:`rename_apart` — standardize a rule's variables apart from a
  context (resolution hygiene, shared by every consumer);
* :func:`push_projections` — drop head argument positions that no caller
  ever consumes, for non-recursive predicates (a conservative rendition
  of [RBK 87]).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .graph import DependencyGraph
from .literals import Literal, PredicateRef, pred_ref
from .rules import Program, Rule
from .terms import Variable, variables_of

_fresh_counter = itertools.count()


def rename_apart(rule: Rule, avoid: frozenset[Variable]) -> Rule:
    """Rename *rule*'s variables so none collides with *avoid*.

    Renamed variables keep their stem for readability (``X`` becomes
    ``X#3``); the ``#`` cannot appear in parsed variable names, so renamed
    variables never collide with user ones.
    """
    clashes = rule.variables & avoid
    if not clashes:
        return rule
    suffix = next(_fresh_counter)
    mapping = {v: Variable(f"{v.name}#{suffix}") for v in clashes}
    return rule.rename_variables(mapping)


def _used_positions(program: Program, roots: Iterable[tuple[PredicateRef, frozenset[int]]]) -> dict[PredicateRef, set[int]]:
    """Fixpoint of "which argument positions of each derived predicate are
    consumed", seeded by the query's needs."""
    needed: dict[PredicateRef, set[int]] = {}
    worklist: list[PredicateRef] = []
    for ref, positions in roots:
        needed.setdefault(ref, set()).update(positions)
        worklist.append(ref)
    while worklist:
        ref = worklist.pop()
        for rule in program.rules_for(ref):
            keep = needed[ref]
            # Variables the rule must still produce: those in kept head
            # positions, plus everything used for joins/comparisons inside
            # the body (body-internal demands never shrink).
            live: set[Variable] = set()
            for position in keep:
                live.update(variables_of(rule.head.args[position]))
            counts: dict[Variable, int] = {}
            for literal in rule.body:
                for var in literal.variables:
                    counts[var] = counts.get(var, 0) + 1
            for literal in rule.body:
                if literal.is_comparison or literal.negated:
                    live.update(literal.variables)
            for literal in rule.body:
                if literal.is_comparison:
                    continue
                body_ref = pred_ref(literal)
                if not program.is_derived(body_ref):
                    continue
                demanded = set()
                for index, arg in enumerate(literal.args):
                    arg_vars = variables_of(arg)
                    if arg_vars & live or any(counts.get(v, 0) > 1 for v in arg_vars):
                        demanded.add(index)
                before = needed.setdefault(body_ref, set())
                if not demanded <= before:
                    before.update(demanded)
                    worklist.append(body_ref)
                elif body_ref not in needed:
                    worklist.append(body_ref)
    return needed


def push_projections(program: Program, goal: Literal) -> tuple[Program, Literal]:
    """Reduce the arity of non-recursive derived predicates to the
    positions actually consumed by the query.

    Projected predicates are renamed ``p@proj`` so the original program is
    untouched.  Recursive predicates are left alone (the paper defers
    those to [RBK 87]; magic/counting handle the selection side).

    Returns the rewritten program and goal.  When nothing can be pruned,
    the originals are returned unchanged.
    """
    graph = DependencyGraph(program)
    goal_ref = pred_ref(goal)
    needed = _used_positions(program, [(goal_ref, frozenset(range(goal.arity)))])

    droppable: dict[PredicateRef, tuple[int, ...]] = {}
    for ref, positions in needed.items():
        if not program.is_derived(ref) or graph.is_recursive(ref):
            continue
        kept = tuple(sorted(positions))
        if len(kept) < ref.arity:
            droppable[ref] = kept
    if not droppable:
        return program, goal

    def rewrite_literal(literal: Literal) -> Literal:
        if literal.is_comparison:
            return literal
        ref = pred_ref(literal)
        kept = droppable.get(ref)
        if kept is None:
            return literal
        return Literal(f"{literal.predicate}@proj", tuple(literal.args[i] for i in kept), literal.negated)

    new_rules: list[Rule] = []
    for rule in program:
        head = rewrite_literal(rule.head)
        body = tuple(rewrite_literal(l) for l in rule.body)
        new_rules.append(Rule(head, body, rule.label))
    return Program(new_rules), rewrite_literal(goal)
