"""Streaming-ingest differential sweep: ``python -m repro.testing.ivm``.

The oracle strategy for incremental view maintenance is from-scratch
recomputation: after *every* insert/retract in a random update script,
the maintained extension of every derived predicate must equal
:func:`~repro.engine.fixpoint.evaluate_program` run fresh over the
current fact base, and a cached ``ask`` answer must equal the same
recomputation (catching both maintenance bugs and stale
footprint-invalidation hits) — on the knowledge base that materialized
its views, and on a twin that did not, whose all-free asks are
result-cache entries catching up by each write's net delta.  Programs are drawn from a template pool
that covers the shapes the delta path distinguishes — counted
non-recursive joins (including self-joins and cross-rule alternative
derivations), linear and non-linear recursion, multi-stratum layering,
zero-ary gates, a repeated variable (the rule does not lower), computed
steps under a delta, constants in heads and bodies, a recursive literal
that is not first, a derived predicate read at two positions, negation
(of base and derived predicates, inside a recursion, of a predicate the
rule also reads positively) and every aggregate over integers — and
update scripts mix genuine writes, no-op writes
(duplicate inserts, absent retracts), multi-row deltas, aborted
transactions, committed transactions holding several separate
``facts`` / ``retract`` calls on possibly different predicates (commit
must maintain the views from the transaction's *net* delta, not call by
call against a database that has already lost every retracted row), and
``kb.db.load`` writes past the knowledge base, which the store's version
fence must catch.

On a disagreement the sweep prints the trial seed, the program, and the
full update history (enough to replay by hand), then exits 1.  The CI
maintenance job runs ``--seed 0 --count 238``.
"""

from __future__ import annotations

import argparse
import random
import sys

from ..datalog.terms import Constant
from ..engine.fixpoint import evaluate_program
from ..kb import KnowledgeBase

#: (rules, derived predicates, base relations with arity)
PROGRAMS: list[tuple[str, tuple[str, ...], dict[str, int]]] = [
    (
        "p(X, Y) <- e(X, Z), e(Z, Y).",
        ("p",),
        {"e": 2},
    ),
    (
        "s(X, Y) <- e(X, Z), e(Z, Y). s(X, Y) <- f(X, Y).",
        ("s",),
        {"e": 2, "f": 2},
    ),
    (
        "t(X, Y) <- e(X, Y). t(X, Y) <- t(X, Z), e(Z, Y).",
        ("t",),
        {"e": 2},
    ),
    (
        "t(X, Y) <- e(X, Y). t(X, Y) <- t(X, Z), t(Z, Y).",
        ("t",),
        {"e": 2},
    ),
    (
        """
        t(X, Y) <- e(X, Y).
        t(X, Y) <- t(X, Z), e(Z, Y).
        q(X, Y) <- t(X, Y), f(Y, X).
        q(X, Y) <- f(X, Y).
        """,
        ("t", "q"),
        {"e": 2, "f": 2},
    ),
    (
        "reach(X) <- go, src(X). reach(Y) <- reach(X), e(X, Y).",
        ("reach",),
        {"go": 0, "src": 1, "e": 2},
    ),
    (
        "alarm <- hot(X), wired(X).",
        ("alarm",),
        {"hot": 1, "wired": 1},
    ),
    # a repeated variable: the rules fire on the engine's reference branch
    ("loop(X) <- e(X, X). cyc(X) <- e(X, X). cyc(Y) <- cyc(X), e(X, Y).",
     ("loop", "cyc"), {"e": 2}),
    # computed steps under a delta, in a counted and in a recursive rule
    ("""
     cat(Z) <- e(X, Y), X != Y, string_concat(X, Y, Z).
     up(X, Y) <- e(X, Y), X < Y.
     up(X, Y) <- up(X, Z), e(Z, Y), Z < Y, string_concat(X, Y, W), W != "ad".
     """, ("cat", "up"), {"e": 2}),
    # a constant in a head (rederivation's keys) and in a body literal
    ("tag(X, hub) <- e(X, a). r(X, a) <- e(X, a). r(X, a) <- e(X, Y), r(Y, a).",
     ("tag", "r"), {"e": 2}),
    # the recursive literal is not first in textual order
    ("t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y).", ("t",), {"e": 2}),
    # a derived delta read at two positions (old at one, new at the
    # other): counted, and as a recursive stratum's external delta
    ("""
     h(X, Y) <- e(X, Y).
     pp(X, Y) <- h(X, Z), h(Z, Y).
     hh(X, Y) <- h(X, Z), h(Z, Y).
     hh(X, Y) <- hh(X, Z), h(Z, Y).
     """, ("h", "pp", "hh"), {"e": 2}),
    # negation of a base predicate, under deltas at both polarities
    ("p(X, Y) <- e(X, Y), ~f(Y).", ("p",), {"e": 2, "f": 1}),
    # negation of derived lower-stratum predicates: a counted one, and a
    # closure under two negations (the delta's sign flips twice)
    ("""
     h(X) <- e(X, Y).
     q(X) <- f(X), ~h(X).
     t(X, Y) <- e(X, Y).
     t(X, Y) <- t(X, Z), e(Z, Y).
     nt(X, Y) <- f(X), f(Y), ~t(X, Y).
     c(X) <- f(X), ~nt(X, X).
     """, ("h", "q", "t", "nt", "c"), {"e": 2, "f": 1}),
    # negation inside a recursive stratum, counted above it
    ("""
     s(X, Y) <- e(X, Y), ~b(Y).
     s(X, Y) <- s(X, Z), e(Z, Y), ~b(Y), X != Y.
     n(X, count(Y)) <- s(X, Y).
     """, ("s", "n"), {"e": 2, "b": 1}),
    # one predicate read positively and negated in one rule
    ("""
     asym(X, Y) <- e(X, Y), ~e(Y, X).
     r(X, Y) <- e(X, Y), ~e(Y, Y).
     r(X, Y) <- r(X, Z), e(Z, Y), ~e(Y, Z).
     """, ("asym", "r"), {"e": 2}),
    # every aggregate over integers, grouped and ungrouped
    ("""
     n(X, count(Y)) <- w(X, Y).
     s(X, sum(Y)) <- w(X, Y).
     m(X, avg(Y)) <- w(X, Y).
     tally(count(X), sum(Y)) <- w(X, Y).
     """, ("n", "s", "m", "tally"), {"w": "sn"}),
    ("""
     lo(X, min_of(Y)) <- w(X, Y).
     hi(X, max_of(Y)) <- w(X, Y).
     span(X, min_of(Y), max_of(Y), count(Y)) <- w(X, Y), ~f(X).
     """, ("lo", "hi", "span"), {"w": "sn", "f": 1}),
    # an aggregate over a join (several derivations per value) read by
    # a stratum above it
    ("""
     deg(X, count(Z), sum(N)) <- e(X, Y), w(Y, N), e(Y, Z).
     hub(X) <- deg(X, C, S), C > 1.
     """, ("deg", "hub"), {"e": 2, "w": "sn"}),
]

DOMAIN = ("a", "b", "c", "d")
#: the values of a numeric column (``n`` in a relation's column kinds)
NUMBERS = (1, 2, 3, 5)


def _random_row(rng: random.Random, shape: "int | str") -> tuple:
    """A row of a relation given by its arity (every column a symbol) or
    its column kinds (``s`` symbol, ``n`` number)."""
    kinds = "s" * shape if isinstance(shape, int) else shape
    return tuple(rng.choice(NUMBERS if kind == "n" else DOMAIN) for kind in kinds)


def _recompute(kb: KnowledgeBase, predicates: tuple[str, ...]) -> dict[str, set]:
    result = evaluate_program(kb.db, kb.program, builtins=kb.builtins)
    return {
        name: {
            tuple(f.value if isinstance(f, Constant) else f for f in row)
            for row in result.rows(name)
        }
        for name in predicates
    }


class Mismatch(Exception):
    pass


def _asked(kb: KnowledgeBase, name: str) -> tuple[str, set]:
    """*name*'s all-free goal and the answers *kb* gives it."""
    arity = next(r.head.arity for r in kb.program if r.head.predicate == name)
    variables = ", ".join(f"V{i}" for i in range(arity))
    goal = f"{name}({variables})?" if arity else f"{name}?"
    result = kb.ask(goal)
    if arity == 0:
        return goal, {()} if len(result) else set()
    return goal, set(result.to_python())


def _check(
    kb: KnowledgeBase, free: KnowledgeBase, predicates: tuple[str, ...], rng: random.Random
) -> None:
    oracle = _recompute(kb, predicates)
    for name in predicates:
        got = kb.view_rows(name)
        if got != oracle[name]:
            raise Mismatch(
                f"view {name!r}: extra={sorted(got - oracle[name])} "
                f"missing={sorted(oracle[name] - got)}"
            )
    # One asked goal per step: exercises the footprint-keyed result cache
    # under the same write stream (a stale hit would disagree here even
    # though the view itself is correct).  The twin without views asks
    # every goal, so each is a maintained result-cache entry that catches
    # up by the step's net delta.
    asks = [(kb, rng.choice(predicates))] + [(free, name) for name in predicates]
    for target, name in asks:
        goal, answers = _asked(target, name)
        if answers != oracle[name]:
            raise Mismatch(
                f"ask {goal!r}{'' if target is kb else ' (no views)'}: "
                f"extra={sorted(answers - oracle[name])} "
                f"missing={sorted(oracle[name] - answers)}"
            )


def run_trial(seed: int, steps: int = 8) -> list[str]:
    """One seeded trial; returns the update history (for replay dumps).

    Raises :class:`Mismatch` on the first maintained-vs-recomputed
    disagreement.
    """
    rng = random.Random(seed)
    rules, predicates, bases = rng.choice(PROGRAMS)
    history = [f"rules: {' '.join(rules.split())}"]
    # *kb* materializes its views, *free* only answers asks; both take
    # every write
    kb, free = KnowledgeBase(), KnowledgeBase()
    both = (kb, free)
    for target in both:
        target.rules(rules)
    for base, shape in bases.items():
        rows = [_random_row(rng, shape) for __ in range(rng.randint(1, 5))]
        for target in both:
            target.facts(base, rows)
        history.append(f"facts {base} {sorted(set(rows))}")
    kb.materialize()
    for __ in range(steps):
        base, shape = rng.choice(sorted(bases.items()))
        rows = [_random_row(rng, shape) for __ in range(rng.randint(1, 3))]
        action = rng.random()
        if action < 0.1:
            # a write past the knowledge base: no delta reaches the store,
            # whose fence must catch it, pinned or not
            for target in both:
                target.db.load(base, rows)
            history.append(f"db.load {base} {rows}")
        elif action < 0.45:
            for target in both:
                target.facts(base, rows)
            history.append(f"facts {base} {rows}")
        elif action < 0.8:
            for target in both:
                target.retract(base, rows)
            history.append(f"retract {base} {rows}")
        elif action < 0.9:
            calls = [(rng.random() < 0.4, base, rows)]
            for __ in range(rng.randint(1, 3)):
                other, other_shape = rng.choice(sorted(bases.items()))
                calls.append((
                    rng.random() < 0.4,
                    other,
                    [_random_row(rng, other_shape) for __ in range(rng.randint(1, 2))],
                ))
            for target in both:
                with target.transaction():
                    for insert, name, call_rows in calls:
                        (target.facts if insert else target.retract)(name, call_rows)
            history.append("txn " + "; ".join(
                f"{'facts' if insert else 'retract'} {name} {call_rows}"
                for insert, name, call_rows in calls
            ))
        else:
            # an aborted transaction must leave no trace in the views
            for target in both:
                try:
                    with target.transaction():
                        target.facts(base, rows)
                        raise RuntimeError("chaos abort")
                except RuntimeError:
                    pass
            history.append(f"aborted-txn facts {base} {rows}")
        try:
            _check(kb, free, predicates, rng)
        except Mismatch as err:
            history.append(f"MISMATCH: {err}")
            raise Mismatch("\n".join(history)) from None
    return history


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.ivm",
        description="streaming-ingest sweep: maintained views vs recompute oracle",
    )
    parser.add_argument("--seed", type=int, default=0, help="first trial seed")
    parser.add_argument("--count", type=int, default=238, help="number of trials")
    parser.add_argument("--steps", type=int, default=8, help="updates per trial")
    args = parser.parse_args(argv)

    for trial in range(args.seed, args.seed + args.count):
        try:
            run_trial(trial, steps=args.steps)
        except Mismatch as err:
            print(f"\nDISAGREEMENT (trial seed {trial}) — replay history:")
            print(err)
            return 1
    print(
        f"ivm sweep: {args.count} trials x {args.steps} updates, "
        f"0 disagreements (views == recompute, asks == recompute)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
