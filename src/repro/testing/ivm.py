"""Streaming-ingest differential sweep: ``python -m repro.testing.ivm``.

The oracle strategy for incremental view maintenance is from-scratch
recomputation: after *every* insert/retract in a random update script,
the maintained extension of every derived predicate must equal
:func:`~repro.engine.fixpoint.evaluate_program` run fresh over the
current fact base, and a cached ``ask`` answer must equal the same
recomputation (catching both maintenance bugs and stale
footprint-invalidation hits).  Programs are drawn from a template pool
that covers the shapes the delta path distinguishes — counted
non-recursive joins (including self-joins and cross-rule alternative
derivations), linear and non-linear recursion, multi-stratum layering,
zero-ary gates, a repeated variable (the rule does not lower), computed
steps under a delta, constants in heads and bodies, a recursive literal
that is not first, a derived predicate read at two positions — and
update scripts mix genuine writes, no-op writes
(duplicate inserts, absent retracts), multi-row deltas, aborted
transactions, and committed transactions holding several separate
``facts`` / ``retract`` calls on possibly different predicates (commit
must maintain the views from the transaction's *net* delta, not call by
call against a database that has already lost every retracted row).

On a disagreement the sweep prints the trial seed, the program, and the
full update history (enough to replay by hand), then exits 1.  The CI
maintenance job runs ``--seed 0 --count 150``.
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
]

DOMAIN = ("a", "b", "c", "d")


def _random_row(rng: random.Random, arity: int) -> tuple:
    return tuple(rng.choice(DOMAIN) for __ in range(arity))


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


def _check(kb: KnowledgeBase, predicates: tuple[str, ...], rng: random.Random) -> None:
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
    # though the view itself is correct).
    name = rng.choice(predicates)
    arity = next(r.head.arity for r in kb.program if r.head.predicate == name)
    variables = ", ".join(f"V{i}" for i in range(arity))
    goal = f"{name}({variables})?" if arity else f"{name}?"
    result = kb.ask(goal)
    if arity == 0:
        answers = {()} if len(result) else set()
    else:
        answers = set(result.to_python())
    if answers != oracle[name]:
        raise Mismatch(
            f"ask {goal!r}: extra={sorted(answers - oracle[name])} "
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
    kb = KnowledgeBase()
    kb.rules(rules)
    for base, arity in bases.items():
        rows = [_random_row(rng, arity) for __ in range(rng.randint(1, 5))]
        kb.facts(base, rows)
        history.append(f"facts {base} {sorted(set(rows))}")
    kb.materialize()
    for __ in range(steps):
        base, arity = rng.choice(sorted(bases.items()))
        rows = [_random_row(rng, arity) for __ in range(rng.randint(1, 3))]
        action = rng.random()
        if action < 0.45:
            kb.facts(base, rows)
            history.append(f"facts {base} {rows}")
        elif action < 0.8:
            kb.retract(base, rows)
            history.append(f"retract {base} {rows}")
        elif action < 0.9:
            calls = [(rng.random() < 0.4, base, rows)]
            for __ in range(rng.randint(1, 3)):
                other, other_arity = rng.choice(sorted(bases.items()))
                calls.append((
                    rng.random() < 0.4,
                    other,
                    [_random_row(rng, other_arity) for __ in range(rng.randint(1, 2))],
                ))
            with kb.transaction():
                for insert, name, call_rows in calls:
                    (kb.facts if insert else kb.retract)(name, call_rows)
            history.append("txn " + "; ".join(
                f"{'facts' if insert else 'retract'} {name} {call_rows}"
                for insert, name, call_rows in calls
            ))
        else:
            # an aborted transaction must leave no trace in the views
            try:
                with kb.transaction():
                    kb.facts(base, rows)
                    raise RuntimeError("chaos abort")
            except RuntimeError:
                pass
            history.append(f"aborted-txn facts {base} {rows}")
        try:
            _check(kb, predicates, rng)
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
    parser.add_argument("--count", type=int, default=150, help="number of trials")
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
