"""Lowered vs reference evaluation, and persistent bucket maps.

For any program, a lowered columnar plan must produce exactly the rows
the term-space reference evaluator (``repro.testing.reference``)
produces by unification.  The seeded randomized tests here check that
over generated workloads (the four join methods' agreement with the
reference's join is ``tests/test_operators.py``'s, and forced
plan labels are run end to end by ``tests/test_optimizer_paths.py`` and
``tests/test_storage_parity.py``); the last test pins that a lowered
fixpoint's bucket maps live on across rounds.
"""

import random

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.engine.fixpoint import FixpointEngine
from repro.engine.profiler import Profiler
from repro.storage import Database, relation_from_rows
from repro.testing.reference import ReferenceEngine


# -- randomized cross-method / cross-mode equivalence -------------------------


def random_database(rng: random.Random) -> Database:
    """A small random universe: two binary relations and one ternary."""
    db = Database()
    values = [f"v{i}" for i in range(rng.randint(4, 9))]
    for name in ("e", "f"):
        rows = {
            (rng.choice(values), rng.choice(values))
            for _ in range(rng.randint(3, 18))
        }
        db.add_relation(relation_from_rows(name, sorted(rows), arity=2))
    triples = {
        (rng.choice(values), rng.choice(values), rng.randint(0, 5))
        for _ in range(rng.randint(3, 12))
    }
    db.add_relation(relation_from_rows("t", sorted(triples), arity=3))
    return db


PROGRAMS = [
    # transitive closure — the semi-naive delta path
    "p(X, Y) <- e(X, Y). p(X, Y) <- e(X, Z), p(Z, Y).",
    # join across two base relations plus a derived one
    "p(X, Y) <- e(X, Y). q(X, Z) <- p(X, Y), f(Y, Z).",
    # same-generation shape: two clique literals per body
    "s(X, Y) <- f(X, Y). s(X, Y) <- e(X, Z), s(Z, W), e(Y, W).",
    # comparisons and arithmetic between joins
    "r(X, C) <- t(X, Y, C), C > 1. w(X, D) <- r(X, C), D = C + 1.",
    # constants in body literals and in the head
    "c(X) <- e(v1, X). k(X, ok) <- c(X), f(X, Y).",
    # negation against a base relation
    "n(X, Y) <- e(X, Y), ~f(X, Y).",
    # mixed: a recursive join rule next to a comparison rule
    "p(X, Y) <- e(X, Y). p(X, Y) <- e(X, Z), p(Z, Y). m(X, n) <- p(X, Y), X != Y.",
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("source", PROGRAMS)
def test_methods_and_compilation_agree(seed, source):
    """The reference evaluator and the lowered plan derive the same
    relations with the same per-query ``produced`` count on randomized
    data — the parity property."""
    rng = random.Random(seed)
    db = random_database(rng)
    program = Program(list(parse_program(source)))

    runs = [("reference", ReferenceEngine), ("lowered", FixpointEngine)]
    expected = None
    for name, engine in runs:
        profiler = Profiler()
        result = engine(db, profiler=profiler).evaluate(program)
        derived = {
            name: rows
            for name, rows in result.relations.items()
            if rows  # empty relations may or may not appear
        }
        if expected is None:
            expected = (derived, profiler.produced)
        else:
            assert (derived, profiler.produced) == expected, (
                f"{name} diverged on seed {seed}"
            )


# -- persistent bucket maps --------------------------------------------------


def test_fixpoint_workspace_uses_persistent_indexes():
    """Lowered semi-naive evaluation examines fewer tuples than the
    reference: derived-extension buckets are never rebuilt."""
    db = Database()
    chain = [(f"n{i}", f"n{i+1}") for i in range(40)]
    db.add_relation(relation_from_rows("par", chain))
    program = Program(
        list(parse_program("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."))
    )

    compiled_profiler, baseline_profiler = Profiler(), Profiler()
    compiled = FixpointEngine(db, profiler=compiled_profiler).evaluate(program)
    baseline = ReferenceEngine(db, profiler=baseline_profiler).evaluate(program)

    assert compiled.relations["anc"] == baseline.relations["anc"]
    assert compiled_profiler.examined < baseline_profiler.examined
    assert compiled_profiler.total_work <= baseline_profiler.total_work


def test_compiled_rules_record_kernel_timings():
    db = Database()
    db.add_relation(relation_from_rows("e", [("a", "b"), ("b", "c")]))
    program = Program(list(parse_program("p(X, Y) <- e(X, Y). p(X, Y) <- e(X, Z), p(Z, Y).")))
    profiler = Profiler()
    FixpointEngine(db, profiler=profiler).evaluate(program)
    assert profiler.wall_seconds > 0
    assert any(label.startswith("join:p:") for label in profiler.timings)
