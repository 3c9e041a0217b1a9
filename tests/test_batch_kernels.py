"""The columnar batch tier: batch ≡ row equivalence, interning, parity.

The contract of :mod:`repro.engine.batch` is the same strict
observational equivalence the row kernels promise, *plus* profiler
parity: for any batchable program the columnar tier must produce the
same answer sets AND the same per-query ``produced`` counts as the row
kernels, fire the same governor checkpoints (so budget aborts and
injected faults land identically), and honor the same span labels.  The
seeded tests here sweep that property over generated workloads; the
unit tests pin the interner's hash-consing guarantees and the
columnar/row bridge.
"""

import multiprocessing
import random
from pathlib import Path

import pytest

import repro
from repro import KnowledgeBase, Tracer
from repro.datalog.intern import INTERNER, TermInterner, intern_term
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine.batch import compile_batch_plan
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.fixpoint import FixpointEngine
from repro.engine.kernels import compile_rule
from repro.engine.governor import ResourceGovernor, make_governor
from repro.engine.operators import BindingsTable, JOIN_METHODS
from repro.engine.profiler import Profiler
from repro.errors import TupleBudgetExceeded
from repro.storage import Database, relation_from_rows
from repro.storage.columnar import store_from_rows

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."


# -- randomized batch/row equivalence -----------------------------------------


def random_database(rng: random.Random) -> Database:
    db = Database()
    values = [f"v{i}" for i in range(rng.randint(4, 9))]
    for name in ("e", "f"):
        rows = {
            (rng.choice(values), rng.choice(values))
            for _ in range(rng.randint(3, 18))
        }
        db.add_relation(relation_from_rows(name, sorted(rows), arity=2))
    return db


PROGRAMS = [
    # transitive closure — the semi-naive delta path, fully batchable
    "p(X, Y) <- e(X, Y). p(X, Y) <- e(X, Z), p(Z, Y).",
    # join across two base relations plus a derived one
    "p(X, Y) <- e(X, Y). q(X, Z) <- p(X, Y), f(Y, Z).",
    # same-generation shape: two clique literals per body
    "s(X, Y) <- f(X, Y). s(X, Y) <- e(X, Z), s(Z, W), e(Y, W).",
    # constants in body literals and in the head
    "c(X) <- e(v1, X). k(X, ok) <- c(X), f(X, Y).",
    # mixed: a batchable recursive rule next to a row-only comparison rule
    "p(X, Y) <- e(X, Y). p(X, Y) <- e(X, Z), p(Z, Y). m(X, n) <- p(X, Y), X != Y.",
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("source", PROGRAMS)
def test_batch_matches_row_answers_and_produced(seed, source):
    """batch=True with batch_min_rows=0 (columnar forced whenever the plan
    is batchable) derives the same relations as batch=False with the same
    per-query ``produced`` count — the ISSUE's parity property."""
    rng = random.Random(seed)
    db = random_database(rng)
    program = Program(list(parse_program(source)))

    row_profiler = Profiler()
    row = FixpointEngine(
        db, profiler=row_profiler, compile=True, batch=False
    ).evaluate(program)

    batch_profiler = Profiler()
    batch = FixpointEngine(
        db, profiler=batch_profiler, compile=True, batch=True, batch_min_rows=0
    ).evaluate(program)

    assert batch.relations == row.relations, f"answers diverged on seed {seed}"
    assert batch_profiler.produced == row_profiler.produced, (
        f"produced counts diverged on seed {seed}: "
        f"batch={batch_profiler.produced} row={row_profiler.produced}"
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("method", sorted(JOIN_METHODS))
def test_batch_matches_every_row_join_method(seed, method):
    """The columnar tier is method-agnostic: it must agree with the row
    tier under every join-method choice, not just hash."""
    rng = random.Random(50 + seed)
    db = random_database(rng)
    program = Program(list(parse_program(PROGRAMS[0])))

    row = FixpointEngine(
        db, method_chooser=lambda literal: method, compile=True, batch=False
    ).evaluate(program)
    batch = FixpointEngine(
        db, compile=True, batch=True, batch_min_rows=0
    ).evaluate(program)
    assert batch.relations == row.relations


def test_small_input_stays_on_row_tier():
    """Below batch_min_rows the cost model keeps the row kernels (the
    columnar encode is not worth it for tiny deltas) — answers identical."""
    db = Database()
    db.load("par", [("a", "b"), ("b", "c"), ("c", "d")])
    program = Program(list(parse_program(ANC)))
    threshold = FixpointEngine(db, compile=True, batch=True, batch_min_rows=32)
    forced = FixpointEngine(db, compile=True, batch=True, batch_min_rows=0)
    assert threshold.evaluate(program).relations == forced.evaluate(program).relations


# -- batch plan compilation ---------------------------------------------------


def test_non_flat_rules_are_not_batchable():
    rules = parse_program(
        "n(X, Y) <- e(X, Y), ~f(X, Y)."
        "c(X) <- e(X, Y), X != Y."
        "g(X, Y) <- e(X, Y), f(Y, Z), Z = X."
    ).rules
    for rule in rules:
        assert compile_batch_plan(compile_rule(rule)) is None


def test_flat_join_rule_is_batchable():
    rule = parse_program("h(X, Z) <- e(X, Y), f(Y, Z).").rules[0]
    plan = compile_batch_plan(compile_rule(rule))
    assert plan is not None
    assert len(plan.steps) == 2
    assert plan.labels == tuple(compile_rule(rule).labels)


# -- governor / fault parity --------------------------------------------------


def _chain_db(n: int) -> Database:
    db = Database()
    db.load("par", [(f"n{i}", f"n{i + 1}") for i in range(n)])
    return db


@pytest.mark.parametrize("batch", [False, True])
def test_tuple_budget_aborts_both_tiers(batch):
    """A tuple budget that aborts the row tier aborts the batch tier too:
    the columnar join ticks the governor cooperatively mid-batch."""
    program = Program(list(parse_program(ANC)))
    engine = FixpointEngine(
        _chain_db(40),
        compile=True,
        batch=batch,
        batch_min_rows=0,
        governor=make_governor(max_tuples=50),
    )
    with pytest.raises(TupleBudgetExceeded):
        engine.evaluate(program)


@pytest.mark.parametrize("batch", [False, True])
def test_injected_fault_fires_at_same_site_both_tiers(batch):
    """Batch steps run the same checkpoint labels as the row kernels, so a
    fault injected at a named join site fires on either tier."""
    faults = FaultInjector().inject("join:anc:par", error="disk on fire")
    program = Program(list(parse_program(ANC)))
    engine = FixpointEngine(
        _chain_db(10),
        compile=True,
        batch=batch,
        batch_min_rows=0,
        governor=ResourceGovernor(faults=faults),
    )
    with pytest.raises(InjectedFault, match="disk on fire"):
        engine.evaluate(program)
    assert faults.fired_count() == 1


# -- the interner -------------------------------------------------------------


def test_interning_is_idempotent():
    interner = TermInterner()
    a = Constant("a")
    first = interner.id_of(a)
    assert interner.id_of(a) == first
    assert interner.id_of(Constant("a")) == first
    assert interner.canonical(a) is interner.canonical(Constant("a"))
    assert len(interner) == 1


def test_struct_hash_consing_shares_children():
    interner = TermInterner()
    inner = Struct("g", (Constant("a"),))
    outer = Struct("f", (inner, Constant("b")))
    canonical = interner.canonical(outer)
    # children of the canonical struct ARE the canonical instances
    assert canonical.args[0] is interner.canonical(Struct("g", (Constant("a"),)))
    assert canonical.args[1] is interner.canonical(Constant("b"))
    # re-interning an equal struct built from fresh parts hits the same id
    again = Struct("f", (Struct("g", (Constant("a"),)), Constant("b")))
    assert interner.canonical(again) is canonical


def test_interning_rejects_non_ground_terms():
    interner = TermInterner()
    with pytest.raises(ValueError):
        interner.id_of(Variable("X"))
    with pytest.raises(ValueError):
        interner.id_of(Struct("f", (Constant("a"), Variable("X"))))
    # the failed admission must not leak partial state for the struct
    assert Struct("f", (Constant("a"), Variable("X"))) not in interner._ids


def test_encode_decode_roundtrip():
    interner = TermInterner()
    row = (Constant("a"), Constant(3), Struct("f", (Constant("b"),)))
    ids = interner.encode_row(row)
    assert interner.decode_row(ids) == row
    # injectivity: distinct terms never share an id
    assert len(set(ids)) == len(ids)


def test_global_interner_shares_instances_across_terms():
    assert intern_term(Constant("shared-xyz")) is intern_term(Constant("shared-xyz"))


# -- the columnar/row bridge --------------------------------------------------


def test_bindings_table_from_columns_roundtrip():
    interner = TermInterner()
    rows = [(Constant("a"), Constant(1)), (Constant("b"), Constant(2))]
    store = store_from_rows(rows, interner)
    table = BindingsTable.from_columns((X, Y), store.columns, store.length, interner)
    assert table.schema == (X, Y)
    assert table.rows == frozenset(rows)


def test_bindings_table_from_columns_zero_width():
    interner = TermInterner()
    unit = BindingsTable.from_columns((), [], 1, interner)
    assert unit.rows == frozenset({()})
    empty = BindingsTable.from_columns((), [], 0, interner)
    assert empty.rows == frozenset()


def test_batch_store_buckets_and_incremental_append():
    interner = TermInterner()
    rows = [(Constant("a"), Constant("x")), (Constant("a"), Constant("y"))]
    store = store_from_rows(rows, interner)
    buckets = store.buckets_for((0,))
    a_id = interner.id_of(Constant("a"))
    assert sorted(buckets[a_id]) == [0, 1]
    # appends maintain already-built bucket maps incrementally
    store.append((Constant("a"), Constant("z")))
    assert sorted(store.buckets_for((0,))[a_id]) == [0, 1, 2]
    assert store.length == 3
    # ... and so does a bulk extend once a bucket map exists
    store.extend([(Constant("b"), Constant("x")), (Constant("a"), Constant("w"))])
    assert sorted(store.buckets_for((0,))[a_id]) == [0, 1, 2, 4]
    assert store.length == 5 and [len(c) for c in store.columns] == [5, 5]


# -- one in-process executor --------------------------------------------------


def test_large_round_runs_on_the_in_process_batch_tier():
    """A round driven by a 50 000-row extension (the size that used to
    fan out to a worker pool) runs on the batch executor, in this
    process, with the reference answers."""
    rng = random.Random(5)
    edges = {(f"n{i}", f"n{i + 1}") for i in range(40)}
    while len(edges) < 50_000:
        edges.add((f"m{rng.randrange(20_000)}", f"m{rng.randrange(20_000)}"))
    kb = KnowledgeBase()
    kb.rules("reach(X) <- source(X). reach(Y) <- reach(X), edge(X, Y).")
    kb.facts("edge", sorted(edges))
    kb.facts("source", [("n0",)])
    tracer = Tracer()
    answers = kb.ask("reach(Y)?", tracer=tracer)
    assert set(answers.to_python()) == {(f"n{i}",) for i in range(41)}
    tiers = [s.attrs["tier"] for s in tracer.spans if s.kind == "rule" and "tier" in s.attrs]
    assert tiers and set(tiers) == {"batch"}
    assert multiprocessing.active_children() == []


def test_nothing_under_src_imports_multiprocessing():
    offenders = [
        str(path)
        for path in Path(repro.__file__).parent.rglob("*.py")
        if "multiprocessing" in path.read_text()
    ]
    assert offenders == []
