"""The lowered rule executor: lowered ≡ reference, interning, parity.

The contract of :mod:`repro.engine.batch` is strict observational
equivalence with the reference evaluator (``compile=False``), *plus*
profiler parity: for any rule that lowers, the columnar plan must
produce the same answer sets AND the same per-query ``produced`` counts,
fire the same governor checkpoints (so budget aborts and injected faults
land identically), and honor the same span labels — at every input
size, since nothing selects an executor by size.  The tests here hold
that property over every step and head kind
(``tests/test_join_kernels.py`` sweeps it over randomized programs and
the reference's join methods); the unit tests pin the interner's
hash-consing guarantees and the columnar store's bucket maintenance.
"""

import multiprocessing
import random
from pathlib import Path

import pytest

import repro
from repro import KnowledgeBase, Tracer
from repro.datalog.builtins import default_builtins
from repro.datalog.intern import INTERNER, TermInterner, intern_term
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine.batch import compile_batch_plan
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.fixpoint import FixpointEngine
from repro.engine.governor import ResourceGovernor, make_governor
from repro.engine.profiler import Profiler
from repro.errors import ExecutionError, TupleBudgetExceeded
from repro.storage import Database, relation_from_rows
from repro.storage.columnar import BatchStore

X, Z = Variable("X"), Variable("Z")

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."


def evaluate(db, program, *, lowered, **engine_kwargs):
    """(relations, profiler) of one evaluation, lowered or on the reference."""
    profiler = Profiler()
    result = FixpointEngine(
        db, profiler=profiler, builtins=default_builtins(), compile=lowered,
        **engine_kwargs,
    ).evaluate(program)
    return result.relations, profiler


# -- every step and head kind, at every size ----------------------------------


def shaped_database(n: int) -> Database:
    """*n*-row relations: ``e`` is chains of five nodes (a small closure
    at any size), ``f`` shares some of its rows, ``t`` attaches a small
    integer to every node."""
    db = Database()
    e = [(f"v{i + i // 4}", f"v{i + i // 4 + 1}") for i in range(n)]
    f = [row if i % 3 else (row[1], row[0]) for i, row in enumerate(e)]
    db.add_relation(relation_from_rows("e", e, arity=2))
    db.add_relation(relation_from_rows("f", f, arity=2))
    db.add_relation(
        relation_from_rows("t", [(f"v{i}", i % 5) for i in range(n)], arity=2)
    )
    return db


TC = "p(X, Y) <- e(X, Y). p(X, Y) <- e(X, Z), p(Z, Y). "

LOWERED_SHAPES = {
    "negation over base": "out(X, Y) <- e(X, Y), ~f(X, Y).",
    "negation over recursive": TC + "out(X, Y) <- e(X, Y), f(Y, Z), ~p(X, Z).",
    "!=": "out(X, Y) <- e(X, Z), f(Z, Y), X != Y.",
    "<": "out(X, N) <- t(X, N), N < 3.",
    "binding = with arithmetic": "out(X, M) <- t(X, N), M = N * 2 + 1.",
    "succ": "out(X, M) <- t(X, N), succ(N, M).",
    "range": "out(X, I) <- t(X, N), range(0, N, I).",
    "count": TC + "out(X, count(Y)) <- p(X, Y).",
    "sum": "out(X, sum(N)) <- e(X, Y), t(Y, N).",
    "avg": "out(X, avg(N)) <- e(X, Y), t(Y, N).",
    "min_of": "out(X, min_of(Y)) <- e(X, Z), f(Z, Y).",
    "max_of": "out(max_of(N)) <- t(X, N).",
    "constant in head": "out(X, ok) <- e(X, Y).",
    "zero-ary guard": "z <- e(X, Y), X != Y. out(X, Y) <- z, f(X, Y).",
    "comparison as first step": "out(X, Y) <- 1 < 2, e(X, Y).",
}


@pytest.mark.parametrize("rows", [1, 31, 500])
@pytest.mark.parametrize("shape", sorted(LOWERED_SHAPES))
def test_every_shape_lowers_and_matches_the_reference(shape, rows):
    program = Program(list(parse_program(LOWERED_SHAPES[shape])))
    for rule in program:
        plan, why = compile_batch_plan(rule, builtins=default_builtins())
        assert plan is not None, why
    db = shaped_database(rows)
    expected, reference_profiler = evaluate(db, program, lowered=False)
    tracer = Tracer()
    got, lowered_profiler = evaluate(db, program, lowered=True, tracer=tracer)
    assert got == expected
    assert expected["out"] or rows == 1  # the shape is actually exercised
    assert lowered_profiler.produced == reference_profiler.produced
    tiers = {s.attrs["tier"] for s in tracer.spans if s.kind == "rule"}
    assert tiers == {"batch"}


NOT_LOWERED_SHAPES = {
    "struct with a variable in the body": ("out(X) <- w(g(X)).", "struct argument"),
    "struct with a variable in the head": ("out(g(X)) <- e(X, Y).", "struct argument"),
    "repeated free variable": ("out(X) <- e(X, X).", "repeated free variable"),
}


@pytest.mark.parametrize("shape", sorted(NOT_LOWERED_SHAPES))
def test_non_flat_shapes_run_on_the_reference_and_say_why(shape):
    source, reason = NOT_LOWERED_SHAPES[shape]
    program = Program(list(parse_program("w(g(X)) <- e(X, Y). " + source)))
    plan, why = compile_batch_plan(program.rules[-1])
    assert plan is None and reason in why
    db = shaped_database(31)
    db.load("e", [("loop", "loop")])
    expected, __ = evaluate(db, program, lowered=False)
    tracer = Tracer()
    got, __ = evaluate(db, program, lowered=True, tracer=tracer)
    assert got == expected and expected["out"]
    (span,) = [s for s in tracer.spans if s.name == "rule:out"]
    assert span.attrs["tier"] == "reference" and reason in span.attrs["why"]


def test_flat_join_rule_layout():
    rule = parse_program("h(Y, X) <- e(X, Y), f(Y, Z), Z != X.").rules[0]
    plan, why = compile_batch_plan(rule)
    assert plan is not None and why == ""
    join_e, join_f, compare = plan.steps
    assert [step.label for step in plan.steps] == ["join:h:e", "join:h:f", "compare:h:!="]
    assert join_e.bound_positions == () and join_e.free_out == (0, 1)
    assert join_f.bound_positions == (0,) and join_f.key_slots == (1,)  # Y's column
    assert join_f.free_out == (1,)
    assert compare.key_vars == (Z, X) and compare.key_slots == (2, 0)
    assert plan.head_slots == (1, 0) and plan.head_aggregates == ()
    # the delta map addresses literals by their original body index
    assert plan.delta_map == (0, 1, 2)


# -- governor / fault parity --------------------------------------------------


def _chain_db(n: int) -> Database:
    db = Database()
    db.load("par", [(f"n{i}", f"n{i + 1}") for i in range(n)])
    return db


@pytest.mark.parametrize("lowered", [False, True])
def test_tuple_budget_aborts_both_evaluators(lowered):
    """A tuple budget that aborts the reference aborts the lowered plan
    too: the columnar join ticks the governor cooperatively mid-batch."""
    program = Program(list(parse_program(ANC)))
    engine = FixpointEngine(
        _chain_db(40), compile=lowered, governor=make_governor(max_tuples=50)
    )
    with pytest.raises(TupleBudgetExceeded):
        engine.evaluate(program)


def test_injected_fault_fires_at_the_named_step():
    """A lowered step's checkpoint carries its span label, so a fault
    injected at a named join site fires there."""
    faults = FaultInjector().inject("join:anc:par", error="disk on fire")
    program = Program(list(parse_program(ANC)))
    engine = FixpointEngine(
        _chain_db(10), governor=ResourceGovernor(faults=faults)
    )
    with pytest.raises(InjectedFault, match="disk on fire"):
        engine.evaluate(program)
    assert faults.fired_count() == 1


def _open_operator(err) -> str:
    return [name for name in err.spans if ":" in name][-1]


def test_tuple_budget_aborts_inside_an_anti_join():
    faults = FaultInjector().inject("negation:out:f", exhaust="tuples")
    governor = ResourceGovernor(max_tuples=10_000, faults=faults)
    program = Program(list(parse_program(LOWERED_SHAPES["negation over base"])))
    engine = FixpointEngine(shaped_database(31), governor=governor, tracer=Tracer())
    with pytest.raises(TupleBudgetExceeded) as caught:
        engine.evaluate(program)
    assert _open_operator(caught.value) == "negation:out:f"


def test_tuple_budget_aborts_inside_a_group_head():
    """The join fits the budget; the groups on top of it do not."""
    program = Program(list(parse_program("out(X, Y, count(Z)) <- e(X, Y), e(Y, Z).")))
    db = Database()
    db.load("e", [(f"a{i}", f"b{i}") for i in range(30)])
    db.load("e", [(f"b{i}", f"c{i}") for i in range(30)])
    engine = FixpointEngine(db, governor=make_governor(max_tuples=100), tracer=Tracer())
    with pytest.raises(TupleBudgetExceeded) as caught:
        engine.evaluate(program)
    # every step had closed (60 + 30 rows in flight): the abort came
    # from charging the head's 30 groups
    assert caught.value.spans[-1] == "rule:out"
    assert caught.value.snapshot["produced"] == 60 + 30 + 30


def test_unknown_predicate_raises_inside_the_operator_span():
    program = Program(list(parse_program("out(X) <- e(X, Y), nosuch(Y).")))
    tracer = Tracer()
    engine = FixpointEngine(shaped_database(31), tracer=tracer)
    with pytest.raises(ExecutionError, match="unknown predicate 'nosuch'"):
        engine.evaluate(program)
    failed = [s.name for s in tracer.spans if s.status != "ok"]
    assert "join:out:nosuch" in failed


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


# -- the columnar store -------------------------------------------------------


def test_batch_store_buckets_and_incremental_append():
    interner = TermInterner()
    ids = {name: interner.id_of(Constant(name)) for name in "abxyzw"}
    store = BatchStore(interner)
    store.absorb({(ids["a"], ids["x"]), (ids["a"], ids["y"])})
    assert sorted(store.buckets_for((0,))[ids["a"]]) == [0, 1]
    # appends bring already-built bucket maps up to date on the next probe
    assert store.absorb({(ids["a"], ids["z"])}) == {(ids["a"], ids["z"])}
    assert sorted(store.buckets_for((0,))[ids["a"]]) == [0, 1, 2]
    assert store.length == 3
    # ... and so does a bulk append, which skips the rows already held
    new = store.absorb({(ids["b"], ids["x"]), (ids["a"], ids["w"]), (ids["a"], ids["x"])})
    assert new == {(ids["b"], ids["x"]), (ids["a"], ids["w"])}
    assert len(store.buckets_for((0,))[ids["a"]]) == 4
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
