"""The lowered rule executor: lowered ≡ reference, interning, parity.

The contract of :mod:`repro.engine.batch` is strict observational
equivalence with the term-space reference evaluator
(:mod:`repro.testing.reference`), *plus* profiler parity: for every
rule — every shape lowers — the columnar plan must
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
import re
from pathlib import Path

import pytest

import repro
from repro import KnowledgeBase, Tracer
from repro.datalog.builtins import default_builtins
from repro.datalog.intern import INTERNER, TermInterner, intern_term
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.datalog.terms import Constant, Struct, Variable, make_list
from repro.engine.batch import compile_batch_plan
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.fixpoint import FixpointEngine
from repro.engine.governor import ResourceGovernor, make_governor
from repro.engine.profiler import Profiler
from repro.errors import ExecutionError, TupleBudgetExceeded
from repro.storage import Database, relation_from_rows
from repro.storage.columnar import BatchStore
from repro.testing.reference import ReferenceEngine

X, Z = Variable("X"), Variable("Z")

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."


def evaluate(db, program, *, lowered, **engine_kwargs):
    """(relations, profiler) of one evaluation, lowered or on the
    term-space reference."""
    profiler = Profiler()
    engine = FixpointEngine if lowered else ReferenceEngine
    result = engine(
        db, profiler=profiler, builtins=default_builtins(), **engine_kwargs,
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
        assert compile_batch_plan(rule, builtins=default_builtins()).steps
    db = shaped_database(rows)
    expected, reference_profiler = evaluate(db, program, lowered=False)
    tracer = Tracer()
    got, lowered_profiler = evaluate(db, program, lowered=True, tracer=tracer)
    assert got == expected
    assert expected["out"] or rows == 1  # the shape is actually exercised
    assert lowered_profiler.produced == reference_profiler.produced
    tiers = {s.attrs["tier"] for s in tracer.spans if s.kind == "rule"}
    assert tiers == {"batch"}


COMPLEX = "e(f(a), b). e(f(c), d). e(k, k). k2(a, b). k2(c, z). k2(k, k)."
TAKES = "takes(C, K) <- class(C, S), enrolled(S, K)."
TAKES_FACTS = (
    "class(c0, s0). class(c0, s1). class(c1, s1). "
    "enrolled(s0, k0). enrolled(s1, k1). enrolled(s1, k2)."
)

#: Per reason the lowering once refused a rule or an AND node (it ran on
#: the reference evaluator instead): a program of that shape, its facts,
#: an ask, and the forced join label, if any.
FORMER_REFUSALS = {
    "struct pattern with a free variable": (
        "r(X, Y) <- e(f(X), Y).", COMPLEX, "r(X, Y)?", None),
    "struct argument with its variables bound": (
        "v(X, Y) <- k2(X, Y), e(f(X), Y).", COMPLEX, "v(X, Y)?", None),
    "repeated free variable": ("s(X) <- e(X, X).", COMPLEX, "s(X)?", None),
    "struct argument in the head": (
        "t(g(X, Y)) <- e(f(X), Y).", COMPLEX, "t(Z)?", None),
    "struct argument in a bound head position": (
        "t(g(X, Y)) <- e(f(X), Y). u(Y) <- t(g(a, Y)).", COMPLEX, "u(Y)?", None),
    "sideways keys that are not all bound columns": (
        "t(g(X, Y)) <- e(f(X), Y). w(X) <- k2(X, Y), t(g(X, Y)).", COMPLEX, "w(X)?", None),
    "nested_loop join label": (TAKES, TAKES_FACTS, "takes($C, K)?", "nested_loop"),
    "merge join label": (TAKES, TAKES_FACTS, "takes($C, K)?", "merge"),
}


@pytest.mark.parametrize("reason", sorted(FORMER_REFUSALS))
def test_former_refusal_reasons_lower_and_match_the_reference(reason):
    """Every shape the lowering once refused runs on the batch tier —
    on the ``rule:`` / ``and:`` spans and in telemetry — and answers as
    the term-space reference does; a bottom-up evaluation of its program
    also produces what the reference's does."""
    from repro import OptimizerConfig
    from repro.datalog.parser import parse_query
    from repro.datalog.unify import match
    from repro.testing import reference

    rules, facts, query, method = FORMER_REFUSALS[reason]
    config = OptimizerConfig(strategy="textual", force_method=method) if method else None
    kb = KnowledgeBase(config)
    kb.rules(rules)
    kb.facts_text(facts)
    tracer = Tracer()
    bindings = {"C": "c0"} if "$C" in query else {}
    answers = kb.ask(query, tracer=tracer, **bindings)
    tiers = {s.attrs.get("tier") for s in tracer.spans if s.name.startswith(("rule:", "and:"))}
    assert tiers == {"batch"} and kb.telemetry.last["tier"] == "batch"

    goal = parse_query(query.replace("$C", "c0")).goal
    expected, lowered, oracle = set(), Profiler(), Profiler()
    for row in reference.evaluate_program(kb.db, kb.program, profiler=oracle).rows(
        goal.predicate
    ):
        subst = {}
        for pattern, value in zip(goal.args, row):
            subst = match(pattern, value, subst) if subst is not None else None
        if subst is not None:
            expected.add(tuple(subst[var] for var in answers.variables))
    assert answers.rows == expected and expected
    FixpointEngine(kb.db, profiler=lowered).evaluate(kb.program)
    assert lowered.produced == oracle.produced


UNSAFE = {
    "head variable not bound by the body": (
        "out(X, Y) <- e(X, Z).", "rule head out(X, Y) not fully bound by body"),
    "negated literal with an unbound argument": (
        "out(X) <- e(X, Y), ~f(X, Z).", "negated literal f(X, Z) entered with unbound"),
}


@pytest.mark.parametrize("shape", sorted(UNSAFE))
def test_an_unsafe_shape_lowers_and_raises_the_references_error(shape):
    """An unsafe rule (run in its trusted order) lowers; the step that
    cannot run raises the reference's error when rows reach it — and
    only then."""
    from repro.testing.reference import ReferenceEngine

    source, message = UNSAFE[shape]
    program = Program(list(parse_program(source)))
    assert compile_batch_plan(program.rules[0], reorder=False).steps
    for engine in (FixpointEngine, ReferenceEngine):
        with pytest.raises(ExecutionError, match=re.escape(message)):
            engine(shaped_database(5), reorder_bodies=False).evaluate(program)
        # no rows reach the step: nothing to raise
        empty = Database()
        empty.create("e", 2)
        empty.create("f", 2)
        assert not engine(empty, reorder_bodies=False).evaluate(program).rows("out")


def test_flat_join_rule_layout():
    rule = parse_program("h(Y, X) <- e(X, Y), f(Y, Z), Z != X.").rules[0]
    plan = compile_batch_plan(rule)
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
    engine = (FixpointEngine if lowered else ReferenceEngine)(
        _chain_db(40), governor=make_governor(max_tuples=50)
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
    assert tuple(interner.terms[i] for i in ids) == row
    # injectivity: distinct terms never share an id
    assert len(set(ids)) == len(ids)


def test_global_interner_shares_instances_across_terms():
    assert intern_term(Constant("shared-xyz")) is intern_term(Constant("shared-xyz"))


class Label(str):
    pass


NAN = float("nan")

LOADS = {
    "mixed": [
        ("a", 1, [1, "b"]),
        (2.0, "a", True),
        (Constant("c"), 1, Struct("f", (Constant("d"),))),
        ("e", False, Constant(0.0)),
    ],
    "one class": [("b", "a"), ("a", "c"), ("d", "b")],
    "floats, a NaN among them": [(1.5, -0.0), (NAN, 0.0), (2.5, NAN), (1.5, 3.5)],
    "a str subclass": [(Label("x"),), (Label("y"),), (Label("x"),)],
}


def _admitted(interner):
    """The admitted terms, told apart by class (NaN is unequal to itself)."""
    return [
        (term.__class__, getattr(term, "value", None).__class__, repr(term))
        for term in interner.terms
    ]


@pytest.mark.parametrize("load", sorted(LOADS))
def test_a_bulk_load_admits_row_by_row_as_single_fields_do(load):
    rows = LOADS[load]
    bulk, single, by_field = TermInterner(), TermInterner(), TermInterner()
    id_rows = bulk.encode_rows(rows)
    for row in rows:
        single.encode_rows([row])
        for field in row:
            by_field.id_of(field)
    assert _admitted(bulk) == _admitted(single) == _admitted(by_field)
    if load.startswith("floats"):
        assert len(id_rows) == len(rows)  # each NaN is a new value
    else:
        assert id_rows == set(map(by_field.lookup_row, rows))


def test_row_by_row_is_not_column_by_column():
    interner = TermInterner()
    interner.encode_rows(LOADS["mixed"])
    # the second row's 2.0 comes after the first row's list, not right
    # after "a" as a column at a time would admit it
    assert interner.terms[:3] == [Constant("a"), Constant(1), Constant("b")]
    list_id = interner.lookup(make_list([Constant(1), Constant("b")]))
    assert interner.lookup(2.0) > list_id


def test_interned_identity_is_class_exact():
    interner = TermInterner()
    one, true, one_f, zero, minus_zero, text, label = interner.encode_row(
        (1, True, 1.0, 0.0, -0.0, "x", Label("x"))
    )
    assert len({one, true, one_f}) == 3
    assert zero == minus_zero
    assert text != label and interner.terms[label].value.__class__ is Label
    # a plain value and its constant are one term
    assert interner.id_of(Constant(True)) == true and interner.lookup(Constant(1.0)) == one_f
    assert interner.lookup_row((Constant(1), 1.0)) == (one, one_f)


def test_a_nan_is_admitted_afresh_at_every_store():
    nan = float("nan")
    interner = TermInterner()
    first, second = interner.id_of(nan), interner.id_of(nan)
    assert first != second
    assert interner.lookup(nan) is None and interner.lookup_row((nan,)) is None
    # the canonical instance itself is still found, by identity
    assert interner.id_of(interner.terms[first]) == first
    kb = KnowledgeBase()
    assert kb.facts("p", [(nan,), (nan,)]) == 2


def test_lookup_admits_nothing():
    interner = TermInterner()
    interner.encode_rows([("a", 1, [2])])
    sizes = len(interner), len(interner._ids), {c: len(t) for c, t in interner._payloads.items()}
    assert interner.lookup("a") == interner.lookup(Constant("a")) == 0
    assert interner.lookup_row(("a", 1, [2])) is not None
    for probe in ("zz", Constant(7), True, 1.5, [3], Struct("f", (Constant("zz"),)), Variable("X")):
        assert interner.lookup(probe) is None
    assert interner.lookup_row(("a", 1, [2, 3])) is None
    assert interner.lookup_row(("a", 7, [2])) is None
    assert (len(interner), len(interner._ids), {c: len(t) for c, t in interner._payloads.items()}) == sizes


def test_reloading_interned_plain_values_builds_no_term(monkeypatch):
    """A field already interned is found by its payload: neither a bulk
    load nor a membership probe lifts it into a ``Constant``."""
    import repro.datalog.intern as intern_module
    import repro.storage.columnar as columnar_module
    from repro.datalog.terms import lift_term

    rows = [(f"reload{i}", i, i / 2, i % 2 == 0) for i in range(50)]
    db = Database()
    db.add("p", rows)
    lifted = []

    def spy(obj):
        lifted.append(obj)
        return lift_term(obj)

    for module in (intern_module, columnar_module):
        if hasattr(module, "lift_term"):
            monkeypatch.setattr(module, "lift_term", spy)
    size = len(INTERNER)
    assert len(db.add("q", rows)) == len(rows)
    assert all(row in db.relation("q") for row in rows)
    texts = [(text, text) for text, *_ in rows]  # one class: the bulk path
    assert len(db.add("r", texts)) == len(texts)
    assert lifted == [] and len(INTERNER) == size


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
