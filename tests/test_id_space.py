"""The id-space contract of the compiled query path.

Between a stored relation and ``to_python()`` the compiled path holds
interned-id rows only (docs/performance.md, "The id-space contract").
These tests pin the four places that contract could leak: the compiled
fixpoint must be observationally the term-space reference (answers,
``produced``, rounds); every rule and plan node shape — complex terms,
repeated variables, every join label — must lower; nothing may be
decoded before a caller asks for terms; and the listing order callers
see must not depend on any of it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import KnowledgeBase, OptimizerConfig, Tracer
from repro.datalog import (
    CPermutation,
    DependencyGraph,
    adorn_clique,
    magic_rewrite,
    parse_program,
    parse_query,
    supplementary_magic_rewrite,
)
from repro.datalog.builtins import default_builtins
from repro.datalog.intern import INTERNER
from repro.datalog.literals import pred_ref
from repro.datalog.rules import Program
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine.fixpoint import FixpointEngine
from repro.engine.interpreter import QueryAnswers
from repro.engine.profiler import Profiler
from repro.storage import Database
from repro.testing.reference import ReferenceEngine
from repro.testing.reference import evaluate_program as reference_evaluation
from repro.workloads import generate_differential_program

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."


def evaluate(db, program, *, lowered, seeds=None, tracer=None):
    """(relations as a plain dict, produced, rounds) of one evaluation,
    by the engine or (*lowered* off) by the term-space reference."""
    profiler = Profiler()
    kwargs = {"tracer": tracer} if tracer is not None else {}
    engine = FixpointEngine if lowered else ReferenceEngine
    result = engine(
        db, profiler=profiler, builtins=default_builtins(), **kwargs
    ).evaluate(program, seeds=seeds)
    relations = {name: rows for name, rows in result.relations.items() if rows}
    return relations, profiler.produced, result.iterations


def database(facts) -> Database:
    db = Database()
    for name in sorted(facts):
        if facts[name]:
            db.load(name, [tuple(row) for row in facts[name]])
    return db


# -- (a) compiled == reference: answers, produced, rounds ---------------------


@pytest.mark.parametrize("seed", range(12))
def test_compiled_fixpoint_equals_reference_on_generated_programs(seed):
    sample = generate_differential_program(seed)
    db = database(sample.facts)
    program = Program(list(parse_program(sample.rules)))
    assert evaluate(db, program, lowered=True) == evaluate(db, program, lowered=False)


@pytest.mark.parametrize("rewrite", [magic_rewrite, supplementary_magic_rewrite])
@pytest.mark.parametrize("seed", range(6))
def test_compiled_fixpoint_equals_reference_on_seeded_magic_programs(seed, rewrite):
    """Seeds are term rows on both sides; the compiled engine encodes
    them once on entry."""
    sample = generate_differential_program(
        seed, features=("aggregate", "arith", "negation", "comparison")
    )
    db = database(sample.facts)
    program = parse_program(sample.rules)
    form = parse_query("p0(d0, Y)?")  # d0 heads the generator's chain backbone
    ref = pred_ref(form.goal)
    graph = DependencyGraph(program)
    adorned = adorn_clique(
        graph.clique_of(ref), ref, form.adornment, CPermutation.greedy_sip(),
        derived_predicates=program.derived_predicates,
    )
    rewritten = rewrite(adorned)
    seeds = {
        rewritten.seed_predicate: {
            tuple(form.goal.args[i] for i in form.adornment.bound_positions)
        }
    }
    compiled = evaluate(db, rewritten.program, lowered=True, seeds=seeds)
    reference = evaluate(db, rewritten.program, lowered=False, seeds=seeds)
    assert compiled == reference
    assert compiled[0][rewritten.answer_predicate]  # the seed reached something


# -- (b) one clique, both executors -------------------------------------------


MIXED_CLIQUE = """
    p(X, Y) <- e(X, Y).
    w(pack(X, Y)) <- p(X, Y).
    q(X, Y) <- w(pack(X, Y)), X != Y.
    p(X, Y) <- q(X, Z), e(Z, Y).
"""


def test_mixed_clique_crosses_the_boundary_both_ways():
    """Named for the decode / encode boundary ``w`` and ``q`` (a struct
    with variables) once crossed inside a compiled clique: they now lower
    too — ``w`` builds ``pack(X, Y)`` ids, ``q`` matches them — so the
    whole clique stays in id space and equals the reference."""
    db = Database()
    db.load("e", [(f"n{i}", f"n{i + 1}") for i in range(12)] + [("n12", "n3")])
    program = Program(list(parse_program(MIXED_CLIQUE)))
    tracer = Tracer()
    compiled = evaluate(db, program, lowered=True, tracer=tracer)
    assert compiled == evaluate(db, program, lowered=False)
    assert len(compiled[0]["p"]) > 13 and compiled[2] > 3  # it really recursed
    tiers = {(s.name, s.attrs["tier"]) for s in tracer.spans if s.kind == "rule"}
    assert tiers == {("rule:p", "batch"), ("rule:w", "batch"), ("rule:q", "batch")}
    assert not any("why" in s.attrs for s in tracer.spans)


# -- (c) plan nodes: lowered or reference, from the node's shape --------------


def cyclic_kb(config=None) -> KnowledgeBase:
    kb = KnowledgeBase(config)
    kb.rules(ANC)
    kb.facts("par", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), (1, 10)])
    return kb


def reference_anc(kb) -> frozenset:
    return reference_evaluation(kb.db, kb.program).rows("anc")


def node_notes(tracer: Tracer, name: str) -> dict:
    (span,) = [s for s in tracer.spans if s.name == name]
    return span.attrs


def test_repeated_free_variable_goal_runs_on_the_reference_and_says_why():
    kb = cyclic_kb()
    tracer = Tracer()
    answers = kb.ask("anc(X, X)?", tracer=tracer)
    loops = {(x.value,) for x, y in reference_anc(kb) if x == y}
    assert set(answers.to_python()) == loops == {("a",), ("b",), ("c",)}
    # named for the fallback this goal once took: it lowers now
    notes = node_notes(tracer, "execute:anc")
    assert notes["tier"] == "batch" and "why" not in notes


def test_boolean_and_bound_forms_are_lowered_and_agree_with_the_reference():
    kb = cyclic_kb()
    expected = reference_anc(kb)
    tracer = Tracer()
    assert kb.ask("anc(a, d)?", tracer=tracer).to_python() == [()]
    assert node_notes(tracer, "execute:anc")["tier"] == "batch"
    assert kb.ask("anc(d, a)?").to_python() == []
    for start in ("a", "d", 1, "nowhere"):
        tracer = Tracer()
        got = kb.ask("anc($X, Y)?", X=start, tracer=tracer).to_python()
        want = {(y.value,) for x, y in expected if x == Constant(start)}
        assert set(got) == want and len(got) == len(want)
        assert node_notes(tracer, "execute:anc")["tier"] == "batch"


@pytest.mark.parametrize("method", ["nested_loop", "merge", "hash", "index"])
def test_join_label_decides_the_tier_of_an_and_node(method):
    """Named for the tier the label once decided: now every label lowers,
    and picks the variant of the join step (``nested_loop`` / ``merge``
    do that method's work over id columns)."""
    kb = KnowledgeBase(OptimizerConfig(strategy="textual", force_method=method))
    kb.rules("takes(C, K) <- class(C, S), enrolled(S, K).")
    kb.facts("class", [("c0", "s0"), ("c0", "s1"), ("c1", "s1")])
    kb.facts("enrolled", [("s0", "k0"), ("s1", "k1"), ("s1", "k2")])
    tracer = Tracer()
    answers = kb.ask("takes($C, K)?", C="c0", tracer=tracer)
    assert answers.to_python() == [("k0",), ("k1",), ("k2",)]
    notes = node_notes(tracer, "and:takes")
    assert notes["tier"] == "batch" and "why" not in notes
    assert node_notes(tracer, "join:takes:class")["method"] == method


def test_struct_in_a_bound_head_position_runs_on_the_reference():
    kb = KnowledgeBase()
    kb.rules("boxed(pack(X, Y), Y) <- e(X, Y). open(X, Z) <- e(X, Y), boxed(pack(X, Y), Z).")
    kb.facts("e", [("a", "b"), ("b", "c")])
    tracer = Tracer()
    assert kb.ask("open(X, Z)?", tracer=tracer).to_python() == [("a", "b"), ("b", "c")]
    # named for the fallback this node once took: its keys now match
    # ``pack(X, Y)`` per key, and both nodes lower
    tiers = {s.name: s.attrs.get("tier") for s in tracer.spans if s.name.startswith("and:")}
    assert tiers["and:boxed"] == "batch" and tiers["and:open"] == "batch"


# -- (d) laziness, by count ---------------------------------------------------


@pytest.fixture
def decodes():
    """Counts every id -> term lookup in the process-wide interner."""

    class Counting(list):
        reads = 0

        def __getitem__(self, index):
            Counting.reads += 1
            return list.__getitem__(self, index)

    INTERNER.terms = counting = Counting(INTERNER.terms)
    try:
        yield Counting
    finally:
        INTERNER.terms = list(counting)  # keeps the terms admitted meanwhile


def test_nothing_is_decoded_until_terms_are_asked_for(decodes):
    kb = KnowledgeBase()
    kb.rules(ANC)
    edges = [(f"v{i}", f"v{i + 1}") for i in range(30)] + [("v5", 7), (7, "v9")]
    kb.facts("par", edges)
    decodes.reads = 0

    answers = kb.ask("anc(X, Y)?")
    assert len(answers) > 400 and bool(answers)
    # the one reader so far is the optimizer's statistics pass: a column's
    # numeric range takes one decode per distinct id, rows take none
    assert decodes.reads == sum(len(set(column)) for column in zip(*edges))
    decodes.reads = 0
    assert kb.ask("anc(X, Y)?") is answers  # the cache hit
    kb._result_cache.clear()
    again = kb.ask("anc(X, Y)?")  # a second execution
    assert again is not answers and again == answers and hash(again) == hash(answers)
    assert ("v0", "v9") in answers and ("v9", "v0") not in answers
    assert ("v0", "never-seen") not in answers and ("v0",) not in answers
    assert decodes.reads == 0

    distinct = {value for row in edges for value in row}
    listed = answers.to_python()
    assert decodes.reads == len(distinct)  # each distinct id, once
    assert len(listed) == len(answers)
    decodes.reads = 0
    assert len(answers.rows) == len(answers)
    assert decodes.reads == len(distinct)
    answers.rows  # kept: the second read decodes nothing
    assert decodes.reads == len(distinct)


def test_membership_lifts_a_list_value_as_the_facts_did():
    kb = KnowledgeBase()
    kb.facts("p", [([1, 2],)])
    answers = kb.ask("p(X)?")
    size = len(INTERNER)
    assert ([1, 2],) in answers and ([1, 2],) in kb.db.relation("p")
    assert ([2, 1],) not in answers and ([1, 2, 3],) not in answers
    assert ({},) not in answers and 5 not in answers  # no term holds these
    assert len(INTERNER) == size


def test_evaluation_result_decodes_per_predicate_on_first_access(decodes):
    db = Database()
    db.load("e", [(f"n{i}", f"n{i + 1}") for i in range(10)])
    program = Program(list(parse_program(
        "p(X, Y) <- e(X, Y). p(X, Y) <- e(X, Z), p(Z, Y). twin(X, Y) <- p(X, Y)."
    )))
    decodes.reads = 0
    result = FixpointEngine(db).evaluate(program)
    assert result.ids("p").length == 55 and decodes.reads == 0
    assert len(result.rows("p")) == 55
    after_p = decodes.reads
    assert 0 < after_p <= 2 * 55
    result["p"], result.rows("p")
    assert decodes.reads == after_p  # kept
    assert result.relations == {"p": result["p"], "twin": result["p"]}
    assert decodes.reads == 2 * after_p  # twin decoded now, p not again
    assert result.rows("absent") == frozenset() and not result.ids("absent").rows


# -- (e) listing order --------------------------------------------------------


def test_listing_order_is_by_rendered_fields_on_mixed_constants():
    kb = KnowledgeBase()
    kb.facts("r", [(10, "x"), ("a", "x"), (9, "x"), (1, "x"), (1, "b")])
    answers = kb.ask("r(X, Y)?")
    assert answers.to_python() == [(1, "b"), (1, "x"), (10, "x"), (9, "x"), ("a", "x")]
    assert [tuple(f.value for f in row) for row in answers] == answers.to_python()
    assert answers.first() == (1, "b")
    assert answers.to_dicts()[0] == {"X": 1, "Y": "b"}
    assert kb.ask("r(X, nope)?").first() is None


#: fields whose texts collide across kinds: ``1`` and ``"1"``, ``f(a)`` the
#: struct and ``"f(a)"`` the string
_FIELDS = st.recursive(
    st.sampled_from([1, 2, 10, "1", "10", "a", "f(a)", "b"]).map(Constant),
    lambda inner: st.builds(
        lambda functor, args: Struct(functor, tuple(args)),
        st.sampled_from(["f", "g"]), st.lists(inner, min_size=1, max_size=2),
    ),
    max_leaves=4,
)


def _listed_by_text_tuples(answers) -> list[tuple]:
    """The listing as first defined: rows sorted by the tuple of their
    fields' ``str()``, ties in stored order."""
    rows = answers._render(answers._distinct())
    keys = [tuple(map(str, row)) for row in rows]
    plain = [tuple(f.value if isinstance(f, Constant) else f for f in row) for row in rows]
    return [plain[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]


@settings(max_examples=200, deadline=None)
@given(width=st.integers(0, 3), data=st.data())
def test_listing_by_ranks_equals_listing_by_text_tuples(width, data):
    rows = data.draw(st.lists(st.tuples(*[_FIELDS] * width), max_size=12, unique=True))
    variables = tuple(Variable(f"V{i}") for i in range(width))
    # stored in the drawn order, so ties between equal texts are ordered
    # by something other than their ids
    ids = [INTERNER.encode_row(row) for row in rows]
    columns = [list(column) for column in zip(*ids)] if width and ids else ()
    answers = QueryAnswers.from_columns(variables, columns, len(ids), Profiler())
    expected = _listed_by_text_tuples(answers)
    assert answers.to_python() == expected
    assert [tuple(f.value if isinstance(f, Constant) else f for f in row) for row in answers] == expected
    assert answers.first() == (expected[0] if expected else None)


def test_equal_texts_keep_their_stored_order():
    one, text_one = INTERNER.id_of(Constant(1)), INTERNER.id_of(Constant("1"))
    x = INTERNER.id_of(Constant("x"))
    for columns, listed in (
        ([[text_one, one]], [("1",), (1,)]),
        ([[one, text_one]], [(1,), ("1",)]),
        ([[text_one, one], [x, x]], [("1", "x"), (1, "x")]),
        ([[one, text_one], [x, x]], [(1, "x"), ("1", "x")]),
    ):
        variables = tuple(Variable(f"V{i}") for i in range(len(columns)))
        answers = QueryAnswers.from_columns(variables, columns, 2, Profiler())
        assert answers.to_python() == listed and answers.first() == listed[0]


# -- QueryAnswers is a value --------------------------------------------------


def test_query_answers_compare_and_hash_on_variables_and_rows_only():
    """At the parent commit QueryAnswers was a dataclass comparing its
    profiler too: two executions of one query were unequal (wall-clock
    counters differ) and unhashable (Profiler is)."""
    kb = KnowledgeBase(result_cache=False)
    kb.rules(ANC)
    kb.facts("par", [("a", "b"), ("b", "c")])
    first, second = kb.ask("anc(X, Y)?"), kb.ask("anc(X, Y)?")
    assert first is not second and first.profiler is not second.profiler
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != kb.ask("anc(a, Y)?")
    renamed = kb.ask("anc(A, B)?")
    assert renamed.rows == first.rows and renamed != first  # other variables
    assert first != first.rows
