"""End-to-end integration: KnowledgeBase -> Optimizer -> Interpreter.

The key invariant throughout: whatever plan the optimizer picks, execution
returns exactly the tuples of the reference fixpoint evaluation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import KnowledgeBase, OptimizerConfig, UnsafeQueryError
from repro.datalog import parse_program
from repro.engine import Profiler, evaluate_program
from repro.errors import ExecutionError, KnowledgeBaseError
from repro.storage import Database
from repro.workloads import random_dag, same_generation_instance

SG = """
sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
sg(X, Y) <- flat(X, Y).
"""


def test_quickstart_roundtrip(family_kb):
    answers = family_kb.ask("anc(abe, Y)?")
    assert answers.to_python() == [("bart",), ("herb",), ("homer",), ("lisa",), ("maggie",)]


def test_query_form_reuse(family_kb):
    form_answers = family_kb.ask("anc($X, Y)?", X="marge")
    assert form_answers.to_python() == [("bart",), ("lisa",)]
    again = family_kb.ask("anc($X, Y)?", X="abe")
    assert ("homer",) in again.to_python()
    # compiled once
    assert len(family_kb._compiled) == 1


def test_reverse_binding(family_kb):
    answers = family_kb.ask("anc(X, bart)?")
    assert answers.to_python() == [("abe",), ("homer",), ("jackie",), ("marge",)]


def test_boolean_query(family_kb):
    assert len(family_kb.ask("anc(abe, bart)?")) == 1
    assert len(family_kb.ask("anc(bart, abe)?")) == 0


def test_missing_binding_value(family_kb):
    with pytest.raises(ExecutionError):
        family_kb.ask("anc($X, Y)?")
    with pytest.raises(ExecutionError):
        family_kb.ask("anc($X, Y)?", X="abe", Z="oops")


def test_fact_vs_rule_name_clash():
    kb = KnowledgeBase()
    kb.facts("p", [("a", "b")])
    with pytest.raises(KnowledgeBaseError):
        kb.rules("p(X, Y) <- q(X, Y).")
    kb2 = KnowledgeBase()
    kb2.rules("p(X, Y) <- q(X, Y).")
    with pytest.raises(KnowledgeBaseError):
        kb2.facts("p", [("a", "b")])


def test_facts_text_complex_terms():
    kb = KnowledgeBase()
    kb.rules("wheel_of(B, W) <- owns(P, bike(W, B)).")
    kb.facts_text("owns(joe, bike(front, red)). owns(amy, bike(rear, blue)).")
    assert kb.ask("wheel_of(red, W)?").to_python() == [("front",)]


def test_explain_smoke(family_kb):
    text = family_kb.explain("anc($X, Y)?")
    assert "CC anc/2" in text
    assert "cost=" in text


def test_comparisons_and_arithmetic_end_to_end():
    kb = KnowledgeBase()
    kb.rules("grown(P, A2) <- person(P, A), A >= 18, A2 = A + 1.")
    kb.facts("person", [("kid", 10), ("adult", 30)])
    assert kb.ask("grown(P, A2)?").to_python() == [("adult", 31)]


def test_negation_end_to_end():
    kb = KnowledgeBase()
    kb.rules(
        """
        reach(X, Y) <- e(X, Y).
        reach(X, Y) <- e(X, Z), reach(Z, Y).
        stuck(X) <- node(X), ~moves(X).
        moves(X) <- e(X, Y).
        """
    )
    kb.facts("e", [("a", "b"), ("b", "c")])
    kb.facts("node", [("a",), ("b",), ("c",)])
    assert kb.ask("stuck(X)?").to_python() == [("c",)]


def test_unsafe_query_raises(capsys):
    kb = KnowledgeBase()
    kb.rules("p(X, Y, Z) <- X = 3, Z = X + Y.")
    kb.rules("answer(X, Y, Z) <- p(X, Y, Z), Y = 2 ** X.")
    with pytest.raises(UnsafeQueryError):
        kb.ask("answer(X, Y, Z)?")


def test_all_recursive_methods_agree_on_sg():
    db_template = Database()
    same_generation_instance(db_template, fanout=2, depth=3)
    reference = None
    for methods in (("seminaive",), ("magic",), ("counting",), ("naive",)):
        kb = KnowledgeBase(OptimizerConfig(recursive_methods=methods))
        kb.rules(SG)
        for name in ("up", "dn", "flat"):
            kb.facts(name, [tuple(f.value for f in row) for row in db_template.relation(name)])
        answers = kb.ask("sg($X, Y)?", X="t3_7")
        if reference is None:
            reference = answers.to_python()
            assert reference  # non-empty: the instance guarantees partners
        else:
            assert answers.to_python() == reference, f"{methods} disagrees"


def test_execution_matches_reference_fixpoint(family_kb):
    """Optimized execution == plain semi-naive reference, per query form."""
    reference = evaluate_program(family_kb.db, family_kb.program)
    expected = {
        tuple(f.value for f in row) for row in reference["anc"]
    }
    got = set(family_kb.ask("anc(X, Y)?").to_python())
    assert got == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_bound_queries_match_reference_on_random_dags(seed):
    kb = KnowledgeBase()
    kb.rules("t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y).")
    db = Database()
    names = random_dag(db, "e", nodes=10, edges=18, seed=seed)
    rows = [tuple(f.value for f in r) for r in db.relation("e")]
    if not rows:
        return
    kb.facts("e", rows)
    reference = evaluate_program(kb.db, kb.program)
    expected = {t for t in {tuple(f.value for f in r) for r in reference["t"]} if t[0] == names[0]}
    got = {(names[0], y) for (y,) in kb.ask("t($X, Y)?", X=names[0]).to_python()}
    assert got == expected


def test_profiler_passed_through(family_kb):
    profiler = Profiler()
    family_kb.ask("anc(abe, Y)?", profiler=profiler)
    assert profiler.total_work > 0


def test_kb_invalidation_on_new_facts(family_kb):
    before = family_kb.ask("anc(abe, Y)?").to_python()
    family_kb.facts("par", [("bart", "babybart")])
    after = family_kb.ask("anc(abe, Y)?").to_python()
    assert ("babybart",) in after and ("babybart",) not in before


def test_repr_smoke(family_kb):
    family_kb.compile("anc(X, Y)?")
    assert "KnowledgeBase" in repr(family_kb)


@pytest.mark.parametrize("rules, r_rows, query", [
    ("p(X) <- q(X), r(X).", [("a", "b")], "p(X)?"),
    ("p(X) <- q(X), r(X).", [("a", "b")], "p($X)?"),
    ("p(X) <- q(X), r(X, Y).", [("a",)], "p(X)?"),
    ("p(X) <- q(X), ~r(X).", [("a", "b")], "p(X)?"),
    ("p(X) <- q(X), r(X).", None, "p(X)?"),
    ("p(X) <- q(X), ~r(X).", None, "p(X)?"),
])
def test_a_plan_checks_a_body_literal_against_its_stored_relation(rules, r_rows, query):
    """The non-recursive plan reads base relations through the lookup the
    fixpoint uses: a wrong arity or a missing relation raises the same
    ExecutionError on every path, never a silent answer."""
    kb = KnowledgeBase()
    kb.rules(rules)
    kb.facts("q", [("a",)])
    if r_rows is not None:
        kb.facts("r", r_rows)
    expected = "has arity" if r_rows is not None else "unknown predicate 'r'"
    with pytest.raises(ExecutionError, match=expected):
        kb.ask(query, **({"X": "a"} if "$" in query else {}))
    kb.rules("p(X) <- p(X), q(X).")  # the same body on the fixpoint path
    with pytest.raises(ExecutionError, match=expected):
        kb.ask("p(X)?")
