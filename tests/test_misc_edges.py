"""Edge cases across small modules: errors, printer, profiler, plan helpers,
interpreter guards, optimizer config validation, greedy SIP."""

import math

import pytest

from repro import KnowledgeBase, Optimizer, OptimizerConfig
from repro.cost.model import Estimate
from repro.datalog import (
    BindingPattern,
    CPermutation,
    parse_program,
    parse_query,
    parse_rule,
)
from repro.datalog.adorn import greedy_sip_permutation
from repro.engine import Interpreter, Profiler
from repro.errors import (
    ExecutionError,
    OptimizationError,
    ParseError,
    UnsafeQueryError,
)
from repro.plans import count_nodes, explain, plan_nodes
from repro.storage.statistics import DeclaredStatistics


# -- errors ------------------------------------------------------------------


def test_parse_error_location_formatting():
    err = ParseError("boom", line=3, column=7)
    assert "line 3" in str(err) and "column 7" in str(err)
    assert "line" not in str(ParseError("plain"))


def test_unsafe_query_error_lists_reasons():
    err = UnsafeQueryError("no way", reasons=["goal a stuck", "goal b stuck"])
    text = str(err)
    assert "goal a stuck" in text and "goal b stuck" in text


# -- profiler -----------------------------------------------------------------


def test_profiler_counters_and_labels():
    p = Profiler()
    p.bump_examined(3)
    p.bump_produced(2)
    p.bump_probes()
    p.bump_materialized(4)
    p.bump_iterations(5)
    p.charge("join:up", 7)
    assert p.total_work == 3 + 2 + 4
    snap = p.snapshot()
    assert snap["iterations"] == 5
    assert p.by_label == {"join:up": 7}
    assert "examined=3" in repr(p)


# -- plan helpers -------------------------------------------------------------


def family_plan():
    kb = KnowledgeBase()
    kb.rules("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).")
    kb.facts("par", [("a", "b")])
    return kb.compile("anc($X, Y)?").plan


def test_plan_nodes_walk_and_count():
    plan = family_plan()
    nodes = plan_nodes(plan)
    assert nodes[0] is plan
    assert count_nodes(plan) == len(nodes) >= 3


def test_node_describe_methods():
    plan = family_plan()
    assert plan.describe().startswith("OR")
    wrapper = plan.children[0]
    assert wrapper.describe().startswith("AND")
    step = wrapper.steps[0]
    assert "anc" in step.describe()
    assert step.child.describe().startswith("CC")


def test_explain_renders_infinite_costs():
    from repro.datalog import PredicateRef
    from repro.plans.nodes import JoinNode, UnionNode

    rule = parse_rule("p(X) <- q(X).")
    node = UnionNode(
        PredicateRef("p", 1), BindingPattern("f"),
        (JoinNode(rule, BindingPattern("f"), (), Estimate.unsafe()),),
        Estimate.unsafe(),
    )
    assert "∞" in explain(node)


# -- interpreter guards ---------------------------------------------------------


def test_counting_node_requires_keys():
    from repro import OptimizerConfig

    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("counting",)))
    kb.rules("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).")
    kb.facts("par", [(f"n{i}", f"n{i+1}") for i in range(30)])
    compiled = kb.compile("anc($X, Y)?")
    cc = compiled.plan.children[0].steps[0].child
    assert cc.method == "counting"
    interpreter = Interpreter(kb.db)
    with pytest.raises(ExecutionError):
        interpreter.execute(cc, None)  # sideways method without bindings


def test_unknown_recursive_method_rejected():
    from repro.datalog import PredicateRef, Program
    from repro.plans.nodes import FixpointNode

    node = FixpointNode(
        ref=PredicateRef("t", 2), binding=BindingPattern("bf"),
        method="quantum", program=Program(()),
        answer_predicate="t", seed_predicate=None,
    )
    kb = KnowledgeBase()
    kb.facts("noop", [(0,)])
    with pytest.raises(ExecutionError):
        Interpreter(kb.db).execute(node, frozenset({()}))


# -- optimizer configuration -----------------------------------------------------


def test_unknown_strategy_rejected():
    with pytest.raises(OptimizationError):
        Optimizer(parse_program("p(X) <- q(X)."), DeclaredStatistics(),
                  OptimizerConfig(strategy="psychic"))


def test_large_body_switches_strategy():
    body = ", ".join(f"r{i}(A{i}, A{i+1})" for i in range(11))
    program = parse_program(f"big(A0, A11) <- {body}.")
    stats = DeclaredStatistics()
    for i in range(11):
        stats.declare(f"r{i}", 100, [10, 10])
    optimizer = Optimizer(program, stats, OptimizerConfig(strategy="dp"))
    compiled = optimizer.optimize(parse_query("big($X, Y)?"))
    assert compiled.safe
    # the n! / 2^n budgets would explode at n=11; the switch kept it sane
    assert optimizer.counters["order_evaluations"] < 5000


# -- greedy SIP ------------------------------------------------------------------


def test_greedy_sip_prefers_bound_literals():
    rule = parse_rule("sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).")
    assert greedy_sip_permutation(rule, BindingPattern("bf")) == (0, 1, 2)
    # bound on Y: dn first, then sg, then up
    assert greedy_sip_permutation(rule, BindingPattern("fb")) == (2, 1, 0)


def test_greedy_sip_places_comparisons_when_ec():
    rule = parse_rule("p(X, Y) <- Y = Z + 1, q(X, Z).")
    order = greedy_sip_permutation(rule, BindingPattern("bf"))
    assert order == (1, 0)  # q binds Z, then the equality is computable


def test_cpermutation_greedy_key_differs_from_identity():
    assert CPermutation.greedy_sip().key() != CPermutation.identity().key()


# -- KB odds and ends --------------------------------------------------------------


def test_kb_rule_object_api():
    kb = KnowledgeBase()
    kb.rule(parse_rule("p(X) <- q(X)."))
    kb.facts("q", [("a",)])
    assert kb.ask("p(X)?").to_python() == [("a",)]


def test_compile_accepts_query_form_object():
    kb = KnowledgeBase()
    kb.rules("p(X) <- q(X).")
    kb.facts("q", [("a",)])
    form = parse_query("p(X)?")
    compiled = kb.compile(form)
    assert compiled is kb.compile(form)  # cached


def test_zero_answer_query():
    kb = KnowledgeBase()
    kb.rules("p(X) <- q(X), X > 100.")
    kb.facts("q", [(1,), (2,)])
    answers = kb.ask("p(X)?")
    assert len(answers) == 0
    assert answers.to_python() == []


def test_queryanswers_to_dicts_and_first():
    kb = KnowledgeBase()
    kb.rules("p(X, Y) <- q(X, Y).")
    kb.facts("q", [("a", 1), ("b", 2)])
    answers = kb.ask("p(X, Y)?")
    assert answers.to_dicts() == [{"X": "a", "Y": 1}, {"X": "b", "Y": 2}]
    assert answers.first() == ("a", 1)
    empty = kb.ask("p(zzz, Y)?")
    assert empty.first() is None and empty.to_dicts() == []


def test_queryanswers_repr_and_iter():
    kb = KnowledgeBase()
    kb.rules("p(X) <- q(X).")
    kb.facts("q", [("b",), ("a",)])
    answers = kb.ask("p(X)?")
    assert "QueryAnswers" in repr(answers)
    ordered = [row for row in answers]
    assert ordered == sorted(ordered, key=lambda r: tuple(str(f) for f in r))
