"""Stratified aggregation (LDL's set-grouping flavour)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import KnowledgeBase, KnowledgeBaseError
from repro.datalog.parser import parse_rule
from repro.datalog.rules import aggregate_spec
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine.batch import fold_aggregate
from repro.errors import ExecutionError

EMPS = [("ann", "eng", 90), ("bob", "eng", 80), ("cal", "ops", 70), ("dee", "eng", 80)]


def kb_with_emps(rules: str) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.rules(rules)
    kb.facts("emp", EMPS)
    return kb


def test_aggregate_spec_detection():
    rule = parse_rule("t(D, sum(S)) <- emp(E, D, S).")
    assert rule.is_aggregate
    assert rule.aggregate_positions == (1,)
    assert aggregate_spec(rule.head.args[1]) == ("sum", Variable("S"))
    assert aggregate_spec(rule.head.args[0]) is None
    # a non-aggregate struct head is not an aggregate
    assert not parse_rule("t(f(X)) <- q(X).").is_aggregate


def test_sum_and_count():
    kb = kb_with_emps(
        """
        dept_total(D, sum(S)) <- emp(E, D, S).
        dept_size(D, count(E)) <- emp(E, D, S).
        """
    )
    assert kb.ask("dept_total(D, T)?").to_python() == [("eng", 250), ("ops", 70)]
    assert kb.ask("dept_size(D, N)?").to_python() == [("eng", 3), ("ops", 1)]


def test_min_max_avg():
    kb = kb_with_emps("stats(D, min_of(S), max_of(S), avg(S)) <- emp(E, D, S).")
    rows = dict((d, (lo, hi, avg)) for d, lo, hi, avg in kb.ask("stats(D, L, H, A)?").to_python())
    assert rows["eng"] == (80, 90, pytest.approx(250 / 3))
    assert rows["ops"] == (70, 70, 70.0)


def test_count_counts_derivations_not_distinct_values():
    """Two engineers earn 80: count(E) sees both (distinct derivations)."""
    kb = kb_with_emps("same_pay(D, S, count(E)) <- emp(E, D, S).")
    rows = dict(((d, s), n) for d, s, n in kb.ask("same_pay(D, S, N)?").to_python())
    assert rows[("eng", 80)] == 2


def test_global_aggregate_no_group():
    kb = kb_with_emps("payroll(sum(S)) <- emp(E, D, S).")
    assert kb.ask("payroll(T)?").to_python() == [(320,)]


def test_aggregates_compose_with_rules():
    kb = kb_with_emps(
        """
        dept_size(D, count(E)) <- emp(E, D, S).
        big(D) <- dept_size(D, N), N >= 2.
        """
    )
    assert kb.ask("big(D)?").to_python() == [("eng",)]


def test_bound_group_argument():
    kb = kb_with_emps("dept_total(D, sum(S)) <- emp(E, D, S).")
    assert kb.ask("dept_total(eng, T)?").to_python() == [(250,)]
    assert kb.ask("dept_total($D, T)?", D="ops").to_python() == [(70,)]


def test_bound_aggregate_value_filters():
    kb = kb_with_emps("dept_size(D, count(E)) <- emp(E, D, S).")
    assert kb.ask("dept_size(D, 3)?").to_python() == [("eng",)]
    assert kb.ask("dept_size(D, 99)?").to_python() == []


def test_aggregate_over_recursive_view():
    kb = KnowledgeBase()
    kb.rules(
        """
        reach(X, Y) <- e(X, Y).
        reach(X, Y) <- e(X, Z), reach(Z, Y).
        fanout(X, count(Y)) <- reach(X, Y).
        """
    )
    kb.facts("e", [("a", "b"), ("b", "c"), ("b", "d")])
    assert kb.ask("fanout(X, N)?").to_python() == [("a", 3), ("b", 2)]


def test_recursion_through_aggregation_rejected():
    kb = KnowledgeBase()
    kb.rules("t(X, count(Y)) <- t(Y, X).")
    kb.facts("noop", [(0,)])
    with pytest.raises(KnowledgeBaseError):
        kb.ask("t(X, N)?")


def test_sum_non_numeric_raises():
    kb = KnowledgeBase()
    kb.rules("bad(sum(N)) <- word(N).")
    kb.facts("word", [("hello",)])
    with pytest.raises(ExecutionError):
        kb.ask("bad(T)?")


def test_float_sums_are_exact_and_rounded_once_and_non_finite_raises():
    values = [1e16, 1.0, -1e16, 0.1, 0.2]
    for order in (values, values[::-1], sorted(values)):
        assert fold_aggregate("sum", [Constant(v) for v in order]) == Constant(math.fsum(values))
    assert fold_aggregate("avg", [Constant(1), Constant(2)]) == Constant(1.5)
    assert isinstance(fold_aggregate("sum", [Constant(1), Constant(2)]).value, int)
    assert isinstance(fold_aggregate("sum", [Constant(1), Constant(2.0)]).value, float)
    kb = KnowledgeBase()
    kb.rules("bad(sum(N)) <- num(N).")
    kb.facts("num", [(math.inf,)])
    with pytest.raises(ExecutionError):
        kb.ask("bad(T)?")


def test_min_max_work_on_strings():
    kb = KnowledgeBase()
    kb.rules("extremes(min_of(W), max_of(W)) <- word(W).")
    kb.facts("word", [("pear",), ("apple",), ("zuc",)])
    assert kb.ask("extremes(Lo, Hi)?").to_python() == [("apple", "zuc")]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 50)), min_size=1, max_size=20))
def test_sum_count_match_python(rows):
    distinct = sorted({(f"e{i}", dept, salary) for i, (dept, salary) in enumerate(rows)})
    kb = KnowledgeBase()
    kb.rules(
        """
        total(D, sum(S)) <- emp(E, D, S).
        size(D, count(E)) <- emp(E, D, S).
        """
    )
    kb.facts("emp", distinct)
    expected_total: dict[str, int] = {}
    expected_count: dict[str, int] = {}
    for __, dept, salary in distinct:
        expected_total[dept] = expected_total.get(dept, 0) + salary
        expected_count[dept] = expected_count.get(dept, 0) + 1
    assert dict(kb.ask("total(D, T)?").to_python()) == expected_total
    assert dict(kb.ask("size(D, N)?").to_python()) == expected_count
