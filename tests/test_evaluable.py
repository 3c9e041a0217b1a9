"""Evaluable-predicate execution tests (the built-in routines of Sec. 8)."""

import pytest
from hypothesis import given, strategies as st

from repro import KnowledgeBase
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine.evaluable import (
    compare_terms,
    eval_term,
    solve_comparison,
    term_sort_key,
)
from repro.engine.fixpoint import evaluate_program
from repro.optimizer import STRATEGIES, OptimizerConfig
from repro.testing import reference
from repro.errors import ExecutionError
from repro.storage import Database

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def test_eval_arithmetic():
    term = parse_literal("Z = (X + 2) * Y").args[1]
    out = eval_term(term, {X: Constant(3), Y: Constant(4)})
    assert out == Constant(20)


def test_eval_all_operators():
    cases = {
        "X + Y": 7, "X - Y": 3, "X * Y": 10, "X // Y": 2, "X mod Y": 1,
        "X ** Y": 25, "X / Y": 2.5,
    }
    binding = {X: Constant(5), Y: Constant(2)}
    for text, expected in cases.items():
        term = parse_literal(f"Z = {text}").args[1]
        assert eval_term(term, binding) == Constant(expected)


def test_eval_unary_and_builtin():
    assert eval_term(Struct("neg", (Constant(3),)), {}) == Constant(-3)
    assert eval_term(Struct("abs", (Constant(-3),)), {}) == Constant(3)
    assert eval_term(Struct("min", (Constant(2), Constant(5))), {}) == Constant(2)
    assert eval_term(Struct("max", (Constant(2), Constant(5))), {}) == Constant(5)


def test_eval_unbound_raises():
    term = parse_literal("Z = X + 1").args[1]
    with pytest.raises(ExecutionError):
        eval_term(term, {})


def test_eval_non_numeric_raises():
    term = parse_literal("Z = X + 1").args[1]
    with pytest.raises(ExecutionError):
        eval_term(term, {X: Constant("text")})


def test_division_by_zero():
    term = parse_literal("Z = X / 0").args[1]
    with pytest.raises(ExecutionError):
        eval_term(term, {X: Constant(1)})


def test_structural_terms_pass_through():
    term = Struct("f", (X,))
    assert eval_term(term, {X: Constant(1)}) == Struct("f", (Constant(1),))


def test_solve_equality_binds():
    out = solve_comparison(parse_literal("Z = X + 1"), {X: Constant(2)})
    assert out[Z] == Constant(3)


def test_solve_equality_checks():
    assert solve_comparison(parse_literal("X = 3"), {X: Constant(3)}) is not None
    assert solve_comparison(parse_literal("X = 3"), {X: Constant(4)}) is None


def test_solve_equality_decomposes_structs():
    out = solve_comparison(
        parse_literal("pair(A, B) = P"),
        {Variable("P"): Struct("pair", (Constant(1), Constant(2)))},
    )
    assert out[Variable("A")] == Constant(1)
    assert out[Variable("B")] == Constant(2)


def test_solve_equality_both_unbound_raises():
    with pytest.raises(ExecutionError):
        solve_comparison(parse_literal("X = Y"), {})


def test_solve_equality_noninvertible_raises():
    with pytest.raises(ExecutionError):
        solve_comparison(parse_literal("5 = X + 1"), {})


def test_solve_orderings():
    binding = {X: Constant(1), Y: Constant(2)}
    assert solve_comparison(parse_literal("X < Y"), binding) is not None
    assert solve_comparison(parse_literal("X > Y"), binding) is None
    assert solve_comparison(parse_literal("X <= 1"), binding) is not None
    assert solve_comparison(parse_literal("X != Y"), binding) is not None
    assert solve_comparison(parse_literal("X >= Y"), binding) is None


def test_solve_comparison_unbound_raises():
    with pytest.raises(ExecutionError):
        solve_comparison(parse_literal("X < Y"), {X: Constant(1)})


def test_comparison_evaluates_arithmetic():
    out = solve_comparison(parse_literal("X + 1 < Y * 2"), {X: Constant(1), Y: Constant(2)})
    assert out is not None


def test_compare_terms_total_order():
    assert compare_terms(Constant(1), Constant(2)) == -1
    assert compare_terms(Constant("a"), Constant("b")) == -1
    assert compare_terms(Constant(1), Constant("a")) == -1  # numbers < strings
    assert compare_terms(Constant("z"), Struct("f", ())) == -1  # strings < structs
    assert compare_terms(Constant(2), Constant(2.0)) == 0


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_compare_agrees_with_python(a, b):
    expected = -1 if a < b else (1 if a > b else 0)
    assert compare_terms(Constant(a), Constant(b)) == expected


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=10))
def test_sort_key_is_consistent(values):
    terms = [Constant(v) for v in values]
    assert sorted(terms, key=term_sort_key) == [Constant(v) for v in sorted(values)]


def test_disequality_is_term_identity_and_order_is_exact():
    big = 2 ** 53
    assert solve_comparison(parse_literal("2 != 2.0"), {}) == {}
    assert solve_comparison(parse_literal("2 != 2"), {}) is None
    assert compare_terms(Constant(big), Constant(big + 1)) == -1
    assert compare_terms(Constant(float(big)), Constant(big + 1)) == -1
    assert compare_terms(Constant(10 ** 400), Constant(1.5)) == 1  # no overflow
    assert compare_terms(Constant(True), Constant(0.5)) == 1


NUMBERS = """
same(X, Y) <- n(X), m(Y), X = Y.
diff(X, Y) <- n(X), m(Y), X != Y.
lt(X, Y) <- n(X), m(Y), X < Y.
"""


def _typed(rows):
    """Rows of plain values keyed by class too: ``(2, 2.0) == (2, 2)``."""
    return {tuple((type(v).__name__, v) for v in row) for row in rows}


@pytest.mark.parametrize("lowered", [True, False])
def test_disequality_negates_equality_on_numbers_equal_as_floats(lowered):
    """``2`` / ``2.0`` and ``2**53`` / ``2**53 + 1`` are equal as floats
    but distinct terms: ``=`` fails on them, so ``!=`` holds, and ``<``
    orders the big pair exactly."""
    big = 2 ** 53
    kb = KnowledgeBase()
    kb.rules(NUMBERS)
    kb.facts("n", [(2,), (big,)])
    kb.facts("m", [(2.0,), (big + 1,)])
    if lowered:
        answer = {p: _typed(kb.ask(f"{p}(X, Y)?").to_python()) for p in ("same", "diff", "lt")}
    else:
        result = reference.evaluate_program(kb.db, parse_program(NUMBERS))
        answer = {
            p: _typed(tuple(t.value for t in row) for row in result.rows(p))
            for p in ("same", "diff", "lt")
        }
    assert answer["same"] == set()
    assert answer["diff"] == _typed([(2, 2.0), (2, big + 1), (big, 2.0), (big, big + 1)])
    assert answer["lt"] == _typed([(2, big + 1), (big, big + 1)])


ONE_PLUS_TWO = Struct("+", (Constant(1), Constant(2)))


def test_a_stored_arithmetic_struct_is_data_to_both_evaluators():
    """``=`` folds only the arithmetic written in the literal: a stored
    ``1 + 2`` is a struct, not ``3``, so ``=`` / ``!=`` between two ground
    sides is id equality, and arithmetic over the struct raises as it
    does over a string.  (It once folded the stored struct, and the
    answer then hung on whether the body bound ``X`` before ``X = 3``.)"""
    program = parse_program("q(X) <- p(X), X = 3. r(X) <- p(X), X != 3.")
    db = Database()
    db.add("p", [(ONE_PLUS_TWO,), (3,), (4,)])
    lowered = evaluate_program(db, program)
    expected = reference.evaluate_program(db, program)
    for pred in ("q", "r"):
        assert lowered.rows(pred) == expected.rows(pred)
    assert lowered.rows("q") == {(Constant(3),)}
    assert lowered.rows("r") == {(ONE_PLUS_TWO,), (Constant(4),)}
    plus_one = parse_program("s(Y) <- p(X), Y = X + 1.")
    for evaluate in (evaluate_program, reference.evaluate_program):
        with pytest.raises(ExecutionError, match="is not a number"):
            evaluate(db, plus_one)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_equality_answers_alike_in_every_body_order(strategy):
    """``q(X) <- p(X), X = 3.`` over ``p(1+2). p(3). p(4).``: the
    optimizer's order (``X = 3`` first) and the written one agree."""
    kb = KnowledgeBase(OptimizerConfig(strategy=strategy, seed=0))
    kb.facts_text("p(1+2). p(3). p(4).")
    kb.rules("q(X) <- p(X), X = 3.")
    assert kb.ask("q(X)?").to_python() == [(3,)]
    for evaluate in (evaluate_program, reference.evaluate_program):
        written = evaluate(kb.db, kb.program, reorder_bodies=False).rows("q")
        assert written == {(Constant(3),)}


@pytest.mark.parametrize("lowered", [True, False])
def test_a_stored_nan_equals_itself_on_both_evaluators(lowered):
    """One stored NaN is one id, and one canonical instance that ``=``
    unifies with itself: the lowered executor's id test and the
    reference's unifier agree, and ``!=`` stays their negation."""
    program = parse_program(
        "s(X) <- p(X), X = X. t(X) <- p(X), X != X. r(X) <- p(X), p(Y), X = Y."
    )
    db = Database()
    db.add("p", [(float("nan"),), (1.5,)])
    result = (evaluate_program if lowered else reference.evaluate_program)(db, program)
    assert len(result.rows("s")) == len(result.rows("r")) == 2
    assert result.rows("t") == frozenset()
