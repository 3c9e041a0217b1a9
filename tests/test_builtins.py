"""Built-in (infinite) predicates: modes, evaluation, safety, optimization."""

import pytest

from repro import KnowledgeBase, KnowledgeBaseError, UnsafeQueryError
from repro.datalog.bindings import BindingPattern
from repro.datalog.builtins import (
    BuiltinPredicate,
    BuiltinRegistry,
    builtin_oracle,
    default_builtins,
)
from repro.datalog.parser import parse_literal
from repro.datalog.terms import Constant, Variable
from repro.errors import ExecutionError


def kb_with(rules: str) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.rules(rules)
    kb.facts("noop", [(0,)])
    return kb


# -- registry mechanics -----------------------------------------------------------


def test_registry_register_and_lookup():
    registry = default_builtins()
    assert "range" in registry
    assert registry.get("range").arity == 3
    assert registry.get("missing") is None


def test_registry_rejects_duplicates():
    registry = default_builtins()
    with pytest.raises(ValueError):
        registry.register(BuiltinPredicate("range", 3, (BindingPattern("bbb"),), lambda a: []))


def test_mode_arity_validated():
    with pytest.raises(ValueError):
        BuiltinPredicate("p", 2, (BindingPattern("bbb"),), lambda a: [])


def test_satisfied_mode_subsumption():
    builtin = default_builtins().get("range")
    assert builtin.satisfied_mode(BindingPattern("bbf")) is not None
    assert builtin.satisfied_mode(BindingPattern("bbb")) is not None  # extra bindings fine
    assert builtin.satisfied_mode(BindingPattern("bff")) is None


def test_builtin_oracle():
    oracle = builtin_oracle(default_builtins())
    lo, hi, x = Variable("L"), Variable("H"), Variable("X")
    literal = parse_literal("range(L, H, X)")
    assert oracle(literal, frozenset({lo, hi}))
    assert not oracle(literal, frozenset({lo}))
    assert oracle(parse_literal("ordinary(L)"), frozenset())  # non-builtin: finite


# -- stock builtins end to end -------------------------------------------------------


def test_range_enumeration():
    kb = kb_with("small(N) <- range(0, 5, N).")
    assert kb.ask("small(N)?").to_python() == [(0,), (1,), (2,), (3,), (4,)]


def test_range_composed_with_arithmetic():
    kb = kb_with("sq(N, S) <- range(1, 4, N), S = N * N.")
    assert kb.ask("sq(N, S)?").to_python() == [(1, 1), (2, 4), (3, 9)]


def test_succ_both_modes():
    kb = kb_with("nxt(X, Y) <- succ(X, Y).")
    assert kb.ask("nxt(3, Y)?").to_python() == [(4,)]
    assert kb.ask("nxt(X, 3)?").to_python() == [(2,)]


def test_string_concat_forward_and_splits():
    kb = kb_with(
        """
        greet(G) <- string_concat(hello, world, G).
        cut(A, B) <- string_concat(A, B, abc).
        """
    )
    assert kb.ask("greet(G)?").to_python() == [("helloworld",)]
    assert kb.ask("cut(A, B)?").to_python() == [
        ("", "abc"), ("a", "bc"), ("ab", "c"), ("abc", ""),
    ]


def test_list_length():
    kb = kb_with("n(N) <- list_length(cons(a, cons(b, cons(c, nil))), N).")
    assert kb.ask("n(N)?").to_python() == [(3,)]


def test_builtin_in_recursive_rule():
    kb = kb_with(
        """
        count_down(N) <- start(N).
        count_down(M) <- count_down(N), N > 0, succ(M, N).
        """
    )
    kb.facts("start", [(3,)])
    assert kb.ask("count_down(N)?").to_python() == [(0,), (1,), (2,), (3,)]


# -- safety -----------------------------------------------------------------------


def test_unbound_builtin_rejected():
    kb = kb_with("bad(N) <- range(1, M, N).")  # M never bound
    with pytest.raises(UnsafeQueryError):
        kb.ask("bad(N)?")


def test_reordering_makes_builtin_safe():
    kb = kb_with("ok(N) <- range(0, H, N), high(H).")  # textual order unsafe
    kb.facts("high", [(3,)])
    assert kb.ask("ok(N)?").to_python() == [(0,), (1,), (2,)]


def test_builtin_cannot_be_redefined():
    kb = KnowledgeBase()
    with pytest.raises(KnowledgeBaseError):
        kb.rules("range(A, B, C) <- q(A, B, C).")


def test_mode_violation_at_execution_raises():
    """Bypassing the optimizer, the engine's own mode check fires."""
    from repro.testing.reference import BindingsTable, builtin_join

    builtin = default_builtins().get("range")
    table = BindingsTable.unit()
    with pytest.raises(ExecutionError):
        builtin_join(table, parse_literal("range(X, Y, Z)"), builtin)


# -- user-defined builtins -----------------------------------------------------------


def test_custom_builtin_registration():
    def eval_double(args):
        x, y = args
        if isinstance(x, Constant):
            yield (x, Constant(x.value * 2))
        else:
            yield (Constant(y.value // 2), y)

    kb = KnowledgeBase()
    kb.register_builtin(
        BuiltinPredicate(
            "double_of", 2,
            (BindingPattern("bf"), BindingPattern("fb")),
            eval_double,
            per_probe_card=1.0, per_probe_cost=1.0,
        )
    )
    kb.rules("d(X, Y) <- double_of(X, Y).")
    kb.facts("noop", [(0,)])
    assert kb.ask("d(21, Y)?").to_python() == [(42,)]
    assert kb.ask("d(X, 42)?").to_python() == [(21,)]


def test_builtin_filters_when_overbound():
    """With every argument bound, a builtin acts as a filter."""
    kb = kb_with("check(X) <- candidates(X), succ(X, 4).")
    kb.facts("candidates", [(1,), (3,), (5,)])
    assert kb.ask("check(X)?").to_python() == [(3,)]
