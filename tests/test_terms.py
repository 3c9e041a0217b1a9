"""Unit tests for term representation and helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.datalog.terms import (
    Constant,
    Struct,
    Variable,
    is_ground,
    list_elements,
    make_list,
    rename_term,
    term_depth,
    term_from_python,
    term_size,
    variables_of,
    walk_terms,
)


def test_constant_equality_and_hash():
    assert Constant(3) == Constant(3)
    assert Constant(3) != Constant("3")
    assert hash(Constant("a")) == hash(Constant("a"))


def test_constant_identity_is_type_aware():
    """``0`` and ``0.0``, ``1`` and ``True`` are two constants each — to
    the interner, to term sets and to the unifier (``=``) alike."""
    from repro.datalog.intern import TermInterner
    from repro.datalog.parser import parse_literal
    from repro.datalog.unify import unify
    from repro.engine.evaluable import solve_comparison

    for a, b in ((0, 0.0), (1, True), (0, False), (2.0, 2)):
        assert Constant(a) != Constant(b) and len({Constant(a), Constant(b)}) == 2
        assert unify(Constant(a), Constant(b), {}) is None
        interner = TermInterner()
        assert interner.id_of(Constant(a)) != interner.id_of(Constant(b))
        assert interner.terms[interner.id_of(Constant(b))].value.__class__ is type(b)
    assert Struct("f", (Constant(1),)) != Struct("f", (Constant(1.0),))
    assert solve_comparison(parse_literal("2 = 2.0"), {}) is None


def test_interning_a_float_first_leaves_integer_builtins_alone():
    """Interning ``0.0`` before a ``range/3`` query once made it see a
    float: ``tests/test_result_cache.py`` then
    ``tests/test_stateful_staleness.py`` failed run as a pair."""
    tests = Path(__file__).resolve().parent
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_result_cache.py"), str(tests / "test_stateful_staleness.py")],
        env=dict(os.environ, PYTHONPATH=str(tests.parent / "src")),
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:]


def test_variable_str_and_anonymous():
    assert str(Variable("X1")) == "X1"
    assert Variable("_anon1").is_anonymous
    assert not Variable("X").is_anonymous


def test_struct_str_prefix_and_infix():
    t = Struct("wheel", (Constant("front"),))
    assert str(t) == "wheel(front)"
    plus = Struct("+", (Variable("X"), Constant(1)))
    assert str(plus) == "(X + 1)"


def test_struct_tolerates_list_args():
    t = Struct("f", [Constant(1)])  # type: ignore[arg-type]
    assert t.args == (Constant(1),)
    assert t.arity == 1


def test_term_from_python_scalars():
    assert term_from_python(3) == Constant(3)
    assert term_from_python("a") == Constant("a")
    assert term_from_python(2.5) == Constant(2.5)
    assert term_from_python(True) == Constant(True)


def test_term_from_python_lists_become_cons():
    t = term_from_python([1, 2])
    assert t == Struct("cons", (Constant(1), Struct("cons", (Constant(2), Constant("nil")))))


def test_term_from_python_passthrough_and_error():
    v = Variable("X")
    assert term_from_python(v) is v
    with pytest.raises(TypeError):
        term_from_python(object())


def test_make_list_roundtrip():
    items = [Constant(1), Constant("b"), Struct("f", (Constant(2),))]
    assert list_elements(make_list(items)) == items


def test_list_elements_rejects_improper_list():
    assert list_elements(Struct("cons", (Constant(1), Variable("T")))) is None
    assert list_elements(Constant("nil")) == []


def test_variables_of_nested():
    t = Struct("f", (Variable("X"), Struct("g", (Variable("Y"), Constant(1)))))
    assert variables_of(t) == {Variable("X"), Variable("Y")}
    assert variables_of(Constant(1)) == frozenset()
    assert variables_of(Variable("Z")) == {Variable("Z")}


def test_is_ground():
    assert is_ground(Constant(1))
    assert not is_ground(Variable("X"))
    assert is_ground(Struct("f", (Constant(1),)))
    assert not is_ground(Struct("f", (Struct("g", (Variable("X"),)),)))


def test_term_depth_and_size():
    assert term_depth(Constant(1)) == 0
    assert term_size(Constant(1)) == 1
    nested = Struct("f", (Struct("g", (Constant(1),)), Constant(2)))
    assert term_depth(nested) == 2
    assert term_size(nested) == 4


def test_walk_terms_preorder():
    t = Struct("f", (Variable("X"), Constant(1)))
    walked = list(walk_terms(t))
    assert walked[0] == t
    assert Variable("X") in walked and Constant(1) in walked


def test_rename_term():
    mapping = {Variable("X"): Variable("Z")}
    t = Struct("f", (Variable("X"), Variable("Y")))
    assert rename_term(t, mapping) == Struct("f", (Variable("Z"), Variable("Y")))


# -- property tests -----------------------------------------------------------

ground_terms = st.recursive(
    st.one_of(
        st.integers(-100, 100).map(Constant),
        st.text("abcxyz", min_size=1, max_size=4).map(Constant),
    ),
    lambda children: st.builds(
        lambda args: Struct("f", tuple(args)), st.lists(children, min_size=1, max_size=3)
    ),
    max_leaves=8,
)


@given(ground_terms)
def test_ground_terms_have_no_variables(term):
    assert is_ground(term)
    assert variables_of(term) == frozenset()


@given(ground_terms)
def test_term_size_bounds_depth(term):
    assert term_depth(term) < term_size(term)


@given(st.lists(st.integers(-5, 5).map(Constant), max_size=6))
def test_make_list_elements_roundtrip(items):
    assert list_elements(make_list(items)) == items
