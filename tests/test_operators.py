"""Join tests: every join method's lowered step agrees with the
reference's unifying join (``repro.testing.reference``), and the
reference's other operators behave."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.parser import parse_literal
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine.batch import JOIN_METHODS
from repro.engine.profiler import Profiler
from repro.errors import ExecutionError
from repro.datalog.intern import INTERNER
from repro.storage import relation_from_rows
from repro.storage.columnar import IdRelation
from repro.testing.reference import (
    BindingsTable,
    apply_comparison,
    head_rows,
    lowered_join,
    negation_filter,
    scan_join,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def rows_of(*values):
    return frozenset(tuple(Constant(v) for v in row) for row in values)


def every_join(table, literal, extension):
    """The reference join's table, checked equal to every lowered variant's."""
    out = scan_join(table, literal, extension)
    for method in JOIN_METHODS:
        assert lowered_join(table, literal, extension, method) == out, method
    return out


def test_unit_table_is_join_identity():
    unit = BindingsTable.unit()
    rel = relation_from_rows("e", [("a", "b")])
    out = every_join(unit, parse_literal("e(X, Y)"), rel)
    assert out.schema == (X, Y)
    assert out.rows == rows_of(("a", "b"))


def test_scan_join_extends_schema_in_order():
    table = BindingsTable.from_rows((X,), rows_of(("a",), ("b",)))
    rel = relation_from_rows("e", [("a", 1), ("a", 2), ("c", 3)])
    out = every_join(table, parse_literal("e(X, Y)"), rel)
    assert out.schema == (X, Y)
    assert out.rows == rows_of(("a", 1), ("a", 2))


@pytest.mark.parametrize("method", ["nested_loop", "hash", "index", "merge"])
def test_all_methods_agree(method):
    table = BindingsTable.from_rows((X,), rows_of(("a",), ("b",), ("z",)))
    rel = relation_from_rows("e", [("a", 1), ("b", 2), ("b", 3), ("c", 4)])
    out = lowered_join(table, parse_literal("e(X, Y)"), rel, method=method)
    assert out == scan_join(table, parse_literal("e(X, Y)"), rel)
    assert out.rows == rows_of(("a", 1), ("b", 2), ("b", 3))


def test_scan_join_repeated_variable():
    rel = relation_from_rows("e", [("a", "a"), ("a", "b")])
    out = every_join(BindingsTable.unit(), parse_literal("e(X, X)"), rel)
    assert out.rows == rows_of(("a",))
    assert out.schema == (X,)


def test_scan_join_with_constant():
    rel = relation_from_rows("e", [("a", 1), ("b", 2)])
    out = every_join(BindingsTable.unit(), parse_literal("e(b, Y)"), rel)
    assert out.rows == rows_of((2,))


def test_scan_join_complex_term_pattern():
    from repro.storage import Relation

    rel = Relation("owns", 2)
    rel.insert((Constant("joe"), Struct("bike", (Constant("red"),))))
    rel.insert((Constant("joe"), Constant("car")))
    out = every_join(BindingsTable.unit(), parse_literal("owns(P, bike(C))"), rel)
    assert out.schema == (Variable("P"), Variable("C"))
    assert out.rows == rows_of(("joe", "red"))


def test_scan_join_unknown_method():
    with pytest.raises(ExecutionError):
        lowered_join(BindingsTable.unit(), parse_literal("e(X, Y)"), [], method="sort")


def test_profiler_counts_differ_by_method():
    table = BindingsTable.from_rows((X,), rows_of(*[(f"k{i}",) for i in range(10)]))
    rel = relation_from_rows("e", [(f"k{i}", i) for i in range(10)])
    nl, hashed = Profiler(), Profiler()
    lowered_join(table, parse_literal("e(X, Y)"), rel, "nested_loop", nl)
    lowered_join(table, parse_literal("e(X, Y)"), rel, "hash", hashed)
    assert nl.examined == 100          # 10 probes x 10 tuples
    assert hashed.examined < nl.examined


@pytest.mark.parametrize("form", ["relation", "id store", "term rows"])
def test_every_extension_form_joins_and_negates_alike(form):
    """A base relation and a derived id store are probed through their
    bucket maps, a set of term rows is hashed per call: the reference
    join, every method's lowered join and the negation filter answer the
    same over each."""
    rel = relation_from_rows("e", [("a", 1), ("b", 2), ("b", 3), ("c", 4)])
    extension = {
        "relation": rel,
        "id store": IdRelation(INTERNER, 2, set(rel.batch_store(INTERNER).rows)),
        "term rows": set(rel),
    }[form]
    table = BindingsTable.from_rows((X,), rows_of(("a",), ("b",), ("z",)))
    out = every_join(table, parse_literal("e(X, Y)"), extension)
    assert out.rows == rows_of(("a", 1), ("b", 2), ("b", 3))
    pairs = BindingsTable.from_rows((X, Y), rows_of(("a", 1), ("a", 2), ("zz", 9)))
    kept = negation_filter(pairs, parse_literal("e(X, Y)"), extension)
    assert kept.rows == rows_of(("a", 2), ("zz", 9))


def test_apply_comparison_filters():
    table = BindingsTable.from_rows((X,), rows_of((1,), (5,)))
    out = apply_comparison(table, parse_literal("X < 3"))
    assert out.rows == rows_of((1,))


def test_apply_comparison_binds():
    table = BindingsTable.from_rows((X,), rows_of((1,), (2,)))
    out = apply_comparison(table, parse_literal("Y = X * 10"))
    assert out.schema == (X, Y)
    assert out.rows == rows_of((1, 10), (2, 20))


def test_negation_filter():
    table = BindingsTable.from_rows((X,), rows_of(("a",), ("b",)))
    out = negation_filter(table, parse_literal("blocked(X)"), rows_of(("a",)))
    assert out.rows == rows_of(("b",))


def test_negation_requires_ground():
    table = BindingsTable.from_rows((X,), rows_of(("a",)))
    with pytest.raises(ExecutionError):
        negation_filter(table, parse_literal("blocked(X, Y)"), frozenset())


def test_head_rows_instantiates():
    table = BindingsTable.from_rows((X, Y), rows_of(("a", 1), ("b", 2)))
    out = head_rows(table, parse_literal("p(Y, f(X))"))
    assert out == {
        (Constant(1), Struct("f", (Constant("a"),))),
        (Constant(2), Struct("f", (Constant("b"),))),
    }


def test_head_rows_unbound_raises():
    table = BindingsTable.from_rows((X,), rows_of(("a",)))
    with pytest.raises(ExecutionError):
        head_rows(table, parse_literal("p(X, Unbound)"))


def test_project_dedupes():
    table = BindingsTable.from_rows((X, Y), rows_of(("a", 1), ("a", 2)))
    assert table.project((X,)).rows == rows_of(("a",))


@settings(max_examples=30, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=15),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=15),
)
def test_methods_equivalent_property(left_rows, right_rows):
    """All four join methods' lowered steps compute the reference's
    natural join."""
    table = BindingsTable.from_rows((X, Y), rows_of(*left_rows))
    rel = relation_from_rows("e", list(right_rows) or [(0, 0)], arity=2)
    if not right_rows:
        rel.clear()
    literal = parse_literal("e(Y, Z)")
    every_join(table, literal, rel)
