"""Rule rewrites: renaming apart, projection pushdown."""

from repro.datalog import parse_literal, parse_program, parse_rule
from repro.datalog.rewrite import push_projections, rename_apart
from repro.datalog.terms import Constant, Variable
from repro.engine import evaluate_program
from repro.storage import Database


def test_rename_apart_only_renames_clashes():
    rule = parse_rule("p(X, Y) <- q(X, Z).")
    renamed = rename_apart(rule, frozenset({Variable("X")}))
    assert Variable("X") not in renamed.variables
    assert Variable("Y") in renamed.variables  # untouched


def test_rename_apart_noop_without_clash():
    rule = parse_rule("p(X) <- q(X).")
    assert rename_apart(rule, frozenset({Variable("Q")})) is rule


PROJ = """
wide(A, B, C, D) <- s(A, B), t(C, D).
user(A) <- wide(A, B, C, D), B = C.
"""


def test_push_projections_drops_unused_columns():
    program = parse_program(PROJ)
    goal = parse_literal("user(A)")
    rewritten, new_goal = push_projections(program, goal)
    # `wide`'s D column is never consumed: the projected version loses it
    projected = [r for r in rewritten if r.head.predicate == "wide@proj"]
    assert projected
    assert projected[0].head.arity == 3
    assert new_goal.predicate == "user"


def test_push_projections_preserves_semantics():
    program = parse_program(PROJ)
    goal = parse_literal("user(A)")
    rewritten, __ = push_projections(program, goal)
    db = Database()
    db.load("s", [("a", 1), ("b", 2)])
    db.load("t", [(1, "x"), (3, "y")])
    before = evaluate_program(db, program)["user"]
    after = evaluate_program(db, rewritten)["user"]
    assert before == after
    assert before == frozenset({(Constant("a"),)})


def test_push_projections_noop_when_everything_used():
    program = parse_program("p(A, B) <- q(A, B).")
    goal = parse_literal("p(A, B)")
    rewritten, new_goal = push_projections(program, goal)
    assert rewritten == program
    assert new_goal == goal


def test_push_projections_skips_recursive():
    program = parse_program(
        """
        t(X, Y) <- e(X, Y).
        t(X, Y) <- e(X, Z), t(Z, Y).
        first(X) <- t(X, Y).
        """
    )
    rewritten, __ = push_projections(program, parse_literal("first(X)"))
    # the recursive predicate keeps its arity even though Y is unused above
    assert all(r.head.arity == 2 for r in rewritten if r.head.predicate.startswith("t"))
