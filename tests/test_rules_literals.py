"""Unit tests for literals, rules and programs."""

import dataclasses
import pickle

import pytest

from repro.datalog.literals import Literal, PredicateRef, comparison, lit, pred_ref
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable
from repro.errors import KnowledgeBaseError

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def test_lit_builder_lifts_values():
    literal = lit("up", X, "a", 3)
    assert literal.args == (X, Constant("a"), Constant(3))
    assert str(literal) == "up(X, a, 3)"


def test_comparison_builder_validates_op():
    assert comparison("<", X, 3).predicate == "<"
    with pytest.raises(ValueError):
        comparison("<>", X, 3)


def test_comparison_arity_enforced():
    with pytest.raises(ValueError):
        Literal("<", (X,))


def test_negated_comparison_rejected():
    with pytest.raises(ValueError):
        Literal("<", (X, Y), negated=True)


def test_literal_variables_and_ground():
    literal = lit("p", X, "a")
    assert literal.variables == {X}
    assert not literal.is_ground
    assert lit("p", "a", 1).is_ground


def test_literal_hash_is_the_field_tuple_hash_computed_once():
    struct = parse_rule("p(f(X, g(Y)), 3, X) <- q(X).").head
    for literal in (lit("up", X, "a"), lit("p", X, negated=True), Literal("=", (X, Y)), struct):
        assert hash(literal) == hash((literal.predicate, literal.args, literal.negated))
    assert struct.variables == {X, Y}
    # the cached fields take no part in equality
    assert lit("p", X, "a") == Literal("p", (X, Constant("a")))
    assert lit("p", X) != lit("p", X, negated=True)
    assert {lit("p", X): 1}[Literal("p", [X])] == 1  # a list of args is stored as a tuple


def test_literal_replace_recomputes_its_cached_fields():
    literal = lit("p", X, "a")
    moved = dataclasses.replace(literal, args=(Y, Z))
    assert moved.variables == {Y, Z}
    assert hash(moved) == hash(("p", (Y, Z), False)) and moved == lit("p", Y, Z)
    negated = dataclasses.replace(literal, negated=True)
    assert hash(negated) == hash(("p", literal.args, True)) and negated.variables == {X}
    with pytest.raises(ValueError):
        dataclasses.replace(Literal("<", (X, Y)), negated=True)
    with pytest.raises(ValueError):
        dataclasses.replace(Literal("<", (X, Y)), args=(X,))
    with pytest.raises(TypeError):
        Literal("p", (X,), variables=frozenset())  # not a constructor argument


def test_literal_pickles_and_survives_save_and_load(tmp_path):
    from repro import KnowledgeBase

    rule = parse_rule("p(X, f(Y)) <- q(X, Y), ~r(Y), X < 3.")
    for literal in (rule.head, *rule.body):
        copy = pickle.loads(pickle.dumps(literal))
        assert copy == literal and hash(copy) == hash(literal)
        assert copy.variables == literal.variables
    assert pickle.loads(pickle.dumps(rule)) == rule
    kb = KnowledgeBase()
    kb.rules(str(rule))
    kb.facts("q", [(1, 2), (5, 6)])
    kb.facts("r", [(6,)])
    kb.save(str(tmp_path))
    loaded = KnowledgeBase.load(str(tmp_path))
    assert loaded.program.rules == (rule,)
    assert {hash(l) for l in loaded.program.rules[0].body} == {hash(l) for l in rule.body}
    assert set(loaded.ask("p(X, Y)?").to_python()) == set(kb.ask("p(X, Y)?").to_python())


def test_literal_with_predicate_rename():
    renamed = lit("sg", X, Y).with_predicate("sg.bf")
    assert renamed.predicate == "sg.bf"
    assert renamed.args == (X, Y)


def test_positive_strips_negation():
    negated = lit("p", X, negated=True)
    assert negated.positive() == lit("p", X)
    assert lit("p", X).positive() == lit("p", X)


def test_pred_ref():
    assert pred_ref(lit("p", X, Y)) == PredicateRef("p", 2)
    assert str(PredicateRef("p", 2)) == "p/2"


def test_rule_head_restrictions():
    with pytest.raises(KnowledgeBaseError):
        Rule(lit("p", X, negated=True), ())
    with pytest.raises(KnowledgeBaseError):
        Rule(comparison("=", X, 1), ())


def test_rule_variables_and_fact():
    rule = parse_rule("p(X, Y) <- q(X, Z), r(Z, Y).")
    assert rule.variables == {X, Y, Z}
    assert not rule.is_fact
    assert parse_rule("p(a).").is_fact


def test_rule_substitute():
    rule = parse_rule("p(X) <- q(X, Y).")
    out = rule.substitute({X: Constant(1)})
    assert str(out) == "p(1) <- q(1, Y)."


def test_rule_with_body_permutation():
    rule = parse_rule("p(X) <- q(X), r(X).")
    swapped = rule.with_body((rule.body[1], rule.body[0]))
    assert [l.predicate for l in swapped.body] == ["r", "q"]


def test_program_classification():
    program = parse_program(
        """
        p(X, Y) <- q(X, Z), base1(Z, Y).
        q(X, Y) <- base2(X, Y), Y > 2.
        """
    )
    derived = {str(r) for r in program.derived_predicates}
    base = {str(r) for r in program.base_predicates}
    assert derived == {"p/2", "q/2"}
    assert base == {"base1/2", "base2/2"}
    assert program.is_derived(PredicateRef("p", 2))
    assert not program.is_derived(PredicateRef("base1", 2))


def test_program_rules_for():
    program = parse_program("p(X) <- a(X). p(X) <- b(X). q(X) <- p(X).")
    assert len(program.rules_for(PredicateRef("p", 1))) == 2
    assert program.rules_for(PredicateRef("missing", 1)) == ()


def test_program_arity_conflict_detected():
    with pytest.raises(KnowledgeBaseError):
        parse_program("p(X) <- q(X). q(X, Y) <- r(X, Y), p(X, Y).")


def test_program_extend_and_replace():
    program = parse_program("p(X) <- a(X).")
    extended = program.extend([parse_rule("p(X) <- b(X).")])
    assert len(extended) == 2
    replaced = extended.replace_rules(PredicateRef("p", 1), [parse_rule("p(X) <- c(X).")])
    assert len(replaced) == 1
    assert replaced.rules[0].body[0].predicate == "c"


def test_program_equality_and_hash():
    p1 = parse_program("p(X) <- a(X).")
    p2 = parse_program("p(X) <- a(X).")
    assert p1 == p2
    assert hash(p1) == hash(p2)
