"""Supplementary magic sets: structure and semantic equivalence to magic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    BindingPattern,
    CPermutation,
    DependencyGraph,
    PredicateRef,
    adorn_clique,
    magic_rewrite,
    parse_program,
)
from repro.datalog.magic import supplementary_magic_rewrite
from repro.datalog.terms import Constant
from repro.engine.fixpoint import evaluate_program
from repro.storage import Database
from repro.workloads import random_dag, same_generation_instance

SG = """
sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
sg(X, Y) <- flat(X, Y).
"""

ANC = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
"""


def adorned(source, pred, binding="bf"):
    program = parse_program(source)
    clique = DependencyGraph(program).recursive_cliques()[0]
    return adorn_clique(
        clique, PredicateRef(pred, 2), BindingPattern(binding), CPermutation.greedy_sip()
    )


def test_structure_has_supplementary_predicates():
    sup = supplementary_magic_rewrite(adorned(SG, "sg"))
    names = {r.head.predicate for r in sup.program}
    assert any(n.startswith("sup0_") for n in names)
    assert sup.seed_predicate == "m_sg.bf"
    assert sup.answer_predicate == "sg.bf"


def test_prefix_never_repeated():
    """Each non-magic body segment appears in exactly one rule — the whole
    point of the supplementary variant."""
    sup = supplementary_magic_rewrite(adorned(SG, "sg"))
    # the up literal feeding sg.bf appears once (in the sup rule), not in
    # both a magic rule and the modified rule as basic magic has it.
    basic = magic_rewrite(adorned(SG, "sg"))
    count_in = lambda prog, pred: sum(
        1 for rule in prog for l in rule.body if l.predicate == pred
    )
    assert count_in(basic.program, "up") > count_in(sup.program, "up")


def test_exit_rules_unchanged():
    sup = supplementary_magic_rewrite(adorned(SG, "sg"))
    exit_rules = [r for r in sup.program if any(l.predicate == "flat" for l in r.body)]
    for rule in exit_rules:
        assert rule.body[0].predicate.startswith("m_")


def test_equivalent_to_basic_magic_on_sg():
    db = Database()
    same_generation_instance(db, fanout=2, depth=3)
    ad = adorned(SG, "sg")
    basic = magic_rewrite(ad)
    sup = supplementary_magic_rewrite(ad)
    nodes = sorted({row[0] for row in db.relation("up")}, key=str)
    for node in nodes:
        seeds_b = {basic.seed_predicate: {(node,)}}
        seeds_s = {sup.seed_predicate: {(node,)}}
        got_b = evaluate_program(db, basic.program, seeds=seeds_b)[basic.answer_predicate]
        got_s = evaluate_program(db, sup.program, seeds=seeds_s)[sup.answer_predicate]
        assert got_b == got_s


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_equivalent_on_random_dags(seed):
    db = Database()
    names = random_dag(db, "par", nodes=12, edges=20, seed=seed)
    ad = adorned(ANC, "anc")
    basic = magic_rewrite(ad)
    sup = supplementary_magic_rewrite(ad)
    node = Constant(names[0])
    got_b = evaluate_program(db, basic.program, seeds={basic.seed_predicate: {(node,)}})
    got_s = evaluate_program(db, sup.program, seeds={sup.seed_predicate: {(node,)}})
    assert got_b[basic.answer_predicate] == got_s[sup.answer_predicate]


NONLINEAR_STRUCT = """
sg(X, Y) <- up(X, pair(X1, X2)), sg(X1, Z1), sg(X2, Z2), glue(Z1, Z2, Y).
sg(X, Y) <- flat(X, Y).
"""

STRUCT_FACTS = """
up(r0, pair(a, b)).
up(a, pair(b, c)).
flat(b, m).
flat(c, n).
glue(m, n, r1).
glue(r1, m, r2).
"""


def struct_db():
    from repro.storage.loader import load_facts_text

    db = Database()
    load_facts_text(db, STRUCT_FACTS)
    return db


def test_supplementary_struct_sip_prefix_structure():
    """The SIP prefix of the second clique literal binds X1/X2 only by
    decomposing pair(X1, X2) — the pre_vars projection must carry the
    struct-extracted variables through the supplementary predicates."""
    ad = adorned(NONLINEAR_STRUCT, "sg")
    sup = supplementary_magic_rewrite(ad)
    sup_heads = [r.head for r in sup.program if r.head.predicate.startswith("sup1_")]
    assert sup_heads, "second clique literal should produce a sup1_ state"
    carried = {v.name.split("@")[0] for head in sup_heads for v in head.variables}
    assert carried & {"X1", "X2", "Z1", "Z2"}


def test_supplementary_equals_basic_on_nonlinear_struct_sip():
    """Multi-clique-literal rule whose SIP prefix binds structured terms:
    basic and supplementary magic must agree with the filtered bottom-up
    extension for every seed."""
    db = struct_db()
    ad = adorned(NONLINEAR_STRUCT, "sg")
    basic = magic_rewrite(ad)
    sup = supplementary_magic_rewrite(ad)
    reference = evaluate_program(db, parse_program(NONLINEAR_STRUCT))["sg"]
    assert reference  # the instance actually derives through the struct rule
    for node in ("r0", "a", "b", "zzz"):
        seed = Constant(node)
        got_b = evaluate_program(
            db, basic.program, seeds={basic.seed_predicate: {(seed,)}}
        )[basic.answer_predicate]
        got_s = evaluate_program(
            db, sup.program, seeds={sup.seed_predicate: {(seed,)}}
        )[sup.answer_predicate]
        # magic answers cover every *asked* subquery, so filter to the
        # seed binding for the equality and check soundness overall
        expected = {r for r in reference if r[0] == seed}
        assert {r for r in got_b if r[0] == seed} == expected
        assert {r for r in got_s if r[0] == seed} == expected
        assert got_b <= reference and got_s <= reference
        assert got_b == got_s


def test_optimizer_can_choose_supplementary():
    from repro import KnowledgeBase, OptimizerConfig

    db = Database()
    levels = same_generation_instance(db, fanout=2, depth=3)
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("supplementary",)))
    kb.rules(SG)
    for name in ("up", "dn", "flat"):
        kb.facts(name, [tuple(f.value for f in row) for row in db.relation(name)])
    leaf = levels[-1][0]
    compiled = kb.compile("sg($X, Y)?")
    cc = compiled.plan.children[0].steps[0].child
    assert cc.method == "supplementary"
    answers = kb.ask("sg($X, Y)?", X=leaf)
    assert len(answers) > 0


# Bound recursion, one case per shape: (rules, facts, query, extra seeds
# for the bound argument, expected answers).  The answers of every case
# are also checked against the filtered bottom-up extension.
SG_DOWN = """
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), down(Y1, Y).
"""
EVEN_ODD = """
even(X) <- zero(X).
even(X) <- nxt(Y, X), odd(Y).
odd(X) <- nxt(Y, X), even(Y).
"""
REACH = """
reach(X, Y) <- edge(X, Y), Y > a, ~blocked(Y).
reach(X, Y) <- reach(X, Z), edge(Z, Y), ~blocked(Y).
"""
PATH_OVER_HOP = """
hop(X, Y) <- e1(X, Y).
hop(X, Y) <- e2(X, Y).
path(X, Y) <- hop(X, Y).
path(X, Y) <- hop(X, Z), path(Z, Y).
"""
SG_FACTS = "flat(b, d). flat(d, b). up(a, b). up(c, d). down(d, e). down(b, f)."
BOUND_CASES = {
    "anc-bound-first": (
        ANC, "par(a, b). par(b, c). par(c, d). par(x, y).", "anc(a, Y)?", (),
        {("a", "b"), ("a", "c"), ("a", "d")},
    ),
    "sg-bound-first": (SG_DOWN, SG_FACTS, "sg(a, Y)?", (), {("a", "e")}),
    "multiple-seeds": (
        ANC, "par(a, b). par(b, c). par(x, y).", "anc(a, Y)?", ("x",),
        {("a", "b"), ("a", "c"), ("x", "y")},
    ),
    "cyclic-graph": (
        ANC, "par(a, b). par(b, c). par(c, a).", "anc(a, Y)?", (),
        {("a", "a"), ("a", "b"), ("a", "c")},
    ),
    "mutual-recursion": (
        EVEN_ODD, "zero(n0). nxt(n0, n1). nxt(n1, n2). nxt(n2, n3).", "even(n2)?", (),
        {("n2",)},
    ),
    "mutual-recursion-no-answer": (
        EVEN_ODD, "zero(n0). nxt(n0, n1). nxt(n1, n2). nxt(n2, n3).", "even(n3)?", (),
        set(),
    ),
    "comparison-and-base-negation": (
        REACH, "edge(a, b). edge(b, c). edge(c, d). blocked(c).", "reach(a, Y)?", (),
        {("a", "b")},
    ),
    "support-predicates": (
        PATH_OVER_HOP, "e1(a, b). e2(b, c). e1(c, d).", "path(a, Y)?", (),
        {("a", "b"), ("a", "c"), ("a", "d")},
    ),
}


@pytest.mark.parametrize("case", list(BOUND_CASES))
def test_supplementary_answers_bound_recursion(case):
    """The greedy-SIP supplementary rewrite, seeded with one or several
    keys, answers exactly the seeded subqueries; forced through the
    optimizer, the plan is labelled supplementary and answers the same."""
    from repro import KnowledgeBase, OptimizerConfig
    from repro.datalog import parse_query, pred_ref
    from repro.storage import load_facts_text

    rules, facts, query, extra_seeds, expected = BOUND_CASES[case]
    db = Database()
    load_facts_text(db, facts)
    program = parse_program(rules)
    form = parse_query(query)
    ref = pred_ref(form.goal)
    clique = DependencyGraph(program).clique_of(ref)
    ad = adorn_clique(
        clique, ref, form.adornment, CPermutation.greedy_sip(),
        derived_predicates=program.derived_predicates,
    )
    sup = supplementary_magic_rewrite(ad)
    support = [rule for rule in program if rule.head_ref not in clique.predicates]
    bound = form.adornment.bound_positions
    keys = {tuple(form.goal.args[i] for i in bound)}
    keys |= {(Constant(value),) for value in extra_seeds}
    result = evaluate_program(db, sup.program.extend(support), seeds={sup.seed_predicate: keys})
    got = {row for row in result[sup.answer_predicate] if tuple(row[i] for i in bound) in keys}
    reference = evaluate_program(db, program)[ref.name]
    assert got == {row for row in reference if tuple(row[i] for i in bound) in keys}
    assert {tuple(field.value for field in row) for row in got} == expected

    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("supplementary",)))
    kb.rules(rules)
    kb.facts_text(facts)
    assert "method=supplementary" in kb.explain(query)
    asked = tuple(form.goal.args[i] for i in bound)
    free = [i for i in range(ref.arity) if i not in bound]
    assert set(kb.ask(query).to_python()) == {
        tuple(row[i].value for i in free) for row in got if tuple(row[i] for i in bound) == asked
    }
