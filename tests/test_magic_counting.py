"""Magic-set and counting rewrites: structure + semantic equivalence.

The semantic tests are the important ones: for every binding, the magic
(and, where applicable, counting) rewrite must return exactly the tuples
of the plain fixpoint that match the query — over trees, DAGs, and mutual
recursion.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    BindingPattern,
    CPermutation,
    DependencyGraph,
    PredicateRef,
    adorn_clique,
    counting_applicable,
    counting_rewrite,
    magic_rewrite,
    parse_program,
)
from repro.datalog.terms import Constant, Variable
from repro.engine.fixpoint import evaluate_program
from repro.plans.nodes import FixpointNode, plan_nodes
from repro.storage import Database
from repro.workloads import same_generation_instance

SG = """
sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
sg(X, Y) <- flat(X, Y).
"""

ANC = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
"""

PAPER_CPERM = CPermutation(choices={(0, BindingPattern("fb")): (2, 1, 0)})


def adorned_sg(binding="bf", cperm=PAPER_CPERM):
    program = parse_program(SG)
    clique = DependencyGraph(program).recursive_cliques()[0]
    return adorn_clique(clique, PredicateRef("sg", 2), BindingPattern(binding), cperm)


def adorned_anc(binding="bf"):
    program = parse_program(ANC)
    clique = DependencyGraph(program).recursive_cliques()[0]
    return adorn_clique(clique, PredicateRef("anc", 2), BindingPattern(binding))


# -- structure ----------------------------------------------------------------


def test_magic_structure_sg():
    mp = magic_rewrite(adorned_sg())
    rules = {str(r) for r in mp.program}
    assert "m_sg.fb(X1) <- m_sg.bf(X), up(X, X1)." in rules
    assert mp.seed_predicate == "m_sg.bf"
    assert mp.answer_predicate == "sg.bf"
    assert mp.seed_arity == 1


def test_magic_modified_rules_gated():
    mp = magic_rewrite(adorned_anc())
    for rule in mp.program:
        if rule.head.predicate.startswith("anc."):
            assert rule.body[0].predicate.startswith("m_anc.")


def test_counting_applicability():
    assert counting_applicable(adorned_sg())          # paper SIP: separable
    assert not counting_applicable(adorned_sg(cperm=CPermutation.identity()))
    assert counting_applicable(adorned_anc())


def test_left_linear_recursion_is_not_counting_applicable():
    """``anc(X, Z)`` first copies the head's binding into the recursive
    call: the up phase would count that one binding up forever."""
    program = parse_program("anc(X, Y) <- par(X, Y). anc(X, Y) <- anc(X, Z), par(Z, Y).")
    clique = DependencyGraph(program).recursive_cliques()[0]
    adorned = adorn_clique(clique, PredicateRef("anc", 2), BindingPattern("bf"))
    assert not counting_applicable(adorned)
    kb = counting_first_kb("anc(X, Y) <- par(X, Y). anc(X, Y) <- anc(X, Z), par(Z, Y).")
    kb.facts("par", [(f"n{i}", f"n{i+1}") for i in range(10)])
    assert len(kb.ask("anc($X, Y)?", X="n0")) == 10


def test_counting_rejects_inapplicable():
    with pytest.raises(ValueError):
        counting_rewrite(adorned_sg(cperm=CPermutation.identity()))


def answer_rule(cp):
    """The counting rewrite's one rule for the adorned query name."""
    (rule,) = [r for r in cp.program if r.head.predicate == cp.answer_predicate]
    return rule


def test_counting_anc_collapses_to_any_level():
    cp = counting_rewrite(adorned_anc())
    # the answer rule reads ans_anc.bf(K, level, F) at any level: a variable
    (body,) = answer_rule(cp).body
    assert body.predicate == "ans_anc.bf"
    assert isinstance(body.args[1], Variable)
    # pure-copy down phase: no down rules at all
    assert all(not r.head.predicate.startswith("ans_") or
               not any(l.predicate.startswith("ans_") for l in r.body)
               for r in cp.program)


def test_counting_sg_keeps_down_rules():
    cp = counting_rewrite(adorned_sg())
    # answers come from level 0 only
    (body,) = answer_rule(cp).body
    assert body.predicate == "ans_sg.bf"
    assert body.args[1] == Constant(0)
    down = [r for r in cp.program
            if r.head.predicate.startswith("ans_")
            and any(l.predicate.startswith("ans_") for l in r.body)]
    assert down  # alternating clique: real down phase


def test_counting_follows_the_seed_protocol():
    """Seed of bound-count arity, key columns first, full-arity answers
    under the adorned query name — as magic's."""
    cp = counting_rewrite(adorned_sg())
    assert cp.seed_predicate == "seed_sg.bf"
    assert cp.seed_arity == 1
    assert cp.answer_predicate == "sg.bf"
    assert cp.seed_predicate not in cp.level_predicates
    assert cp.level_predicates == {"cnt_sg.bf", "cnt_sg.fb", "ans_sg.bf", "ans_sg.fb"}
    seed_rules = [r for r in cp.program if any(l.predicate == cp.seed_predicate for l in r.body)]
    assert [str(r) for r in seed_rules] == ["cnt_sg.bf(CntK0, 0, CntK0) <- seed_sg.bf(CntK0)."]
    key = seed_rules[0].body[0].args[0]
    for rule in cp.program:
        if rule.head.predicate.startswith(("cnt_", "ans_")):
            assert rule.head.args[0] == key, str(rule)
    assert answer_rule(cp).head.args == (key, Variable("CntF0"))


# -- semantics ----------------------------------------------------------------


def sg_database(fanout=2, depth=3):
    db = Database()
    same_generation_instance(db, fanout=fanout, depth=depth)
    return db


def full_sg(db):
    return evaluate_program(db, parse_program(SG))["sg"]


def test_magic_equals_full_filtered_every_node():
    db = sg_database()
    full = full_sg(db)
    mp = magic_rewrite(adorned_sg())
    nodes = {row[0] for row in db.relation("up")} | {row[1] for row in db.relation("up")}
    for node in sorted(nodes, key=str):
        res = evaluate_program(db, mp.program, seeds={mp.seed_predicate: {(node,)}})
        got = {r for r in res[mp.answer_predicate] if r[0] == node}
        expected = {r for r in full if r[0] == node}
        assert got == expected, f"magic mismatch at {node}"


def test_counting_equals_full_filtered_every_node():
    db = sg_database()
    full = full_sg(db)
    cp = counting_rewrite(adorned_sg())
    nodes = {row[0] for row in db.relation("up")} | {row[1] for row in db.relation("up")}
    # one evaluation seeded with every node answers each node's subquery
    res = evaluate_program(db, cp.program, seeds={cp.seed_predicate: {(node,) for node in nodes}})
    got = res[cp.answer_predicate]
    for node in sorted(nodes, key=str):
        expected = {r for r in full if r[0] == node}
        assert {r for r in got if r[0] == node} == expected, f"counting mismatch at {node}"
    assert got == {r for r in full if r[0] in nodes}


def test_magic_anc_on_dag():
    from repro.workloads import random_dag

    db = Database()
    random_dag(db, "par", nodes=30, edges=60, seed=7)
    full = evaluate_program(db, parse_program(ANC))["anc"]
    mp = magic_rewrite(adorned_anc())
    for node in sorted({r[0] for r in db.relation("par")}, key=str)[:10]:
        res = evaluate_program(db, mp.program, seeds={mp.seed_predicate: {(node,)}})
        got = {r for r in res[mp.answer_predicate] if r[0] == node}
        assert got == {r for r in full if r[0] == node}


def test_counting_anc_any_level_semantics():
    db = Database()
    db.load("par", [(f"n{i}", f"n{i+1}") for i in range(10)])
    cp = counting_rewrite(adorned_anc())
    nodes = {f"n{i}" for i in range(11)}
    res = evaluate_program(db, cp.program, seeds={cp.seed_predicate: {(Constant(n),) for n in nodes}})
    got = {(row[0].value, row[1].value) for row in res[cp.answer_predicate]}
    assert got == {(f"n{i}", f"n{j}") for i in range(11) for j in range(i + 1, 11)}


def test_magic_second_argument_bound():
    """anc.fb: magic through the fb adornment (needs a reordered SIP)."""
    program = parse_program(ANC)
    clique = DependencyGraph(program).recursive_cliques()[0]
    cperm = CPermutation(defaults={1: (1, 0)})  # recursive rule: anc first
    adorned = adorn_clique(clique, PredicateRef("anc", 2), BindingPattern("fb"), cperm)
    mp = magic_rewrite(adorned)
    db = Database()
    db.load("par", [("a", "b"), ("b", "c"), ("x", "c")])
    res = evaluate_program(db, mp.program, seeds={mp.seed_predicate: {(Constant("c"),)}})
    got = {(r[0].value, r[1].value) for r in res[mp.answer_predicate] if r[1] == Constant("c")}
    assert got == {("a", "c"), ("b", "c"), ("x", "c")}


def test_magic_zero_ary_seed_end_to_end():
    """All-free adornment: the magic predicate is zero-ary and its seed is
    the empty tuple; the rewritten program must recompute the full
    extension once the engine inserts that seed."""
    adorned = adorned_anc(binding="ff")
    mp = magic_rewrite(adorned)
    assert mp.seed_predicate == "m_anc.ff"
    assert mp.seed_arity == 0
    # every rule is gated on the zero-ary magic literal, never dropped
    for rule in mp.program:
        if rule.head.predicate == mp.answer_predicate:
            assert rule.body[0].predicate == mp.seed_predicate
            assert rule.body[0].arity == 0
    db = Database()
    db.load("par", [("a", "b"), ("b", "c"), ("x", "c")])
    res = evaluate_program(db, mp.program, seeds={mp.seed_predicate: {()}})
    reference = evaluate_program(db, parse_program(ANC))["anc"]
    assert res[mp.answer_predicate] == reference
    # without the seed the gate stays shut: nothing is derived
    empty = evaluate_program(db, mp.program, seeds={mp.seed_predicate: set()})
    assert not empty[mp.answer_predicate]


def test_supplementary_zero_ary_seed_end_to_end():
    from repro.datalog.magic import supplementary_magic_rewrite

    sup = supplementary_magic_rewrite(adorned_anc(binding="ff"))
    assert sup.seed_arity == 0
    db = Database()
    db.load("par", [("a", "b"), ("b", "c"), ("x", "c")])
    res = evaluate_program(db, sup.program, seeds={sup.seed_predicate: {()}})
    reference = evaluate_program(db, parse_program(ANC))["anc"]
    assert res[sup.answer_predicate] == reference


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_magic_equivalence_random_dags(seed):
    """Property: magic-from-seed == full-fixpoint-filtered, on random DAGs."""
    from repro.workloads import random_dag

    db = Database()
    names = random_dag(db, "par", nodes=12, edges=20, seed=seed)
    full = evaluate_program(db, parse_program(ANC))["anc"]
    mp = magic_rewrite(adorned_anc())
    node = Constant(names[0])
    res = evaluate_program(db, mp.program, seeds={mp.seed_predicate: {(node,)}})
    got = {r for r in res[mp.answer_predicate] if r[0] == node}
    assert got == {r for r in full if r[0] == node}


# -- edge cases feeding the delta-maintenance path (ISSUE 9) ------------------


def counting_first_kb(rules):
    from repro import KnowledgeBase, OptimizerConfig

    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("counting", "seminaive")))
    kb.rules(rules)
    return kb


def test_nonlinear_recursion_falls_back_cleanly():
    """Two recursive body occurrences violate counting's linearity
    condition; with counting listed first the optimizer must skip it —
    not crash, not mis-rewrite — and still answer correctly."""
    kb = counting_first_kb("t(X, Y) <- e(X, Y). t(X, Y) <- t(X, Z), t(Z, Y).")
    kb.facts("e", [("a", "b"), ("b", "c"), ("c", "d")])
    answers = set(kb.ask("t(a, Y)?").to_python())
    assert answers == {("b",), ("c",), ("d",)}


def test_nonseparable_sip_falls_back_cleanly():
    """The identity c-permutation makes sg non-separable (bound args of
    the recursive call depend on dn, which needs the recursive result);
    structural applicability fails and evaluation falls back."""
    adorned = adorned_sg(cperm=CPermutation.identity())
    assert not counting_applicable(adorned)
    kb = counting_first_kb(SG)
    levels = same_generation_instance(kb.db, fanout=2, depth=3)
    node = levels[1][0]
    got = set(kb.ask("sg($X, Y)?", X=node).to_python())
    full = full_sg(sg_database(fanout=2, depth=3))
    want = {(r[1].value,) for r in full if r[0].value == node}
    assert got == want


def test_zero_ary_adornment_not_counting_applicable():
    """An all-free query binds nothing: counting needs at least one bound
    argument to seed levels from, so applicability must say no."""
    assert not counting_applicable(adorned_anc(binding="ff"))


def test_zero_ary_gate_predicate_end_to_end():
    """A zero-ary base predicate gating the exit rule flows through both
    the counting-first optimizer and incremental view maintenance."""
    kb = counting_first_kb(
        "reach(X) <- go, src(X). reach(Y) <- reach(X), e(X, Y)."
    )
    kb.facts("go", [()])
    kb.facts("src", [("a",)])
    kb.facts("e", [("a", "b"), ("b", "c")])
    assert set(kb.ask("reach(X)?").to_python()) == {("a",), ("b",), ("c",)}
    kb.materialize()
    kb.facts("e", [("c", "d")])
    assert kb.view_rows("reach") == {("a",), ("b",), ("c",), ("d",)}
    kb.retract("go", [()])
    assert kb.view_rows("reach") == set()


def test_zero_ary_head_counts_derivations():
    """Zero-ary derived head: support is the number of witnesses, and the
    view empties only when the last witness is retracted."""
    from repro import KnowledgeBase

    kb = KnowledgeBase()
    kb.rules("alarm <- hot(X).")
    kb.facts("hot", [("k1",), ("k2",)])
    kb.materialize()
    assert kb._views.support("alarm", ()) == 2
    kb.retract("hot", [("k1",)])
    assert kb.view_rows("alarm") == {()}
    kb.retract("hot", [("k2",)])
    assert kb.view_rows("alarm") == set()


def test_counting_retraction_in_rolled_back_transaction():
    """Retraction under a counting-first plan inside a transaction that
    rolls back: answers, views, and caches all rewind to the pre-txn
    state — no stale counting levels or half-applied deltas survive."""
    kb = counting_first_kb(ANC)
    kb.facts("par", [("a", "b"), ("b", "c"), ("x", "c")])
    before = kb.ask("anc($X, Y)?", X="a")
    assert set(before.to_python()) == {("b",), ("c",)}
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.retract("par", [("b", "c")])
            # mid-transaction asks see the transaction's own writes
            mid = kb.ask("anc($X, Y)?", X="a")
            assert set(mid.to_python()) == {("b",)}
            raise RuntimeError("abort")
    assert set(kb.ask("anc($X, Y)?", X="a").to_python()) == {("b",), ("c",)}
    # materialized views: maintenance deferred to commit, so a rollback
    # must discard the pending delete ops without ever applying them
    kb.materialize()
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.retract("par", [("b", "c")])
            raise RuntimeError("abort")
    assert kb.view_rows("anc") == {
        ("a", "b"), ("a", "c"), ("b", "c"), ("x", "c")
    }


# -- set-at-a-time counting ------------------------------------------------------


def test_a_hundred_key_counting_ask_runs_one_fixpoint(monkeypatch):
    """Counting seeds one fixpoint with the whole key set, as magic does:
    a pipelined counting node fed 100 keys evaluates once per execution
    and answers as the materialized fixpoint does."""
    from repro import KnowledgeBase, OptimizerConfig
    from repro.engine import Profiler
    from repro.engine.fixpoint import FixpointEngine
    from repro.workloads import random_dag

    rules = ANC + "q(A, D) <- start(A), anc(A, D)."

    def kb_for(methods):
        kb = KnowledgeBase(OptimizerConfig(recursive_methods=methods))
        kb.rules(rules)
        names = random_dag(kb.db, "par", nodes=300, edges=450, seed=11)
        kb.facts("start", [(name,) for name in names[:100]])
        return kb

    kb = kb_for(("counting",))
    compiled = kb.compile("q(A, D)?")
    (cc,) = [n for n in plan_nodes(compiled.plan) if isinstance(n, FixpointNode)]
    assert cc.method == "counting" and cc.binding.code == "bf"
    step = next(n for n in plan_nodes(compiled.plan) if getattr(n, "child", None) is cc)
    assert step.pipelined

    calls = []
    real = FixpointEngine.evaluate

    def spy(self, program, seeds=None, naive=False):
        calls.append(len(next(iter(seeds.values()))) if seeds else 0)
        return real(self, program, seeds=seeds, naive=naive)

    monkeypatch.setattr(FixpointEngine, "evaluate", spy)
    got = kb.ask("q(A, D)?", profiler=Profiler()).rows
    assert calls == [100]  # one evaluation, seeded with every key
    monkeypatch.setattr(FixpointEngine, "evaluate", real)
    assert got == kb_for(("seminaive",)).ask("q(A, D)?").rows
    assert got
