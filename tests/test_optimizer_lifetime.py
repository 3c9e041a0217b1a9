"""The optimizer lives as long as its rule base.

What the rules alone fix — the dependency graph, its cliques and strata,
the literal profiles — is built at the first compile after a rules
change or a rollback.  A data write only makes the optimizer re-price
(``Optimizer.reprice``): its next ``optimize()`` starts from the
statistics exactly as a new optimizer over the same rules would, so a
compile after any mix of writes equals a fresh knowledge base's compile
over the same rules and facts.
"""

import random
import time

import pytest

from repro import KnowledgeBase, OptimizerConfig
from repro.datalog import graph as graph_module
from repro.optimizer.optimizer import STRATEGIES

RULES = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
q2(A, D) <- anc(A, B), sg(B, C), anc(C, D).
w9(V0, V9) <- e1(V0, V1), e2(V1, V2), e3(V2, V3), e4(V3, V4), e5(V4, V5), \
e6(V5, V6), e7(V6, V7), e8(V7, V8), e9(V8, V9).
""".replace("\\\n", "")
FORMS = ("anc($X, Y)?", "sg($X, Y)?", "q2($A, D)?", "w9($A, Z)?")


def base_facts(rng: random.Random) -> dict[str, list[tuple]]:
    """A DAG ``par``, a tree ``up`` / ``dn`` and nine chain relations."""
    facts: dict[str, list[tuple]] = {}
    edges = set()
    while len(edges) < 60:
        u, v = sorted(rng.sample(range(40), 2))
        edges.add((f"t{u}", f"t{v}"))
    facts["par"] = sorted(edges)
    up = [(f"t{child}", f"t{(child - 1) // 2}") for child in range(1, 31)]
    facts["up"] = up
    facts["dn"] = [(parent, child) for child, parent in up]
    facts["flat"] = [("t0", "t0")]
    for i in range(1, 10):
        facts[f"e{i}"] = sorted({(rng.randrange(3 * i), rng.randrange(4 * i + 2)) for __ in range(12 * i)})
    return facts


def load(kb: KnowledgeBase, facts: dict[str, list[tuple]]) -> KnowledgeBase:
    kb.rules(RULES)
    for name, rows in facts.items():
        kb.facts(name, rows)
    return kb


def test_a_data_write_keeps_the_optimizer_and_its_graph():
    facts = base_facts(random.Random(1))
    kb = load(KnowledgeBase(), facts)
    kb.compile("anc($X, Y)?")
    optimizer, graph, program = kb.optimizer, kb.optimizer.graph, kb.program
    assert kb.facts("par", [("t1", "n1")]) == 1  # into the form's footprint
    assert kb.retract("e4", facts["e4"][:1]) == 1
    with kb.transaction():
        kb.facts("up", [("t31", "t15")])
    kb.compile("anc($X, Y)?")
    kb.compile("sg($X, Y)?")
    assert kb.optimizer is optimizer and kb.optimizer.graph is graph and kb.program is program
    kb.close()


def test_a_compile_after_writes_builds_no_graph_of_the_rules(monkeypatch):
    """Nor of a rewritten clique program a sample runs: the program and
    its schedule are kept from the first compile on."""
    kb = load(KnowledgeBase(), base_facts(random.Random(2)))
    kb.compile("q2($A, D)?")
    built = []
    real = graph_module.DependencyGraph.__init__

    def counted(self, program):
        built.append(program)
        real(self, program)

    monkeypatch.setattr(graph_module.DependencyGraph, "__init__", counted)
    for i in range(5):
        kb.facts("par", [(f"x{i}", f"y{i}")])
        kb.compile("q2($A, D)?")
        kb.facts("e2", [(100 + i, 0)])  # outside q2's footprint: a plan-cache hit
        kb.compile("q2($A, D)?")
    assert built == []
    kb.close()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_nine_join_body_compiles_in_a_second_under_every_strategy(strategy):
    """``w9`` joins nine literals: ``exhaustive`` (9! orders) hands it to
    the large-body strategy as ``dp`` hands a tenth literal, so no
    strategy's compile is unbounded."""
    kb = load(KnowledgeBase(OptimizerConfig(strategy=strategy)), base_facts(random.Random(7)))
    started = time.perf_counter()
    kb.compile("w9($A, Z)?")
    assert time.perf_counter() - started < 1.0
    kb.close()


def test_a_rules_change_or_a_rollback_builds_a_new_optimizer():
    kb = load(KnowledgeBase(), base_facts(random.Random(3)))
    kb.compile("anc($X, Y)?")
    first = kb.optimizer
    kb.rules("twice(X, Z) <- par(X, Y), par(Y, Z).")
    second = kb.optimizer
    assert second is not first and second.graph is not first.graph
    assert "twice" in {ref.name for ref in second.graph.program.derived_predicates}
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.facts("par", [("t2", "t38")])
            kb.compile("anc($X, Y)?")
            raise RuntimeError("abort")
    third = kb.optimizer
    assert third is not second and third.graph is not second.graph
    kb.close()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_compile_after_writes_equals_a_fresh_compile(strategy):
    """Writes into and outside each form's footprint, interleaved; after
    each, one compile: a plan-cache miss re-plans on the kept optimizer
    and must match a new knowledge base's compile in EXPLAIN text,
    diagnostics and search counters; a hit (the write missed the
    footprint) must still match its plan and diagnostics."""
    rng = random.Random(1988)
    facts = base_facts(rng)
    config = OptimizerConfig(strategy=strategy)
    kb = load(KnowledgeBase(config), facts)
    # each write changes a row (a no-op write re-prices nothing)
    writes = [
        lambda i: ("par", [(f"t{i}", f"n{i}")], True),  # anc, q2
        lambda i: ("e5", [(100 + i, i)], True),  # w9
        lambda i: ("up", [(f"n{i}", f"t{i}")], True),  # sg, q2 (dn left as is)
        lambda i: ("e9", facts["e9"][i:i + 1], False),  # w9
        lambda i: ("par", facts["par"][i:i + 1], False),  # anc, q2
        lambda i: ("flat", [(f"t{i}", f"t{i}")], True),  # sg, q2
    ]
    outcomes = {"hit": 0, "miss": 0}
    for step in range(18):
        name, rows, inserted = writes[step % len(writes)](step)
        if inserted:
            assert kb.facts(name, rows) == 1
            facts[name] = facts[name] + rows
        else:
            assert kb.retract(name, rows) == 1
            facts[name] = [row for row in facts[name] if row not in rows]
        form = FORMS[step // 3 % len(FORMS)]  # each form after three writes in a row
        misses = kb.metrics.counter_total("plan_cache_misses_total")
        compiled = kb.compile(form)
        missed = kb.metrics.counter_total("plan_cache_misses_total") > misses
        outcomes["miss" if missed else "hit"] += 1
        fresh = load(KnowledgeBase(config), facts)
        expected = fresh.compile(form)
        assert kb.explain(form) == fresh.explain(form), (step, form)
        assert compiled.diagnostics == expected.diagnostics, (step, form)
        if missed:
            assert kb.optimizer.counters == fresh.optimizer.counters, (step, form)
        fresh.close()
    assert outcomes["hit"] and outcomes["miss"]
    kb.close()
