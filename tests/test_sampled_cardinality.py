"""A join that consumes a bound recursive clique prices it from a sample.

The static fixpoint formula can be off by two orders of magnitude for a
bound clique (``anc(A, B)`` with ``A`` bound: hundreds of rows estimated,
a handful actual), and a bad card loses the sideways-passing plan of the
paper's Sec 7.3.  The optimizer instead runs the clique's rewritten
program from a few keys drawn from the data and divides answer rows by
keys (Lipton & Naughton, "Estimating the size of generalized transitive
closures", VLDB 1989) — once per (predicate, adornment), at compile
time, and only where a join consumes the clique: the query form's own
goal is not sampled, since nothing reads the wrapper's card.
"""

import random

import pytest

from repro import KnowledgeBase, OptimizerConfig
from repro.cost import BodyEstimator, CostParams
from repro.cost.model import DerivedEstimate, Estimate, StepState
from repro.datalog import parse_program, parse_query
from repro.datalog.terms import variables_of
from repro.engine.fixpoint import FixpointEngine
from repro.optimizer import Optimizer
from repro.plans.nodes import FixpointNode, JoinNode, UnionNode
from repro.storage.statistics import DeclaredStatistics

RULES = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- sib(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
q2(A, D) <- anc(A, B), sg(B, C), anc(C, D).
"""
Q2 = "q2($A, D)?"


def q2_kb(config=None) -> KnowledgeBase:
    """A DAG ``par`` (300 nodes, 450 edges, few descendants per node)
    and a tree ``up`` / ``dn`` (fan-out 3, depth 5) over one domain."""
    rng = random.Random(1988)
    kb = KnowledgeBase(config)
    kb.rules(RULES)
    edges = set()
    while len(edges) < 450:
        u, v = sorted(rng.sample(range(300), 2))
        edges.add((f"t{u}", f"t{v}"))
    kb.facts("par", sorted(edges))
    up, frontier, fresh = [], [0], 1
    for __ in range(5):
        level = []
        for parent in frontier:
            for __ in range(3):
                up.append((f"t{fresh}", f"t{parent}"))
                level.append(fresh)
                fresh += 1
        frontier = level
    kb.facts("up", up)
    kb.facts("dn", [(parent, child) for child, parent in up])
    kb.facts("flat", [("t0", "t0")])
    kb.facts("sib", [("t1", "t2"), ("t2", "t1")])
    return kb


def nodes(plan):
    """Every plan node and join step under *plan*, depth first."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, UnionNode):
            stack.extend(node.children)
        elif isinstance(node, JoinNode):
            for step in node.steps:
                yield step
                if step.child is not None:
                    stack.append(step.child)


def cliques(plan, name):
    return [n for n in nodes(plan) if isinstance(n, FixpointNode) and n.ref.name == name]


@pytest.fixture
def evaluations(monkeypatch):
    """Counts ``FixpointEngine.evaluate`` calls."""
    calls = []
    real = FixpointEngine.evaluate

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FixpointEngine, "evaluate", counting)
    return calls


def test_the_first_ask_pipelines_sg_into_a_bound_method(evaluations):
    kb = q2_kb()
    compiled = kb.compile(Q2)
    (sg,) = cliques(compiled.plan, "sg")
    assert sg.binding.code == "bf" and sg.method in ("magic", "supplementary")
    step = next(s for s in nodes(compiled.plan) if getattr(s, "child", None) is sg)
    assert step.pipelined
    assert not [n for n in cliques(compiled.plan, "sg") if n.binding.is_all_free]
    assert evaluations and any(d.startswith("sampled: sg/2bf") for d in compiled.diagnostics)
    # the plan that ran first answers as the materialized reference does
    reference = q2_kb(OptimizerConfig(recursive_methods=("seminaive",)))
    for a in ("t0", "t40", "t200", "t250"):
        assert kb.ask(Q2, A=a).rows == reference.ask(Q2, A=a).rows


def test_a_sampled_clique_is_priced_once_for_its_whole_key_set():
    """``anc(C, D)`` receives hundreds of ``C`` keys from ``sg``; seeded
    with all of them, its supplementary program derives no more than the
    full closure does, so it is pipelined rather than materialized ff."""
    plan = q2_kb().compile(Q2).plan
    (body,) = [n for n in nodes(plan) if isinstance(n, JoinNode) and n.head.predicate == "q2"]
    last = body.steps[-1]
    assert str(last.literal) == "anc(C, D)" and last.pipelined
    assert last.child.binding.code == "bf" and last.child.method in ("magic", "supplementary")
    assert not [n for n in cliques(plan, "anc") if n.binding.is_all_free]


def test_the_key_set_ceiling_applies_to_a_set_oriented_child_only():
    estimator = BodyEstimator(DeclaredStatistics())
    literal = parse_query("p($X, Y)?").goal
    state = StepState(100.0, frozenset(variables_of(literal.args[0])))
    per_probe, full = Estimate(50.0, 3.0), Estimate(1000.0, 400.0)
    priced = {
        flag: estimator.derived_step(
            state, literal, DerivedEstimate(per_probe, full, (20.0, 20.0), set_oriented=flag), True
        )
        for flag in (False, True)
    }
    assert priced[False].cost == 100 * 50.0  # one bind-join per outer row
    assert priced[True].cost == 1000.0 + 100 * CostParams().probe_weight  # once, then a probe a row
    assert priced[True].card == priced[False].card == 300.0


@pytest.mark.parametrize("query", ["anc($X, Y)?", "sg($X, Y)?"])
def test_a_bare_clique_goal_is_not_sampled(query, evaluations):
    kb = q2_kb()
    kb.compile(query)
    assert evaluations == []


def test_a_sample_over_its_budget_keeps_the_formula_card(monkeypatch):
    from repro.optimizer import optimizer as optimizer_module

    formula = cliques(q2_kb().compile("anc($X, Y)?").plan, "anc")[0].est.card
    monkeypatch.setattr(optimizer_module, "SAMPLE_TUPLES", 1)
    compiled = q2_kb().compile(Q2)
    bound = [n for n in cliques(compiled.plan, "anc") if n.binding.code == "bf"]
    assert bound and all(n.est.card == formula for n in bound)
    assert any(
        d.startswith("sample: anc/2bf keeps its formula cardinality")
        and "TupleBudgetExceeded" in d
        for d in compiled.diagnostics
    )
    assert compiled.safe


def test_declared_statistics_keep_the_formula_card():
    stats = DeclaredStatistics()
    for name in ("par", "up", "dn", "flat", "sib"):
        stats.declare(name, 100, [50, 50], acyclic=True)
    compiled = Optimizer(parse_program(RULES), stats).optimize(parse_query(Q2))
    assert any("the statistics are not a database" in d for d in compiled.diagnostics)
    assert not any(d.startswith("sampled:") for d in compiled.diagnostics)


def test_two_fresh_knowledge_bases_compile_the_same_plan():
    assert q2_kb().explain(Q2) == q2_kb().explain(Q2)


def test_a_sampled_consumed_counting_clique_is_set_oriented(monkeypatch):
    """Counting runs once per key set like magic, so a consumed counting
    clique with a sampled card is priced for its whole key set too."""
    seen = []
    real = Optimizer._oracle

    def spy(self, literal, binding, sample=True):
        derived = real(self, literal, binding, sample)
        seen.append((literal.predicate, binding.code, derived))
        return derived

    monkeypatch.setattr(Optimizer, "_oracle", spy)
    compiled = q2_kb(OptimizerConfig(recursive_methods=("counting", "seminaive"))).compile(Q2)
    sampled = {
        (d.split()[1].split("/")[0], d.split()[1][-2:])
        for d in compiled.diagnostics
        if d.startswith("sampled: ") and d.split()[2] == "(counting)"
    }
    assert ("sg", "bf") in sampled
    oriented = {(name, code) for name, code, derived in seen if derived and derived.set_oriented}
    assert sampled <= oriented
    assert all(code != "ff" for __, code in oriented)
