"""Plan-quality properties of the pruned search (PR 10 acceptance).

Branch-and-bound must be invisible in the *result*: on every body where
the exhaustive search is feasible, the DP/B&B enumerator returns a plan
of identical cost, and the pruned c-permutation search picks the same
recursive plan as an uncapped enumeration of every c-permutation — only
the amount of work differs.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import KnowledgeBase, OptimizerConfig
from repro.cost import BodyEstimator
from repro.optimizer import dp_order, exhaustive_order
from repro.workloads import generate_conjunctive, same_generation_instance

SG = """
sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
sg(X, Y) <- flat(X, Y).
"""

ANC = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
"""


def bound_subset(body, seed):
    """A deterministic pseudo-random subset of the body's variables —
    the 'binding pattern' axis of the property."""
    rng = random.Random(seed)
    variables = sorted({v for l in body for v in l.variables}, key=lambda v: v.name)
    return frozenset(v for v in variables if rng.random() < 0.3)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 10_000),
    st.sampled_from(["chain", "star", "cycle", "random"]),
)
def test_bb_cost_equals_exhaustive(n, seed, shape):
    """DP + branch-and-bound is cost-identical to exhaustive search."""
    w = generate_conjunctive(n, shape, seed=seed)
    est = BodyEstimator(w.stats)
    bound = bound_subset(w.body, seed)
    pruned = dp_order(w.body, bound, est)
    exact = exhaustive_order(w.body, bound, est)
    assert pruned.est.cost == pytest.approx(exact.est.cost)


@pytest.mark.parametrize(
    "n,seeds",
    [(7, (0, 1, 2, 3)), (8, (0, 1))],
)
def test_bb_cost_equals_exhaustive_wide(n, seeds):
    """The same identity on wide bodies (n <= 8), where exhaustive is at
    the edge of feasibility — and B&B does far less work getting there."""
    for seed in seeds:
        w = generate_conjunctive(n, ("random", "chain")[seed % 2], seed=seed)
        est = BodyEstimator(w.stats)
        bound = bound_subset(w.body, seed)
        pruned = dp_order(w.body, bound, est)
        exact = exhaustive_order(w.body, bound, est)
        assert pruned.est.cost == pytest.approx(exact.est.cost)
        assert exact.evaluations == math.factorial(n)
        assert pruned.evaluations < exact.evaluations


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["chain", "star", "random"]))
def test_bb_prune_flag_preserves_cost(seed, shape):
    """Pruned DP vs the exhaustive enumeration: identical best cost,
    fewer costings."""
    w = generate_conjunctive(6, shape, seed=seed)
    est = BodyEstimator(w.stats)
    bound = bound_subset(w.body, seed)
    pruned = dp_order(w.body, bound, est)
    exact = exhaustive_order(w.body, bound, est)
    assert pruned.est.cost == pytest.approx(exact.est.cost)
    assert pruned.evaluations <= exact.evaluations


def _sg_kb(**config):
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", seed=0, **config))
    same_generation_instance(kb.db, fanout=2, depth=3)
    kb.rules(SG)
    return kb


def _anc_kb(**config):
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", seed=0, **config))
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(20)])
    kb.rules(ANC)
    return kb


def _cc(compiled):
    """The CC node the query wrapper's single step reads."""
    return compiled.plan.children[0].steps[0].child


def _uncapped_choice(kb, query):
    """The reference the pruned c-permutation search must match: every
    c-permutation priced under every bound method with no cost cap and a
    fresh body-estimate cache, the first strict minimum kept.  Returns
    that node (None when no c-permutation is safe) and the number of
    body estimates the enumeration priced."""
    from repro.cost import BodyMemo
    from repro.cost.model import INFINITE_COST
    from repro.datalog import adorn_clique, parse_query, pred_ref

    optimizer = kb.optimizer
    form = parse_query(query)
    ref = pred_ref(form.goal)
    clique = optimizer.graph.clique_of(ref)
    support = optimizer._support_program(clique)
    methods = [m for m in optimizer.config.recursive_methods if m != "seminaive"]
    best, costed = None, 0
    for cperm in optimizer._cpermutations(clique, ref, form.adornment):
        adorned = adorn_clique(
            clique, ref, form.adornment, cperm,
            derived_predicates=optimizer.program.derived_predicates,
        )
        cache = BodyMemo()
        node = optimizer._cost_adorned(adorned, support, methods, INFINITE_COST, {}, cache)
        costed += cache.misses
        if node is not None and (best is None or node.est.cost < best.est.cost):
            best = node
    return best, costed


def _assert_matches_uncapped(make_kb, query):
    kb = make_kb()
    chosen = _cc(kb.compile(query))
    # the materialized candidate is priced first; a bound method must beat it
    expected = _cc(make_kb(recursive_methods=("seminaive",)).compile(query))
    reference, __ = _uncapped_choice(kb, query)
    if reference is not None and reference.est.cost < expected.est.cost:
        expected = reference
    assert chosen.method == expected.method
    assert chosen.est.cost == pytest.approx(expected.est.cost)
    assert chosen.program == expected.program


@pytest.mark.parametrize("query", ["sg($X, Y)?", "sg(X, $Y)?", "sg($X, $Y)?"])
def test_bb_cperm_choice_matches_full_sg(query):
    """Pruned c-permutation search picks the plan the uncapped
    enumeration picks."""
    _assert_matches_uncapped(_sg_kb, query)


@pytest.mark.parametrize("query", ["anc($X, Y)?", "anc(X, $Y)?"])
def test_bb_cperm_choice_matches_full_anc(query):
    _assert_matches_uncapped(_anc_kb, query)


def test_bb_does_less_work_and_counts_it():
    """The pruned search prices fewer bodies than the uncapped
    enumeration; the saved work lands in plans_pruned."""
    kb = _sg_kb()
    kb.compile("sg($X, Y)?")
    __, uncapped = _uncapped_choice(kb, "sg($X, Y)?")
    counters = kb.optimizer.counters
    assert counters["plans_costed"] < uncapped
    assert counters["plans_pruned"] > 0


def test_unknown_search_mode_rejected():
    """There is one plan search: the mode keyword is gone."""
    with pytest.raises(TypeError):
        OptimizerConfig(search="greedy")
    with pytest.raises(TypeError):
        OptimizerConfig(search="full")


def test_join_node_records_pruning():
    """EXPLAIN's ~pruned diagnostic source: JoinNode.pruned is populated."""
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", seed=0))
    w = generate_conjunctive(6, "random", seed=7, prefix="w")
    for literal in w.body:
        kb.facts(literal.predicate, [(1, 2)])
    head_vars = sorted({v.name for l in w.body for v in l.variables})[:1]
    rule = f"wide({head_vars[0]}) <- " + ", ".join(str(l) for l in w.body) + "."
    kb.rules(rule)
    plan = kb.compile("wide(X)?").plan
    assert plan.children[0].pruned >= 0  # field exists and is populated
