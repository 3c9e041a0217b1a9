"""Cost model tests: monotonicity, order-independence, unsafe pricing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost import (
    BodyEstimator,
    CostParams,
    Estimate,
    INFINITE_COST,
    LEAF_METHODS,
    estimate_fixpoint,
)
from repro.cost.model import DerivedEstimate, StepState, clamp_card
from repro.datalog import parse_program, parse_rule, parse_literal
from repro.datalog.terms import Variable
from repro.storage.statistics import DeclaredStatistics, RelationStats
from repro.workloads import generate_conjunctive

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def make_estimator(**relations):
    stats = DeclaredStatistics()
    for name, (card, distincts) in relations.items():
        stats.declare(name, card, distincts)
    return BodyEstimator(stats)


def test_estimate_records():
    assert Estimate(1, 2) + Estimate(3, 4) == Estimate(4, 6)
    assert Estimate.unsafe().is_infinite
    assert not Estimate(1, 1).is_infinite


def test_clamp_card():
    params = CostParams()
    assert clamp_card(10, params) == 10
    # saturates finite: size explosion is not unsafety (only EC/WF are)
    assert clamp_card(1e20, params) == params.cardinality_cap
    assert math.isinf(clamp_card(math.inf, params))
    assert clamp_card(-5, params) == 0.0


def test_scaled_zero_times_inf():
    from repro.cost.model import scaled

    assert scaled(0.0, math.inf) == 0.0
    assert scaled(math.inf, 0.0) == 0.0
    assert scaled(2.0, 3.0) == 6.0


def test_base_step_selectivity():
    est = make_estimator(e=(1000, [100, 10]))
    state = StepState(card=1.0, bound=frozenset({X}), var_ndvs={X: 1.0})
    out, method = est.literal_step(state, parse_literal("e(X, Y)"))
    # one bound value out of 100 distinct: ~10 matching tuples
    assert out.card == pytest.approx(10.0)
    assert method in ("index", "hash", "nested_loop", "merge")


def test_index_beats_nested_loop_when_selective():
    est = make_estimator(e=(100_000, [100_000, 10]))
    state = StepState(card=1.0, bound=frozenset({X}), var_ndvs={X: 1.0})
    indexed = est.base_step(state, parse_literal("e(X, Y)"), est.stats_for("e", 2), "index")
    nl = est.base_step(state, parse_literal("e(X, Y)"), est.stats_for("e", 2), "nested_loop")
    assert indexed.cost < nl.cost


def test_a_two_valued_bound_key_is_priced_as_an_index_probe():
    """On a key with two distinct values a nested loop is the cheapest of
    the four formulas, but the executor runs only ``index`` and ``hash``:
    the default label set prices those, and a forced set its one label."""
    stats = DeclaredStatistics()
    stats.declare("kind", 20, [2, 20])
    state = StepState(card=1.0, bound=frozenset({X}), var_ndvs={X: 1.0})
    literal = parse_literal("kind(X, Y)")
    default, forced = BodyEstimator(stats), BodyEstimator(stats, methods=("nested_loop",))
    kind = default.stats_for("kind", 2)
    assert default.leaf_step(state, literal, kind, LEAF_METHODS)[1] == "nested_loop"
    for est, expected in ((default, "index"), (forced, "nested_loop")):
        out, method = est.literal_step(state, literal)
        assert method == expected
        assert out == est.base_step(state, literal, kind, expected)


def test_scan_cost_monotone_in_cardinality():
    small = make_estimator(e=(100, [10, 10]))
    large = make_estimator(e=(10_000, [10, 10]))
    state = StepState(card=1.0, bound=frozenset())
    cost_small = small.literal_step(state, parse_literal("e(X, Y)"))[0].cost
    cost_large = large.literal_step(state, parse_literal("e(X, Y)"))[0].cost
    assert cost_large > cost_small


def test_comparison_unsafe_prices_infinite():
    est = make_estimator()
    state = StepState(card=1.0, bound=frozenset())
    out, __ = est.literal_step(state, parse_literal("X < Y"))
    assert math.isinf(out.cost)


def test_equality_binding_keeps_cardinality():
    est = make_estimator()
    state = StepState(card=7.0, bound=frozenset({X}))
    out, __ = est.literal_step(state, parse_literal("Y = X + 1"))
    assert out.card == 7.0
    assert Y in out.bound


def test_negation_requires_bound():
    est = make_estimator(b=(100, [10]))
    free = est.literal_step(StepState(1.0, frozenset()), parse_literal("~b(X)"))[0]
    assert math.isinf(free.cost)
    bound = est.literal_step(StepState(4.0, frozenset({X})), parse_literal("~b(X)"))[0]
    assert bound.card == pytest.approx(2.0)  # negation selectivity 0.5


def test_derived_oracle_pipelined_vs_materialized():
    stats = DeclaredStatistics()
    derived = DerivedEstimate(
        per_probe=Estimate(50.0, 2.0),
        materialized=Estimate(1000.0, 500.0),
        ndvs=(100.0, 100.0),
    )
    est = BodyEstimator(stats, derived_oracle=lambda l, b: derived if l.predicate == "d" else None)
    state = StepState(card=3.0, bound=frozenset({X}))
    out, method = est.literal_step(state, parse_literal("d(X, Y)"))
    assert method == "pipelined"      # 3 * 50 << 1000 + ...
    assert out.card == pytest.approx(6.0)
    big_state = StepState(card=10_000.0, bound=frozenset({X}))
    out2, method2 = est.literal_step(big_state, parse_literal("d(X, Y)"))
    assert method2 == "materialized"  # amortize the build over many probes


def test_overlay_shadows_oracle():
    called = []

    def oracle(literal, binding):
        called.append(literal.predicate)
        return None

    stats = DeclaredStatistics()
    est = BodyEstimator(
        stats,
        derived_oracle=oracle,
        extra_stats={"t": RelationStats.declared(50, [10, 10])},
    )
    est.literal_step(StepState(1.0, frozenset()), parse_literal("t(X, Y)"))
    assert "t" not in called


def test_default_stats_for_unknown():
    est = make_estimator()
    stats = est.stats_for("mystery", 2)
    assert stats.cardinality == CostParams().default_cardinality


def test_body_estimate_unsafe_order():
    est = make_estimator(q=(10, [10]))
    rule = parse_rule("p(X, Y) <- Y = X + 1, q(X).")
    bad, __ = est.body_estimate(rule.body)
    good, __ = est.body_estimate((rule.body[1], rule.body[0]))
    assert math.isinf(bad.cost)
    assert not math.isinf(good.cost)


# -- order independence (the DP invariant) --------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.permutations(range(5)))
def test_cardinality_is_order_independent(seed, perm):
    w = generate_conjunctive(5, "random", seed=seed)
    est = BodyEstimator(w.stats)
    original, __ = est.body_estimate(w.body)
    permuted, __ = est.body_estimate([w.body[i] for i in perm])
    if math.isinf(original.card) or math.isinf(permuted.card):
        assert math.isinf(original.card) == math.isinf(permuted.card)
    else:
        assert permuted.card == pytest.approx(original.card, rel=1e-6)


# -- fixpoint estimation ---------------------------------------------------------


def test_estimate_fixpoint_prefers_selective_seed():
    program = parse_program(
        """
        t(X, Y) <- e(X, Y).
        t(X, Y) <- e(X, Z), t(Z, Y).
        """
    )
    stats = DeclaredStatistics()
    stats.declare("e", 10_000, [10_000, 10_000])

    def factory(overlay):
        return BodyEstimator(stats, extra_stats=overlay)

    params = CostParams()
    full, __ = estimate_fixpoint(program, factory, {}, params)

    magic_program = parse_program(
        """
        t.bf(X, Y) <- m(X), e(X, Y).
        t.bf(X, Y) <- m(X), e(X, Z), t.bf(Z, Y).
        m(Z) <- m(X), e(X, Z).
        """
    )
    seeded, __ = estimate_fixpoint(magic_program, factory, {"m": (1.0, 1)}, params)
    assert seeded.cost < full.cost


def test_estimate_fixpoint_unsafe_body():
    program = parse_program("t(X, Y) <- Y = W + 1, e(X, Y).")
    stats = DeclaredStatistics()
    stats.declare("e", 100, [10, 10])
    est, __ = estimate_fixpoint(
        program, lambda o: BodyEstimator(stats, extra_stats=o), {}, CostParams()
    )
    assert est.is_infinite
