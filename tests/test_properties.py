"""Cross-cutting property tests: round trips and model invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.cost import BodyEstimator, CostParams
from repro.cost.model import StepState
from repro.datalog import (
    BindingPattern,
    parse_rule,
)
from repro.datalog.adorn import greedy_sip_permutation
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_rule as parse_rule_text
from repro.datalog.terms import Constant, Struct, Variable
from repro.storage.statistics import DeclaredStatistics

# -- generators ---------------------------------------------------------------

var_names = st.sampled_from(["X", "Y", "Z", "W", "V1", "V2"])
constants = st.one_of(
    st.integers(-99, 99).map(Constant),
    st.sampled_from(["a", "b", "c", "foo"]).map(Constant),
)
terms = st.recursive(
    st.one_of(constants, var_names.map(Variable)),
    lambda children: st.builds(
        lambda args: Struct("f", tuple(args)),
        st.lists(children, min_size=1, max_size=2),
    ),
    max_leaves=4,
)
literals = st.builds(
    lambda name, args: Literal(name, tuple(args)),
    st.sampled_from(["p", "q", "r"]),
    st.lists(terms, min_size=1, max_size=3),
)
rules = st.builds(
    lambda head_args, body: parse_rule_text("dummy(X) <- q(X).").with_body(tuple(body))
    if False
    else None,
    st.just(None),
    st.just(None),
)


@st.composite
def generated_rules(draw):
    head = Literal("h", tuple(draw(st.lists(terms, min_size=1, max_size=3))))
    body = tuple(draw(st.lists(literals, min_size=1, max_size=4)))
    from repro.datalog.rules import Rule

    return Rule(head, body)


# -- parser round trip ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(generated_rules())
def test_rule_str_parse_roundtrip(rule):
    """str() of any rule parses back to an equal rule."""
    # anonymous/underscore variable names would be renamed by the parser;
    # our generator only emits plain names, so the round trip is exact.
    assert parse_rule(str(rule)) == rule


# -- greedy SIP -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(generated_rules(), st.integers(0, 7))
def test_greedy_sip_is_a_permutation(rule, mask):
    arity = rule.head.arity
    code = "".join("b" if mask & (1 << i) else "f" for i in range(arity))
    perm = greedy_sip_permutation(rule, BindingPattern(code))
    assert sorted(perm) == list(range(len(rule.body)))


# -- cost model invariants --------------------------------------------------------


def estimator_with(card: float, ndv: float) -> BodyEstimator:
    stats = DeclaredStatistics()
    stats.declare("e", card, [ndv, ndv])
    return BodyEstimator(stats)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(10, 1e6),
    st.floats(10, 1e6),
    st.sampled_from(["nested_loop", "hash", "index", "merge"]),
)
def test_cost_monotone_in_relation_size(small, large, method):
    """Section 6: 'the cost can be viewed as some monotonically increasing
    function on the size of the operands' — with the other statistics
    (distinct counts) held fixed."""
    if small > large:
        small, large = large, small
    literal = parse_rule("p(X) <- e(X, Y).").body[0]
    state = StepState(card=5.0, bound=frozenset({Variable("X")}), var_ndvs={Variable("X"): 3.0})
    ndv = 8.0  # fixed: only the operand size varies
    cost_small = estimator_with(small, ndv).base_step(
        state, literal, estimator_with(small, ndv).stats_for("e", 2), method
    ).cost
    cost_large = estimator_with(large, ndv).base_step(
        state, literal, estimator_with(large, ndv).stats_for("e", 2), method
    ).cost
    assert cost_large >= cost_small - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(1, 1e5), st.floats(1, 1e5))
def test_cost_monotone_in_input_cardinality(small, large):
    if small > large:
        small, large = large, small
    literal = parse_rule("p(X) <- e(X, Y).").body[0]
    est = estimator_with(1000, 100)
    stats = est.stats_for("e", 2)
    for method in ("nested_loop", "hash", "index", "merge"):
        a = est.base_step(StepState(small, frozenset({Variable("X")})), literal, stats, method)
        b = est.base_step(StepState(large, frozenset({Variable("X")})), literal, stats, method)
        assert b.cost >= a.cost - 1e-9
        assert b.card >= a.card - 1e-9


# -- binding patterns -----------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 63), st.integers(0, 63))
def test_subsumes_is_a_partial_order(arity, mask_a, mask_b):
    def pattern(mask: int) -> BindingPattern:
        return BindingPattern("".join("b" if mask & (1 << i) else "f" for i in range(arity)))

    a, b = pattern(mask_a), pattern(mask_b)
    assert a.subsumes(a)  # reflexive
    if a.subsumes(b) and b.subsumes(a):
        assert a.code == b.code  # antisymmetric
    all_free = BindingPattern.all_free(arity)
    assert all_free.subsumes(a)  # bottom element
