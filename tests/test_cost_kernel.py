"""The costing kernel: a literal is priced once per step, not once per method.

Four contracts (ISSUE 23):

1. ``BodyEstimator.leaf_step`` over all four EL methods is the first
   strict minimum over the per-method step it replaced — an in-test copy
   of that step (``_reference_base_step``) is the oracle, compared field
   by field with ``==`` on floats.
2. Every plan search returns what it returned at 9a2267f (the commit
   before the kernel was rebuilt): ``record()`` below, run by this file as
   a script under ``PYTHONHASHSEED=0``, was run against that commit's
   ``src`` to produce ``data/cost_kernel_9a2267f.json``; and every
   permutation ``kbz_order`` / ``annealing_order`` cost from a prefix
   checkpoint equals the same permutation costed from position 0.
3. ``kb.explain`` of the six ledger programs' forms is pinned to the
   text recorded at that commit, cold and after a round of the workload.
4. During one ``optimize()`` of a 12-literal body
   ``BindingPattern.of_literal`` is entered at most once per (body
   literal, bound-argument mask).
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import KnowledgeBase, OptimizerConfig
from repro.cost import BodyEstimator, CostParams, LEAF_METHODS
from repro.cost.model import StepState, clamp_card, scaled
from repro.datalog import parse_program, parse_query
from repro.datalog.bindings import BindingPattern
from repro.datalog.literals import Literal
from repro.datalog.terms import Constant, Struct, Variable, variables_of
from repro.optimizer import AnnealingSchedule, Optimizer, annealing_order, dp_order, exhaustive_order, kbz_order
from repro.optimizer import optimizer as optimizer_module
from repro.optimizer.conjunctive import cost_order, split_joinable
from repro.plans.printer import explain
from repro.storage.statistics import DeclaredStatistics, RelationStats
from repro.workloads import generate_conjunctive
from repro.workloads.querygen import generate_random_program

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).with_name("data") / "cost_kernel_9a2267f.json"

# ------------------------------------------------- 1. leaf_step == per-method


def _reference_base_step(estimator, state, literal, stats, method):
    """The per-method step as it stood at 9a2267f (``base_step`` +
    ``_bound_selectivity``), kept here as the oracle.  Returns ``(cost,
    card, bound, var_ndvs)``."""
    params = estimator.params
    distincts = [stats.distinct(i) for i in range(literal.arity)]
    selectivity = 1.0
    positions = []
    updates = {}
    for index, arg in enumerate(literal.args):
        arg_vars = variables_of(arg)
        d_new = max(1.0, distincts[index] if index < len(distincts) else 1.0)
        if arg_vars and arg_vars <= state.bound:
            positions.append(index)
            if isinstance(arg, Variable):
                d_seen = max(1.0, state.ndv_of(arg))
                selectivity /= max(d_seen, d_new)
                updates[arg] = min(updates.get(arg, d_new), d_new, d_seen)
            else:
                selectivity /= d_new
        elif not arg_vars:
            positions.append(index)
            selectivity /= d_new
        elif isinstance(arg, Variable):
            updates[arg] = min(updates.get(arg, d_new), d_new)
    per_probe = stats.cardinality * selectivity
    out_card = clamp_card(scaled(state.card, per_probe), params)
    n = stats.cardinality
    if method == "nested_loop":
        work = state.card * n
    elif method == "hash":
        work = n + state.card * params.probe_weight + out_card
    elif method == "index":
        if not positions:
            work = state.card * n
        else:
            work = state.card * (params.probe_weight + per_probe) + out_card
    else:
        work = n * math.log2(n + 2) + state.card * math.log2(state.card + 2) + out_card
    ndvs = dict(state.var_ndvs)
    for var, value in updates.items():
        ndvs[var] = value if var not in ndvs else min(ndvs[var], value)
    return state.cost + work, out_card, state.bound | literal.variables, ndvs


POOL = [Variable(name) for name in "XYZW"]
_variables = st.sampled_from(POOL)
_constants = st.sampled_from([Constant("a"), Constant("b"), Constant(1), Constant(2.5)])
_ground_structs = st.builds(
    lambda functor, args: Struct(functor, tuple(args)),
    st.sampled_from(["f", "g"]), st.lists(_constants, min_size=1, max_size=2),
)
_open_structs = st.builds(
    lambda functor, var, rest: Struct(functor, (var, *rest)),
    st.sampled_from(["f", "g"]), _variables,
    st.lists(st.one_of(_variables, _constants, _ground_structs), max_size=2),
)
_arguments = st.one_of(_variables, _variables, _constants, _ground_structs, _open_structs)
_literals = st.builds(
    lambda name, args: Literal(name, tuple(args)),
    st.sampled_from(["p", "q"]), st.lists(_arguments, min_size=1, max_size=4),
)
_cards = st.one_of(
    st.sampled_from([0.0, 1.0, CostParams().cardinality_cap]),
    st.floats(0.0, 1e9, allow_nan=False),
)
_states = st.builds(
    lambda card, bound, ndvs, cost: StepState(
        card, frozenset(bound), cost, {v: n for v, n in ndvs.items() if v in bound}
    ),
    _cards, st.sets(_variables),
    st.dictionaries(_variables, st.floats(0.25, 1e6, allow_nan=False)),
    st.floats(0.0, 1e12, allow_nan=False),
)
_stats = st.builds(
    lambda card, distincts: RelationStats.declared(card, distincts),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e8, allow_nan=False)),
    st.lists(st.floats(1.0, 1e6, allow_nan=False), min_size=4, max_size=4),
)


@settings(max_examples=400, deadline=None)
@given(_literals, _states, _stats)
def test_leaf_step_is_the_first_strict_minimum_of_the_per_method_step(literal, state, stats):
    estimator = BodyEstimator(DeclaredStatistics())
    expected = expected_method = None
    for method in LEAF_METHODS:
        candidate = _reference_base_step(estimator, state, literal, stats, method)
        forced = estimator.base_step(state, literal, stats, method)
        assert (forced.cost, forced.card, forced.bound, dict(forced.var_ndvs)) == candidate
        if expected is None or candidate[0] < expected[0]:
            expected, expected_method = candidate, method
    got, method = estimator.leaf_step(state, literal, stats, LEAF_METHODS)
    assert method == expected_method
    assert (got.cost, got.card, got.bound, dict(got.var_ndvs)) == expected
    assert not math.isnan(got.cost) and not math.isnan(got.card)


@settings(max_examples=100, deadline=None)
@given(_states, st.sampled_from([0.0, 7.0, math.inf]))
def test_no_step_prices_nan_even_over_an_infinite_overlay(state, cardinality):
    """A ``nan`` cost loses and wins no ``<`` comparison, so it could be
    neither chosen nor replaced; the negation step used to produce one
    from ``inf * 0.0``."""
    overlay = {"b": RelationStats.declared(cardinality, [3.0])}
    estimator = BodyEstimator(DeclaredStatistics(), extra_stats=overlay)
    bound_state = StepState(state.card, state.bound | {POOL[0]}, state.cost, state.var_ndvs)
    for literal in (Literal("b", (POOL[0],), negated=True), Literal("<", (POOL[0], Constant(3)))):
        out, __ = estimator.literal_step(bound_state, literal)
        assert not math.isnan(out.cost) and not math.isnan(out.card)


def test_body_estimate_memo_keys_on_literals_not_on_their_text():
    """``p("1", X)`` and ``p(1, X)`` print alike but are different
    literals; the shared body-estimate memo keyed them by their text and
    so held one entry for both."""
    from repro.optimizer.optimizer import _BodyEstimateCache, _CachingEstimator

    text, number = Literal("p", (Constant("1"), POOL[0])), Literal("p", (Constant(1), POOL[0]))
    assert str(text) == str(number) and text != number
    stats = DeclaredStatistics({"p": RelationStats.declared(100.0, [10.0, 10.0])})
    caching = _CachingEstimator(BodyEstimator(stats), _BodyEstimateCache())
    for body, bound in (((text,), ()), ((number,), ()), ((number,), (POOL[0],))):
        caching.body_estimate(body, frozenset(bound))
    assert (caching._cache.misses, caching._cache.hits) == (3, 0)
    assert caching.body_estimate((number,), frozenset({Variable("X")}))[0].card == 1.0
    assert (caching._cache.misses, caching._cache.hits) == (3, 1)


# ------------------------------------ 2. the searches, recorded at 9a2267f


def _wide(width, shape, seed):
    """A body shaped like ``opt_wide``'s ``qc<w>`` (chain) / ``qs<w>``
    (a star of satellites, then a chain) over seeded statistics."""
    rng = random.Random(seed * 100 + width)
    var = [Variable(f"V{i}") for i in range(width + 1)]
    if shape == "chain":
        atoms = [(f"e{i + 1}", (var[i], var[i + 1])) for i in range(width)]
    else:
        k = max(2, width // 3)
        atoms = [(f"s{j + 1}", (var[0], Variable(f"S{j + 1}"))) for j in range(k - 1)]
        atoms.append((f"s{k}", (var[0], var[k])))
        atoms += [(f"e{i + 1}", (var[k + i], var[k + i + 1])) for i in range(width - k)]
    stats = DeclaredStatistics()
    for name, __ in atoms:
        card = rng.choice([20, 60, 200, 600, 2000])
        stats.declare(name, card, [max(2, round(card / rng.uniform(1.0, 8.0))) for __ in range(2)])
    return tuple(Literal(name, args) for name, args in atoms), stats, frozenset({var[0]})


def _bodies():
    for width in range(6, 17):
        for shape in ("chain", "star"):
            yield (f"{shape}{width}", *_wide(width, shape, seed=width))
    for n, shape, seed in ((5, "cycle", 1), (6, "clique", 2), (7, "random", 3), (8, "chain", 4)):
        w = generate_conjunctive(n, shape, seed=seed)
        yield f"querygen-{shape}{n}", w.body, w.stats, frozenset()


def _annealing(body, bound, estimator):
    schedule = AnnealingSchedule(max_evaluations=400)  # 52 runs: keep each short
    return annealing_order(body, bound, estimator, rng=random.Random(11), schedule=schedule)


def _searches(body):
    """(label, search) pairs feasible for *body*: the four strategies
    (``dp/bb`` is the pruned DP, labelled as when an un-pruned mode
    existed beside it)."""
    n = len(split_joinable(body)[0])
    if n <= 11:
        yield "dp/bb", dp_order
    if n <= 6:
        yield "exhaustive", exhaustive_order
    yield "kbz", kbz_order
    yield "annealing", _annealing


def _order_json(result):
    return {
        "steps": [[s.index, s.method, s.cost_delta, s.card_after] for s in result.steps],
        "est": [result.est.cost, result.est.card],
        "evaluations": result.evaluations,
        "pruned": result.pruned,
    }


WIDE_PROGRAM_WIDTHS = (6, 8, 9, 10, 12)
RECURSIVE = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- sib(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
q2(A, D) <- anc(A, B), sg(B, C), anc(C, D).
"""


def _wide_program():
    """``opt_wide``'s rule base over declared statistics: its conjunctive
    forms at five widths and its three recursive ones."""
    rules, forms = [], []
    stats = DeclaredStatistics()
    for width in WIDE_PROGRAM_WIDTHS:
        for shape, head in (("chain", "qc"), ("star", "qs")):
            body, body_stats, __ = _wide(width, shape, seed=3)
            text = ", ".join(str(literal) for literal in body)
            rules.append(f"{head}{width}(V0, V{width}) <- {text}.")
            forms.append(f"{head}{width}($A, Z)?")
            for literal in body:
                found = body_stats.stats_for(literal.predicate)
                stats.declare(literal.predicate, found.cardinality,
                              [found.distinct(0), found.distinct(1)])
    for name, card, distinct in (("par", 450, 200), ("up", 360, 360), ("dn", 360, 120),
                                 ("flat", 1, 1), ("sib", 2, 2)):
        stats.declare(name, card, [distinct, distinct], acyclic=True)
    forms += ["anc($X, Y)?", "sg($X, Y)?", "q2($A, D)?"]
    return parse_program("\n".join(rules) + RECURSIVE), stats, forms


def _configs():
    """(label, config, large-body threshold) per strategy."""
    for strategy in ("dp", "kbz", "annealing", "exhaustive"):
        # 7! orders per body is what a test can afford of "exhaustive"
        threshold = 6 if strategy == "exhaustive" else optimizer_module.LARGE_BODY_THRESHOLD
        yield f"{strategy}/bb", OptimizerConfig(
            strategy=strategy, seed=7, annealing=AnnealingSchedule(max_evaluations=400),
        ), threshold


def _ledger_plans():
    """``kb.explain`` of every form of the six ledger programs (quick
    sizes), cold and again after a round of the workload."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))
    import workloads as ledger  # only ever imported by the recording subprocess

    config = json.loads((ROOT / "benchmarks" / "ledger" / "sizes.json").read_text())
    plans = {}
    for name, cls in ledger.WORKLOADS.items():
        workload = cls(config["quick"][name], config["shape_seed"], 3, 0)
        kb = KnowledgeBase()
        try:
            workload.build(kb)
            workload.prepare_reference()
            cold = {text: kb.explain(text) for text, __ in workload.forms()}
            workload.first_op().run()
            for cycle in range(workload.cycles_per_round):
                for op in workload.cycle(cycle):
                    op.run()
            warm = {text: kb.explain(text) for text, __ in workload.forms()}
        finally:
            kb.close()
        plans[name] = {"cold": cold, "warm": warm}
    return plans


def record():
    """Everything part 2 and 3 pin, as JSON-able data.  An earlier form
    of this function recorded the file, when the large-body threshold
    was a config field and a ``*/full`` un-pruned search mode ran beside
    every ``*/bb`` entry; those entries are retired, and the four
    ``wide:*`` ``plans_pruned`` counters no longer count the body-cache
    hits of the deleted QSQN method, and the ``:feedback`` orders went
    with the learned-cardinality store.  The ``wide:*/bb`` counters were
    re-recorded when the counting rewrite gained its seed and answer
    rules (each counting candidate prices two more rules) and counting
    stopped applying to a recursive call that copies the head's binding
    (35 candidates fewer): ``plans_costed`` +7 to +11, ``plans_pruned``
    +4.  Everything else is as recorded."""
    orders = {}
    for label, body, stats, bound in _bodies():
        for name, search in _searches(body):
            orders[f"{label}:{name}:static"] = _order_json(
                search(body, bound, BodyEstimator(stats))
            )
    optimizers = {}
    program, stats, forms = _wide_program()
    default_threshold = optimizer_module.LARGE_BODY_THRESHOLD
    for label, config, threshold in _configs():
        optimizer_module.LARGE_BODY_THRESHOLD = threshold
        optimizer = Optimizer(program, stats, config)
        compiled = [optimizer.optimize(parse_query(form)) for form in forms]
        optimizers[f"wide:{label}"] = {
            "plans": {form: explain(c.plan) for form, c in zip(forms, compiled)},
            "est": [[c.est.cost, c.est.card] for c in compiled],
            "counters": dict(optimizer.counters),
        }
        for seed in (0, 1, 2):
            rules, facts, query = generate_random_program(seed=seed)
            kb = KnowledgeBase(config)
            kb.rules(rules)
            for name, rows in facts.items():
                kb.facts(name, rows)
            optimizers[f"querygen{seed}:{label}"] = {
                "plans": {query: kb.explain(query)},
                "counters": dict(kb.optimizer.counters),
            }
            kb.close()
    optimizer_module.LARGE_BODY_THRESHOLD = default_threshold
    return {"orders": orders, "optimizers": optimizers, "ledger": _ledger_plans()}


def _differences(recorded, got, path=""):
    """Where *got* departs from *recorded*: structure, strings, ints and
    method labels exactly; floats to the last bits of the platform's
    ``log2`` / ``pow`` (bit-for-bit equality inside one process is what
    part 1 and the restart check below assert)."""
    if isinstance(recorded, dict) and isinstance(got, dict):
        for key in sorted(set(recorded) | set(got)):
            if key not in recorded or key not in got:
                yield f"{path}/{key}: only in {'recorded' if key in recorded else 'this run'}"
            else:
                yield from _differences(recorded[key], got[key], f"{path}/{key}")
    elif isinstance(recorded, list) and isinstance(got, list) and len(recorded) == len(got):
        for index, (a, b) in enumerate(zip(recorded, got)):
            yield from _differences(a, b, f"{path}[{index}]")
    elif isinstance(recorded, float) and isinstance(got, float):
        if not (recorded == got or math.isclose(recorded, got, rel_tol=1e-12)):
            yield f"{path}: recorded {recorded!r}, got {got!r}"
    elif recorded != got:
        yield f"{path}: recorded {recorded!r}, got {got!r}"


def test_every_search_returns_what_it_returned_at_9a2267f():
    """Steps, estimates, evaluation / pruning counts, ``Optimizer.counters``
    and the ledger programs' ``kb.explain`` text (parts 2 and 3), from a
    fresh ``PYTHONHASHSEED=0`` process as the ledger runs them."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr[-2000:]
    recorded = json.loads(RECORDED.read_text())
    differences = list(_differences(recorded, json.loads(run.stdout)))
    assert not differences, "\n".join(differences[:20])


@pytest.mark.parametrize("strategy", ["kbz", "annealing"])
def test_resuming_from_a_checkpoint_equals_costing_from_position_zero(strategy, monkeypatch):
    """Every permutation the search cost from a prefix checkpoint, costed
    again by a plain ``cost_order`` call of the test's own."""
    module = sys.modules[f"repro.optimizer.{strategy}"]
    calls, resumed = [], []

    def spying(body, perm, floating, bound, estimator, checkpoints=None):
        skipped = max(0, len(checkpoints or ()) - 1)
        result = cost_order(body, perm, floating, bound, estimator, checkpoints)
        calls.append(len(perm))
        if skipped:
            resumed.append(skipped)
            restarted = cost_order(body, perm, floating, bound, estimator)
            assert (result.steps, result.est) == (restarted.steps, restarted.est)
            assert len(checkpoints) == len(perm) + 1
        return result

    monkeypatch.setattr(module, "cost_order", spying)
    search = {"kbz": kbz_order, "annealing": _annealing}[strategy]
    for label, body, stats, bound in _bodies():
        search(body, bound, BodyEstimator(stats))
    # both searches are deterministic (KBZ; annealing from Random(11)), so
    # how many candidates resumed from a shared prefix, of how many costed,
    # and the positions skipped of those costed are pinned exactly
    expected = {"kbz": (278, 581, 1457, 6596), "annealing": (5127, 6328, 19668, 72408)}
    assert (len(resumed), len(calls), sum(resumed), sum(calls)) == expected[strategy]
    # what they skip is a real share of the positions
    assert sum(resumed) > sum(calls) / 5


def test_a_comparison_floats_the_same_from_a_checkpoint():
    """Floating literals are part of a checkpoint: a comparison that
    becomes EC mid-order is flushed at the same place after a resume."""
    program = parse_program("q(A, D) <- e1(A, B), e2(B, C), e3(C, D), B < C, ~e4(D).")
    body = program.rules[0].body
    joinable, floating = split_joinable(body)
    stats = DeclaredStatistics()
    for index, card in enumerate((200, 20, 2000, 60), start=1):
        stats.declare(f"e{index}", card, [card / 2, card / 4])
    estimator = BodyEstimator(stats)
    trail = []
    first = cost_order(body, joinable, floating, frozenset(), estimator, trail)
    assert [len(entry[1]) for entry in trail] == [2, 2, 1, 0]  # floats still pending
    for keep in range(1, len(trail) + 1):
        swapped = joinable[:keep - 1] + joinable[keep - 1:][::-1]
        resumed = cost_order(body, swapped, floating, frozenset(), estimator, trail[:keep])
        assert resumed == cost_order(body, swapped, floating, frozenset(), estimator)
    assert first == cost_order(body, joinable, floating, frozenset(), estimator)


# --------------------------------------------- 4. once per (literal, mask)


def test_a_literal_is_adorned_once_per_mask(monkeypatch):
    body, stats, __ = _wide(12, "star", seed=5)
    text = ", ".join(str(literal) for literal in body)
    program = parse_program(f"qs12(V0, V12) <- {text}.")
    adorned = {}
    real_of_literal = BindingPattern.of_literal.__func__

    def counting_of_literal(cls, literal, bound_vars):
        pattern = real_of_literal(cls, literal, bound_vars)
        adorned[literal, pattern.code] = adorned.get((literal, pattern.code), 0) + 1
        return pattern

    monkeypatch.setattr(BindingPattern, "of_literal", classmethod(counting_of_literal))
    # the whole body under the DP search, not handed to KBZ past the threshold
    monkeypatch.setattr(optimizer_module, "LARGE_BODY_THRESHOLD", 12)
    optimizer = Optimizer(program, stats, OptimizerConfig())
    compiled = optimizer.optimize(parse_query("qs12($A, Z)?"))
    steps = compiled.plan.children[0].steps[0].child.children[0].steps
    assert len(steps) == 12
    # one pattern per plan step -- never one per order costed or per method
    in_body = {key: count for key, count in adorned.items() if key[0] in body}
    assert len(in_body) == 12 and set(in_body.values()) == {1}
    assert optimizer.counters["order_evaluations"] > 100  # a real search ran


def test_the_profile_memo_dies_with_the_optimizer():
    """No process-global cache: the memo is the optimizer's own dict,
    shared by the estimators it builds; a write drops the optimizer, and
    plain reference counting frees it (no cycle through the estimator)."""
    import gc
    import weakref

    kb = KnowledgeBase()
    kb.rules("q(X, Z) <- e(X, Y), f(Y, Z).")
    kb.facts("e", [(1, 2), (2, 3)])
    kb.facts("f", [(2, 5)])
    kb.compile("q($X, Z)?")
    optimizer = kb.optimizer
    assert optimizer._profiles and optimizer._estimator().profiles is optimizer._profiles
    assert BodyEstimator(kb.db).profiles == {}
    memo, gone = optimizer._profiles, weakref.ref(optimizer)
    del optimizer
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kb.facts("f", [(3, 6)])
        assert kb._optimizer is None and gone() is None
    finally:
        if was_enabled:
            gc.enable()
    assert kb.optimizer._profiles is not memo
    kb.close()


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
