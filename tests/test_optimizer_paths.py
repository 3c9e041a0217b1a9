"""Less-travelled optimizer paths: sampling, naive method, forced methods."""

import pytest

from repro import KnowledgeBase, Optimizer, OptimizerConfig
from repro.datalog import parse_program, parse_query
from repro.engine import evaluate_program
from repro.storage import Database
from repro.storage.statistics import DeclaredStatistics


def test_cpermutation_sampling_on_large_clique():
    """Two 4-literal recursive rules: (4!)^2 = 576 c-permutations exceeds
    the default 512 budget, so the seeded sampling path runs — and must
    still produce a correct plan."""
    source = """
    t(A, D) <- e1(A, B), e2(B, C), e3(C, D), base(A).
    t(A, D) <- e1(A, B), t(B, C), e2(C, X), e3(X, D).
    """
    kb = KnowledgeBase()
    kb.rules(source)
    kb.facts("base", [(f"n{i}",) for i in range(4)])
    kb.facts("e1", [(f"n{i}", f"m{i}") for i in range(4)])
    kb.facts("e2", [(f"m{i}", f"p{i}") for i in range(4)])
    kb.facts("e3", [(f"p{i}", f"q{i}") for i in range(4)])

    reference = evaluate_program(kb.db, kb.program)
    expected = {
        tuple(f.value for f in row) for row in reference["t"] if row[0].value == "n1"
    }
    got = {("n1", y) for (y,) in kb.ask("t($A, D)?", A="n1").to_python()}
    assert got == expected


def test_naive_method_executes():
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("naive",)))
    kb.rules("t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y).")
    kb.facts("e", [("a", "b"), ("b", "c")])
    compiled = kb.compile("t(X, Y)?")
    cc = compiled.plan.children[0].steps[0].child
    assert cc.method == "naive"
    assert kb.ask("t(X, Y)?").to_python() == [("a", "b"), ("a", "c"), ("b", "c")]


@pytest.mark.parametrize("method", ["nested_loop", "hash", "index", "merge"])
def test_forced_methods_execute(method):
    kb = KnowledgeBase(OptimizerConfig(strategy="textual", force_method=method))
    kb.rules("j(X, Z) <- l(X, Y), r(Y, Z).")
    kb.facts("l", [("a", 1), ("b", 2)])
    kb.facts("r", [(1, "x"), (2, "y")])
    assert kb.ask("j(X, Z)?").to_python() == [("a", "x"), ("b", "y")]


def _kind_kb(**config):
    """A 20-row lookup ``kind`` whose key ``X`` is ``on`` or ``off``, in
    front of a 400-row ``big``."""
    kb = KnowledgeBase(OptimizerConfig(**config), result_cache=False)
    kb.rules("p(X, Z) <- kind(X, Y), big(Y, Z).")
    kb.facts("kind", [("on" if i % 2 else "off", i) for i in range(20)])
    kb.facts("big", [(i % 20, i) for i in range(400)])
    return kb


def test_a_two_valued_lookup_key_plans_the_join_the_executor_runs():
    """A probe on a two-valued key prices cheapest as a nested loop, a
    join an unforced plan does not run: the search prices only the
    bucket-probing variants, so the plan keeps ``index``."""
    kb = _kind_kb()
    body = kb.compile("p($X, Z)?").plan.children[0].steps[0].child.children[0]
    assert [(str(step.literal), step.method) for step in body.steps] == [
        ("kind(X, Y)", "index"), ("big(Y, Z)", "index"),
    ]
    answers = kb.ask("p($X, Z)?", X="on").to_python()
    assert kb.telemetry.last["tier"] == "batch"
    assert len(answers) == 200
    assert answers == _kind_kb(force_method="index").ask("p($X, Z)?", X="on").to_python()


def test_annealing_strategy_full_pipeline():
    kb = KnowledgeBase(OptimizerConfig(strategy="annealing", seed=3))
    kb.rules("p(A, D) <- e1(A, B), e2(B, C), e3(C, D).")
    kb.facts("e1", [("a", 1)])
    kb.facts("e2", [(1, 2)])
    kb.facts("e3", [(2, "z")])
    assert kb.ask("p(A, D)?").to_python() == [("a", "z")]


def test_kbz_strategy_full_pipeline():
    kb = KnowledgeBase(OptimizerConfig(strategy="kbz"))
    kb.rules("p(A, D) <- e1(A, B), e2(B, C), e3(C, D).")
    kb.facts("e1", [("a", 1)])
    kb.facts("e2", [(1, 2)])
    kb.facts("e3", [(2, "z")])
    assert kb.ask("p(A, D)?").to_python() == [("a", "z")]


def test_diagnostics_attached_to_compiled_query():
    source = """
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
    """
    stats = DeclaredStatistics()
    stats.declare("e", 100, [50, 50], acyclic=None)  # unknown acyclicity
    optimizer = Optimizer(parse_program(source), stats)
    compiled = optimizer.optimize(parse_query("t($X, Y)?"))
    assert compiled.safe  # magic still available


def test_supplementary_and_magic_compete():
    """With both available the winner is whichever estimates cheaper,
    and either way execution is correct."""
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("magic", "supplementary")))
    kb.rules("t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y).")
    kb.facts("e", [(f"n{i}", f"n{i+1}") for i in range(20)])
    compiled = kb.compile("t($X, Y)?")
    cc = compiled.plan.children[0].steps[0].child
    assert cc.method in ("magic", "supplementary")
    assert len(kb.ask("t($X, Y)?", X="n0")) == 20
