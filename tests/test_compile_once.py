"""Compile once, execute many: what an ask may and may not redo.

The executable form of a compiled query — each AND node's lowering, each
fixpoint's stratum schedule — lives on the query's ``PlanCode``, and the
lowered rules behind it in one value-keyed memo on the knowledge base.
These tests count the binding-independent work (``compile_batch_plan``,
``exists_safe_order``, ``DependencyGraph.__init__``, ``parse_query``) by
monkeypatch and pin down when it may happen; that the persisted form
changes no counter and no answer; and that the scoped collector pause
around execution and decode leaves ``gc.isenabled()`` as it found it on
every way out.
"""

import ast
import gc
from pathlib import Path

import pytest

from repro import KnowledgeBase, OptimizerConfig
from repro.datalog import graph as graph_module
from repro.datalog.intern import INTERNER
from repro.engine import batch
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.fixpoint import FixpointEngine, evaluate_program
from repro.engine.governor import ResourceGovernor, make_governor
from repro.engine.interpreter import Interpreter
from repro.engine.profiler import Profiler
from repro.errors import ResourceExhausted
from repro.obs.tracer import Tracer
from repro.plans import FixpointNode, plan_nodes
from repro.storage.columnar import IdRelation
from repro.testing import reference as term_space

METHODS = ("seminaive", "naive", "magic", "supplementary", "counting")

SG = """
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
"""
UP = [("a", "b"), ("c", "b"), ("b", "r"), ("d", "r2"), ("e", "d")]
FLAT = [("r", "r"), ("r", "r2"), ("r2", "r2")]

ANC = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, Z), anc(Z, Y).
"""


def sg_kb(method: str, **kwargs) -> KnowledgeBase:
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=(method,)), **kwargs)
    kb.rules(SG)
    kb.facts("up", UP)
    kb.facts("dn", [(parent, child) for child, parent in UP])
    kb.facts("flat", FLAT)
    return kb


def anc_kb(length: int = 12, **kwargs) -> KnowledgeBase:
    kb = KnowledgeBase(**kwargs)
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(length)])
    return kb


@pytest.fixture
def calls(monkeypatch):
    """Counts of the binding-independent work, by monkeypatch."""
    counts = {"lower": 0, "graph": 0, "safe_order": 0, "parse": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    import repro.kb as kb_module

    monkeypatch.setattr(
        batch, "compile_batch_plan", counting("lower", batch.compile_batch_plan)
    )
    monkeypatch.setattr(
        batch, "exists_safe_order", counting("safe_order", batch.exists_safe_order)
    )
    monkeypatch.setattr(
        graph_module.DependencyGraph, "__init__",
        counting("graph", graph_module.DependencyGraph.__init__),
    )
    monkeypatch.setattr(kb_module, "parse_query", counting("parse", kb_module.parse_query))
    return counts


def reset(counts: dict) -> None:
    for key in counts:
        counts[key] = 0


# ----------------------------------------------------- what a warm ask redoes


@pytest.mark.parametrize("method", METHODS)
def test_second_ask_with_other_bindings_compiles_nothing(method, calls):
    kb = sg_kb(method)
    first = kb.ask("sg($X, Y)?", X="a")
    methods = {n.method for n in plan_nodes(kb.compile("sg($X, Y)?").plan)
               if isinstance(n, FixpointNode)}
    assert methods == {method}
    assert calls["lower"] > 0 and calls["graph"] > 0
    reset(calls)
    second = kb.ask("sg($X, Y)?", X="e")
    assert calls == {"lower": 0, "graph": 0, "safe_order": 0, "parse": 0}
    assert sorted(first.to_python()) == [("a",), ("c",), ("e",)]
    assert sorted(second.to_python()) == [("e",)]


def test_a_reference_tier_rule_is_ordered_once_per_plan(calls):
    # e(X, X), whose exit rule once ran on the reference evaluator, now
    # lowers to an id equality; its body order is part of the schedule
    kb = KnowledgeBase(result_cache=False)
    kb.rules("reach(X) <- e(X, X).\nreach(Y) <- reach(X), e(X, Y).")
    kb.facts("e", [("a", "a"), ("a", "b"), ("b", "c")])
    tracer = Tracer()
    expected = [("a",), ("b",), ("c",)]
    assert sorted(kb.ask("reach(Y)?", tracer=tracer).to_python()) == expected
    assert {s.attrs.get("tier") for s in tracer.spans if s.kind == "rule"} == {"batch"}
    assert calls["safe_order"] > 0
    reset(calls)
    assert sorted(kb.ask("reach(Y)?").to_python()) == expected
    assert calls == {"lower": 0, "graph": 0, "safe_order": 0, "parse": 0}


def test_reoptimization_after_a_data_write_lowers_nothing(calls):
    kb = sg_kb("magic")
    kb.ask("sg($X, Y)?", X="a")
    reset(calls)
    kb.facts("up", [("f", "e")])  # in the footprint: the plan is evicted
    assert not kb._compiled
    assert sorted(kb.ask("sg($X, Y)?", X="f").to_python()) == []
    assert calls["graph"] > 0  # re-optimized, rescheduled ...
    assert calls["lower"] == 0  # ... and every rule found lowered


def test_a_rule_change_lowers_again(calls):
    kb = sg_kb("magic")
    kb.ask("sg($X, Y)?", X="a")
    assert kb._lowered_rules
    reset(calls)
    kb.rules("sg(X, Y) <- sib(X, Y).")
    assert not kb._lowered_rules and not kb._forms and not kb._compiled
    kb.facts("sib", [("a", "z")])
    assert sorted(kb.ask("sg($X, Y)?", X="a").to_python()) == [
        ("a",), ("c",), ("e",), ("z",)
    ]
    assert calls["lower"] > 0 and calls["parse"] == 1


def test_a_rolled_back_transaction_drops_what_it_lowered():
    kb = sg_kb("magic")
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.rules("sg(X, Y) <- sib(X, Y).")
            kb.facts("sib", [("a", "z")])
            assert ("z",) in kb.ask("sg($X, Y)?", X="a")
            raise RuntimeError("abort")
    assert not kb._lowered_rules and not kb._compiled
    assert sorted(kb.ask("sg($X, Y)?", X="a").to_python()) == [("a",), ("c",), ("e",)]


def test_query_text_is_parsed_once_and_the_span_marks_the_miss(calls):
    kb = anc_kb()
    tracer = Tracer()
    kb.ask("anc(n3, Y)?", tracer=tracer)
    assert calls["parse"] == 1
    assert "parse" in {s.name for s in tracer.spans}
    again = Tracer()
    kb.ask("anc(n3, Y)?", tracer=again)
    kb.ask("anc(n3, Y)?")  # a result-cache hit parses nothing either
    kb.compile("anc(n3, Y)?")
    kb.analyze("anc(n3, Y)?")
    assert calls["parse"] == 1
    assert "parse" not in {s.name for s in again.spans}


def test_standalone_engines_build_a_private_plan_code(calls):
    kb = anc_kb()
    engine = FixpointEngine(kb.db, builtins=kb.builtins)
    program = kb.program
    first = engine.evaluate(program).rows("anc")
    assert calls["lower"] == 2 and calls["graph"] == 1
    reset(calls)
    assert engine.evaluate(program).rows("anc") == first
    assert calls["lower"] == 0 and calls["graph"] == 0
    # another engine shares nothing with the first
    assert evaluate_program(kb.db, program, builtins=kb.builtins).rows("anc") == first
    assert calls["lower"] == 2 and calls["graph"] == 1


# ------------------------------------- same counters, same stats, same answers


@pytest.mark.parametrize("method", METHODS)
def test_counters_and_node_stats_repeat_and_answers_match_the_reference(method):
    kb = sg_kb(method)
    compiled = kb.compile("sg($X, Y)?")

    def run():
        profiler = Profiler()
        interpreter = Interpreter(kb.db, profiler=profiler, builtins=kb.builtins)
        answers = interpreter.run(compiled.plan, compiled.query, compiled.code, X="a")
        counters = (
            profiler.produced, profiler.examined, profiler.probes, profiler.iterations
        )
        return answers, counters, interpreter.node_stats

    first, first_counters, first_stats = run()
    assert compiled.code.entries  # the first run filled the plan's code
    second, second_counters, second_stats = run()
    assert first_counters == second_counters
    assert first_stats == second_stats
    assert first == second
    # a run that persists nothing (a private PlanCode) counts the same
    profiler = Profiler()
    private = Interpreter(kb.db, profiler=profiler, builtins=kb.builtins)
    assert private.run(compiled.plan, compiled.query, X="a") == first
    assert first_counters == (
        profiler.produced, profiler.examined, profiler.probes, profiler.iterations
    )
    assert private.node_stats == first_stats
    # and the answers are the reference evaluator's
    reference = term_space.evaluate_program(
        kb.db, kb.program, builtins=kb.builtins
    ).rows("sg")
    expected = {(str(y),) for x, y in reference if str(x) == "a"}
    assert set(first.to_python()) == expected


# ---------------------------------------------------------- the answer hand-off


def test_an_all_free_goal_takes_the_childs_columns_whole():
    kb = anc_kb()
    compiled = kb.compile("anc(X, Y)?")
    interpreter = Interpreter(kb.db, builtins=kb.builtins)
    answers = interpreter.run(compiled.plan, compiled.query, compiled.code)
    child = interpreter.execute(compiled.plan.children[0].steps[0].child, None)
    assert all(mine is theirs for mine, theirs in zip(answers._columns, child.columns))
    reference = term_space.evaluate_program(kb.db, kb.program).rows("anc")
    assert answers.rows == reference and len(answers) == len(reference)
    swapped = kb.ask("anc(Y, X)?")  # the head permutes the columns
    assert set(swapped.to_python()) == set(answers.to_python())
    assert len(kb.ask("anc(X, X)?")) == 0  # a chain has no cycle


def test_a_base_relation_goal_does_not_alias_the_growing_mirror():
    kb = KnowledgeBase()
    kb.facts("par", [("a", "b"), ("b", "c")])
    before = kb.ask("par(X, Y)?")
    kb.facts("par", [("c", "d")])
    assert sorted(before.to_python()) == [("a", "b"), ("b", "c")]
    assert len(before) == 2 and ("c", "d") not in before
    assert len(kb.ask("par(X, Y)?")) == 3


def test_boolean_and_empty_answers_through_the_hand_off():
    kb = anc_kb()
    assert len(kb.ask("anc(n0, n5)?")) == 1
    assert len(kb.ask("anc(n5, n0)?")) == 0
    kb.rules("none(X, Y) <- par(X, Y), X = Y.")
    empty = kb.ask("none(X, Y)?")
    assert len(empty) == 0 and empty.to_python() == [] and empty.rows == frozenset()


def test_select_by_scan_equals_select_by_probe():
    rows = {(1, 2, 3), (1, 5, 3), (2, 2, 3), (4, 4, 4)}
    for positions, keys in [
        ((0,), {(1,), (4,), (9,)}),
        ((0, 2), {(1, 3), (4, 4), (4, 3)}),
        ((1,), set()),
        ((), {()}),
        ((), set()),
    ]:
        relation = IdRelation(INTERNER, 3, set(rows))
        keys = frozenset(keys)
        scanned = relation.select(positions, keys, probe=False)
        assert not relation._buckets  # the scan builds no bucket map
        assert scanned.rows == relation.select(positions, keys).rows


# ------------------------------------------------ the scoped collector pause


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Runs the test with the collector initially on, then initially off."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


def test_public_calls_leave_the_collector_as_they_found_it(collector):
    kb = anc_kb()
    answers = kb.ask("anc(X, Y)?")
    assert gc.isenabled() is collector
    answers.to_python(), answers.rows, list(answers), answers.first()
    assert gc.isenabled() is collector
    kb.ask("anc($X, Y)?", X="n3").to_dicts()
    kb.analyze("anc(n2, Y)?")
    kb.materialize()
    assert gc.isenabled() is collector
    kb.facts("par", [("n12", "n13")])
    kb.ask("anc(X, Y)?").to_python()
    assert gc.isenabled() is collector
    evaluate_program(kb.db, kb.program)
    assert gc.isenabled() is collector


def test_a_budget_abort_mid_fixpoint_restores_the_collector(collector):
    kb = anc_kb(40)
    with pytest.raises(ResourceExhausted):
        kb.ask("anc(X, Y)?", governor=make_governor(max_tuples=60))
    assert gc.isenabled() is collector
    with pytest.raises(ResourceExhausted):
        FixpointEngine(kb.db, max_iterations=3).evaluate(kb.program)
    assert gc.isenabled() is collector


def test_an_injected_fault_restores_the_collector(collector):
    kb = anc_kb()
    faults = FaultInjector().inject("fixpoint:round", after=1)
    with pytest.raises(InjectedFault):
        kb.ask("anc(X, Y)?", governor=ResourceGovernor(faults=faults))
    assert faults.fired_count() == 1
    assert gc.isenabled() is collector


def test_the_pause_covers_the_run_and_nests(collector, monkeypatch):
    seen = []
    evaluate = FixpointEngine.evaluate

    def spying(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(FixpointEngine, "evaluate", spying)
    kb = anc_kb()
    with kb.transaction():
        kb.facts("par", [("n12", "n13")])
        # an ask issued from inside a transaction block, itself running
        # a fixpoint inside the interpreter's pause
        assert ("n13",) in kb.ask("anc(n0, Y)?")
        assert gc.isenabled() is collector
    assert seen == [False]  # inside Interpreter.run the collector is off
    assert gc.isenabled() is collector


def test_no_process_wide_collector_calls_under_src():
    """No ``gc.freeze`` / ``gc.set_threshold`` anywhere, and no ``gc``
    call at module import time."""
    src = Path(__file__).resolve().parents[1] / "src"
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text())
        if not any(
            isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name == "gc" for alias in node.names)
            for node in ast.walk(tree)
        ):
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
            ):
                assert node.attr in ("isenabled", "enable", "disable"), (path, node.attr)
        for statement in tree.body:  # executed on import
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(statement):
                assert not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "gc"
                ), path

