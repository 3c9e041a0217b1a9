"""Execution-governor stress tests: budgets, deadlines, cancellation, faults.

Every abort path is driven deterministically — injected clocks and the
:class:`~repro.engine.faults.FaultInjector` replace real time and real
memory pressure — so these tests never sleep and never allocate their
way to an OOM.
"""

import io

import pytest

from repro import KnowledgeBase, OptimizerConfig
from repro.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_UNSAFE,
    main,
)
from repro.datalog.parser import parse_program, parse_query
from repro.engine import FixpointEngine, Interpreter, TopDownEngine, evaluate_program
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.governor import ResourceGovernor, make_governor
from repro.errors import (
    DeadlineExceeded,
    ExecutionCancelled,
    ExecutionError,
    IterationBudgetExceeded,
    MemoryBudgetExceeded,
    ResourceExhausted,
    TupleBudgetExceeded,
)
from repro.storage import Database
from repro.testing import reference
from repro.workloads.querygen import RUNAWAY_KINDS, generate_runaway_program

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."


class FakeClock:
    """A deterministic clock: advances only when told to."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


def runaway_db(kind, **kwargs):
    rules, facts, query = generate_runaway_program(kind, **kwargs)
    db = Database()
    for name, rows in facts.items():
        db.load(name, rows)
    return parse_program(rules), db, query


def runaway_kb(kind, **kwargs):
    rules, facts, query = generate_runaway_program(kind, **kwargs)
    kb = KnowledgeBase()
    kb.rules(rules)
    for name, rows in facts.items():
        kb.facts(name, rows)
    return kb, query


# --------------------------------------------------------- governor unit


def test_make_governor_none_when_unlimited():
    assert make_governor(max_tuples=None, max_iterations=None) is None
    assert make_governor() is not None


def test_deadline_with_injected_clock():
    clock = FakeClock()
    gov = ResourceGovernor(deadline_seconds=5.0, clock=clock, tick_interval=1).arm()
    gov.tick()
    clock.advance(10.0)
    with pytest.raises(DeadlineExceeded) as excinfo:
        gov.tick()
    assert excinfo.value.partial["elapsed_seconds"] == pytest.approx(10.0)


def test_cancellation_is_cooperative():
    gov = ResourceGovernor(tick_interval=4).arm()
    gov.cancel("user hit ^C")
    gov.tick()  # within the interval: not yet observed
    with pytest.raises(ExecutionCancelled, match="user hit"):
        for __ in range(4):
            gov.tick()


def test_tuple_budget_charges_inflight_immediately():
    gov = ResourceGovernor(max_tuples=10, tick_interval=1_000_000).arm()
    gov.tick(5)
    with pytest.raises(TupleBudgetExceeded):
        gov.tick(6)  # 11 live > 10, despite the huge tick interval


def test_memory_budget_is_deterministic_tuple_pricing():
    gov = ResourceGovernor(
        max_tuples=None, max_memory_bytes=1000, bytes_per_tuple=100
    ).arm()
    gov.tick(10)  # exactly 1000 bytes: at the limit, fine
    with pytest.raises(MemoryBudgetExceeded):
        gov.retain(1)  # 1100 bytes


def test_settle_and_retain_compose_query_wide():
    gov = ResourceGovernor(max_tuples=100).arm()
    gov.tick(60)
    gov.settle(60)       # folded into the region
    gov.end_region()     # workspace released...
    gov.retain(60)       # ...but the result is cached
    with pytest.raises(TupleBudgetExceeded):
        gov.retain(41)   # 101 retained across operators


def test_max_memory_bytes_never_charges_base_facts():
    """The budget prices what evaluation produces, not the fact base:
    the copy ticks ~4 000 tuples (~256 000 bytes at 64 B), under the cap;
    the 2 000 stored tuples on top would put it at ~384 000, over it."""
    db = Database()
    db.load("e", [(f"n{i}", f"n{i + 1}") for i in range(2_000)])
    governor = ResourceGovernor(max_memory_bytes=300_000, bytes_per_tuple=64).arm()
    result = evaluate_program(db, parse_program("q(X, Y) <- e(X, Y)."), governor=governor)
    assert len(result["q"]) == 2_000


def test_errors_carry_snapshot_and_partial():
    gov = make_governor(max_tuples=1)
    gov.arm()
    with pytest.raises(TupleBudgetExceeded) as excinfo:
        gov.tick(2)
    err = excinfo.value
    assert err.partial["live_tuples"] == 2
    assert "elapsed_seconds" in err.partial
    assert isinstance(err.snapshot, dict)
    assert isinstance(err, ResourceExhausted)
    assert isinstance(err, ExecutionError)  # legacy guard contract


# ------------------------------------------------- runaway generator diet


@pytest.mark.parametrize("kind", RUNAWAY_KINDS)
def test_runaway_programs_parse_and_terminate_small(kind):
    program, db, query = runaway_db(kind, depth=10, fanout=4)
    result = evaluate_program(db, program)  # default guards: finishes
    goal = parse_query(query).goal
    assert len(result.rows(goal.predicate)) > 0


def test_runaway_generator_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown runaway kind"):
        generate_runaway_program("infinite")


# -------------------------------------------- budgets inside the fixpoint


def test_counter_trips_tuple_budget_mid_fixpoint():
    program, db, __ = runaway_db("counter", depth=10**9)
    with pytest.raises(TupleBudgetExceeded) as excinfo:
        evaluate_program(db, program, max_tuples=50)
    # caught promptly, not after some huge round
    assert excinfo.value.partial["live_tuples"] <= 60


def test_counter_trips_iteration_budget():
    program, db, __ = runaway_db("counter", depth=10**9)
    with pytest.raises(IterationBudgetExceeded):
        evaluate_program(db, program, max_iterations=20)


def test_naive_strategy_is_guarded_too():
    program, db, __ = runaway_db("counter", depth=10**9)
    with pytest.raises(ResourceExhausted):
        evaluate_program(db, program, naive=True, max_tuples=50)


def test_blowup_aborts_inside_a_single_round():
    """The guard-granularity fix: fanout**2 tuples are produced by ONE
    rule in ONE round; the old per-round guard would only notice after
    materializing all of them."""
    fanout = 40
    program, db, __ = runaway_db("blowup", fanout=fanout)
    with pytest.raises(TupleBudgetExceeded) as excinfo:
        evaluate_program(db, program, max_tuples=100)
    live = excinfo.value.partial["live_tuples"]
    assert live < fanout * fanout / 2, "abort happened mid-join, not post-round"


def test_uncompiled_path_is_guarded_identically():
    """The term-space reference evaluator aborts mid-join too."""
    fanout = 40
    program, db, __ = runaway_db("blowup", fanout=fanout)
    with pytest.raises(TupleBudgetExceeded) as excinfo:
        reference.evaluate_program(db, program, max_tuples=100)
    assert excinfo.value.partial["live_tuples"] < fanout * fanout / 2


def test_governor_false_disables_all_guards():
    program, db, __ = runaway_db("blowup", fanout=10)
    engine = FixpointEngine(db, max_tuples=5, governor=False)
    result = engine.evaluate(program)  # no abort despite tiny max_tuples
    assert len(result.rows("pair")) == 100


def test_final_round_production_is_guarded():
    """A chain fixpoint's last productive round must still be checked."""
    program, db, __ = runaway_db("chain", depth=40)
    with pytest.raises(ResourceExhausted):
        evaluate_program(db, program, max_tuples=700)  # 40*41/2 = 820 pairs


# ------------------------------------------- whole-query (interpreter/KB)


def test_kb_ask_budget_trips_mid_join():
    kb, query = runaway_kb("blowup", fanout=40)
    with pytest.raises(TupleBudgetExceeded) as excinfo:
        kb.ask(query, governor=make_governor(max_tuples=200))
    assert 200 < excinfo.value.partial["live_tuples"] < 1600


def test_budget_spans_cached_extensions_across_operators():
    """Two derived subgoals, each under the budget alone, exceed it
    together — the governor accounts query-wide, not per operator."""
    kb = KnowledgeBase()
    kb.rules(
        """
        a(X, Y) <- e(X, Y).
        b(X, Y) <- e(X, Y).
        q(X, Z) <- a(X, Y), b(Y, Z).
        """
    )
    kb.facts("e", [(i, i) for i in range(100)])
    kb.ask("q(X, Z)?", governor=make_governor(max_tuples=5000))  # fits
    with pytest.raises(TupleBudgetExceeded):
        kb.ask("q(X, Z)?", governor=make_governor(max_tuples=150))


def test_deadline_mid_join_via_clock_skew_fault():
    """Clock skew injected at a join checkpoint: the deadline trips at a
    kernel step, without any sleeping.  The site pattern is
    method-agnostic (`join:*`) because the optimizer is free to pick a
    rewrite that renames the predicates (magic/counting)."""
    faults = FaultInjector().inject("join:*", after=2, advance_clock=60.0)
    gov = ResourceGovernor(deadline_seconds=1.0, faults=faults)
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(30)])
    with pytest.raises(DeadlineExceeded):
        kb.ask("anc(n0, Y)?", governor=gov)
    assert any("advance_clock" in line for line in faults.log)


def test_injected_operator_failure_at_named_site():
    faults = FaultInjector().inject("join:anc:par", error="disk on fire")
    gov = ResourceGovernor(faults=faults)
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", [("a", "b"), ("b", "c")])
    with pytest.raises(InjectedFault, match="disk on fire"):
        kb.ask("anc(a, Y)?", governor=gov)
    assert faults.fired_count() == 1


def test_exhaust_injection_forces_budget_abort():
    faults = FaultInjector().inject("fixpoint:round", exhaust="tuples")
    gov = ResourceGovernor(faults=faults)
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", [("a", "b"), ("b", "c")])
    with pytest.raises(TupleBudgetExceeded):
        kb.ask("anc(a, Y)?", governor=gov)


def test_fault_rule_counting_is_deterministic():
    faults = FaultInjector().inject("fixpoint:round", after=1, times=1)
    gov = ResourceGovernor(faults=faults)
    program, db, __ = runaway_db("chain", depth=10)
    engine = FixpointEngine(db, governor=gov)
    with pytest.raises(InjectedFault):
        engine.evaluate(program)
    rule = faults.rules[0]
    assert (rule.hits, rule.fired) == (2, 1)  # skipped one, fired once


# -------------------------------------------------- SLD (top-down) engine


def _sld_setup(tabling, faults=None, governor=None):
    db = Database()
    db.load("par", [(f"n{i}", f"n{i + 1}") for i in range(20)])
    program = parse_program(ANC)
    gov = governor or ResourceGovernor(faults=faults, tick_interval=1)
    engine = TopDownEngine(db, program, tabling=tabling, governor=gov)
    return engine, gov


@pytest.mark.parametrize("tabling", [True, False])
def test_sld_cancellation(tabling):
    engine, gov = _sld_setup(tabling)
    gov.cancel("test requested stop")
    goal = parse_query("anc(n0, Y)?").goal
    with pytest.raises(ExecutionCancelled):
        engine.solve(goal)


@pytest.mark.parametrize("tabling", [True, False])
def test_sld_fault_injection_at_predicate_site(tabling):
    faults = FaultInjector().inject("sld:anc", after=3)
    engine, __ = _sld_setup(tabling, faults=faults)
    goal = parse_query("anc(n0, Y)?").goal
    with pytest.raises(InjectedFault):
        engine.solve(goal)


def test_sld_deadline_via_clock_skew():
    faults = FaultInjector().inject("sld:anc", after=2, advance_clock=99.0)
    gov = ResourceGovernor(deadline_seconds=1.0, faults=faults, tick_interval=1)
    engine, __ = _sld_setup(True, governor=gov)
    goal = parse_query("anc(n0, Y)?").goal
    with pytest.raises(DeadlineExceeded):
        engine.solve(goal)


def test_sld_tabled_answers_count_against_tuple_budget():
    gov = ResourceGovernor(max_tuples=50, tick_interval=1)
    engine, __ = _sld_setup(True, governor=gov)
    goal = parse_query("anc(X, Y)?").goal  # 20*21/2 = 210 tabled answers
    with pytest.raises(TupleBudgetExceeded):
        engine.solve(goal)


def test_sld_ungoverned_still_works():
    engine = TopDownEngine(
        Database(), parse_program("p(X) <- q(X). q(a)."), tabling=True
    )
    # q(a) parses as a fact rule; just confirm no governor is required
    assert engine.governor is None


# ------------------------------------------------ optimizer deadline path


def _expired_governor():
    gov = ResourceGovernor(deadline_seconds=0.5)
    gov.arm()
    gov.skew(10.0)  # elapsed 10s > 0.5s: already expired
    assert gov.deadline_exceeded()
    return gov


def test_optimizer_downgrades_strategy_on_deadline():
    kb = KnowledgeBase(OptimizerConfig(strategy="dp"))
    kb.rules("q(A, D) <- r1(A, B), r2(B, C), r3(C, D).")
    for name in ("r1", "r2", "r3"):
        kb.facts(name, [(i, i + 1) for i in range(5)])
    compiled = kb.compile("q(A, D)?", governor=_expired_governor())
    assert any("downgraded dp to kbz" in d for d in compiled.diagnostics)
    assert kb.optimizer.counters["deadline_downgrades"] >= 1
    # degraded, not aborted: the plan still answers correctly
    assert compiled.safe


def test_optimizer_truncates_cpermutation_search_on_deadline():
    kb = KnowledgeBase(OptimizerConfig(strategy="dp"))
    kb.rules(ANC)
    kb.facts("par", [("a", "b"), ("b", "c")])
    compiled = kb.compile("anc($X, Y)?", governor=_expired_governor())
    assert any("c-permutation" in d and "truncated" in d for d in compiled.diagnostics)
    assert compiled.safe


def test_governed_compile_bypasses_the_plan_cache():
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", [("a", "b")])
    degraded = kb.compile("anc($X, Y)?", governor=_expired_governor())
    clean = kb.compile("anc($X, Y)?")
    assert not any("deadline" in d for d in clean.diagnostics)
    assert degraded is not clean


def test_optimizer_deadline_never_aborts():
    """soft_checkpoint: an expired deadline degrades the search but the
    optimizer still returns a plan (aborting is the executor's job)."""
    kb = KnowledgeBase(OptimizerConfig(strategy="exhaustive"))
    kb.rules("q(A, C) <- r1(A, B), r2(B, C).")
    kb.facts("r1", [(1, 2)])
    kb.facts("r2", [(2, 3)])
    compiled = kb.compile("q(A, C)?", governor=_expired_governor())
    assert compiled.plan is not None


def test_optimizer_config_deadline_builds_internal_governor():
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", deadline_seconds=3600.0))
    kb.rules(ANC)
    kb.facts("par", [("a", "b")])
    compiled = kb.compile("anc(a, Y)?")  # huge deadline: no downgrade
    assert not any("deadline" in d for d in compiled.diagnostics)


# --------------------------------------------------------- answers intact


def test_governed_and_ungoverned_answers_agree():
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(25)])
    governed = kb.ask("anc(n0, Y)?").to_python()
    ungoverned = kb.ask("anc(n0, Y)?", governor=False).to_python()
    tight_but_enough = kb.ask(
        "anc(n0, Y)?", governor=make_governor(max_tuples=10_000)
    ).to_python()
    assert governed == ungoverned == tight_but_enough
    assert len(governed) == 25


def test_interpreter_resource_knobs():
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(25)])
    compiled = kb.compile("anc(n0, Y)?")
    interp = Interpreter(
        kb.db, builtins=kb.builtins, deadline_seconds=3600.0,
        max_memory_bytes=50_000_000,
    )
    assert interp.governor.deadline_seconds == 3600.0
    assert len(interp.run(compiled.plan, compiled.query)) == 25
    tiny = Interpreter(kb.db, builtins=kb.builtins, max_memory_bytes=10 * 112)
    with pytest.raises(MemoryBudgetExceeded):
        tiny.run(compiled.plan, compiled.query)


# ----------------------------------------------------------- CLI contract


def run_cli(*argv):
    out = io.StringIO()
    status = main(list(argv), stdin=io.StringIO(""), stdout=out)
    return status, out.getvalue()


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.ldl"
    path.write_text(
        ANC + "\npar(abe, homer).\npar(homer, bart).\n"
    )
    return path


@pytest.fixture
def blowup_file(tmp_path):
    rules, facts, __ = generate_runaway_program("blowup", fanout=40)
    lines = [rules]
    for name, rows in facts.items():
        for row in rows:
            lines.append(f"{name}({', '.join(str(v) for v in row)}).")
    path = tmp_path / "blowup.ldl"
    path.write_text("\n".join(lines))
    return path


def test_cli_exit_ok(family_file):
    status, out = run_cli(str(family_file), "-q", "anc(abe, Y)?")
    assert status == EXIT_OK


def test_cli_exit_parse_error(family_file):
    status, out = run_cli(str(family_file), "-q", "anc(abe,")
    assert status == EXIT_PARSE
    assert "error:" in out


def test_cli_exit_unsafe(tmp_path):
    path = tmp_path / "unsafe.ldl"
    path.write_text("n(0).\nbig(Y) <- big(X), Y = X + 1.\nbig(X) <- n(X).\n")
    status, out = run_cli(str(path), "-q", "big(X)?")
    assert status == EXIT_UNSAFE
    assert "no safe execution" in out


def test_cli_exit_resource_tuples(blowup_file):
    status, out = run_cli(
        str(blowup_file), "-q", "pairs(X, Y)?", "--max-tuples", "100"
    )
    assert status == EXIT_RESOURCE
    assert "live tuples" in out


def test_cli_exit_resource_memory(blowup_file):
    status, out = run_cli(
        str(blowup_file), "-q", "pairs(X, Y)?", "--max-memory", str(100 * 112)
    )
    assert status == EXIT_RESOURCE


def test_cli_timeout_flag_passes_when_generous(family_file):
    status, __ = run_cli(
        str(family_file), "-q", "anc(abe, Y)?", "--timeout", "3600"
    )
    assert status == EXIT_OK


def test_cli_first_failure_code_wins(family_file):
    status, __ = run_cli(
        str(family_file), "-q", "anc(abe,", "-q", "anc(abe, Y)?"
    )
    assert status == EXIT_PARSE


def test_cli_generic_errors_stay_exit_one(family_file):
    status, out = run_cli(str(family_file), "-q", "nosuch(X)?")
    assert status == EXIT_ERROR
    assert "error:" in out
