"""Observability: span tracing, EXPLAIN ANALYZE, metrics, trace export.

The tracer's contract is determinism — the same program and seed produce
the identical span tree run to run, across optimizer strategies, and
whether rules execute compiled or interpreted — plus conservation: the
per-span exclusive counters sum to the query-global profiler totals.
These tests pin both, the degradation paths (a failing sink must never
fail the query), and the export formats (JSONL schema, Prometheus text).
"""

import io
import json
import warnings

import pytest

from repro import (
    KnowledgeBase,
    OptimizerConfig,
    ResourceExhausted,
    Tracer,
    TraceSinkWarning,
)
from repro.engine import FaultInjector, Interpreter, Profiler, make_governor
from repro.obs import (
    COUNTER_FIELDS,
    JsonlSink,
    MetricsRegistry,
    NULL_TRACER,
    SCHEMA,
    span_event,
    validate_events,
    validate_trace_file,
)
from repro.plans.printer import q_error
from repro.workloads.paper_rulebase import PAPER_RULEBASE, paper_database
from repro.workloads.querygen import generate_random_program
from repro.testing.reference import ReferenceEngine

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."
PAR = [("abe", "homer"), ("mona", "homer"), ("homer", "bart"), ("homer", "lisa")]


def family_kb(strategy="dp"):
    kb = KnowledgeBase(OptimizerConfig(strategy=strategy, seed=7))
    kb.rules(ANC)
    kb.facts("par", PAR)
    return kb


def traced_run(kb, query, **bindings):
    tracer = Tracer()
    answers = kb.ask(query, tracer=tracer, **bindings)
    return tracer, answers


# --------------------------------------------------------------- span trees


def test_span_tree_covers_the_whole_pipeline():
    tracer, answers = traced_run(family_kb(), "anc(abe, Y)?")
    assert len(answers) == 3
    names = [s.name for s in tracer.spans]
    assert "query" in names and "parse" in names and "safety" in names
    assert "optimize:dp" in names
    assert "execute:anc" in names
    assert any(n.startswith("fixpoint:round:") for n in names)
    assert any(n.startswith("rule:anc") for n in names)
    assert any(n.startswith("join:anc:") for n in names)
    # one root, and it is the query span
    roots = tracer.roots()
    assert [r.name for r in roots] == ["query"]
    assert tracer.tree()[0][0] == "query"


def test_span_ids_are_stable_and_parents_link_upward():
    tracer, _ = traced_run(family_kb(), "anc(abe, Y)?")
    by_id = {s.span_id: s for s in tracer.spans}
    assert sorted(by_id) == list(range(1, len(tracer.spans) + 1))
    for span in tracer.spans:
        if span.parent_id is not None:
            assert span.parent_id in by_id
            assert by_id[span.parent_id].depth == span.depth - 1


@pytest.mark.parametrize("strategy", ["dp", "kbz", "annealing"])
def test_trace_is_deterministic_run_to_run(strategy):
    rules, facts, query = generate_random_program(seed=11)
    source = facts["b0"][0][0]

    def one_run():
        kb = KnowledgeBase(OptimizerConfig(strategy=strategy, seed=7))
        kb.rules(rules)
        for name, rows in facts.items():
            kb.facts(name, rows)
        tracer = Tracer()
        kb.ask(query, tracer=tracer, X=source)
        shape = [
            (s.name, s.kind, s.depth, s.parent_id, s.self_counters)
            for s in tracer.spans
        ]
        return tracer.tree(), shape

    assert one_run() == one_run()


def test_lowered_and_reference_runs_trace_identical_trees():
    kb = family_kb()
    compiled = kb.compile("anc(abe, Y)?")

    def run(lowered):
        tracer = Tracer()
        interpreter = Interpreter(kb.db, builtins=kb.builtins, tracer=tracer)
        if not lowered:
            interpreter._fixpoint_engine = lambda: ReferenceEngine(
                kb.db, profiler=interpreter.profiler, builtins=kb.builtins,
                governor=interpreter.governor or False, tracer=tracer,
            )
        answers = interpreter.run(compiled.plan, compiled.query)
        return tracer, answers

    traced_on, on_answers = run(True)
    traced_off, off_answers = run(False)
    tiers = lambda tracer: {s.attrs["tier"] for s in tracer.spans if s.kind == "rule"}
    assert tiers(traced_on) == {"batch"} and tiers(traced_off) == {"reference"}
    assert on_answers.to_python() == off_answers.to_python()
    assert traced_on.tree() == traced_off.tree()
    # produced counts agree (examined may differ: the lowered path
    # skips work the reference performs)
    assert (
        traced_on.total_self_counters()["produced"]
        == traced_off.total_self_counters()["produced"]
    )


# ------------------------------------------------------- counter attribution


def test_self_counters_sum_to_profiler_totals():
    kb = family_kb()
    tracer = Tracer()
    answers = kb.ask("anc(abe, Y)?", tracer=tracer)
    totals = tracer.total_self_counters()
    profiler = answers.profiler
    for field in COUNTER_FIELDS:
        assert totals[field] == getattr(profiler, field), field


def test_self_counters_sum_to_profiler_totals_on_paper_rulebase():
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", seed=7))
    kb.rules(PAPER_RULEBASE)
    db = paper_database(seed=0, scale=20)
    for name in db.names:
        kb.facts(name, [tuple(f.value for f in row) for row in db.relation(name)])
    tracer = Tracer()
    answers = kb.ask("p1(X, Y)?", tracer=tracer)
    assert len(answers) > 0
    totals = tracer.total_self_counters()
    for field in COUNTER_FIELDS:
        assert totals[field] == getattr(answers.profiler, field), field


def test_inclusive_counters_are_supersets_of_children():
    tracer, _ = traced_run(family_kb(), "anc(abe, Y)?")
    for span in tracer.spans:
        child_sum = {f: 0 for f in COUNTER_FIELDS}
        for child in tracer.children_of(span):
            for f in COUNTER_FIELDS:
                child_sum[f] += child.counters[f]
        for f in COUNTER_FIELDS:
            assert span.counters[f] == child_sum[f] + span.self_counters[f]


# ------------------------------------------------------------ explain analyze


def paper_kb(scale=20):
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", seed=7))
    kb.rules(PAPER_RULEBASE)
    db = paper_database(seed=0, scale=scale)
    for name in db.names:
        kb.facts(name, [tuple(f.value for f in row) for row in db.relation(name)])
    return kb


def test_analyze_annotates_every_node_on_the_paper_rulebase():
    text = paper_kb().analyze("p1(X, Y)?")
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(("OR ", "AND ", "CC ")):
            assert "est=" in line and "act=" in line and "err=" in line, line
    assert "top misestimates" in text
    assert "answers:" in text and "work:" in text


def test_analyze_marks_unexecuted_branches():
    kb = family_kb()
    # bound query on a missing constant: the fixpoint still runs, but a
    # query against a value outside the domain yields zero answers
    text = kb.analyze("anc(zelda, Y)?")
    assert "answers: 0" in text


def test_q_error_definition():
    assert q_error(10.0, 10) == 1.0
    assert q_error(1.0, 10) == 10.0
    assert q_error(10.0, 1) == 10.0
    assert q_error(0.0, 0) == 1.0  # both clamped to 1
    assert q_error(float("inf"), 5) == float("inf")


def test_repl_analyze_command_prints_measurements():
    from repro.cli import main

    out = io.StringIO()
    code = main(
        ["-i"],
        stdin=io.StringIO(
            "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).\n"
            "par(a, b). par(b, c).\n"
            ":analyze anc(a, Y)?\n"
            ":quit\n"
        ),
        stdout=out,
    )
    text = out.getvalue()
    assert code == 0
    assert "est=" in text and "err=" in text and "top misestimates" in text


# ------------------------------------------------------------------ metrics


def _counter(snapshot, name):
    return sum(c["value"] for c in snapshot["counters"] if c["name"] == name)


def _histogram(snapshot, name):
    for h in snapshot["histograms"]:
        if h["name"] == name:
            return h
    return None


def test_metrics_aggregate_across_queries():
    kb = family_kb()
    kb.ask("anc(abe, Y)?")
    kb.ask("anc(abe, Y)?")  # second run hits the plan *and* result caches
    kb.ask("anc(homer, Y)?")
    snap = kb.metrics.snapshot()
    assert _counter(snap, "queries_total") == 3
    assert _counter(snap, "plan_cache_misses_total") == 2
    assert _counter(snap, "plan_cache_hits_total") == 1
    assert _counter(snap, "kernel_compiles_total") > 0
    assert _counter(snap, "result_cache_hits_total") == 1
    # only two fixpoints actually ran: the repeated query was served
    # from the result cache without touching the engine
    assert _histogram(snap, "fixpoint_rounds")["count"] == 2


def test_metrics_records_governor_denials():
    kb = family_kb()
    governor = make_governor(max_tuples=1)
    with pytest.raises(ResourceExhausted):
        kb.ask("anc(abe, Y)?", governor=governor)
    snap = kb.metrics.snapshot()
    assert _counter(snap, "governor_denials_total") == 1


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.inc("queries_total", 3)
    registry.inc("governor_denials_total", kind="tuples")
    registry.set_gauge("live_tuples", 42)
    registry.observe("fixpoint_rounds", 3)
    text = registry.to_prometheus_text()
    assert "# TYPE repro_queries_total counter" in text
    assert "repro_queries_total 3" in text
    assert 'repro_governor_denials_total{kind="tuples"} 1' in text
    assert "# TYPE repro_live_tuples gauge" in text
    assert 'repro_fixpoint_rounds_bucket{le="5"} 1' in text
    assert 'repro_fixpoint_rounds_bucket{le="+Inf"} 1' in text
    assert "repro_fixpoint_rounds_count 1" in text
    assert text.endswith("\n")


def test_metrics_json_round_trips():
    registry = MetricsRegistry()
    registry.inc("queries_total")
    registry.observe("fixpoint_rounds", 2)
    parsed = json.loads(registry.to_json())
    assert _counter(parsed, "queries_total") == 1
    assert _histogram(parsed, "fixpoint_rounds")["count"] == 1


# ------------------------------------------------------------- trace export


def test_jsonl_sink_round_trips_and_validates(tmp_path):
    path = tmp_path / "trace.jsonl"
    kb = family_kb()
    tracer = Tracer(sink=JsonlSink(path))
    kb.ask("anc(abe, Y)?", tracer=tracer)
    tracer.close()
    assert validate_trace_file(str(path)) == []
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(events) == len(tracer.spans)
    assert all(e["schema"] == SCHEMA for e in events)
    # stream invariant: children close before parents
    closed = set()
    for event in events:
        assert event["parent"] not in closed or event["parent"] is None
        closed.add(event["id"])


def test_validator_flags_bad_events():
    good = json.dumps(span_event(next(iter(_one_span()))))
    assert validate_events([good]) == []
    assert validate_events(["{not json"])
    assert validate_events([json.dumps({"schema": "other/9"})])
    missing_counter = json.loads(good)
    del missing_counter["counters"]["examined"]
    assert any(
        "examined" in problem
        for problem in validate_events([json.dumps(missing_counter)])
    )


def _one_span():
    tracer = Tracer()
    # a registered kind: the validator now rejects unknown span kinds
    with tracer.span("unit", kind="operator"):
        pass
    return tracer.spans


def test_failing_sink_degrades_to_warning_not_failure():
    kb = family_kb()

    def broken_sink(event):
        raise OSError("disk full")

    tracer = Tracer(sink=broken_sink)
    with pytest.warns(TraceSinkWarning):
        answers = kb.ask("anc(abe, Y)?", tracer=tracer)
    assert len(answers) == 3
    assert tracer.sink is None  # dropped after the first failure
    # in-memory spans survive the sink loss
    assert tracer.roots()[0].name == "query"


def test_trace_drop_fault_breaks_the_sink_mid_query():
    kb = family_kb()
    faults = FaultInjector().inject(site="join:*", trace_drop=True)
    governor = make_governor(max_tuples=10_000, faults=faults)
    sink = JsonlSink(io.StringIO())
    tracer = Tracer(sink=sink)
    with pytest.warns(TraceSinkWarning):
        answers = kb.ask("anc(abe, Y)?", governor=governor, tracer=tracer)
    assert len(answers) == 3
    assert any(entry.endswith(":trace_drop") for entry in faults.log)
    assert tracer.sink is None
    # the trace itself is intact: conservation still holds
    totals = tracer.total_self_counters()
    assert totals["produced"] == answers.profiler.produced


def test_resource_exhausted_carries_the_open_span_stack():
    kb = family_kb()
    tracer = Tracer()
    governor = make_governor(max_tuples=1)
    with pytest.raises(ResourceExhausted) as excinfo:
        kb.ask("anc(abe, Y)?", governor=governor, tracer=tracer)
    spans = excinfo.value.spans
    assert spans and spans[0] == "query"
    # the innermost frame names the running operator or fixpoint stage
    assert any(
        name.split(":")[0] in ("join", "compare", "negation", "builtin", "fixpoint", "rule")
        for name in spans
    )


# ----------------------------------------------------------- profiler fields


def test_profiler_snapshot_includes_wall_and_labels():
    profiler = Profiler()
    profiler.bump_examined(3)
    profiler.charge("join:anc:par", 7)
    profiler.add_time("join:anc:par", 0.25)
    snap = profiler.snapshot()
    assert snap["examined"] == 3
    assert "wall_seconds" in snap and snap["wall_seconds"] >= 0.25
    assert snap["by_label"] == {"join:anc:par": 7}
    # the deterministic repr stays free of wall time and labels
    assert "wall_seconds" not in repr(profiler)


def test_null_tracer_is_inert():
    assert NULL_TRACER.open_stack() == ()
    with NULL_TRACER.span("anything", kind="x") as span:
        span.note(ignored=True)
    NULL_TRACER.attach(object())
    NULL_TRACER.inject_sink_failure()
    NULL_TRACER.close()
    assert NULL_TRACER.spans == ()


def test_cli_trace_metrics_and_analyze(tmp_path):
    from repro.cli import main

    rules = tmp_path / "family.ldl"
    rules.write_text(ANC + "\npar(a, b). par(b, c).\n")
    trace = tmp_path / "trace.jsonl"
    metrics_json = tmp_path / "metrics.json"
    out = io.StringIO()
    code = main(
        [str(rules), "-q", "anc(a, Y)?", "--analyze",
         "--trace", str(trace), "--metrics", str(metrics_json)],
        stdout=out,
    )
    assert code == 0
    assert "err=" in out.getvalue()
    assert validate_trace_file(str(trace)) == []
    parsed = json.loads(metrics_json.read_text())
    assert _counter(parsed, "queries_total") == 1
