"""Per-query telemetry: one ``repro.telemetry/2`` record per ask.

Every ask lands a record — cache hits included — carrying the tier that
served it: ``batch`` when the plan ran (every AND node lowers),
``cache`` / ``view`` when no plan ran.
"""

import io
import json

from repro import KnowledgeBase, OptimizerConfig
from repro.obs import JsonlSink, TelemetryLog, validate_events

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."
PAR = [("abe", "homer"), ("mona", "homer"), ("homer", "bart"), ("homer", "lisa")]


def family_kb(**kwargs):
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", seed=0), **kwargs)
    kb.rules(ANC)
    kb.facts("par", PAR)
    return kb


def test_telemetry_records_every_ask_including_cache_hits():
    kb = family_kb()
    kb.ask("anc(abe, Y)?")
    assert kb.telemetry.last["tier"] == "batch"  # every AND node lowered
    assert kb.telemetry.last["cache"] == "miss"
    kb.ask("anc(abe, Y)?")
    hit = kb.telemetry.last
    assert hit["tier"] == "cache" and hit["cache"] == "hit"
    assert hit["rows"] == 3
    assert len(kb.telemetry) == 2
    assert kb.telemetry.by_tier() == {"cache": 1, "batch": 1}


def test_a_lowered_conjunctive_ask_records_batch():
    kb = KnowledgeBase()
    kb.rules("q(X, Z) <- e(X, Y), f(Y, Z).")
    kb.facts("e", [(i, i + 1) for i in range(40)])
    kb.facts("f", [(i, 2 * i) for i in range(40)])
    assert kb.ask("q($X, Z)?", X=3).to_python() == [(8,)]
    assert kb.telemetry.last["tier"] == "batch"
    assert kb.telemetry.last["worst_qerror"] >= 1.0


def test_a_struct_pattern_ask_records_reference():
    """Named for the tier such an ask once reported: a struct pattern is
    matched per id now, on the one (``batch``) tier, and ``reference``
    is no tier a record may carry."""
    kb = KnowledgeBase()
    kb.facts_text("p(f(a), 1). p(g(b), 2).")
    assert kb.ask("p(f(X), Y)?").to_python() == [("a", 1)]
    assert kb.telemetry.last["tier"] == "batch"
    bad = dict(kb.telemetry.last, tier="reference")
    assert any("tier" in p for p in validate_events([json.dumps(bad)]))


def test_telemetry_ring_buffer_drops_oldest():
    log = TelemetryLog(capacity=2)
    for i in range(5):
        log.record(goal=f"q{i}", adornment="f", wall_ms=float(i), tier="batch",
                   cache="off", rows=i, worst_qerror=1.0, denials=0)
    assert len(log) == 2
    assert [e["goal"] for e in log.events()] == ["q3", "q4"]
    assert log.records_total == 5
    assert log.slow_queries(1)[0]["goal"] == "q4"


def test_telemetry_jsonl_stream_validates(tmp_path):
    out = io.StringIO()
    kb = family_kb(telemetry_sink=JsonlSink(out))
    kb.ask("anc(abe, Y)?")
    kb.ask("anc(abe, Y)?")  # cache hit — also a record
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert validate_events(lines) == []
    assert json.loads(lines[0])["schema"] == "repro.telemetry/2"


def test_telemetry_validator_rejects_malformed_records():
    good = TelemetryLog(capacity=1).record(
        goal="q", adornment="f", wall_ms=1.0, tier="view", cache="off",
        rows=0, worst_qerror=1.0, denials=0,
    )
    assert validate_events([json.dumps(good)]) == []
    for tier in ("hovercraft", "row"):
        bad = dict(good, tier=tier)
        assert any("tier" in p for p in validate_events([json.dumps(bad)]))
    missing = {k: v for k, v in good.items() if k != "rows"}
    assert any("rows" in p for p in validate_events([json.dumps(missing)]))
    old = dict(good, schema="repro.telemetry/1", reopt=False)
    assert validate_events([json.dumps(old)]) != []


def test_trace_validator_accepts_new_span_labels():
    def span(name, kind, span_id):
        return json.dumps({
            "schema": "repro.trace/1", "type": "span", "id": span_id,
            "parent": None, "name": name, "kind": kind, "depth": 0,
            "attrs": {}, "counters": _counters(), "self_counters": _counters(),
            "wall_ms": 0.1, "status": "ok",
        })

    def _counters():
        from repro.obs import COUNTER_FIELDS
        return {k: 0 for k in COUNTER_FIELDS}

    good = [span("optimize:enumerate:anc", "cperm", 1)]
    assert validate_events(good) == []
    assert any(
        "kind" in p
        for p in validate_events([span("optimize:enumerate:anc", "operator", 1)])
    )
    assert any(
        "malformed" in p
        for p in validate_events([span("optimize:enumerate:a b", "cperm", 1)])
    )
    # no engine emits the query-subquery-net shape any more
    assert any(
        "unknown span kind 'qsqn'" in p
        for p in validate_events([span("qsqn:anc.bf", "qsqn", 2)])
    )
    assert any(
        "unknown span kind" in p for p in validate_events([span("foo", "mystery", 1)])
    )
