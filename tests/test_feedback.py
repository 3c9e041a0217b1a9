"""The cardinality feedback loop: store, estimator precedence, re-opt.

The contract under test is LEO's, adapted to LDL plans: executed plans
are harvested into a persistent fingerprint → learned-selectivity store,
the cost model prefers fresh learned evidence over static guesses, the
knowledge base evicts (once) a cached plan whose observed q-error
crosses the threshold — and none of it may ever change query *answers*,
only plans.  Telemetry rides along: every ask (cache hits included)
lands one ``repro.telemetry/1`` record.
"""

import io
import json
import math

import pytest

from repro import KnowledgeBase, OptimizerConfig
from repro.cost.estimates import BodyEstimator
from repro.cost.model import StepState
from repro.datalog.parser import parse_program
from repro.obs import JsonlSink, TelemetryLog, validate_events
from repro.obs.feedback import (
    FEEDBACK_SCHEMA,
    FeedbackStore,
    canonical_literal,
    main as feedback_cli,
    step_fingerprint,
)
from repro.storage.statistics import RelationStats
from repro.testing.oracle import Case, DifferentialOracle
from repro.engine.profiler import Profiler
from repro.workloads import generate_differential_program

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."
PAR = [("abe", "homer"), ("mona", "homer"), ("homer", "bart"), ("homer", "lisa")]


def family_kb(**kwargs):
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", seed=0), **kwargs)
    kb.rules(ANC)
    kb.facts("par", PAR)
    return kb


def skewed_kb(**kwargs):
    """hot(k0) fans out to 60 rows while every other key has one — the
    static uniform guess is off by ~20x, which is what feedback fixes."""
    kb = KnowledgeBase(OptimizerConfig(strategy="dp", seed=0), **kwargs)
    kb.rules("out(W) <- hot(K, V), filt(V), wide(V, W).")
    kb.facts(
        "hot",
        [("k0", f"v{i}") for i in range(60)]
        + [(f"k{j}", "v0") for j in range(1, 40)],
    )
    kb.facts("filt", [(f"v{i}",) for i in range(8)])
    kb.facts("wide", [(f"v{i}", f"w{i}") for i in range(60)])
    return kb


def lit(text):
    (rule,) = parse_program(f"q(X) <- {text}.")
    return rule.body[0]


# ------------------------------------------------------------- fingerprints


def test_canonical_literal_erases_variable_names_but_keeps_constants():
    assert canonical_literal(lit("par(A, B)")) == canonical_literal(lit("par(X, Y)"))
    assert canonical_literal(lit("par(X, X)")) == "par(V0,V0)"
    assert canonical_literal(lit("par(abe, Y)")) == "par(abe,V0)"
    assert canonical_literal(lit("par(abe, Y)")) != canonical_literal(lit("par(X, Y)"))
    assert canonical_literal(lit("~par(X, Y)")).startswith("~")


def test_step_fingerprint_separates_adornment_and_method():
    literal = lit("par(X, Y)")
    assert step_fingerprint(literal, "bf", "index") != step_fingerprint(
        literal, "ff", "index"
    )
    assert step_fingerprint(literal, "bf", "index") != step_fingerprint(
        literal, "bf", "hash"
    )


# ---------------------------------------------------------------- EMA math


def test_ema_update_math():
    store = FeedbackStore(alpha=0.5)
    fp = "step|par(V0,V1)|bf|index"
    store.record(fp, kind="step", predicate="par", method="index",
                 observed=8.0, est=1.0, act=8.0)
    entry = store.get(fp)
    assert entry.value == 8.0 and entry.observations == 1
    store.record(fp, kind="step", predicate="par", method="index",
                 observed=4.0, est=1.0, act=4.0)
    # EMA: 0.5*4 + 0.5*8
    assert entry.value == pytest.approx(6.0)
    assert entry.observations == 2
    store.record(fp, kind="step", predicate="par", method="index",
                 observed=2.0, est=1.0, act=2.0)
    assert entry.value == pytest.approx(0.5 * 2.0 + 0.5 * 6.0)
    assert entry.max_qerror == pytest.approx(8.0)  # worst of 8x, 4x, 2x


def test_staleness_decay_blends_toward_static_and_expires():
    store = FeedbackStore(staleness_half_life=4, min_weight=0.05)
    literal = lit("par(abe, Y)")
    store.record(step_fingerprint(literal, "bf", "index"), kind="step",
                 predicate="par", method="index", observed=100.0, est=10.0, act=100.0)
    fresh = store.learned_fanout(literal, frozenset(), "index", 10.0)
    assert fresh == pytest.approx(100.0)
    store.tick += 4  # one half-life: halfway back to static
    assert store.learned_fanout(literal, frozenset(), "index", 10.0) == pytest.approx(
        0.5 * 100.0 + 0.5 * 10.0
    )
    store.tick += 40  # ~11 half-lives: weight < min_weight, entry expires
    assert store.learned_fanout(literal, frozenset(), "index", 10.0) is None


def test_min_observations_gate():
    store = FeedbackStore(min_observations=2)
    literal = lit("par(abe, Y)")
    store.record(step_fingerprint(literal, "bf", "index"), kind="step",
                 predicate="par", method="index", observed=50.0, est=5.0, act=50.0)
    assert store.learned_fanout(literal, frozenset(), "index", 5.0) is None
    store.record(step_fingerprint(literal, "bf", "index"), kind="step",
                 predicate="par", method="index", observed=50.0, est=5.0, act=50.0)
    assert store.learned_fanout(literal, frozenset(), "index", 5.0) is not None


def test_method_wildcard_fallback():
    store = FeedbackStore()
    literal = lit("par(abe, Y)")
    store.record(step_fingerprint(literal, "bf", "*"), kind="step",
                 predicate="par", method="*", observed=42.0, est=1.0, act=42.0)
    # never executed with merge, but the wildcard carries the cardinality
    assert store.learned_fanout(literal, frozenset(), "merge", 1.0) == pytest.approx(42.0)
    assert store.has_fanout(literal, frozenset(), "merge")


# ------------------------------------------------------------- persistence


def test_store_round_trips_through_jsonl(tmp_path):
    path = tmp_path / "feedback.jsonl"
    store = FeedbackStore(path)
    literal = lit("par(abe, Y)")
    store.tick = 7
    store.record(step_fingerprint(literal, "bf", "index"), kind="step",
                 predicate="par", method="index", observed=12.0, est=2.0, act=12.0)
    store.flush()
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {
        "schema": FEEDBACK_SCHEMA, "type": "meta", "tick": 7,
    }
    reloaded = FeedbackStore(path)
    assert reloaded.tick == 7
    assert len(reloaded) == 1
    assert reloaded.learned_fanout(literal, frozenset(), "index", 2.0) == pytest.approx(12.0)
    assert reloaded.load_errors == []


def test_load_is_lenient_about_garbage_lines(tmp_path):
    path = tmp_path / "feedback.jsonl"
    path.write_text(
        json.dumps({"schema": FEEDBACK_SCHEMA, "type": "meta", "tick": 3}) + "\n"
        + "not json at all\n"
        + json.dumps({"schema": "other/1", "type": "entry"}) + "\n"
        + json.dumps({
            "schema": FEEDBACK_SCHEMA, "type": "entry",
            "fingerprint": "step|p(V0)|f|index", "kind": "step",
            "predicate": "p", "method": "index", "value": 2.0,
            "observations": 1, "last_tick": 1,
        }) + "\n"
    )
    store = FeedbackStore(path)
    assert len(store) == 1
    assert len(store.load_errors) == 2


def test_persistence_across_knowledge_base_restarts(tmp_path):
    path = tmp_path / "feedback.jsonl"
    kb = skewed_kb(feedback=str(path), result_cache=False)
    first = sorted(kb.ask("out(W)?").to_python())
    assert len(kb.feedback) > 0
    kb.close()

    # a fresh KnowledgeBase (fresh process, conceptually) starts with the
    # learned cardinalities already applied to its very first plan
    kb2 = skewed_kb(feedback=str(path), result_cache=False)
    assert len(kb2.feedback) == len(kb.feedback)
    plan = kb2.explain("out(W)?")
    assert "~learned" in plan
    assert sorted(kb2.ask("out(W)?").to_python()) == first
    kb2.close()


def test_lru_eviction_bounds_the_store():
    store = FeedbackStore(max_entries=4)
    for i in range(10):
        store.tick = i
        store.record(f"step|p{i}(V0)|f|index", kind="step", predicate=f"p{i}",
                     method="index", observed=1.0, est=1.0, act=1.0)
    assert len(store) == 4
    # the survivors are the most recently ticked
    assert {e.predicate for e in store.entries()} == {"p6", "p7", "p8", "p9"}


# ------------------------------------------- estimator precedence


def _estimator(feedback=None):
    stats = {"par": RelationStats.declared(100.0, [10.0, 10.0])}

    class _Provider:
        def stats_for(self, name):
            return stats.get(name)

    return BodyEstimator(_Provider(), feedback=feedback)


def test_learned_fanout_takes_precedence_over_static_guess():
    literal = lit("par(abe, Y)")
    static = _estimator()
    state0 = StepState(1.0, frozenset(), 0.0)
    baseline = static.base_step(
        state0, literal, static.stats_for("par", 2), "index"
    )
    store = FeedbackStore()
    store.record(step_fingerprint(literal, "bf", "index"), kind="step",
                 predicate="par", method="index", observed=77.0, est=10.0, act=77.0)
    learned = _estimator(feedback=store).base_step(
        state0, literal, static.stats_for("par", 2), "index"
    )
    assert baseline.card == pytest.approx(10.0)  # 100 * 1/10
    assert learned.card == pytest.approx(77.0)
    # an empty store changes nothing
    both = _estimator(feedback=FeedbackStore()).base_step(
        state0, literal, static.stats_for("par", 2), "index"
    )
    assert both.card == baseline.card


def test_learned_values_never_resurrect_infinite_estimates():
    store = FeedbackStore()
    literal = lit("par(abe, Y)")
    store.record(step_fingerprint(literal, "bf", "index"), kind="step",
                 predicate="par", method="index", observed=5.0, est=1.0, act=5.0)
    entry = store.get(step_fingerprint(literal, "bf", "index"))
    assert store._blend(entry, math.inf) == math.inf
    assert store.learned_node_card("or", "p/1", "f", None, math.inf) is None


# ------------------------------------------------------------ re-opt


def test_auto_reopt_evicts_once_per_threshold_crossing():
    kb = skewed_kb(result_cache=False, reopt_qerror_threshold=2.0)
    q = "out(W)?"
    first = sorted(kb.ask(q).to_python())
    assert kb.telemetry.last["reopt"] is True
    assert kb.metrics.counter_total("reopt_total") == 1
    key = next(iter([("out(W)", "f")]))
    assert key not in kb._compiled  # evicted

    # the replanned form re-caches; even if its q-error still crosses the
    # threshold, re-opt must NOT fire again for this form
    second = sorted(kb.ask(q).to_python())
    assert second == first
    assert kb.telemetry.last["reopt"] is False
    assert kb.metrics.counter_total("reopt_total") == 1
    third = sorted(kb.ask(q).to_python())
    assert third == first
    assert kb.metrics.counter_total("reopt_total") == 1

    # a data change invalidates plans AND re-arms the trigger
    kb.facts("hot", [("k0", "v_new")])
    assert kb._reopt_fired == set()
    # forget the learned truths: the fresh plan misestimates statically
    # again, and the re-armed trigger fires a second time
    kb.feedback.clear()
    kb.ask(q)
    assert kb.metrics.counter_total("reopt_total") == 2


def test_feedback_off_means_fully_static():
    kb = skewed_kb(feedback=False, result_cache=False)
    q = "out(W)?"
    kb.ask(q)
    assert kb.feedback is None
    assert kb.metrics.counter_total("reopt_total") == 0
    assert "~learned" not in kb.explain(q)
    assert kb.telemetry.last["worst_qerror"] == 1.0  # nothing measured


def test_feedback_informs_the_replan():
    kb = skewed_kb(result_cache=False, reopt_qerror_threshold=2.0)
    q = "out(W)?"
    kb.ask(q)
    replanned = kb.explain(q)
    assert "~learned" in replanned
    # the replanned execution's estimates track reality much more closely
    worst_before = kb.telemetry.events()[0]["worst_qerror"]
    kb.ask(q)
    worst_after = kb.telemetry.last["worst_qerror"]
    assert worst_after < worst_before


def test_learned_plan_does_at_least_2x_less_tuple_work():
    """Asking about the one key the static per-key guess is wrong for:
    the cold run leads with the skewed relation, crosses the q-error
    threshold and evicts its plan; the re-planned run leads with the
    filter.  Gated on profiler counters, so machine speed never enters."""
    kb = skewed_kb(result_cache=False, reopt_qerror_threshold=4.0)
    kb.rules("out_of(K, W) <- hot(K, V), filt(V), wide(V, W).")
    query = "out_of($K, W)?"
    static_plan = kb.explain(query)
    cold, warm = Profiler(), Profiler()
    first = kb.ask(query, K="k0", profiler=cold)
    assert kb.telemetry.last["reopt"]
    assert kb.explain(query) != static_plan
    second = kb.ask(query, K="k0", profiler=warm)
    assert second.rows == first.rows and len(first) == 8
    assert cold.total_work >= 2 * warm.total_work


# ---------------------------------------------------------------- telemetry


def test_telemetry_records_every_ask_including_cache_hits():
    kb = family_kb()
    kb.ask("anc(abe, Y)?")
    assert kb.telemetry.last["tier"] == "batch"  # a lowered fixpoint rule ran
    assert kb.telemetry.last["cache"] == "miss"
    kb.ask("anc(abe, Y)?")
    hit = kb.telemetry.last
    assert hit["tier"] == "cache" and hit["cache"] == "hit"
    assert hit["rows"] == 3
    assert len(kb.telemetry) == 2
    assert kb.telemetry.by_tier() == {"cache": 1, "batch": 1}


def test_telemetry_ring_buffer_drops_oldest():
    log = TelemetryLog(capacity=2)
    for i in range(5):
        log.record(goal=f"q{i}", adornment="f", wall_ms=float(i), tier="row",
                   cache="off", rows=i, worst_qerror=1.0, denials=0, reopt=False)
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
    assert json.loads(lines[0])["schema"] == "repro.telemetry/1"


def test_telemetry_validator_rejects_malformed_records():
    good = TelemetryLog(capacity=1).record(
        goal="q", adornment="f", wall_ms=1.0, tier="row", cache="off",
        rows=0, worst_qerror=1.0, denials=0, reopt=False,
    )
    assert validate_events([json.dumps(good)]) == []
    bad = dict(good, tier="hovercraft")
    assert any("tier" in p for p in validate_events([json.dumps(bad)]))
    missing = {k: v for k, v in good.items() if k != "rows"}
    assert any("rows" in p for p in validate_events([json.dumps(missing)]))


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


# ------------------------------------------------------------------- CLI


def test_feedback_cli_dump_stats_clear(tmp_path, capsys):
    path = tmp_path / "fb.jsonl"
    kb = skewed_kb(feedback=str(path), result_cache=False)
    kb.ask("out(W)?")
    kb.close()

    assert feedback_cli(["stats", str(path)]) == 0
    stats_out = capsys.readouterr().out
    assert "entries:" in stats_out and "worst q-error" in stats_out

    assert feedback_cli(["dump", "--top", "3", str(path)]) == 0
    dump_out = capsys.readouterr().out
    assert "step|hot(" in dump_out

    assert feedback_cli(["clear", str(path)]) == 0
    capsys.readouterr()
    assert feedback_cli(["dump", str(path)]) == 0
    assert "no entries" in capsys.readouterr().out

    assert feedback_cli(["dump", str(tmp_path / "missing.jsonl")]) == 1


# ----------------------------------------------- the answer-identity sweep


def test_feedback_differential_sweep_50_seeds():
    """Feedback changes plans, never answers: 50 seeded random programs
    through the kb-feedback runner (ask, learn, force a replan, ask
    again) against the interpreted reference — zero disagreements."""
    oracle = DifferentialOracle(strategies=["kb-feedback"])
    cases = 0
    for seed in range(50):
        sample = generate_differential_program(seed)
        for query in sample.queries[:1]:
            case = Case.make(sample.rules, sample.facts, query)
            disagreements = oracle.check(case)
            assert disagreements == [], (
                f"seed {seed}: feedback changed answers: {disagreements}"
            )
            cases += 1
    assert cases >= 50
