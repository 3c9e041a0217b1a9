"""Surgical invalidation: footprint-scoped eviction + no-op write fixes.

ISSUE 9's acceptance criterion in executable form: a write to relation A
must not evict cached queries reading only relation B, and writes that
change nothing (duplicate inserts, absent retracts) must not bump
versions or clear anything at all.
"""

import pytest

from repro import KnowledgeBase

#: two independent query families over disjoint base relations
RULES = """
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
    owner(X, Y) <- owns(X, Y).
"""

PAR = [("abe", "homer"), ("homer", "bart")]
OWNS = [("homer", "car")]


def _counter(kb, name):
    return sum(c["value"] for c in kb.metrics.snapshot()["counters"] if c["name"] == name)


def make_kb(**kwargs):
    kb = KnowledgeBase(**kwargs)
    kb.rules(RULES)
    kb.facts("par", PAR)
    kb.facts("owns", OWNS)
    return kb


# ------------------------------------------------------------- footprints


def test_footprint_of_derived_predicate_is_its_base_relations():
    kb = make_kb()
    assert kb._dependency_footprint("anc", 2) == {"par"}
    assert kb._dependency_footprint("owner", 2) == {"owns"}
    assert kb._dependency_footprint("par", 2) == {"par"}  # base: itself


def test_write_to_unrelated_relation_keeps_cache_hot():
    """The acceptance criterion itself: insert into owns, anc stays cached."""
    kb = make_kb()
    first = kb.ask("anc(abe, Y)?")
    kb.facts("owns", [("bart", "skateboard")])
    second = kb.ask("anc(abe, Y)?")
    assert second is first  # identity: served from cache, engine untouched


def test_write_to_footprint_relation_invalidates():
    kb = make_kb()
    first = kb.ask("anc(abe, Y)?")
    kb.facts("par", [("bart", "maggie")])
    second = kb.ask("anc(abe, Y)?")
    assert second is not first
    assert ("maggie",) in second.to_python()


def test_unrelated_retract_keeps_cache_hot():
    kb = make_kb()
    first = kb.ask("anc(abe, Y)?")
    kb.retract("owns", [("homer", "car")])
    assert kb.ask("anc(abe, Y)?") is first


def test_unrelated_write_keeps_compiled_plan():
    kb = make_kb()
    kb.ask("anc(abe, Y)?")
    key = next(iter(kb._compiled))
    plan = kb._compiled[key]
    kb.facts("owns", [("bart", "skateboard")])
    assert kb._compiled.get(key) is plan
    kb.facts("par", [("bart", "maggie")])
    assert key not in kb._compiled


def test_transaction_commit_invalidates_by_footprint():
    kb = make_kb()
    first_anc = kb.ask("anc(abe, Y)?")
    first_owner = kb.ask("owner(homer, Y)?")
    with kb.transaction():
        kb.facts("owns", [("bart", "skateboard")])
    assert kb.ask("anc(abe, Y)?") is first_anc
    assert kb.ask("owner(homer, Y)?") is not first_owner


# ----------------------------------------------------------- no-op writes


def test_duplicate_insert_does_not_bump_version():
    kb = make_kb()
    version = kb.db.relation("par").version
    assert kb.facts("par", [PAR[0]]) == 0
    assert kb.db.relation("par").version == version


def test_absent_retract_does_not_bump_version():
    kb = make_kb()
    version = kb.db.relation("par").version
    assert kb.retract("par", [("nobody", "nowhere")]) == 0
    assert kb.db.relation("par").version == version


def test_duplicate_insert_keeps_cache_and_plans():
    kb = make_kb()
    first = kb.ask("anc(abe, Y)?")
    plans = dict(kb._compiled)
    kb.facts("par", [PAR[0]])  # all rows already present
    assert kb.ask("anc(abe, Y)?") is first
    assert kb._compiled == plans


def test_absent_retract_keeps_cache():
    kb = make_kb()
    first = kb.ask("anc(abe, Y)?")
    kb.retract("par", [("nobody", "nowhere")])
    assert kb.ask("anc(abe, Y)?") is first


def test_noop_facts_text_keeps_cache():
    kb = make_kb()
    first = kb.ask("anc(abe, Y)?")
    assert kb.facts_text("par(abe, homer).") == 0  # already present
    assert kb.ask("anc(abe, Y)?") is first


def test_noop_writes_in_transaction_keep_cache():
    kb = make_kb()
    first = kb.ask("anc(abe, Y)?")
    with kb.transaction():
        kb.facts("par", [PAR[0]])
        kb.retract("par", [("nobody", "nowhere")])
    assert kb.ask("anc(abe, Y)?") is first


def test_noop_insert_keeps_stats_cache():
    kb = make_kb()
    stats = kb.db.stats_for("par")
    kb.facts("par", [PAR[0]])
    assert kb.db.stats_for("par") is stats  # cache entry survived
    kb.facts("par", [("bart", "maggie")])
    assert kb.db.stats_for("par") is not stats


# ------------------------------------------------- telemetry attribution


def test_view_tier_attribution_after_partial_invalidation():
    """tier="view" vs tier="cache" must follow where the rows actually
    came from: hit -> cache, miss through the maintained view -> view —
    including after a write evicted only *some* footprints."""
    kb = make_kb()
    kb.materialize()

    kb.ask("anc(abe, Y)?")
    assert kb.telemetry.last["tier"] == "view"
    assert kb.telemetry.last["cache"] == "miss"

    kb.ask("anc(abe, Y)?")
    assert kb.telemetry.last["tier"] == "cache"
    assert kb.telemetry.last["cache"] == "hit"

    kb.ask("owner(homer, Y)?")
    assert kb.telemetry.last["tier"] == "view"

    # partial invalidation: only owner's footprint moves
    kb.facts("owns", [("bart", "skateboard")])
    kb.ask("anc(abe, Y)?")
    assert kb.telemetry.last["tier"] == "cache"  # anc untouched: still a hit
    kb.ask("owner(homer, Y)?")
    assert kb.telemetry.last["tier"] == "view"  # owner evicted: view refilter
    assert kb.telemetry.last["cache"] == "miss"


def test_view_queries_count_cache_hits():
    kb = make_kb()
    kb.materialize()
    kb.ask("anc(abe, Y)?")
    hits0 = _counter(kb, "result_cache_hits_total")
    misses0 = _counter(kb, "result_cache_misses_total")
    kb.ask("anc(abe, Y)?")
    assert _counter(kb, "result_cache_hits_total") == hits0 + 1
    assert _counter(kb, "result_cache_misses_total") == misses0
    kb.facts("par", [("bart", "maggie")])
    kb.ask("anc(abe, Y)?")
    assert _counter(kb, "result_cache_misses_total") == misses0 + 1


def test_view_answers_stay_fresh_through_cache():
    """Cached view answers are version-fenced like engine answers."""
    kb = make_kb()
    kb.materialize()
    assert ("bart",) in kb.ask("anc(abe, Y)?").to_python()
    kb.facts("par", [("bart", "maggie")])
    assert ("maggie",) in kb.ask("anc(abe, Y)?").to_python()
    kb.retract("par", [("homer", "bart")])
    answers = kb.ask("anc(abe, Y)?").to_python()
    assert ("bart",) not in answers and ("maggie",) not in answers


def test_uncacheable_view_query_reports_cache_off():
    from repro.engine.profiler import Profiler

    kb = make_kb()
    kb.materialize()
    kb.ask("anc(abe, Y)?", profiler=Profiler())
    assert kb.telemetry.last["tier"] == "view"
    assert kb.telemetry.last["cache"] == "off"
