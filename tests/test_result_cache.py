"""The version-keyed cross-query result cache (and retract invalidation).

The cache key includes the versions of the relations in the query's
dependency footprint, so any insert or retract a query *could observe*
fences its cached answer — a stale hit is impossible by construction,
while writes to unrelated relations leave entries hot (see
tests/test_invalidation.py).  These tests pin the hit/miss behavior, the
invalidation paths (insert, retract, new rules), the bypass rules
(profiler / governor / tracer arguments mean "measure this run", never
serve a memo), and the escape hatch.  The retract regressions double as
the index/sort-cache invalidation audit: a retract mid-session must bump
the relation version and the re-query must see post-retract answers
whether it goes through the cache or not.
"""

import pytest

from repro import KnowledgeBase
from repro.engine.governor import make_governor
from repro.engine.profiler import Profiler
from repro.obs import Tracer
from repro.storage.relation import DerivedRelation, relation_from_rows

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."

PAR = [("abe", "homer"), ("homer", "bart"), ("homer", "lisa")]


def _counter(kb, name):
    return sum(c["value"] for c in kb.metrics.snapshot()["counters"] if c["name"] == name)


def make_kb(**kwargs):
    kb = KnowledgeBase(**kwargs)
    kb.rules(ANC)
    kb.facts("par", PAR)
    return kb


# ----------------------------------------------------------------- warm hits


def test_repeated_query_hits_cache():
    kb = make_kb()
    first = kb.ask("anc(abe, Y)?")
    second = kb.ask("anc(abe, Y)?")
    assert second is first  # served verbatim, no re-evaluation
    assert _counter(kb, "result_cache_hits_total") == 1
    assert _counter(kb, "result_cache_misses_total") == 1


def test_different_bindings_are_different_entries():
    kb = make_kb()
    a = kb.ask("anc($X, Y)?", X="abe")
    b = kb.ask("anc($X, Y)?", X="homer")
    assert a.to_python() != b.to_python()
    assert _counter(kb, "result_cache_hits_total") == 0
    assert kb.ask("anc($X, Y)?", X="abe") is a


def test_cache_disabled_by_constructor_flag():
    kb = make_kb(result_cache=False)
    first = kb.ask("anc(abe, Y)?")
    second = kb.ask("anc(abe, Y)?")
    assert first is not second
    assert first.to_python() == second.to_python()
    assert _counter(kb, "result_cache_hits_total") == 0


# -------------------------------------------------------------- invalidation


def test_insert_invalidates():
    kb = make_kb()
    before = kb.ask("anc(abe, Y)?")
    kb.facts("par", [("bart", "maggie")])
    after = kb.ask("anc(abe, Y)?")
    assert after is not before
    assert ("maggie",) in set(after.to_python())


def test_retract_invalidates_and_requery_is_correct():
    """The ISSUE's retract regression: retract mid-session, then re-query
    through the cache — the answer must shrink, and a further repeat of
    the *post-retract* query may hit the cache again."""
    kb = make_kb()
    before = kb.ask("anc(abe, Y)?")
    assert ("bart",) in set(before.to_python())
    removed = kb.retract("par", [("homer", "bart")])
    assert removed == 1
    after = kb.ask("anc(abe, Y)?")
    assert after is not before
    assert ("bart",) not in set(after.to_python())
    assert ("lisa",) in set(after.to_python())
    assert kb.ask("anc(abe, Y)?") is after


def test_retract_bumps_relation_version():
    kb = make_kb()
    relation = kb.db.relation("par")
    version = relation.version
    kb.retract("par", [("homer", "bart")])
    assert relation.version > version


def test_new_rule_invalidates():
    kb = make_kb()
    before = kb.ask("anc(abe, Y)?")
    kb.rules("anc(X, Y) <- par(Y, X).")  # symmetric closure changes answers
    after = kb.ask("anc(abe, Y)?")
    assert after is not before


# -------------------------------------------------------------- bypass rules


def test_profiler_governor_tracer_bypass_cache():
    kb = make_kb()
    kb.ask("anc(abe, Y)?")  # primes the cache
    profiler = Profiler()
    kb.ask("anc(abe, Y)?", profiler=profiler)
    assert profiler.produced > 0  # actually executed, not a memo
    kb.ask("anc(abe, Y)?", governor=make_governor(max_tuples=10_000))
    tracer = Tracer()
    kb.ask("anc(abe, Y)?", tracer=tracer)
    assert _counter(kb, "result_cache_hits_total") == 0


# ------------------------------------------------- derived-store invalidation


def test_derived_relation_discard_invalidates_version_and_indexes():
    from repro.datalog.terms import Constant

    rel = DerivedRelation("d")
    rel.add((Constant("a"),))
    rel.add((Constant("b"),))
    index = rel.ensure_index((0,))
    assert index.get_bucket((Constant("a"),))
    version = rel.version
    rel.discard((Constant("a"),))
    assert rel.version > version
    assert (Constant("a"),) not in rel
    assert not index.get_bucket((Constant("a"),))
    assert rel.rows == frozenset({(Constant("b"),)})


def test_relation_remove_drops_batch_store():
    from repro.datalog.intern import INTERNER
    from repro.datalog.terms import Constant

    rel = relation_from_rows("r", [("a",), ("b",)], arity=1)
    assert rel.batch_store(INTERNER).length == 2
    version = rel.version
    rel.remove((Constant("a"),))
    assert rel.version > version
    assert rel.batch_store(INTERNER).length == 1


def test_version_vector_orders_names_deterministically():
    kb = make_kb()
    vector = kb.db.version_vector()
    names = [name for name, _ in vector]
    assert names == sorted(names)


# ----------------------------------------------------------------- eviction


def test_fifo_eviction_bounds_the_cache():
    kb = make_kb(result_cache_size=2)
    kb.ask("anc(abe, Y)?")
    kb.ask("anc(homer, Y)?")
    kb.ask("anc(bart, Y)?")  # evicts the oldest entry
    assert len(kb._result_cache) == 2
    kb.ask("anc(abe, Y)?")  # the evicted query re-runs (miss, re-inserted)
    assert _counter(kb, "result_cache_hits_total") == 0
    assert _counter(kb, "result_cache_misses_total") == 4
