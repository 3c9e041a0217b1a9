"""The version-keyed cross-query result cache (and retract invalidation).

The cache key includes the versions of the relations in the query's
dependency footprint, so any insert or retract a query *could observe*
fences its cached answer — a stale hit is impossible by construction,
while writes to unrelated relations leave entries hot (see
tests/test_invalidation.py).  These tests pin the hit/miss behavior, the
invalidation paths (insert, retract, new rules), the bypass rules
(profiler / governor / tracer arguments mean "measure this run", never
serve a memo), and the escape hatch.  The retract regressions double as
the bucket-map invalidation audit: a retract mid-session must bump the
relation version and the re-query must see post-retract answers whether
it goes through the cache or not.
"""

import gc

import pytest

from repro import KnowledgeBase
from repro.datalog.intern import INTERNER
from repro.datalog.terms import Constant
from repro.engine.fixpoint import FixpointEngine
from repro.engine.governor import make_governor
from repro.engine.interpreter import Interpreter
from repro.engine.maintenance import ViewSet
from repro.engine.profiler import Profiler
from repro.errors import KnowledgeBaseError
from repro.obs import Tracer
from repro.storage.loader import load_facts_text, load_tsv
from repro.storage.relation import relation_from_rows

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
    """A retract mid-session takes the row out of a derived id store's
    bucket maps (a reference join probing them misses it) and moves the
    version a cached answer is keyed on."""
    from repro.datalog.parser import parse_literal
    from repro.datalog.terms import Constant
    from repro.testing.reference import BindingsTable, scan_join
    from repro.storage.columnar import IdRelation

    rel = IdRelation(INTERNER, 1, INTERNER.encode_rows({(Constant(v),) for v in "abc"}))
    probe = lambda: scan_join(BindingsTable.unit(), parse_literal("d(a)"), rel)  # noqa: E731
    assert probe().rows == {()}
    assert rel.discard({(INTERNER.id_of(Constant("a")),)})
    assert probe().rows == frozenset()
    assert INTERNER.decode_rows(rel.rows) == {(Constant("b"),), (Constant("c"),)}

    kb = make_kb()
    kb.rules("neq(X, Y) <- par(X, Y), par(X, Z), Y != Z.")
    assert kb.ask("neq(homer, Y)?").to_python() == [("bart",), ("lisa",)]
    version = kb.db.relation("par").version
    assert kb.retract("par", [("homer", "lisa")]) == 1
    assert kb.db.relation("par").version > version
    assert kb.ask("neq(homer, Y)?").to_python() == []


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


def test_zero_size_disables_the_cache_and_negative_is_refused():
    kb = make_kb(result_cache_size=0)
    first = kb.ask("anc(abe, Y)?")
    assert kb.ask("anc(abe, Y)?") is not first  # no cache, no StopIteration
    assert kb.ask("anc(X, Y)?").to_python() == kb.ask("anc(X, Y)?").to_python()
    assert _counter(kb, "result_cache_hits_total") == 0
    with pytest.raises(KnowledgeBaseError, match="result_cache_size"):
        KnowledgeBase(result_cache_size=-1)


def test_a_maintained_entry_counts_against_the_fifo_bound():
    """The store's answer is an ordinary entry under the bound; the
    store itself is not an entry, so pushing the answer out keeps it."""
    kb = make_kb(result_cache_size=1)
    kb.ask("anc(X, Y)?")
    kb.facts("par", [("bart", "maggie")])
    kb.ask("anc(X, Y)?")  # promoted: the store answers, its answer is the one entry
    views = kb._views
    assert views is not None and len(kb._result_cache) == 1
    assert ("homer",) in set(kb.ask("anc(abe, Y)?").to_python())  # pushes it out
    assert [key[0] for key in kb._result_cache] == ["anc(abe, Y)"]
    assert ("abe", "maggie") in set(kb.ask("anc(X, Y)?").to_python())
    assert kb._views is views and kb.telemetry.events()[-1]["tier"] == "view"


# ------------------------------- all-free forms: the derived-extension store


def fresh_answers(kb, text, **bindings) -> list:
    """*text* asked of a knowledge base built from scratch from *kb*'s
    rules and facts."""
    fresh = KnowledgeBase(result_cache=False)
    fresh.rules("\n".join(str(rule) for rule in kb._rules))
    for relation in kb.db:
        if len(relation.batch_store(INTERNER)):
            fresh.facts(relation.name, [
                tuple(f.value if isinstance(f, Constant) else f for f in row)
                for row in relation
            ])
    return fresh.ask(text, **bindings).to_python()


@pytest.fixture
def runs(monkeypatch):
    """Counts of plan executions, fixpoint evaluations and extension
    builds, by spying on their entry points."""
    counts = {"run": 0, "evaluate": 0, "materialize": 0}
    for cls, name, key in (
        (Interpreter, "run", "run"),
        (FixpointEngine, "evaluate", "evaluate"),
        (ViewSet, "materialize", "materialize"),
    ):
        def spy(*args, _real=getattr(cls, name), _key=key, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    return counts


def promoted_kb():
    """The all-free form asked, evicted by a write, and asked again: the
    store holds its cone from here on."""
    kb = make_kb()
    kb.ask("anc(X, Y)?")
    assert kb._views is None  # the plan's answer, nothing built
    kb.facts("par", [("bart", "maggie")])
    kb.ask("anc(X, Y)?")
    assert kb._views is not None
    return kb


def test_after_promotion_a_write_and_reask_runs_no_plan_and_no_fixpoint(runs):
    kb = make_kb()
    kb.ask("anc(X, Y)?")
    assert runs == {"run": 1, "evaluate": 1, "materialize": 0}
    kb.facts("par", [("bart", "maggie")])
    assert runs["run"] == 1  # the write does no work for the entry
    kb.ask("anc(X, Y)?")
    assert runs == {"run": 1, "evaluate": 2, "materialize": 1}  # built, not planned
    for write in (
        lambda: kb.facts("par", [("maggie", "lingo")]),
        lambda: kb.retract("par", [("homer", "bart")]),
        lambda: kb.facts_text("par(lisa, zia). par(homer, bart)."),
    ):
        write()
        answers = kb.ask("anc(X, Y)?")
        assert runs == {"run": 1, "evaluate": 2, "materialize": 1}
        assert answers.to_python() == fresh_answers(kb, "anc(X, Y)?")
        runs.update(run=1, evaluate=2)  # the fresh knowledge base's own
    assert kb.ask("anc(X, Y)?") is answers  # no write since: a plain hit
    tiers = [record["tier"] for record in kb.telemetry.events()]
    assert tiers == ["batch", "view", "view", "view", "view", "cache"]


def test_an_answer_handed_out_does_not_move_with_later_writes():
    kb = promoted_kb()
    before = kb.ask("anc(X, Y)?")
    listed = before.to_python()
    kb.retract("par", [("abe", "homer")])
    kb.facts("par", [("zed", "abe")])
    after = kb.ask("anc(X, Y)?")
    assert before.to_python() == listed and after.to_python() != listed


def test_bound_forms_and_measured_asks_still_run_the_plan(runs):
    kb = make_kb()
    for i in range(3):
        kb.ask("anc($X, Y)?", X="abe")
        kb.facts("par", [("lisa", f"kid{i}")])
    assert runs["run"] == 3 and runs["materialize"] == 0
    assert kb._views is None
    kb = promoted_kb()
    runs["run"] = 0
    kb.ask("anc(X, Y)?", profiler=Profiler())
    kb.ask("anc(X, Y)?", governor=make_governor(max_tuples=10_000))
    kb.ask("anc(X, Y)?", tracer=Tracer())
    assert runs["run"] == 3


def test_negation_and_count_forms_catch_up_and_equal_a_recompute(runs):
    kb = make_kb()
    kb.rules("""
        parent(X) <- par(X, _).
        lone(X) <- person(X), ~parent(X).
        kids(X, count(Y)) <- par(X, Y).
    """)
    kb.facts("person", [("abe",), ("bart",), ("lisa",)])
    forms = ("lone(X)?", "kids(X, N)?")
    writes = (
        lambda: kb.facts("par", [("lisa", "kid0")]),        # lone loses lisa
        lambda: kb.retract("par", [("homer", "bart")]),     # kids(homer) moves
        lambda: kb.retract("par", [("lisa", "kid0")]),      # lone regains lisa
        lambda: kb.facts("par", [("bart", "kid1"), ("zed", "kid2")]),
    )
    for write in (None,) + writes:
        if write is not None:
            write()
        for text in forms:
            answers, planned = kb.ask(text).to_python(), runs["run"]
            assert answers == fresh_answers(kb, text)
            runs["run"] = planned  # not the fresh knowledge base's plan
    assert runs["run"] == 2 and runs["materialize"] == 2  # the first asks' plans
    assert {"lone", "kids"} <= set(kb._views.predicates())  # one store holds both
    tiers = [record["tier"] for record in kb.telemetry.events()]
    assert tiers[2:] == ["view"] * (2 * len(writes))


def test_a_float_sum_form_caught_up_answers_one_row_per_group(runs):
    """Sums over floats whose rounding depends on the order they are
    added in: the caught-up answer is the recomputed one, one row per
    group, after an insert and after a delete."""
    kb = KnowledgeBase()
    kb.rules("total(X, sum(Y)) <- w(X, Y).")
    kb.facts("w", [("g", 0.3), ("g", 0.2), ("g", 0.1), ("h", 1e16), ("h", 1.0)])
    kb.ask("total(X, S)?")
    for write in (
        lambda: kb.facts("w", [("g", 0.7), ("h", -1e16)]),
        lambda: kb.retract("w", [("g", 0.2), ("h", 1.0)]),
        lambda: kb.facts("w", [("g", 0.2), ("h", 1.0)]),
    ):
        write()
        answers = kb.ask("total(X, S)?").to_python()
        assert answers == fresh_answers(kb, "total(X, S)?")
        assert sorted(group for group, __ in answers) == ["g", "h"]
    assert runs["materialize"] == 1 and kb._views is not None


def test_an_oversized_delta_drops_the_extension(runs):
    kb = promoted_kb()
    size = kb._views.size()
    kb.facts("par", [(f"a{i}", f"b{i}") for i in range(size + 1)])
    assert kb._views is None and not kb._pending
    assert kb.ask("anc(X, Y)?").to_python() == fresh_answers(kb, "anc(X, Y)?")
    assert runs["materialize"] == 2 and kb._views is not None


def test_a_delta_bigger_than_a_projection_goal_but_not_its_cone_is_caught_up(runs):
    kb = make_kb()
    kb.rules("src(X) <- anc(X, Y).")
    kb.facts("par", [(f"c{i}", f"c{i + 1}") for i in range(8)])
    kb.ask("src(X)?")
    kb.facts("par", [("c8", "c9")])
    kb.ask("src(X)?")
    views = kb._views
    goal, cone = len(views.ids("src")), views.size()
    new = [(f"d{i}", "c0") for i in range(goal + 1)]
    assert goal < len(new) < cone
    kb.facts("par", new)
    assert kb._views is views and len(kb._pending) == len(new)  # kept, to be caught up
    assert kb.ask("src(X)?").to_python() == fresh_answers(kb, "src(X)?")
    assert runs["materialize"] == 1


GUARDED = """
    sreach(X, Y) <- par(X, Y), ~blocked(Y).
    sreach(X, Y) <- sreach(X, Z), par(Z, Y), ~blocked(Y), X != Y.
    nreach(X, count(Y)) <- sreach(X, Y).
"""


@pytest.mark.parametrize("late", [False, True], ids=["built-together", "taken-over"])
def test_forms_over_one_footprint_share_one_extension(runs, late):
    """Without *late* both forms ran their plans before the store is
    built: sreach's second miss builds it over sreach's cone and nreach's
    grows it.  With it sreach is first asked once nreach's store exists,
    which holds sreach's cone, so the store answers it without a build."""
    kb = make_kb()
    kb.rules(GUARDED)
    kb.facts("blocked", [("lisa",), ("zed",)])
    forms = ("sreach(X, Y)?", "nreach(X, N)?")
    for i, asked in enumerate([forms[1:], forms[1:], forms] if late else [forms, forms]):
        for text in asked:
            kb.ask(text)
        kb.facts("par", [(f"bart{i}", "lisa")])
    for text in forms:
        kb.ask(text)
    builds = 1 if late else 2
    shared = kb._views
    assert {"sreach", "nreach"} <= set(shared.predicates())
    assert runs["materialize"] == builds
    writes = (
        lambda: kb.retract("blocked", [("lisa",)]),
        lambda: kb.facts("blocked", [("bart",)]),
        lambda: kb.retract("par", [("homer", "bart")]),
    )
    for write in writes:
        write()
        assert len(kb._pending) == 1  # folded once for both
        for text in forms:
            answers, planned = kb.ask(text).to_python(), runs["run"]
            assert answers == fresh_answers(kb, text)
            runs["run"] = planned
    assert runs["materialize"] == builds and kb._views is shared


def test_a_failed_catch_up_detaches_every_sharer(monkeypatch):
    """A catch-up that raises drops the one store: neither form reads a
    half-maintained extension, and the next ask rebuilds it."""
    kb = make_kb()
    kb.rules(GUARDED)
    kb.facts("blocked", [("homer",)])
    forms = ("sreach(X, Y)?", "nreach(X, N)?")
    for __ in range(2):
        for text in forms:
            kb.ask(text)
        kb.facts("par", [("lisa", "zia")])
    for text in forms:
        kb.ask(text)
    kb.facts("par", [("zia", "zoe")])
    real = ViewSet.insert

    def broken(self, rows):
        raise RuntimeError("fault")

    monkeypatch.setattr(ViewSet, "insert", broken)
    with pytest.raises(RuntimeError):
        kb.ask(forms[0])
    assert kb._views is None and not kb._pending
    monkeypatch.setattr(ViewSet, "insert", real)
    for text in forms:
        assert kb.ask(text).to_python() == fresh_answers(kb, text)
    assert {"sreach", "nreach"} <= set(kb._views.predicates())


ROOTED = "rooted(X, Y) <- anc(X, Y), root(X)."


def live_views():
    """Every ViewSet alive in the process."""
    gc.collect()
    return [held for held in gc.get_objects() if isinstance(held, ViewSet)]


@pytest.mark.parametrize("first", ["anc", "rooted"])
def test_forms_over_different_footprints_share_one_store(runs, first):
    """``anc(X, Y)?`` reads par; ``rooted(X, Y)?`` reads par and root, so
    their footprints differ, yet one store holds one ``anc`` for both, in
    either order: built once per growth, the size of rooted's cone."""
    kb = make_kb()
    kb.rules(ROOTED)
    kb.facts("root", [("abe",), ("homer",)])
    forms = ["anc(X, Y)?", "rooted(X, Y)?"]
    if first == "rooted":
        forms.reverse()
    writes = (
        lambda: kb.facts("par", [("bart", "maggie")]),
        lambda: kb.facts("par", [("lisa", "zia"), ("zed", "abe")]),
        lambda: kb.retract("par", [("homer", "bart")]),
        lambda: kb.facts("root", [("zed",)]),
        lambda: kb.retract("root", [("abe",)]),
    )
    for write in (None,) + writes:
        if write is not None:
            write()
        for text in forms:
            answers, planned = kb.ask(text).to_python(), runs["run"]
            assert answers == fresh_answers(kb, text)
            runs["run"] = planned  # not the fresh knowledge base's plan
    assert runs["materialize"] == (2 if first == "anc" else 1)
    views = live_views()
    assert len(views) == 1 and views[0] is kb._views  # one anc store
    cone = ViewSet(kb.db, kb.program, builtins=kb.builtins)
    cone.materialize()
    assert kb._views.size() == cone.size() == len(cone.ids("anc")) + len(cone.ids("rooted"))


def test_mid_transaction_ask_over_a_touched_footprint_sees_its_own_writes(runs):
    kb = promoted_kb()
    views = kb._views
    runs["run"] = 0
    with kb.transaction():
        kb.facts("par", [("maggie", "lingo")])
        inside = kb.ask("anc(X, Y)?")
        assert ("abe", "lingo") in set(inside.to_python())
        assert runs["run"] == 1  # the plan, not the stale store
        assert kb._views is views and not kb._pending  # neither built nor owed inside
    assert kb.ask("anc(X, Y)?") == inside
    assert runs["run"] == 1 and kb._views is views  # caught up at the ask


def test_abort_leaves_the_pending_delta_untouched():
    kb = promoted_kb()
    kb.facts("par", [("maggie", "lingo")])
    views, owed = kb._views, kb._pending
    pending = ({k: set(v) for k, v in owed.inserted.items()},
               {k: set(v) for k, v in owed.removed.items()})
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.retract("par", [("maggie", "lingo"), ("abe", "homer")])
            kb.facts("par", [("lingo", "zia")])
            raise RuntimeError
    assert kb._views is views and kb._pending is owed
    assert (owed.inserted, owed.removed) == pending
    assert kb.ask("anc(X, Y)?").to_python() == fresh_answers(kb, "anc(X, Y)?")


def test_commit_hands_over_the_net_delta():
    kb = promoted_kb()
    views = kb._views
    with kb.transaction():
        kb.facts("par", [("maggie", "lingo"), ("lingo", "zia")])
        kb.retract("par", [("lingo", "zia"), ("abe", "homer")])
        kb.facts("par", [("abe", "homer")])
    ids = INTERNER.lookup_row
    assert kb._views is views
    assert kb._pending.inserted == {"par": {ids((Constant("maggie"), Constant("lingo")))}}
    assert not any(kb._pending.removed.values())
    assert kb.ask("anc(X, Y)?").to_python() == fresh_answers(kb, "anc(X, Y)?")


def test_new_rules_drop_the_entry():
    kb = promoted_kb()
    kb.rules("anc(X, Y) <- par(Y, X).")
    assert kb._views is None and not kb._result_cache
    assert kb.ask("anc(X, Y)?").to_python() == fresh_answers(kb, "anc(X, Y)?")


def test_a_catch_up_that_fails_leaves_the_extension_to_be_rebuilt(monkeypatch, runs):
    kb = promoted_kb()
    kb.facts("par", [("maggie", "lingo")])

    def broken(self, base_rows):
        raise OSError("disk gone")

    with monkeypatch.context() as patch:
        patch.setattr(ViewSet, "insert", broken)
        with pytest.raises(OSError):
            kb.ask("anc(X, Y)?")
    assert kb._views is None
    assert kb.ask("anc(X, Y)?").to_python() == fresh_answers(kb, "anc(X, Y)?")
    assert runs["materialize"] == 2


_PAST_THE_KB = {
    "db.load": lambda kb: kb.db.load("par", [("bart", "ling")]),
    "db.retract": lambda kb: kb.db.retract("par", [("homer", "bart")]),
    "load_tsv": lambda kb: load_tsv(kb.db, "par", ["lisa\tzia"]),
    "load_facts_text": lambda kb: load_facts_text(kb.db, "par(zed, abe)."),
}


@pytest.mark.parametrize("write", sorted(_PAST_THE_KB))
@pytest.mark.parametrize("promoted", [False, True, "pinned"])
def test_a_write_past_the_knowledge_base_is_seen(write, promoted):
    """The database's own writes never reach the pending delta; the
    store's fence catches them, before or after promotion or once pinned,
    alone or followed by a write through the knowledge base.  Pinned, a
    bound form and ``view_rows`` read the store too."""
    for then in (lambda kb: None, lambda kb: kb.facts("par", [("maggie", "lingo")])):
        kb = promoted_kb() if promoted is True else make_kb()
        if promoted == "pinned":
            kb.materialize()
        before = kb.ask("anc(X, Y)?").to_python()
        _PAST_THE_KB[write](kb)
        then(kb)
        after = kb.ask("anc(X, Y)?").to_python()
        assert after != before and after == fresh_answers(kb, "anc(X, Y)?")
        assert kb.ask("anc(X, Y)?").to_python() == after
        if promoted == "pinned":
            for x in ("abe", "homer", "zed"):
                got = kb.ask("anc($X, Y)?", X=x).to_python()
                assert got == fresh_answers(kb, "anc($X, Y)?", X=x)
            assert sorted(kb.view_rows("anc")) == after


def test_a_write_past_the_knowledge_base_inside_a_transaction(runs):
    kb = promoted_kb()
    runs["run"] = 0
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.db.load("par", [("maggie", "lingo")])
            assert ("abe", "lingo") in set(kb.ask("anc(X, Y)?").to_python())
            assert runs["run"] == 1  # not built or caught up inside
            raise RuntimeError
    assert kb.ask("anc(X, Y)?").to_python() == fresh_answers(kb, "anc(X, Y)?")
    with kb.transaction():
        kb.db.load("par", [("maggie", "lingo")])
        kb.facts("par", [("lingo", "zia")])
    assert kb.ask("anc(X, Y)?").to_python() == fresh_answers(kb, "anc(X, Y)?")
