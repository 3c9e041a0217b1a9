"""Incremental view maintenance: insertions and DRed deletions.

The maintained invariant throughout: after any sequence of insertions
and retractions, the stored extension equals a from-scratch recomputation.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import KnowledgeBase, KnowledgeBaseError
from repro.datalog.intern import INTERNER
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine import Profiler, evaluate_program
from repro.engine.maintenance import ViewSet
from repro.storage.catalog import Database

TC = "t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y)."


def recompute(kb: KnowledgeBase, predicate: str):
    result = evaluate_program(kb.db, kb.program)
    return {
        tuple(f.value for f in row) for row in result.rows(predicate)
    }


def tc_kb(edges):
    kb = KnowledgeBase()
    kb.rules(TC)
    kb.facts("e", edges)
    return kb


def test_single_row_update_costs_3x_less_tuple_work_than_recompute():
    """Delta propagation does work proportional to the delta: the median
    single-edge insert or retract against a materialized closure must
    examine + produce at least 3x fewer tuples than recomputing it (in
    practice tens of x; a regression to recompute-per-write reads ~1)."""
    n = 60
    kb = tc_kb([(f"n{i}", f"n{i + 1}") for i in range(n)])
    views = kb.materialize()
    # branch edges off the chain's middle: the delta stays small but
    # genuinely propagates through the recursion
    updates = [(f"n{n // 2}", f"b{i}") for i in range(4)]
    works = []
    for change in (kb.facts, kb.retract):
        for edge in updates:
            before = views.profiler.total_work
            change("e", [edge])
            works.append(views.profiler.total_work - before)
    assert kb.view_rows("t") == recompute(kb, "t")
    full = Profiler()
    evaluate_program(kb.db, kb.program, profiler=full)
    assert full.total_work >= 3 * sorted(works)[len(works) // 2] > 0


def test_materialize_matches_recompute():
    kb = tc_kb([("a", "b"), ("b", "c")])
    kb.materialize()
    assert kb.view_rows("t") == recompute(kb, "t")


def test_insert_extends_closure():
    kb = tc_kb([("a", "b")])
    kb.materialize()
    kb.facts("e", [("b", "c")])
    assert kb.view_rows("t") == {("a", "b"), ("b", "c"), ("a", "c")}
    assert kb.view_rows("t") == recompute(kb, "t")


def test_insert_bridging_edge():
    """A new edge connecting two existing chains derives the product."""
    kb = tc_kb([("a", "b"), ("c", "d")])
    kb.materialize()
    kb.facts("e", [("b", "c")])
    assert ("a", "d") in kb.view_rows("t")
    assert kb.view_rows("t") == recompute(kb, "t")


def test_duplicate_insert_is_noop():
    kb = tc_kb([("a", "b")])
    kb.materialize()
    before = kb.view_rows("t")
    kb.facts("e", [("a", "b")])
    assert kb.view_rows("t") == before


def test_delete_simple():
    kb = tc_kb([("a", "b"), ("b", "c")])
    kb.materialize()
    kb.retract("e", [("b", "c")])
    assert kb.view_rows("t") == {("a", "b")}
    assert kb.view_rows("t") == recompute(kb, "t")


def test_delete_with_rederivation():
    """DRed's re-derive phase: an alternative path keeps the tuple."""
    kb = tc_kb([("a", "b"), ("b", "c"), ("a", "c")])
    kb.materialize()
    kb.retract("e", [("b", "c")])
    # (a, c) is over-deleted (it had a derivation through (b,c)) but must
    # be re-derived from the direct edge.
    assert ("a", "c") in kb.view_rows("t")
    assert kb.view_rows("t") == recompute(kb, "t")


def test_delete_in_cycle():
    kb = tc_kb([("a", "b"), ("b", "a")])
    kb.materialize()
    kb.retract("e", [("b", "a")])
    assert kb.view_rows("t") == {("a", "b")}
    assert kb.view_rows("t") == recompute(kb, "t")


def test_multi_view_layering():
    kb = KnowledgeBase()
    kb.rules(
        """
        t(X, Y) <- e(X, Y).
        t(X, Y) <- e(X, Z), t(Z, Y).
        twohop(X, Y) <- t(X, Z), t(Z, Y).
        """
    )
    kb.facts("e", [("a", "b"), ("b", "c")])
    kb.materialize()
    kb.facts("e", [("c", "d")])
    assert kb.view_rows("twohop") == recompute(kb, "twohop")
    kb.retract("e", [("b", "c")])
    assert kb.view_rows("twohop") == recompute(kb, "twohop")
    assert kb.view_rows("t") == recompute(kb, "t")


def test_views_maintain_negation_at_both_polarities():
    kb = KnowledgeBase()
    kb.rules("p(X) <- q(X), ~r(X).")
    kb.facts("q", [("a",), ("b",)])
    kb.facts("r", [("b",)])
    views = kb.materialize()
    assert kb.view_rows("p") == {("a",)} and views.maintenance_mode("p") == "counting"
    for write in (
        lambda: kb.facts("r", [("a",)]),     # an insert under ~r loses p(a)
        lambda: kb.retract("r", [("b",)]),   # a delete under ~r gains p(b)
        lambda: kb.facts("q", [("c",)]),
        lambda: kb.retract("r", [("a",)]),
    ):
        write()
        assert kb.view_rows("p") == recompute(kb, "p")
    assert kb.view_rows("p") == {("a",), ("b",), ("c",)}
    assert views.support("p", ("a",)) == 1


AGGREGATES = """
    n(X, count(Y)) <- w(X, Y).
    s(X, sum(Y)) <- w(X, Y).
    lo(X, min_of(Y)) <- w(X, Y).
    hi(X, max_of(Y)) <- w(X, Y).
    m(X, avg(Y)) <- w(X, Y).
"""


def test_views_maintain_every_aggregate_through_a_group_emptied_and_recreated():
    kb = KnowledgeBase()
    kb.rules(AGGREGATES)
    kb.facts("w", [("g", 1), ("g", 4), ("h", 2)])
    kb.materialize()

    def same():
        for name in ("n", "s", "lo", "hi", "m"):
            assert kb.view_rows(name) == recompute(kb, name), name

    same()
    assert kb.view_rows("m") == {("g", 2.5), ("h", 2)}
    kb.facts("w", [("g", 7), ("h", 0)])                 # insert
    same()
    assert kb.view_rows("hi") == {("g", 7), ("h", 2)} and ("h", 0) in kb.view_rows("lo")
    kb.retract("w", [("g", 1), ("g", 7)])               # delete both extremes
    same()
    assert kb.view_rows("lo") == {("g", 4), ("h", 0)}
    kb.retract("w", [("h", 0), ("h", 2)])               # group h emptied
    same()
    assert all(row[0] == "g" for name in ("n", "s", "lo", "hi", "m") for row in kb.view_rows(name))
    kb.facts("w", [("h", 9)])                           # and re-created
    same()
    assert ("h", 1) in kb.view_rows("n") and ("h", 9) in kb.view_rows("s")
    with kb.transaction():                              # a committed mixed transaction
        kb.retract("w", [("g", 4)])
        kb.facts("w", [("g", 3), ("k", 5)])
        kb.retract("w", [("h", 9)])
        kb.facts("w", [("h", 1)])
    same()
    assert kb.view_rows("n") == {("g", 1), ("h", 1), ("k", 1)}


FLOATS = [0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 2.5]


@pytest.mark.parametrize("shift", range(4))
def test_float_sums_are_one_row_per_group_and_equal_a_recompute(shift):
    """A float total does not depend on the order its values are added
    in: the maintained group and a recomputed one are the same row (the
    exact sum, rounded once), so a write never leaves a second row."""
    values = FLOATS[shift:] + FLOATS[:shift]
    kb = KnowledgeBase()
    kb.rules("s(X, sum(Y)) <- w(X, Y). m(X, avg(Y)) <- w(X, Y).")
    held = set(values[:4])
    kb.facts("w", [("g", v) for v in values[:4]])
    kb.materialize()
    for write, rows in (
        (kb.facts, values[4:]), (kb.retract, values[:2]),
        (kb.facts, values[:2]), (kb.retract, values[2:]),
    ):
        write("w", [("g", v) for v in rows])
        held = held | set(rows) if write == kb.facts else held - set(rows)
        for name in ("s", "m"):
            assert kb.view_rows(name) == recompute(kb, name), name
        assert kb.view_rows("s") == {("g", math.fsum(held))}


def test_sum_keeps_an_int_total_an_int_and_a_float_total_a_float():
    kb = KnowledgeBase()
    kb.rules("s(X, sum(Y)) <- w(X, Y).")
    kb.facts("w", [("g", 1), ("g", 2)])
    kb.materialize()
    kb.facts("w", [("g", 0.5)])
    assert kb.view_rows("s") == {("g", 3.5)}
    kb.retract("w", [("g", 0.5)])
    [(__, total)] = kb.view_rows("s")
    assert total == 3 and isinstance(total, int) and kb.view_rows("s") == recompute(kb, "s")


def test_view_updates_return_the_rows_each_derived_predicate_changed_either_way():
    """Above a negation an insert removes rows: the returned rows are the
    ones gained and the ones lost (the benchmark ledger counts them)."""
    db = Database()
    db.add("q", [("a",), ("b",)])
    db.add("r", [("z",)])
    views = ViewSet(db, parse_program("p(X) <- q(X), ~r(X). n(count(X)) <- p(X)."))
    views.materialize()

    def terms(changed):
        return {name: INTERNER.decode_rows(rows) for name, rows in changed.items()}

    assert terms(views.insert({"r": db.add("r", [("a",)])})) == {
        "p": {(Constant("a"),)}, "n": {(Constant(1),), (Constant(2),)},
    }
    assert terms(views.delete({"q": db.remove("q", [("b",)])})) == {
        "p": {(Constant("b"),)}, "n": {(Constant(1),)},
    }
    assert views.rows("p") == frozenset() and views.rows("n") == frozenset()


def test_an_aggregate_is_maintained_over_a_negation_above_a_recursion():
    kb = KnowledgeBase()
    kb.rules("""
        sreach(X, Y) <- edge(X, Y), ~blocked(Y).
        sreach(X, Y) <- sreach(X, Z), edge(Z, Y), ~blocked(Y), X != Y.
        nreach(X, count(Y)) <- sreach(X, Y).
    """)
    kb.facts("edge", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    kb.facts("blocked", [("c",)])
    views = kb.materialize()
    assert views.maintenance_mode("sreach") == "dred"
    for write in (
        lambda: kb.retract("blocked", [("c",)]),
        lambda: kb.facts("blocked", [("b",)]),
        lambda: kb.retract("edge", [("d", "a")]),
        lambda: kb.facts("edge", [("d", "b"), ("a", "c")]),
    ):
        write()
        for name in ("sreach", "nreach"):
            assert kb.view_rows(name) == recompute(kb, name), name


def test_views_reject_an_aggregate_rule_of_a_recursive_predicate():
    kb = KnowledgeBase()
    kb.rules("p(X, count(Y)) <- q(X, Y). p(X, Y) <- p(X, Z), q(Z, Y).")
    kb.facts("q", [("a", 1)])
    with pytest.raises(KnowledgeBaseError):
        kb.materialize()


def test_view_rows_requires_materialize():
    kb = tc_kb([("a", "b")])
    with pytest.raises(KnowledgeBaseError):
        kb.view_rows("t")


def test_rules_change_drops_views():
    kb = tc_kb([("a", "b")])
    kb.materialize()
    kb.rules("extra(X) <- e(X, Y).")
    with pytest.raises(KnowledgeBaseError):
        kb.view_rows("t")


def test_delete_row_joined_with_itself():
    """Over-deletion must evaluate suspect derivations against the
    *pre-deletion* state: p(a,a) <- e(a,a), e(a,a) uses the deleted row at
    both body positions, which a post-deletion join can no longer see —
    the old code left p(a,a) stranded in the view forever."""
    kb = KnowledgeBase()
    kb.rules("p(X, Y) <- e(X, Z), e(Z, Y).")
    kb.facts("e", [("a", "a")])
    kb.materialize()
    assert kb.view_rows("p") == {("a", "a")}
    kb.retract("e", [("a", "a")])
    assert kb.view_rows("p") == set()
    assert kb.view_rows("p") == recompute(kb, "p")


def test_delete_pair_of_rows_in_one_call():
    """Both halves of a two-row derivation retracted in one call: neither
    delta row alone kills the derivation under post-deletion semantics."""
    kb = KnowledgeBase()
    kb.rules("p(X, Y) <- e(X, Z), e(Z, Y).")
    kb.facts("e", [("a", "b"), ("b", "c")])
    kb.materialize()
    assert kb.view_rows("p") == {("a", "c")}
    kb.retract("e", [("a", "b"), ("b", "c")])
    assert kb.view_rows("p") == set()
    assert kb.view_rows("p") == recompute(kb, "p")


def test_delete_survives_alternative_rule():
    """A tuple with a remaining derivation through a *different* rule of
    the same view must survive the deletion (ISSUE 9 satellite: the old
    per-rule rederivation could miss cross-rule support)."""
    kb = KnowledgeBase()
    kb.rules("s(X, Y) <- e(X, Z), e(Z, Y). s(X, Y) <- f(X, Y).")
    kb.facts("e", [("a", "a")])
    kb.facts("f", [("a", "a")])
    kb.materialize()
    assert kb.view_rows("s") == {("a", "a")}
    kb.retract("e", [("a", "a")])
    # support dropped 2 -> 1, not 1 -> 0: the f-rule derivation remains
    assert kb.view_rows("s") == {("a", "a")}
    assert kb.view_rows("s") == recompute(kb, "s")
    kb.retract("f", [("a", "a")])
    assert kb.view_rows("s") == set()


def test_derivation_counts_track_support():
    """Non-recursive strata expose exact per-tuple derivation counts;
    recursive predicates (maintained by DRed) report None."""
    kb = KnowledgeBase()
    kb.rules(TC + " q(X, Y) <- t(X, Y), f(Y, X). q(X, Y) <- f(X, Y).")
    kb.facts("e", [("a", "b")])
    kb.facts("f", [("b", "a")])
    kb.materialize()
    views = kb._views
    assert views.support("t", (None,)) is None  # recursive: DRed, no counts
    # q(a, b): one derivation through the t-join rule
    from repro.datalog.terms import Constant

    row_ab = (Constant("a"), Constant("b"))
    assert views.support("q", row_ab) == 1
    kb.facts("f", [("a", "b")])
    # second derivation arrives through the f-copy rule
    assert views.support("q", row_ab) == 2
    kb.retract("f", [("a", "b")])
    assert views.support("q", row_ab) == 1
    assert kb.view_rows("q") == recompute(kb, "q")


def test_counted_delete_is_not_rederivation():
    """Counting strata never run a rederivation join: deleting one of two
    supports just decrements, deleting the last removes the tuple."""
    kb = KnowledgeBase()
    kb.rules("j(X) <- a(X, Y). j(X) <- b(X, Y).")
    kb.facts("a", [("k", 1), ("k", 2)])
    kb.facts("b", [("k", 9)])
    kb.materialize()
    views = kb._views
    from repro.datalog.terms import Constant

    row = (Constant("k"),)
    assert views.support("j", row) == 3
    kb.retract("a", [("k", 1)])
    assert views.support("j", row) == 2
    assert kb.view_rows("j") == {("k",)}
    kb.retract("a", [("k", 2)])
    kb.retract("b", [("k", 9)])
    assert views.support("j", row) == 0
    assert kb.view_rows("j") == set()


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),  # True = insert, False = delete
            st.sampled_from("abcde"),
            st.sampled_from("abcde"),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_random_update_sequences_stay_consistent(updates):
    """Property: after any insert/delete sequence, view == recompute."""
    kb = tc_kb([("a", "b")])
    kb.materialize()
    for insert, x, y in updates:
        if x == y:
            continue
        if insert:
            kb.facts("e", [(x, y)])
        else:
            kb.retract("e", [(x, y)])
        assert kb.view_rows("t") == recompute(kb, "t")


# ------------------------------------------- multi-call transactions


def test_two_retract_calls_in_one_transaction_match_recompute():
    """Commit hands DRed the whole transaction's deletions at once: a
    derivation that used rows from two different retract calls (here
    a->c: replayed call by call, b->c's over-deletion cannot walk back
    through a->b, which the database has already lost) must go too."""
    kb = KnowledgeBase()
    kb.rules("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).")
    kb.facts("par", [("a", "b"), ("b", "c"), ("c", "d")])
    kb.materialize()
    with kb.transaction():
        kb.retract("par", [("b", "c")])
        kb.retract("par", [("a", "b")])
    assert kb.view_rows("anc") == recompute(kb, "anc") == {("c", "d")}


def test_retracts_on_two_predicates_in_one_transaction_match_recompute():
    kb = KnowledgeBase()
    kb.rules("t(X, Y) <- e(X, Y). t(X, Y) <- t(X, Z), f(Z, Y).")
    kb.facts("e", [("a", "b")])
    kb.facts("f", [("b", "c"), ("c", "d")])
    kb.materialize()
    with kb.transaction():
        kb.retract("e", [("a", "b")])
        kb.retract("f", [("b", "c")])
    assert kb.view_rows("t") == recompute(kb, "t") == set()


def test_retract_and_insert_in_one_transaction_keep_counts_exact():
    """A retracted row and an inserted row that would join never
    coexisted, so their pairing must not be subtracted from a support
    count it was never part of."""
    kb = KnowledgeBase()
    kb.rules("v(X) <- a(X), b(X). v(X) <- c(X).")
    kb.facts("a", [(1,)])
    kb.facts("b", [(2,)])
    kb.facts("c", [(1,)])
    kb.materialize()
    with kb.transaction():
        kb.retract("a", [(1,)])
        kb.facts("b", [(1,)])
    assert kb.view_rows("v") == recompute(kb, "v") == {(1,)}


def test_insert_then_retract_of_the_same_row_cancels_in_a_transaction():
    kb = tc_kb([("a", "b")])
    kb.materialize()
    with kb.transaction():
        kb.facts("e", [("b", "c")])
        kb.retract("e", [("b", "c")])
        kb.retract("e", [("a", "b")])
        kb.facts("e", [("a", "b")])
    assert kb.view_rows("t") == recompute(kb, "t") == {("a", "b")}


# ------------------------------------------- a rule that does not lower


def test_struct_argument_view_is_maintained_on_the_reference_branch():
    """Named for the reference branch such a rule once took: ``p(f(X,
    a), Y)`` lowers to a match of ``f(X, a)`` per stored id — under a
    delta too; a ``support`` of 2 shows the two derivations, one row
    each.  The facts arrive
    through ``facts_text`` (complex terms), which maintains views like
    any other write."""
    kb = KnowledgeBase()
    kb.rules("q(X) <- p(f(X, a), Y).")
    kb.facts_text("p(f(k, a), 1). p(f(k, a), 2). p(f(m, b), 1). p(g(n), 1).")
    views = kb.materialize()
    from repro.datalog.terms import Constant

    assert kb.view_rows("q") == recompute(kb, "q") == {("k",)}
    assert views.support("q", (Constant("k"),)) == 2
    assert kb.facts_text("p(f(n, a), 3). p(f(k, a), 2).") == 1
    assert kb.view_rows("q") == recompute(kb, "q") == {("k",), ("n",)}
    from repro.datalog.parser import parse_query

    gone = [parse_query("p(f(k, a), 1)?").goal.args]
    assert kb.retract("p", gone) == 1
    assert views.support("q", (Constant("k"),)) == 1
    assert kb.retract("p", [parse_query("p(f(k, a), 2)?").goal.args]) == 1
    assert kb.view_rows("q") == recompute(kb, "q") == {("n",)}
    assert sorted(kb.ask("q(X)?").to_python()) == [("n",)]


# ------------------------------------------------- the witness pass


def diamond_dag(layers=6, width=3):
    """Each node of a layer points at two of the next: diamonds everywhere."""
    return [
        (f"n{layer}_{i}", f"n{layer + 1}_{(i + step) % width}")
        for layer in range(layers - 1) for i in range(width) for step in (0, 1)
    ]


def test_a_retract_discards_exactly_the_rows_it_loses(monkeypatch):
    """Over-deletion suspects every row with a derivation through the
    edge; most of them have another path.  Only the rows left without
    any derivation leave the view's store, and in one call."""
    from repro.storage.columnar import IdRelation

    edges = diamond_dag()
    kb = tc_kb(edges)
    views = kb.materialize()
    discarded = []
    real = IdRelation.discard

    def spy(self, gone):
        if self is views.ids("t"):
            discarded.append(set(gone))
        return real(self, gone)

    monkeypatch.setattr(IdRelation, "discard", spy)
    survivors = 0
    for edge in edges[::4]:
        before = kb.view_rows("t")
        reaching = {x for x, y in before if y == edge[0]} | {edge[0]}
        reached = {y for x, y in before if x == edge[1]} | {edge[1]}
        suspects = {(x, y) for x, y in before if x in reaching and y in reached}
        discarded.clear()
        kb.retract("e", [edge])
        after = kb.view_rows("t")
        assert after == recompute(kb, "t")
        lost = before - after
        assert discarded == ([{INTERNER.lookup_row(row) for row in lost}] if lost else [])
        survivors += len(suspects - lost)
    assert survivors > 0  # the retracts did leave suspects with another path


def test_a_retract_fires_each_rule_once_to_rederive(monkeypatch):
    """Left-linear closure of a depth-10 chain with a bypass edge: every
    row from the root past the bypass is a suspect whose proof needs the
    one before it, which re-deriving to fixpoint took a pass per link
    for.  The witness pass fires each rule once, keyed on the suspects."""
    from repro.engine.fixpoint import FixpointEngine

    kb = KnowledgeBase()
    kb.rules("t(X, Y) <- e(X, Y). t(X, Y) <- t(X, Z), e(Z, Y).")
    kb.facts("e", [(f"n{i}", f"n{i + 1}") for i in range(10)] + [("n0", "n2")])
    kb.materialize()
    keyed = []
    real = FixpointEngine.fire

    def spy(self, entry, *args, **kwargs):
        if kwargs.get("batch") is not None:
            keyed.append(entry.rule.head.predicate)
        return real(self, entry, *args, **kwargs)

    monkeypatch.setattr(FixpointEngine, "fire", spy)
    kb.retract("e", [("n0", "n1")])
    assert keyed == ["t", "t"]
    assert kb.view_rows("t") == recompute(kb, "t")
    assert ("n0", "n10") in kb.view_rows("t") and ("n0", "n1") not in kb.view_rows("t")


def test_suspects_that_support_each_other_only_through_a_cycle_are_lost():
    kb = KnowledgeBase()
    kb.rules("t(X, Y) <- e(X, Y). t(X, Y) <- t(X, Z), t(Z, Y).")
    kb.facts("e", [("a", "b"), ("b", "a")])
    kb.materialize()
    assert kb.view_rows("t") == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}
    kb.retract("e", [("a", "b")])
    assert kb.view_rows("t") == recompute(kb, "t") == {("b", "a")}


def drive_against_recompute(rules, seed, steps=40, predicates=("e",), transactions=False):
    """Random inserts and retracts over a small DAG-ish graph (in pairs
    inside a transaction when asked); every derived view equals a
    from-scratch evaluation after each step."""
    import random

    rng = random.Random(seed)
    kb = KnowledgeBase()
    kb.rules(rules)
    nodes = [f"n{i}" for i in range(7)]
    pairs = [(a, b) for a in nodes for b in nodes if a < b]
    facts = {name: set(rng.sample(pairs, 9)) for name in predicates}
    for name, rows in facts.items():
        kb.facts(name, sorted(rows))
    views = kb.materialize()

    def change():
        name = rng.choice(predicates)
        row = rng.choice(pairs)
        if row in facts[name]:
            facts[name].discard(row)
            kb.retract(name, [row])
        else:
            facts[name].add(row)
            kb.facts(name, [row])

    for __ in range(steps):
        if transactions:
            with kb.transaction():
                change()
                change()
        else:
            change()
        fresh = evaluate_program(kb.db, kb.program)
        for name in views.predicates():
            assert views.rows(name) == fresh.rows(name), name
    return views


@pytest.mark.parametrize("seed", range(3))
def test_a_struct_head_witness_fires_unkeyed_and_equals_a_recompute(seed):
    """Named for the whole, unkeyed firing such a witness once took:
    ``r(X, s(Y))``'s keys now lay out with a match of ``s(Y)`` per key,
    so the witness form is entered with the suspects and lowered."""
    views = drive_against_recompute(
        "r(X, s(Y)) <- e(X, Y). r(X, s(Y)) <- e(X, Z), r(Z, s(Y)).", seed
    )
    forms = next(iter(views._witnesses.values()))
    assert all(
        [pattern for __, pattern in layout.patterns] == [Struct("s", (Variable("Y"),))]
        and entry.plan.steps
        for (layout, entry), __ in forms
    )


@pytest.mark.parametrize("seed", range(3))
def test_a_rule_that_does_not_lower_rederives_on_the_reference_branch(seed):
    """Named for the reference branch such a rule once took: ``f(Z, W,
    W)`` repeats a free variable, and the rule and its witness form
    (keyed on ``t``'s head) now lower to an id equality of two gathered
    columns."""
    views = drive_against_recompute(
        "t(X, Y) <- e(X, Y). t(X, Y) <- t(X, Z), f(Z, W, W), e(W, Y). f(X, Y, Y) <- g(X, Y).",
        seed, predicates=("e", "g"),
    )
    entries = [entry for forms in views._witnesses.values() for (__, entry), __ in forms]
    assert any(step.equal for entry in entries for step in entry.plan.steps)


@pytest.mark.parametrize("seed", range(3))
def test_negation_inside_the_recursion_equals_a_recompute(seed):
    """An insert into ``blocked`` is a loss for ``reach``: it seeds the
    over-deletion, and the witnesses check ``~blocked`` in the new state."""
    drive_against_recompute(
        "reach(X, Y) <- e(X, Y), ~blocked(Y). "
        "reach(X, Y) <- reach(X, Z), e(Z, Y), ~blocked(Y). blocked(Y) <- b(X, Y).",
        seed, predicates=("e", "b"),
    )


@pytest.mark.parametrize("seed", range(3))
def test_transactions_that_retract_and_insert_equal_a_recompute(seed):
    drive_against_recompute(TC, seed, transactions=True)
