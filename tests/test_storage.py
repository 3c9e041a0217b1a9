"""Storage substrate tests: relations, bucket probes, catalog, statistics, loaders."""

import pytest
from hypothesis import given, strategies as st

from repro.datalog.intern import INTERNER
from repro.datalog.parser import parse_literal
from repro.datalog.terms import Constant, Struct
from repro.testing.reference import BindingsTable, lowered_join, scan_join
from repro.errors import SchemaError
from repro.storage import (
    Database,
    Relation,
    collect_statistics,
    dump_facts_text,
    load_facts_text,
    load_tsv,
    relation_from_rows,
)
from repro.storage.statistics import DeclaredStatistics, RelationStats


# -- relations ------------------------------------------------------------------


def test_insert_and_dedupe():
    r = Relation("p", 2)
    assert r.insert_values(("a", 1))
    assert not r.insert_values(("a", 1))
    assert len(r) == 1


def test_arity_and_groundness_enforced():
    r = Relation("p", 2)
    with pytest.raises(SchemaError):
        r.insert_values(("a",))
    from repro.datalog.terms import Variable

    with pytest.raises(SchemaError):
        r.insert((Constant("a"), Variable("X")))


def test_complex_terms_stored():
    r = Relation("owns", 2)
    r.insert((Constant("joe"), Struct("bike", (Constant("red"),))))
    assert (Constant("joe"), Struct("bike", (Constant("red"),))) in r


def test_zero_arity_relation():
    r = Relation("flag", 0)
    assert r.insert(())
    assert len(r) == 1


def test_negative_arity_rejected():
    with pytest.raises(SchemaError):
        Relation("p", -1)


def probe(relation, goal, method="index"):
    """The rows of *relation* a lowered join of *goal* running *method*
    (from the unit table) finds — the reference join's rows over the
    decoded relation: an ``index`` join probes the relation's id store."""
    literal = parse_literal(goal)
    out = lowered_join(BindingsTable.unit(), literal, relation, method)
    assert out == scan_join(BindingsTable.unit(), literal, set(relation))
    return {tuple(subst.get(arg, arg) for arg in literal.args) for subst in out.substitutions()}


def test_index_lookup():
    r = relation_from_rows("e", [("a", "b"), ("a", "c"), ("b", "c")])
    rows = probe(r, "e(a, Y)")
    assert rows == {(Constant("a"), Constant("b")), (Constant("a"), Constant("c"))}
    assert len(r.batch_store(INTERNER).buckets_for((0,))) == 2  # the map it probed


def test_index_maintained_on_insert():
    r = Relation("e", 2)
    assert probe(r, "e(X, b)") == set()  # builds the bucket map on column 1
    r.insert_values(("a", "b"))
    assert probe(r, "e(X, b)") == {(Constant("a"), Constant("b"))}


def test_lookup_without_index_scans():
    r = relation_from_rows("e", [("a", "b"), ("b", "c")])
    assert probe(r, "e(X, c)", "nested_loop") == {(Constant("b"), Constant("c"))}
    assert r.batch_store(INTERNER)._buckets == {}  # a scan builds no bucket map


def test_relation_copy_independent():
    r = relation_from_rows("e", [("a", "b")])
    c = r.copy()
    c.insert_values(("x", "y"))
    assert len(r) == 1 and len(c) == 2


def chain(n):
    return [(f"n{i}", f"n{i + 1}") for i in range(n)]


def test_insert_newness_and_dedup():
    relation = relation_from_rows("r", chain(5))
    assert not relation.insert((Constant("n0"), Constant("n1")))  # present from the load
    fresh = (Constant("x"), Constant("y"))
    assert relation.insert(fresh)
    assert not relation.insert(fresh)
    assert len(relation) == 6


def test_retract_and_clear():
    relation = relation_from_rows("r", chain(5))
    assert relation.remove_values(("n0", "n1"))
    assert not relation.remove_values(("n0", "n1"))
    assert len(relation) == 4
    relation.clear()
    assert len(relation) == 0
    assert list(relation) == []


def test_iteration_contains_and_lookup():
    relation = relation_from_rows("r", chain(5))
    rows = set(relation)
    assert len(rows) == 5
    row = (Constant("n2"), Constant("n3"))
    assert row in rows and row in relation
    assert probe(relation, "r(n2, Y)") == {row}
    assert probe(relation, "r(n2, Y)", "nested_loop") == {row}


def test_version_bumps_on_every_mutation():
    relation = relation_from_rows("r", chain(5))
    versions = [relation.version]
    relation.insert((Constant("x"), Constant("y")))
    versions.append(relation.version)
    relation.remove_values(("x", "y"))
    versions.append(relation.version)
    relation.clear()
    versions.append(relation.version)
    assert versions == sorted(set(versions))


# -- catalog ----------------------------------------------------------------------


def test_database_create_and_load():
    db = Database()
    db.load("e", [("a", "b"), ("b", "c")])
    assert "e" in db
    assert len(db.relation("e")) == 2
    with pytest.raises(SchemaError):
        db.relation("missing")


def test_database_duplicate_name_rejected():
    db = Database()
    db.create("e", 2)
    with pytest.raises(SchemaError):
        db.create("e", 2)


def test_stats_cached_and_invalidated():
    db = Database()
    db.load("e", [("a", "b")])
    stats1 = db.stats_for("e")
    assert stats1.cardinality == 1
    db.load("e", [("b", "c")])
    stats2 = db.stats_for("e")
    assert stats2.cardinality == 2


def test_stats_follow_writes_that_bypass_the_database():
    """A write straight to a relation the database holds never reaches
    the database's write log; the relation's version fences the
    statistics instead."""
    db = Database()
    db.add("e", [("a", "b"), ("b", "c")])
    relation = db.relation("e")
    assert db.stats_for("e").acyclic is True
    relation.insert(("c", "a"))
    assert db.stats_for("e").acyclic is False
    for write in (lambda: relation.remove(("c", "a")), lambda: relation.load([("c", "d")]), relation.clear):
        write()
        assert db.stats_for("e") == collect_statistics(relation)
    assert db.stats_for("e").cardinality == 0.0


def test_invalidate_stats_drops_the_maintained_state():
    db = Database()
    db.load("e", [("a", "b")])
    first = db.stats_for("e")
    db.invalidate_stats("e")
    again = db.stats_for("e")
    assert again == first and again is not first


def test_declared_stats_override():
    db = Database()
    db.load("e", [("a", "b")])
    db.declare_stats("e", RelationStats.declared(1000, [100, 10]))
    assert db.stats_for("e").cardinality == 1000


# -- statistics --------------------------------------------------------------------


def test_collect_statistics_distincts_and_minmax():
    r = relation_from_rows("m", [("a", 1), ("b", 2), ("a", 3)])
    stats = collect_statistics(r)
    assert stats.cardinality == 3
    assert stats.columns[0].distinct == 2
    assert stats.columns[1].minimum == 1 and stats.columns[1].maximum == 3


def test_acyclicity_detection():
    acyclic = relation_from_rows("d", [("a", "b"), ("b", "c")])
    cyclic = relation_from_rows("c", [("a", "b"), ("b", "a")])
    assert collect_statistics(acyclic).acyclic is True
    assert collect_statistics(cyclic).acyclic is False
    ternary = relation_from_rows("t", [("a", "b", "c")])
    assert collect_statistics(ternary).acyclic is None


@given(
    core=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=16),
    loose=st.integers(0, 40),
)
def test_acyclicity_matches_a_search_for_a_cycle(core, loose):
    """Whatever edges the pre-pass drops before Kahn's test (here the
    *loose* edges between fresh nodes), the verdict is a plain search's:
    some node reaches itself."""
    edges = set(core)
    successors: dict[int, set[int]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)

    def reaches_itself(node):
        seen, stack = set(), list(successors.get(node, ()))
        while stack:
            current = stack.pop()
            if current == node:
                return True
            if current not in seen:
                seen.add(current)
                stack.extend(successors.get(current, ()))
        return False

    expected = not any(reaches_itself(node) for node in successors)
    rows = [(f"n{a}", f"n{b}") for a, b in edges] + [(f"s{i}", f"t{i}") for i in range(loose)]
    db = Database()
    db.create("e", 2)
    db.load("e", rows)
    assert collect_statistics(db.relation("e")).acyclic is expected


def test_fanout_and_distinct():
    stats = RelationStats.declared(100, [10, 50])
    assert stats.fanout(0) == 10.0
    assert stats.distinct(1) == 50.0


def test_declared_statistics_provider():
    provider = DeclaredStatistics()
    provider.declare("e", 100, [10, 10], acyclic=True)
    assert provider.stats_for("e").acyclic is True
    assert provider.stats_for("missing") is None
    assert "e" in provider


# -- loaders -----------------------------------------------------------------------


def test_load_facts_text_roundtrip():
    db = Database()
    n = load_facts_text(db, "up(a, b). up(b, c). flat(c, c).")
    assert n == 3
    dumped = dump_facts_text(db)
    db2 = Database()
    assert load_facts_text(db2, dumped) == 3
    assert db2.relation("up").rows == db.relation("up").rows


def test_load_facts_text_rejects_rules_and_vars():
    from repro.errors import KnowledgeBaseError

    db = Database()
    with pytest.raises(KnowledgeBaseError):
        load_facts_text(db, "p(X) <- q(X).")
    with pytest.raises(KnowledgeBaseError):
        load_facts_text(db, "p(X).")


def test_load_facts_with_complex_terms():
    db = Database()
    load_facts_text(db, "owns(joe, bike(front_wheel)).")
    row = next(iter(db.relation("owns")))
    assert row[1] == Struct("bike", (Constant("front_wheel"),))


def test_load_tsv_types():
    db = Database()
    n = load_tsv(db, "m", ["a\t1", "b\t2.5", "# comment", "", "c\ttext"])
    assert n == 3
    values = {tuple(f.value for f in row) for row in db.relation("m")}
    assert values == {("a", 1), ("b", 2.5), ("c", "text")}


@given(st.sets(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30))
def test_relation_set_semantics(rows):
    r = Relation("p", 2)
    for row in rows:
        r.insert_values(row)
    for row in rows:  # duplicates change nothing
        r.insert_values(row)
    assert len(r) == len(rows)
