"""Transactional updates: atomicity at the Database and KnowledgeBase layer.

The fault-tolerance contract (docs/robustness.md) for mutations is
all-or-nothing: any group of ``insert``/``retract``/rule changes inside
``with db.transaction():`` / ``with kb.transaction():`` either commits as
one unit — version vector bumped, result-cache/batch-store invalidation
fired exactly once — or, on any exception, leaves the database
byte-identical to before ``begin``: rows, versions, schema, statistics,
compiled rules, and the cross-query result cache.
"""

import pytest

from repro.errors import TransactionError
from repro.kb import KnowledgeBase
from repro.storage import Database
from repro.datalog.intern import INTERNER
from repro.storage.relation import Relation, relation_from_rows


class Boom(RuntimeError):
    """A foreign, non-Repro error: rollback must not depend on the type."""


def db_state(db):
    """Everything the byte-identical guarantee covers, comparable."""
    return {
        "names": db.names,
        "rows": {r.name: frozenset(r) for r in db},
        "versions": db.version_vector(),
    }


# ----------------------------------------------------------- Database layer


def test_commit_applies_the_whole_group():
    db = Database()
    db.create("e", 2)
    db.load("e", [("a", "b")])
    with db.transaction():
        db.load("e", [("b", "c"), ("c", "d")])
        db.retract("e", [("a", "b")])
    rows = {tuple(str(t) for t in row) for row in db.relation("e")}
    assert rows == {("b", "c"), ("c", "d")}


def test_rollback_restores_rows_versions_and_schema():
    db = Database()
    db.create("e", 2)
    db.load("e", [("a", "b"), ("b", "c")])
    before = db_state(db)
    with pytest.raises(Boom):
        with db.transaction():
            db.load("e", [("c", "d")])
            db.retract("e", [("a", "b")])
            db.create("fresh", 1)
            db.load("fresh", [("x",)])
            db.drop("e")
            raise Boom()
    assert db_state(db) == before
    assert "fresh" not in db


def test_rollback_restores_a_dropped_then_recreated_name():
    db = Database()
    db.create("e", 2)
    db.load("e", [("a", "b")])
    before = db_state(db)
    with pytest.raises(Boom):
        with db.transaction():
            db.drop("e")
            db.create("e", 1)
            db.load("e", [("solo",)])
            raise Boom()
    assert db_state(db) == before


def test_nested_and_orphan_transaction_calls_are_typed_errors():
    db = Database()
    with pytest.raises(TransactionError):
        db.commit_transaction()
    with pytest.raises(TransactionError):
        db.rollback_transaction()
    db.begin_transaction()
    with pytest.raises(TransactionError):
        db.begin_transaction()
    db.rollback_transaction()
    assert not db.in_transaction


def test_rollback_unregisters_a_relation_added_inside_the_transaction():
    """``add_relation`` is ``create``'s registration: a relation either
    one brought in is gone after a rollback, and so is its entry in the
    version vector the result cache keys on."""
    db = Database()
    db.load("e", [("a", "b")])
    before = db_state(db)
    with pytest.raises(Boom):
        with db.transaction():
            db.add_relation(Relation("r", 1))
            db.add_relation(relation_from_rows("s", [("x",)]))
            raise Boom()
    assert db_state(db) == before
    assert "r" not in db and "s" not in db


def test_rollback_drops_caches_built_inside_the_transaction():
    db = Database()
    db.create("e", 2)
    db.load("e", [("a", "b")])
    before_version = db.relation("e").version
    with pytest.raises(Boom):
        with db.transaction():
            db.load("e", [("b", "c")])
            # build version-keyed caches against the uncommitted rows
            db.relation("e").batch_store(INTERNER)
            raise Boom()
    relation = db.relation("e")
    assert relation.version == before_version
    # the rebuilt mirror must describe the restored rows, not the
    # discarded ones (a stale cache would validate against the reused
    # version number)
    store = relation.batch_store(INTERNER)
    assert store.length == 1


# ------------------------------------------------------ KnowledgeBase layer

TC_RULES = "path(X, Y) <- e(X, Y). path(X, Y) <- e(X, Z), path(Z, Y)."


def fresh_kb():
    kb = KnowledgeBase()
    kb.rules(TC_RULES)
    kb.facts("e", [("a", "b"), ("b", "c"), ("c", "d")])
    return kb


def answers(kb, query="path(a, X)?"):
    return frozenset(
        tuple(str(t) for t in row) for row in kb.ask(query).rows
    )


def test_kb_commit_is_atomic_and_visible():
    kb = fresh_kb()
    assert ("d",) in answers(kb)
    with kb.transaction():
        kb.retract("e", [("c", "d")])
        kb.facts("e", [("c", "z")])
    got = answers(kb)
    assert ("z",) in got and ("d",) not in got


def test_kb_transaction_counts_commit_and_rollback_outcomes():
    kb = fresh_kb()
    with kb.transaction():
        kb.facts("e", [("d", "e")])
    with pytest.raises(Boom):
        with kb.transaction():
            kb.facts("e", [("d", "q")])
            raise Boom()
    assert kb.metrics.counter_total("transactions_total") == 2
    got = answers(kb)
    assert ("e",) in got and ("q",) not in got


def test_kb_rule_change_rolls_back_with_the_transaction():
    kb = fresh_kb()
    before = answers(kb)
    with pytest.raises(Boom):
        with kb.transaction():
            kb.rules("path(X, Y) <- e(Y, X).")
            raise Boom()
    assert len(kb._rules) == 2
    assert answers(kb) == before


def test_retract_under_failure_restores_every_derived_artifact():
    """Satellite: a transaction raising after a retract leaves derived
    relations, columnar BatchStores, and the kb.ask result cache exactly
    as before the transaction opened."""
    kb = fresh_kb()
    before = answers(kb)  # also primes the result cache
    cache_before = dict(kb._result_cache)
    version_before = kb.db.version_vector()
    with pytest.raises(Boom):
        with kb.transaction():
            kb.retract("e", [("a", "b")])
            kb.facts("e", [("a", "q")])
            # evaluate mid-txn so derived state is rebuilt against the
            # uncommitted retract ...
            assert ("q",) in answers(kb)
            raise Boom()
    # ... and the rollback must erase all of it
    assert kb.db.version_vector() == version_before
    assert kb._result_cache == cache_before
    assert answers(kb) == before
    base = {tuple(str(t) for t in row) for row in kb.db.relation("e")}
    assert base == {("a", "b"), ("b", "c"), ("c", "d")}


def test_kb_transaction_open_flag_and_closed_kb():
    kb = fresh_kb()
    assert not kb.in_transaction
    with kb.transaction():
        assert kb.in_transaction
    assert not kb.in_transaction
    kb.close()
