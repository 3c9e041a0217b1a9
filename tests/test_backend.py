"""Database lifecycle: ``close`` rolls back, is idempotent, and leaves the
database usable.

Every relation lives in memory, so closing a :class:`Database` releases
nothing but an open transaction; the object keeps its relations and takes
further loads.
"""

from repro.storage import Database


def chain(n):
    return [(f"n{i}", f"n{i + 1}") for i in range(n)]


def test_database_close_is_idempotent_and_rolls_back_open_txns():
    db = Database()
    db.load("e", chain(10))
    db.begin_transaction()
    db.load("e", [("x", "y")])
    db.close()
    assert not db.in_transaction
    assert len(db.relation("e")) == 10
    db.close()  # a second close is a no-op
    assert not db.in_transaction
    assert len(db.relation("e")) == 10


def test_backend_close_allows_reuse_of_the_database_object():
    db = Database()
    db.load("e", chain(5))
    db.close()
    assert len(db.relation("e")) == 5
    db.load("e", [("x", "y")])
    assert len(db.relation("e")) == 6
