"""The pluggable storage backend: memory/sqlite conformance and spilling.

:mod:`repro.storage.backend` promises that a relation's physical home —
resident Python sets or a temporary on-disk SQLite table of interned ids
— is invisible to evaluation: same answers, same set semantics (insert
newness, dedup, retract, clear), same version monotonicity for the
cross-query result cache.  The conformance suite below runs each backend
through the same paces; the acceptance tests at the bottom pin the
out-of-core contract — a workload whose resident columns would blow a
memory budget completes on the sqlite backend and aborts (with
``MemoryBudgetExceeded``) on the memory backend under the same budget.
"""

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.engine.fixpoint import evaluate_program
from repro.engine.governor import ResourceGovernor
from repro.engine.profiler import Profiler
from repro.errors import MemoryBudgetExceeded, SchemaError
from repro.storage import Database
from repro.storage.backend import (
    MemoryBackend,
    SpilledRelation,
    SqliteBackend,
    StorageBackend,
    make_backend,
)
from repro.storage.relation import Relation

TC = "p(X, Y) <- e(X, Y). p(X, Y) <- e(X, Z), p(Z, Y)."


def chain(n):
    return [(f"n{i}", f"n{i + 1}") for i in range(n)]


# -------------------------------------------------------------- make_backend


def test_make_backend_resolves_names_and_instances():
    assert isinstance(make_backend("memory"), MemoryBackend)
    assert isinstance(make_backend("sqlite"), SqliteBackend)
    backend = SqliteBackend()
    assert make_backend(backend) is backend
    with pytest.raises(SchemaError):
        make_backend("zfs")


def test_backends_satisfy_the_protocol():
    assert isinstance(MemoryBackend(), StorageBackend)
    assert isinstance(SqliteBackend(), StorageBackend)


# ---------------------------------------------------------------- conformance
#
# The same behavioural checks against a relation created by each backend,
# spilled or not: set semantics must be indistinguishable.


def _resident(backend):
    relation = backend.create_relation("r", 2, None)
    relation.load(chain(5))
    return backend, relation


def _spilled(backend):
    relation = backend.create_relation("r", 2, None)
    relation.load(chain(5))
    migrated = backend.maybe_spill(relation, 1)
    assert migrated is not relation  # the sqlite backend must migrate
    return backend, migrated


CASES = [
    pytest.param(lambda: _resident(MemoryBackend()), id="memory"),
    pytest.param(lambda: _resident(SqliteBackend()), id="sqlite-resident"),
    pytest.param(lambda: _spilled(SqliteBackend()), id="sqlite-spilled"),
]


@pytest.mark.parametrize("setup", CASES)
def test_insert_newness_and_dedup(setup):
    __, relation = setup()
    row = (Constant("n0"), Constant("n1"))
    assert not relation.insert(row)  # already present from the load
    fresh = (Constant("x"), Constant("y"))
    assert relation.insert(fresh)
    assert not relation.insert(fresh)
    assert len(relation) == 6


@pytest.mark.parametrize("setup", CASES)
def test_retract_and_clear(setup):
    __, relation = setup()
    assert relation.remove_values(("n0", "n1"))
    assert not relation.remove_values(("n0", "n1"))
    assert len(relation) == 4
    relation.clear()
    assert len(relation) == 0
    assert list(relation) == []


@pytest.mark.parametrize("setup", CASES)
def test_iteration_contains_and_lookup(setup):
    __, relation = setup()
    rows = set(relation)
    assert len(rows) == 5
    row = (Constant("n2"), Constant("n3"))
    assert row in rows
    assert relation.__contains__(row)
    hits = list(relation.lookup((0,), (Constant("n2"),)))
    assert hits == [row]
    index = relation.ensure_index((0,))
    assert list(index.get((Constant("n2"),))) == [row]


@pytest.mark.parametrize("setup", CASES)
def test_version_bumps_on_every_mutation(setup):
    __, relation = setup()
    before = relation.version
    relation.insert((Constant("x"), Constant("y")))
    assert relation.version > before
    mid = relation.version
    relation.remove_values(("x", "y"))
    assert relation.version > mid


def test_migration_carries_rows_and_advances_version():
    """Spilling is a mutation of physical layout: the row set survives
    bit-for-bit and the version moves forward so cached query results
    keyed on the version vector are invalidated, never served stale."""
    resident = Relation("r", 2)
    resident.load(chain(8))
    spilled = SpilledRelation.from_relation(resident)
    assert spilled.spilled
    assert set(spilled) == set(resident)
    assert spilled.version > resident.version
    assert len(spilled) == len(resident)


def test_arity_zero_relations_never_spill():
    backend = SqliteBackend()
    relation = backend.create_relation("flag", 0, None)
    relation.insert(())
    assert backend.maybe_spill(relation, 0) is relation


def test_schema_errors_surface_from_the_spilled_tier():
    spilled = SpilledRelation.from_relation(Relation("r", 2))
    with pytest.raises(SchemaError):
        spilled.insert((Constant("only-one"),))


# ------------------------------------------------------------------ database


def test_database_spills_past_the_threshold():
    db = Database(backend="sqlite", spill_threshold=10)
    db.load("e", chain(5))
    assert not getattr(db.relation("e"), "spilled", False)
    db.load("e", [(f"m{i}", f"m{i + 1}") for i in range(10)])
    relation = db.relation("e")
    assert getattr(relation, "spilled", False)
    assert len(relation) == 15
    assert db.resident_tuples() == 0


def test_database_retract_round_trips_through_the_spill():
    db = Database(backend="sqlite", spill_threshold=3)
    db.load("e", chain(6))
    assert getattr(db.relation("e"), "spilled", False)
    assert db.retract("e", [("n0", "n1"), ("nope", "nope")]) == 1
    assert len(db.relation("e")) == 5
    answers = evaluate_program(db, parse_program(TC))
    baseline = Database()
    baseline.load("e", chain(6))
    baseline.retract("e", [("n0", "n1")])
    expected = evaluate_program(baseline, parse_program(TC))
    assert answers["p"] == expected["p"]


def test_memory_backend_with_threshold_stays_resident():
    db = Database(backend="memory", spill_threshold=1)
    db.load("e", chain(5))
    assert not getattr(db.relation("e"), "spilled", False)
    assert db.resident_tuples() == 5


# ------------------------------------------- spilled ≡ resident evaluation


@pytest.mark.parametrize("threshold", [1, 50])
def test_spilled_evaluation_matches_memory(threshold):
    """The whole point: same fixpoint answers whether the base relations
    live in RAM or on disk (threshold=1 forces every relation out)."""
    memory = Database()
    memory.load("e", chain(40))
    expected = evaluate_program(memory, parse_program(TC))

    disk = Database(backend="sqlite", spill_threshold=threshold)
    disk.load("e", chain(40))
    got = evaluate_program(disk, parse_program(TC))
    assert got["p"] == expected["p"]
    assert len(got["p"]) == 40 * 41 // 2


def test_spilled_counters_match_memory():
    memory = Database()
    memory.load("e", chain(30))
    mp = Profiler()
    evaluate_program(memory, parse_program(TC), profiler=mp)

    disk = Database(backend="sqlite", spill_threshold=1)
    disk.load("e", chain(30))
    dp = Profiler()
    evaluate_program(disk, parse_program(TC), profiler=dp)
    assert (dp.examined, dp.produced, dp.probes) == (
        mp.examined, mp.produced, mp.probes,
    )


def test_negation_probes_a_spilled_relation_without_materializing_it(monkeypatch):
    """An anti-join against a disk-backed extension asks the unique index
    about each distinct key; ``SpilledRelation.rows`` would read the whole
    relation into memory, uncharged to the memory budget."""
    source = "ok(X, Y) <- e(X, Y), ~banned(X, Y). lone(X) <- e(X, Y), ~stop(Y)."
    banned = [(f"n{i}", f"n{i + 1}") for i in range(0, 40, 3)] + [("x", "y")]
    stop = [(f"n{i}",) for i in range(0, 40, 4)]

    memory = Database()
    disk = Database(backend="sqlite", spill_threshold=5)
    for db in (memory, disk):
        db.load("e", chain(40))
        db.load("banned", banned)
        db.load("stop", stop)
    assert all(
        isinstance(disk.relation(name), SpilledRelation)
        for name in ("e", "banned", "stop")
    )
    expected = evaluate_program(memory, parse_program(source), compile=False)

    def materialized(self):
        raise AssertionError(f"{self.name}: spilled extension materialized")

    monkeypatch.setattr(SpilledRelation, "rows", property(materialized))
    got = evaluate_program(disk, parse_program(source))
    assert got["ok"] == expected["ok"] and len(got["ok"]) == 26
    assert got["lone"] == expected["lone"] and len(got["lone"]) == 31


# --------------------------------------------------------- out-of-core cap


def _budgeted_governor():
    # Evaluation itself ticks ~4_000 tuples (step matches + head emits);
    # the memory run adds 2_000 resident base tuples on top.  At 64
    # B/tuple that is ~384_000 vs ~256_000 bytes, so a 300_000-byte cap
    # prices out the resident backend while the disk backend completes.
    return ResourceGovernor(max_memory_bytes=300_000, bytes_per_tuple=64).arm()


def test_memory_backend_exceeds_the_cap_where_sqlite_completes():
    """The acceptance scenario: identical program, identical budget; the
    resident backend is priced out by its own base columns while the
    disk backend completes (and answers match an unbudgeted run)."""
    source = "q(X, Y) <- e(X, Y)."
    rows = chain(2_000)

    resident = Database(backend="memory", spill_threshold=100)
    resident.load("e", rows)
    with pytest.raises(MemoryBudgetExceeded):
        evaluate_program(resident, parse_program(source),
                         governor=_budgeted_governor())

    disk = Database(backend="sqlite", spill_threshold=100)
    disk.load("e", rows)
    got = evaluate_program(disk, parse_program(source),
                           governor=_budgeted_governor())

    unbudgeted = Database()
    unbudgeted.load("e", rows)
    expected = evaluate_program(unbudgeted, parse_program(source))
    assert got["q"] == expected["q"]


def test_no_threshold_means_no_resident_accounting():
    """spill_threshold=None is the pre-backend world: the same budget
    that kills the resident run above never sees the base columns."""
    db = Database()
    db.load("e", chain(2_000))
    result = evaluate_program(db, parse_program("q(X, Y) <- e(X, Y)."),
                              governor=_budgeted_governor())
    assert len(result["q"]) == 2_000


# ------------------------------------------------------- temp-file lifecycle


def _spill_files():
    import glob
    import os
    import tempfile

    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*.db")))


def test_spill_and_close_cycle_leaves_no_temp_files():
    """Satellite regression: every spilled relation's on-disk SQLite file
    is deleted by ``Database.close()`` — none survive a spill + close
    cycle, no matter how many relations spilled."""
    before = _spill_files()
    db = Database(backend="sqlite", spill_threshold=4)
    for name in ("e", "f", "g"):
        db.load(name, chain(10))
        assert isinstance(db.relation(name), SpilledRelation)
    created = _spill_files() - before
    assert len(created) == 3
    db.close()
    assert _spill_files() - before == set()


def test_database_close_is_idempotent_and_rolls_back_open_txns():
    db = Database(backend="sqlite", spill_threshold=4)
    db.load("e", chain(10))
    db.begin_transaction()
    db.load("e", [("x", "y")])
    db.close()
    assert not db.in_transaction
    db.close()  # second close is a no-op


def test_backend_close_allows_reuse_of_the_database_object():
    """Closing disposes spill files; the memory backend stays usable."""
    db = Database(backend="memory")
    db.load("e", chain(5))
    db.close()
    assert len(db.relation("e")) == 5
