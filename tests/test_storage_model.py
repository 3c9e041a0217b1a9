"""Model-based test of the one-store fact base.

A relation is driven through random interleavings of single inserts,
bulk loads, removals, ``clear`` and ``Database`` transactions (commit
and rollback), with reads of its *term face* (``in``, iteration,
``rows``), lowered joins under every method keyed on random positions
(each checked against the reference join), and probes of its *id face* (``batch_store``, ``buckets_for`` on random
positions) mixed in, against a plain ``set``.

Reads are steps of their own rather than a fixed check after each write,
so the lazy paths are reached: a bucket map first asked for after
removals, columns laid out again only when a probe follows a removal,
several writes between two reads of either face.  Cases drawn with
``eager`` check both faces in full after every step as well.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.datalog.intern import INTERNER
from repro.datalog.literals import Literal
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine.batch import JOIN_METHODS
from repro.testing.reference import BindingsTable, lowered_join, scan_join
from repro.storage import Database, collect_statistics
from repro.storage.columnar import IdRelation

VALUES = ["a", "b", "c", 1, 2]
POSITIONS = [(), (0,), (1,), (0, 1), (1, 0)]

values = st.sampled_from(VALUES)
rows = st.tuples(values, values)
positions = st.sampled_from(POSITIONS)

steps = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("load"), st.lists(rows, max_size=6)),
    st.tuples(st.just("remove"), rows),
    st.tuples(st.just("retract"), st.lists(rows, max_size=4)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("begin")),
    st.tuples(st.just("commit")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("contains"), rows),
    st.tuples(st.just("iterate")),
    st.tuples(st.just("join"), st.sampled_from(JOIN_METHODS), positions, rows),
    st.tuples(st.just("store")),
    st.tuples(st.just("buckets"), positions),
)


def lift(row):
    return tuple(Constant(value) for value in row)


def key_of(row, at):
    return tuple(row[p] for p in at)


def joined(extension, at, probe, method):
    """The rows of *extension* whose *at* fields equal *probe*'s, as the
    lowered join step running *method* finds them from the unit table —
    and as the reference's unifying join does (*method* None: it alone,
    which looks the key up and interns nothing)."""
    args = tuple(probe[p] if p in at else Variable(f"V{p}") for p in range(len(probe)))
    out = scan_join(BindingsTable.unit(), Literal("r", args), extension)
    if method is not None:
        assert lowered_join(BindingsTable.unit(), Literal("r", args), extension, method) == out
    rows = set()
    for subst in out.substitutions():
        rows.add(tuple(subst.get(arg, arg) for arg in args))
    return rows


def check_term_face(relation, model):
    assert set(relation) == model and len(list(relation)) == len(model)
    assert relation.rows == model


def check_id_face(relation, model):
    store = relation.batch_store(INTERNER)
    assert INTERNER.decode_rows(store.rows) == model
    assert store.length == len(model) == len(store)
    stored = list(zip(*store.columns)) if model else []
    assert len(stored) == len(model) and set(stored) == store.rows


def check_buckets(relation, model, at):
    store = relation.batch_store(INTERNER)
    buckets = store.buckets_for(at)
    grouped = {}
    for index, row in enumerate(zip(*store.columns) if model else ()):
        key = row[at[0]] if len(at) == 1 else tuple(row[p] for p in at)
        grouped.setdefault(key, []).append(index)
    assert {key: sorted(bucket) for key, bucket in buckets.items()} == grouped


@settings(max_examples=250, deadline=None)
@given(st.lists(steps, max_size=40), st.booleans())
def test_both_faces_follow_a_set_model(script, eager):
    db = Database()
    try:
        db.create("r", 2)
        model: set = set()
        at_begin = None  # (model, version) while a transaction is open
        for step in script:
            relation = db.relation("r")
            version = relation.version
            before = set(model)
            op = step[0]
            if op == "insert":
                assert db.insert("r", lift(step[1])) == (lift(step[1]) not in model)
                model.add(lift(step[1]))
            elif op == "load":
                new = {lift(row) for row in step[1]} - model
                assert db.load("r", step[1]) == len(new)
                model |= new
            elif op == "remove":
                present = lift(step[1]) in model
                if at_begin is None:  # the relation's own entry is not undo-logged
                    assert relation.remove(lift(step[1])) == present
                else:
                    assert db.retract("r", [step[1]]) == present
                model.discard(lift(step[1]))
            elif op == "retract":
                gone = {lift(row) for row in step[1]} & model
                assert db.retract("r", step[1]) == len(gone)
                model -= gone
            elif op == "clear":
                if at_begin is not None:
                    continue  # clear is not transactional
                relation.clear()
                model.clear()
                assert relation.version > version
                version = relation.version
                before = set()
            elif op == "begin":
                if at_begin is None:
                    db.begin_transaction()
                    at_begin = (set(model), version)
            elif op == "commit":
                if at_begin is not None:
                    db.commit_transaction()
                    at_begin = None
            elif op == "rollback":
                if at_begin is not None:
                    db.rollback_transaction()
                    model, version = at_begin
                    before = set(model)
                    at_begin = None
                    assert db.relation("r").version == version  # exactly restored
            elif op == "contains":
                assert (lift(step[1]) in relation) == (lift(step[1]) in model)
            elif op == "iterate":
                check_term_face(relation, model)
            elif op == "join":
                method, at, probe = step[1], step[2], lift(step[3])
                assert joined(relation, at, probe, method) == {
                    r for r in model if key_of(r, at) == key_of(probe, at)
                }
            elif op == "store":
                check_id_face(relation, model)
            elif op == "buckets":
                check_buckets(relation, model, step[1])

            relation = db.relation("r")
            assert len(relation) == len(model)
            # a call that changed the extension moved the version forward,
            # one that did not left it alone
            if model != before:
                assert relation.version > version
            else:
                assert relation.version == version
            if eager:
                check_term_face(relation, model)
                check_id_face(relation, model)
        if at_begin is not None:
            db.rollback_transaction()
            model, version = at_begin
            assert db.relation("r").version == version
        relation = db.relation("r")
        check_id_face(relation, model)
        check_term_face(relation, model)
        for at in POSITIONS:
            check_buckets(relation, model, at)
    finally:
        db.close()


@settings(max_examples=60, deadline=None)
@given(st.lists(rows, max_size=8), st.integers(0, 10**9))
def test_asking_after_an_absent_row_interns_nothing(loaded, salt):
    db = Database()
    db.create("r", 2)
    db.load("r", loaded)
    relation = db.relation("r")
    # constants no fact, rule or earlier example can have interned
    ghost = (Constant(f"ghost-{salt}-{len(INTERNER)}"), Constant("a"))
    known, version = len(INTERNER), relation.version
    assert ghost not in relation
    assert relation.remove(ghost) is False
    assert db.remove("r", [ghost, ghost[:1]]) == set()
    assert joined(relation, (0,), ghost, None) == set()
    assert len(INTERNER) == known and INTERNER.lookup(ghost[0]) is None
    # a lowered join interns its literal's constants when it is lowered
    for method in JOIN_METHODS:
        assert joined(relation, (0,), ghost, method) == set()
    assert relation.version == version


# ------------------------------------------------- removal in the id store

id_values = st.integers(0, 4)
id_rows = st.tuples(id_values, id_values, id_values)
id_positions = st.sampled_from([(), (0,), (2,), (0, 1), (2, 0), (0, 1, 2)])

id_steps = st.one_of(
    st.tuples(st.just("absorb"), st.sets(id_rows, max_size=8)),
    st.tuples(st.just("discard"), st.sets(id_rows, max_size=6)),
    st.tuples(st.just("discard_held"), st.integers(0, 10**6), st.integers(0, 12)),
    st.tuples(st.just("buckets"), id_positions),
    st.tuples(st.just("select"), id_positions, st.sets(id_rows, max_size=3)),
    st.tuples(st.just("scan")),
    st.tuples(st.just("join"), st.sampled_from(JOIN_METHODS), id_positions, id_rows),
)


def _bucket_rows(store, at):
    """``buckets_for(at)`` as key -> the set of rows its indices name."""
    stored = list(zip(*store.columns))
    out = {}
    for key, bucket in store.buckets_for(at).items():
        assert bucket and len(bucket) == len(set(bucket))
        out[key] = {stored[index] for index in bucket}
    return out


def _unit_scan(store):
    """What a unit-input full scan hands its batch: the columns, whole."""
    assert all(len(column) == store.length for column in store.columns)
    return sorted(zip(*store.columns))


@settings(max_examples=300, deadline=None)
@given(st.lists(id_steps, max_size=30))
def test_removal_keeps_an_id_store_equal_to_a_freshly_built_one(script):
    """Interleaved ``absorb`` / ``discard`` with bucket probes, selections,
    unit-input scans and reference joins in between: after every step
    the store answers as one built from the surviving rows in one go —
    columns dense, every bucket map (caught up or not when the removal
    came) naming exactly the rows with its key, no key left empty."""
    terms = [Constant(f"v{i}") for i in range(5)]
    ids = [INTERNER.id_of(term) for term in terms]

    def encode(rows):
        return {tuple(ids[field] for field in row) for row in rows}

    def terms_of(row):
        return tuple(terms[field] for field in row)

    store = IdRelation(INTERNER, 3)
    model: set = set()
    probed: set = set()
    for step in script:
        op = step[0]
        if op == "absorb":
            new = encode(step[1])
            assert store.absorb(set(new)) == new - model
            model |= new
        elif op == "discard":
            gone = encode(step[1])
            assert store.discard(set(gone)) == gone & model
            model -= gone
        elif op == "discard_held":  # sized draws of rows that are there
            held = sorted(model)
            gone = set(random.Random(step[1]).sample(held, min(step[2], len(held))))
            assert store.discard(set(gone)) == gone
            model -= gone
        elif op == "buckets":
            probed.add(step[1])
        elif op == "select":
            at = step[1]
            keys = frozenset(tuple(row[p] for p in at) for row in encode(step[2]))
            wanted = {row for row in model if tuple(row[p] for p in at) in keys}
            assert store.select(at, keys).rows == wanted
            assert store.select(at, keys, probe=False).rows == wanted
            probed.add(at)
        elif op == "join":
            method, at, probe = step[1], step[2], terms_of(step[3])
            assert joined(store, at, probe, method) == {
                row for row in INTERNER.decode_rows(model) if key_of(row, at) == key_of(probe, at)
            }
            if method in ("hash", "index"):
                probed.add(tuple(sorted(at)))  # the map the join probed

        fresh = IdRelation(INTERNER, 3, set(model))
        assert store.rows == model and store.length == len(model) == len(store)
        assert _unit_scan(store) == _unit_scan(fresh) == sorted(model)
        for at in probed:
            assert _bucket_rows(store, at) == _bucket_rows(fresh, at)
    assert joined(store, (), terms_of((0, 0, 0)), "nested_loop") == INTERNER.decode_rows(model)


# ---------------------------------------------- statistics on the write path

ARITY = {"u": 1, "g": 2, "t": 3}
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-2.5, 0.5, 1.5]),
    st.booleans(),
    st.sampled_from(["a", "b"]),
    st.integers(0, 1).map(lambda v: Struct("f", (Constant(v),))),
)
#: ``u`` and ``t`` over mixed values; ``g``, a graph on five nodes, gains
#: and loses cycles
STAT_ROWS = {
    "u": st.tuples(SCALARS),
    "g": st.tuples(st.integers(0, 4), st.integers(0, 4)),
    "t": st.tuples(SCALARS, SCALARS, SCALARS),
}


def some_rows(name):
    return st.lists(STAT_ROWS[name], max_size=5)


def on_a_relation(op, *draws):
    """A step on one relation, with what it draws for that relation."""
    return st.sampled_from(sorted(ARITY)).flatmap(
        lambda name: st.tuples(st.just(op), st.just(name), *(draw(name) for draw in draws))
    )


stat_steps = st.one_of(
    on_a_relation(
        "write", lambda name: st.lists(st.tuples(st.booleans(), some_rows(name)), min_size=1, max_size=4)
    ),
    on_a_relation("bypass", lambda name: st.booleans(), lambda name: STAT_ROWS[name], some_rows),
    on_a_relation("clear"),
    on_a_relation("recreate"),
    on_a_relation("churn", lambda name: st.integers(1, 8)),
    on_a_relation("invalidate"),
    st.tuples(st.sampled_from(["begin", "commit", "rollback"])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(stat_steps, max_size=30))
def test_statistics_follow_every_write(script):
    """After every step, ``stats_for`` equals ``collect_statistics`` on
    every relation: several writes logged between two reads, a write
    straight to the relation (alone, or followed by a database write
    before the next read), transaction commit and rollback, drop and
    re-create under the same name, and churn that logs more rows than the
    relation holds."""
    db = Database()
    for name, arity in ARITY.items():
        db.create(name, arity)
    try:
        for step in script:
            op = step[0]
            if op == "write":
                for adding, rows in step[2]:
                    (db.add if adding else db.remove)(step[1], rows)
            elif op == "bypass":
                relation = db.relation(step[1])
                (relation.insert if step[2] else relation.remove)(step[3])
                db.add(step[1], step[4])
            elif op == "clear":
                db.relation(step[1]).clear()
            elif op == "recreate":
                db.drop(step[1])
                db.create(step[1], ARITY[step[1]])
            elif op == "churn":
                rows = [tuple(f"churn{i}.{p}" for p in range(ARITY[step[1]])) for i in range(step[2])]
                db.add(step[1], rows)
                db.remove(step[1], rows)
            elif op == "invalidate":
                db.invalidate_stats(step[1])
            elif op == "begin":
                if not db.in_transaction:
                    db.begin_transaction()
            elif op == "commit":
                if db.in_transaction:
                    db.commit_transaction()
            elif db.in_transaction:
                db.rollback_transaction()
            for relation in db:
                assert db.stats_for(relation.name) == collect_statistics(relation), (step, relation.name)
    finally:
        db.close()
