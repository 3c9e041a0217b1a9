"""One stored form for base facts, and one way to write them.

A :class:`Relation` keeps its rows once, as interned ids
(``storage.columnar.IdRelation``); term rows are decoded for the readers
that want terms, on each read, and every join — lowered, or the
reference evaluator's the tests compare with — probes the id store.  Every write goes through one routine on
``Database`` that checks all rows before storing any.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro import KnowledgeBase, OptimizerConfig
from repro.datalog.intern import INTERNER
from repro.datalog.literals import Literal
from repro.datalog.terms import Constant, Struct, Variable
from repro.engine.batch import JOIN_METHODS
from repro.engine.fixpoint import FixpointEngine
from repro.testing import reference
from repro.testing.reference import BindingsTable, lowered_join, negation_filter, scan_join
from repro.errors import SchemaError
from repro.storage import Database, Relation
from repro.storage import columnar

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def py(rows):
    return sorted(tuple(field.value for field in row) for row in rows)


# ------------------------------------------------------ one representation


def test_relation_holds_id_rows_only():
    relation = Relation("par", 2)
    relation.load([("a", "b"), ("b", "c")])
    held = set(vars(relation))
    assert not {"_rows", "_indexes", "_sorted", "_batch"} & held
    store = relation.batch_store(INTERNER)
    assert store is relation.batch_store(INTERNER) and type(store) is columnar.IdRelation
    assert columnar.BatchStore is columnar.IdRelation
    assert not hasattr(columnar.IdRelation, "append") and not hasattr(columnar.IdRelation, "extend")
    assert all(type(field) is int for row in store.rows for field in row)
    assert py(relation) == [("a", "b"), ("b", "c")]
    # reading terms keeps nothing: no term rows on the relation or its store
    assert set(vars(relation)) == held
    assert set(columnar.IdRelation.__slots__) == {
        "interner", "rows", "columns", "length", "_buckets"
    }


def test_a_store_in_another_interner_is_refused():
    from repro.datalog.intern import TermInterner

    relation = Relation("par", 2)
    with pytest.raises(ValueError):
        relation.batch_store(TermInterner())


def test_lowered_rules_never_build_a_term_view_of_a_base_relation(monkeypatch):
    """The ledger's ``tc_batch`` program — load, ask, insert, ask: no base
    relation is ever decoded and no term-space operator runs."""
    built = []

    def spy(owner, attribute, name):
        original = getattr(owner, attribute)

        def counting(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counting)

    spy(BindingsTable, "__init__", "BindingsTable")
    spy(reference, "reference_step", "reference_step")
    rows = Relation.rows.fget
    monkeypatch.setattr(
        Relation, "rows", property(lambda self: built.append("Relation.rows") or rows(self))
    )
    kb = KnowledgeBase()
    kb.rules(ANC)
    edges = [(f"n{i}", f"n{j}") for i in range(12) for j in (i + 1, i + 3) if j < 12]
    assert kb.facts("par", edges) == len(edges)
    first = kb.ask("anc(X, Y)?").to_python()
    assert kb.facts("par", [("x0", "y0")]) == 1
    second = kb.ask("anc(X, Y)?").to_python()
    assert len(second) == len(first) + 1 and ("x0", "y0") in second
    assert kb.retract("par", [("x0", "y0")]) == 1
    assert kb.ask("anc(X, Y)?").to_python() == first
    assert built == []
    list(kb.db.relation("par"))  # a term-space reader decodes it, now
    assert built == ["Relation.rows"]


# ------------------------------------------- the reference probes the store

RIDES = """
colour(P, C) <- owns(P, bike(C)).
loop(X) <- link(X, X).
reach(X, Y) <- link(X, Y).
reach(X, Y) <- reach(X, Z), link(Z, Y).
far(P, Y) <- colour(P, C), reach(P, Y), ~loop(Y).
"""


def test_a_rule_that_does_not_lower_reads_the_id_store_like_the_lowered_paths():
    """Named for the rules that once fell back to the reference:
    ``owns(P, bike(C))`` (a struct with a variable, matched per id) and
    ``link(X, X)`` (a repeated free variable, an id equality) now lower
    like flat rules and probe the id stores: the default (semi-naive) and
    the naive knowledge bases answer as the term-space reference does,
    before and after a retract and a re-insert.  A key nobody interned
    selects nothing, and the reference's probe interns nothing."""
    seminaive = KnowledgeBase()
    naive = KnowledgeBase(OptimizerConfig(recursive_methods=("naive",)))
    bike = lambda colour: Struct("bike", (Constant(colour),))  # noqa: E731
    owns = [("ann", bike("red")), ("bob", bike("blue")), ("bob", "car"), ("cy", bike("red"))]
    link = [("ann", "bob"), ("bob", "bob"), ("bob", "cy"), ("cy", "dee"), ("dee", "dee")]
    for kb in (seminaive, naive):
        kb.rules(RIDES)
        kb.facts("owns", owns)
        kb.facts("link", link)
    engine = FixpointEngine(seminaive.db)
    steps = {
        rule.head.predicate: engine.scheduled(rule, False).plan.steps[0]
        for rule in seminaive.program if rule.head.predicate in ("colour", "loop")
    }
    assert [m.pattern for m in steps["colour"].matches] == [Struct("bike", (Variable("C"),))]
    assert steps["loop"].equal == ((1, 0),)

    def agree():
        oracle = reference.evaluate_program(seminaive.db, seminaive.program)
        for name in ("colour", "loop", "far"):
            want = sorted(py(oracle.rows(name)))
            assert want, name
            goal = "loop(A)?" if name == "loop" else f"{name}(A, B)?"
            for kb in (seminaive, naive):
                assert sorted(kb.ask(goal).to_python()) == want, name

    agree()
    for kb in (seminaive, naive):
        assert kb.retract("link", [("dee", "dee")]) == 1
    agree()
    for kb in (seminaive, naive):
        assert kb.facts("link", [("dee", "dee")]) == 1
    agree()

    known = len(INTERNER)
    ghost = Constant(f"never-interned-{known}")
    relation = seminaive.db.relation("owns")
    goal = Literal("owns", (ghost, Struct("bike", (Variable("C"),))))
    assert not scan_join(BindingsTable.unit(), goal, relation).rows
    table = BindingsTable.from_rows((Variable("P"),), [(ghost,)])
    link_p_p = Literal("link", (Variable("P"), Variable("P")))
    assert negation_filter(table, link_p_p, seminaive.db.relation("link")) == table
    assert len(INTERNER) == known and INTERNER.lookup(ghost) is None
    # a lowered join interns its literal's constants when it is lowered
    for method in JOIN_METHODS:
        assert not lowered_join(BindingsTable.unit(), goal, relation, method).rows


# ------------------------------------------------------------ Relation.rows


def test_rows_follows_every_write():
    db = Database()
    db.load("e", [("a", "b"), ("b", "c")])
    relation = db.relation("e")
    rows = relation.rows
    assert isinstance(rows, frozenset) and py(rows) == [("a", "b"), ("b", "c")]
    db.load("e", [("a", "b")])  # a no-op write is no write
    assert relation.rows == rows
    db.insert("e", (Constant("c"), Constant("d")))
    assert len(relation.rows) == 3 and set(relation) == relation.rows
    db.retract("e", [("a", "b")])
    shrunk = relation.rows
    assert py(shrunk) == [("b", "c"), ("c", "d")]
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.load("e", [("x", "y")])
            db.retract("e", [("b", "c")])
            assert py(relation.rows) == [("c", "d"), ("x", "y")]
            raise RuntimeError
    assert relation.rows == shrunk


# -------------------------------------------------- validate, then apply


def kb_state(kb):
    db = kb.db
    return (
        db.version_vector(),
        {r.name: frozenset(r) for r in db},
        {name: db.stats_for(name) for name in sorted(db._stats)},
        dict(kb._result_cache),
        {name: kb.view_rows(name) for name in ("anc",)} if kb.materialized_views else None,
        sorted(kb.ask("anc(X, Y)?").to_python()),
    )


@pytest.mark.parametrize("materialized", [False, True], ids=["plain", "materialized"])
@pytest.mark.parametrize("in_transaction", [False, True], ids=["autocommit", "transaction"])
@pytest.mark.parametrize(
    "bad", [("bad",), ("c", "d", "e"), ("c", Variable("X"))], ids=["short", "long", "non-ground"]
)
def test_a_failed_facts_call_changes_nothing(materialized, in_transaction, bad):
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", [("a", "b"), ("b", "c")])
    if materialized:
        kb.materialize()
    kb.ask("anc(a, Y)?")
    kb.db.stats_for("par")
    kb_state(kb)  # its own ask is in the result cache from here on
    before = kb_state(kb)

    def write():
        with pytest.raises(SchemaError):
            kb.facts("par", [("c", "d"), bad])
        assert kb_state(kb) == before
        with pytest.raises(SchemaError):
            kb.db.load("par", [("c", "d"), bad])
        with pytest.raises(SchemaError):
            kb.facts("fresh", [("c", "d"), ("bad",)])  # not even created
        assert "fresh" not in kb.db

    if in_transaction:
        with kb.transaction():
            write()
    else:
        write()
    assert kb_state(kb) == before
    # and the good row of the failed call is still new
    assert kb.facts("par", [("c", "d")]) == 1
    assert ("d",) in kb.ask("anc(a, Y)?")
    if materialized:
        assert {("a", "d"), ("b", "d"), ("c", "d")} <= kb.view_rows("anc")


def test_a_failed_load_changes_nothing_on_a_relation():
    db = Database()
    db.load("e", [(1, 2), (2, 3), (3, 4)])
    relation = db.relation("e")
    version, rows = relation.version, relation.rows
    with pytest.raises(SchemaError):
        db.load("e", [(4, 5), (5,)])
    with pytest.raises(SchemaError):
        relation.load([(4, 5), (5, Variable("X"))])
    assert (relation.version, relation.rows) == (version, rows)


def test_every_write_entry_reaches_the_one_routine(monkeypatch):
    """``kb.facts``, ``Database.insert`` / ``load``, the text and TSV
    loaders and rollback replay add rows through ``Database._write`` and
    nowhere else; a ``kb.facts`` call is one call of it, whatever the
    number of rows."""
    from repro.storage.loader import load_facts_text, load_tsv

    calls = []
    write = Database._write

    def spying(self, relation, id_rows, adding):
        calls.append((relation.name, len(id_rows), adding))
        return write(self, relation, id_rows, adding)

    monkeypatch.setattr(Database, "_write", spying)
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(50)])
    kb.db.insert("par", (Constant("x"), Constant("y")))
    kb.db.load("par", [("x", "y"), ("y", "z")])
    load_facts_text(kb.db, "par(p, q). par(q, r). owns(p, 3).")
    load_tsv(kb.db, "owns", ["q\t4", "# comment", "r\t5"])
    kb.retract("par", [("p", "q"), ("never", "there")])
    assert calls == [
        ("par", 50, True), ("par", 1, True), ("par", 2, True),
        ("par", 2, True), ("owns", 1, True), ("owns", 2, True),
        ("par", 1, False),  # the row never stored fell to the lookup, before the call
    ]
    del calls[:]
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.facts("par", [("s", "t")])
            kb.retract("par", [("q", "r")])
            raise RuntimeError
    assert calls == [
        ("par", 1, True), ("par", 1, False),  # the transaction's writes
        ("par", 1, True), ("par", 1, False),  # undone in reverse: q-r back, s-t out
    ]
    assert (Constant("q"), Constant("r")) in kb.db.relation("par")
    assert (Constant("s"), Constant("t")) not in kb.db.relation("par")


# ------------------------------------------------------- the source itself

#: what the storage classes keep to themselves
STORAGE_PRIVATE = {
    "_rows", "_indexes", "_sorted", "_batch", "_version", "_buckets", "_decoded", "_ids",
}


def test_no_module_outside_storage_reads_a_storage_private_attribute():
    """Outside ``storage/`` these names may only be a module's own
    (``self._rows`` of its own class): reaching into a relation's
    representation is what let five sites depend on the term-row set."""
    offenders = []
    for path in SRC.rglob("*.py"):
        if "storage" in path.relative_to(SRC).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in STORAGE_PRIVATE
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} .{node.attr}")
    assert offenders == []


def test_nothing_re_encodes_a_base_relation_to_build_its_columns():
    """No ``id_of`` / ``encode_row(s)`` call under ``storage/`` outside
    the one checked entry: rows are interned on the way in, once."""
    encoders = {"id_of", "encode_row", "encode_rows"}
    sites = []
    for path in (SRC / "storage").glob("*.py"):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute) and node.attr in encoders:
                    sites.append(f"{path.name}:{function.name}")
    assert sites == ["columnar.py:encode_checked"]


def test_nothing_under_src_reaches_for_a_second_storage_tier():
    """One storage tier: no module imports ``sqlite3``, ``tempfile``,
    ``atexit`` or ``weakref`` (a disk store, its temp files and their
    sweep), and there is no ``repro.storage.backend`` to import."""
    banned = {"sqlite3", "tempfile", "atexit", "weakref"}
    offenders = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno} {module}"
                for module in modules if module.split(".")[0] in banned
            ]
    assert offenders == []
    with pytest.raises(ImportError):
        importlib.import_module("repro.storage.backend")
