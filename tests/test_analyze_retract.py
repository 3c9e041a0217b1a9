"""EXPLAIN ANALYZE and fact retraction."""

import pytest

from repro import KnowledgeBase
from repro.datalog.parser import parse_literal
from repro.datalog.terms import Constant
from repro.testing.reference import BindingsTable, scan_join
from repro.storage import Relation


def family():
    kb = KnowledgeBase()
    kb.rules(
        """
        anc(X, Y) <- par(X, Y).
        anc(X, Y) <- par(X, Z), anc(Z, Y).
        """
    )
    kb.facts("par", [("abe", "homer"), ("homer", "bart"), ("homer", "lisa")])
    return kb


def test_analyze_contains_measured_stats():
    kb = family()
    text = kb.analyze("anc($X, Y)?", X="abe")
    assert "measured: rows=" in text
    assert "answers: 3" in text
    assert "work:" in text


def test_analyze_estimates_and_measured_side_by_side():
    kb = family()
    text = kb.analyze("anc(abe, Y)?")
    # each CC line shows both the estimate and the measurement
    cc_line = next(l for l in text.splitlines() if l.strip().startswith("CC"))
    assert "cost=" in cc_line and "measured" in cc_line


def test_analyze_cache_hits_reported():
    kb = KnowledgeBase()
    kb.rules(
        """
        view(X, Y) <- e(X, Y).
        twice(X, Z) <- view(X, Y), view(Y, Z).
        """
    )
    kb.facts("e", [("a", "b"), ("b", "c")])
    text = kb.analyze("twice(X, Z)?")
    assert "cached" in text or text.count("measured") >= 2


def test_relation_remove_updates_indexes():
    """A removal patches the bucket map a reference join probes."""
    r = Relation("e", 2)
    goal = parse_literal("e(a, Y)")
    assert not scan_join(BindingsTable.unit(), goal, r).rows  # map built, empty
    r.insert_values(("a", "b"))
    r.insert_values(("a", "c"))
    r.insert_values(("b", "c"))
    assert len(scan_join(BindingsTable.unit(), goal, r).rows) == 2
    assert r.remove_values(("a", "b"))  # one of three: patched in place
    assert not r.remove_values(("a", "b"))  # already gone
    assert scan_join(BindingsTable.unit(), goal, r).rows == {(Constant("c"),)}


def test_retract_changes_answers():
    kb = family()
    assert ("lisa",) in kb.ask("anc(abe, Y)?").to_python()
    assert kb.retract("par", [("homer", "lisa")]) == 1
    assert ("lisa",) not in kb.ask("anc(abe, Y)?").to_python()


def test_retract_missing_tuple_is_zero():
    kb = family()
    assert kb.retract("par", [("nobody", "noone")]) == 0


def test_retract_refreshes_statistics():
    kb = family()
    before = kb.db.stats_for("par").cardinality
    kb.retract("par", [("homer", "lisa")])
    after = kb.db.stats_for("par").cardinality
    assert after == before - 1


def test_retract_unknown_relation_raises():
    from repro.errors import SchemaError

    kb = family()
    with pytest.raises(SchemaError):
        kb.retract("mystery", [("a", "b")])


def test_repl_analyze_command(tmp_path):
    import io

    from repro.cli import main

    path = tmp_path / "f.ldl"
    path.write_text("p(X) <- q(X).\nq(a).\n")
    out = io.StringIO()
    main([str(path), "-i"], stdin=io.StringIO(":analyze p(X)?\n:quit\n"), stdout=out)
    assert "measured" in out.getvalue()
