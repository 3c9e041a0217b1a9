"""View maintenance fires rules through the fixpoint engine's routine.

``repro.engine.maintenance`` owns the strata, the delta-first orders, the
counting telescope and DRed's loops; a rule is *fired* by
``FixpointEngine.fire`` over id stores — the lowered executor, for
every rule shape.  These tests spy on the term-space operators of
``repro.testing.reference`` to pin that down, and cover the two
``kb`` entry points that used to go around the views (an ``ask`` of the
wrong arity, ``facts_text``).
"""

import ast
import random
import sys
from pathlib import Path

import pytest

from repro import KnowledgeBase, KnowledgeBaseError
from repro.engine.fixpoint import evaluate_program
from repro.testing import reference
from repro.testing.reference import BindingsTable
from repro.errors import OptimizationError
from repro.workloads.querygen import generate_differential_program

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ANC = "anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).\n"


def plain(rows):
    return {tuple(getattr(f, "value", f) for f in row) for row in rows}


def recompute(kb, predicate):
    result = evaluate_program(kb.db, kb.program, builtins=kb.builtins)
    return plain(result.rows(predicate))


# ------------------------------------------------------------ the spy


@pytest.fixture
def term_space(monkeypatch):
    """Every ``BindingsTable`` construction and ``reference_step`` call,
    with the ``engine/fixpoint.py`` functions that were on the stack when
    it happened."""
    seen = []

    def note(what):
        frame = sys._getframe(2)
        via = set()
        while frame is not None:
            if frame.f_code.co_filename.endswith("engine/fixpoint.py"):
                via.add(frame.f_code.co_name)
            frame = frame.f_back
        seen.append((what, frozenset(via)))

    def spy(owner, attribute, name):
        original = getattr(owner, attribute)

        def spying(*args, **kwargs):
            note(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, spying)

    spy(reference, "reference_step", "reference_step")
    spy(BindingsTable, "__init__", "BindingsTable.__init__")
    return seen


def drive(kb, rng, held, domain, reads):
    """Single inserts, single retracts, a mixed transaction and reads —
    each write checked against a from-scratch recomputation.  *held* is
    the test's own copy of the base relations it writes (reading them
    back through the relation would decode it)."""
    views = kb.materialize()

    def row():
        return (rng.choice(domain), rng.choice(domain))

    def check():
        for name in views.predicates():
            assert kb.view_rows(name) == recompute(kb, name), name

    def insert(name, rows):
        kb.facts(name, rows)
        held[name].update(rows)

    def retract(name, rows):
        kb.retract(name, rows)
        held[name].difference_update(rows)

    for __ in range(4):
        insert(rng.choice(sorted(held)), [row()])
        check()
    for name in sorted(held):
        retract(name, [rng.choice(sorted(held[name]))])
        check()
    with kb.transaction():
        for name in sorted(held):
            insert(name, [row(), row()])
            retract(name, [row(), rng.choice(sorted(held[name]))])
    check()
    for text, bindings in reads:
        kb.ask(text, **bindings).to_python()
    return views


def test_stream_rw_program_is_maintained_without_a_term_row(term_space):
    rng = random.Random(5)
    names = [f"n{i}" for i in range(12)]
    kb = KnowledgeBase()
    kb.rules(ANC)
    par = {(names[i], names[j]) for i in range(12) for j in (i + 1, i + 4) if j < 12}
    kb.facts("par", sorted(par))
    kb.facts("owns", [(names[i], f"item{i}") for i in range(4)])
    before = len(term_space)
    drive(
        kb, rng, {"par": par}, names,
        [("anc($X, Y)?", {"X": "n3"}), ("anc(X, Y)?", {}), ("anc(n2, Y)?", {}),
         ("anc(X, n9)?", {}), ("anc(n1, n9)?", {})],
    )
    kb.facts("owns", [("n1", "thing")])
    assert term_space[before:] == []


@pytest.mark.parametrize(
    "seed,features",
    [(1, ("comparison", "multiclique", "zeroary")), (2, ("arith", "multiclique"))],
)
def test_lowering_querygen_programs_are_maintained_without_a_term_row(
    term_space, seed, features
):
    sample = generate_differential_program(seed, features=features)
    kb = KnowledgeBase()
    kb.rules(sample.rules)
    for name, rows in sample.facts.items():
        kb.facts(name, rows)
    domain = sorted({field for row in sample.facts["node"] for field in row})
    before = len(term_space)
    views = drive(
        kb, random.Random(seed), {name: set(sample.facts[name]) for name in ("e0", "b0", "b1")},
        domain,
        [(text, {}) for text in sample.queries] + [("p0($X, Y)?", {"X": domain[0]})],
    )
    assert {"p0", "j0", "top"} <= set(views.predicates())
    assert term_space[before:] == []


def test_a_rule_that_does_not_lower_fires_on_the_engines_reference_branch(term_space):
    """Named for the engine's former reference branch: ``e(X, X)`` now
    lowers to an id equality, so no term-space operator runs, by
    counting (``loop``) or by DRed (``cyc``)."""
    kb = KnowledgeBase()
    kb.rules("loop(X) <- e(X, X). cyc(X) <- e(X, X). cyc(Y) <- cyc(X), e(X, Y).")
    e = {("a", "a"), ("a", "b"), ("b", "c")}
    kb.facts("e", sorted(e))
    before = len(term_space)
    views = drive(kb, random.Random(3), {"e": e}, ["a", "b", "c", "d"], [("cyc(X)?", {})])
    assert views.maintenance_mode("loop") == "counting" and views.maintenance_mode("cyc") == "dred"
    assert term_space[before:] == []


# ------------------------------------------------------ the source itself


def test_maintenance_has_no_join_loop_of_its_own():
    tree = ast.parse((SRC / "engine" / "maintenance.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not imported & {
        "BindingsTable", "reference_step", "head_rows", "apply", "DerivedRelation",
        "scan_join", "Substitution", "match",
    }
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {
        "_join_body", "_head_counts", "_fire_rule", "_derivable", "lookup", "_ordered_body",
    }
    assert len((SRC / "engine" / "maintenance.py").read_text().splitlines()) <= 600
    kb_source = (SRC / "kb.py").read_text()
    assert "decode_rows(changed)" not in kb_source and ".lookup(\n" not in kb_source


# --------------------------------------------- ask routes on name *and* arity


@pytest.mark.parametrize("materialized", [False, True], ids=["plain", "materialized"])
@pytest.mark.parametrize("goal,missing", [("t(X)?", "t/1"), ("t(a)?", "t/1"), ("t(X, Y, Z)?", "t/3")])
def test_a_goal_of_the_wrong_arity_is_an_unknown_predicate(materialized, goal, missing):
    kb = KnowledgeBase()
    kb.rules("t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y).")
    kb.facts("e", [("a", "b"), ("b", "c")])
    if materialized:
        kb.materialize()
    with pytest.raises(OptimizationError, match=f"unknown predicate {missing}"):
        kb.ask(goal)
    assert sorted(kb.ask("t(a, Y)?").to_python()) == [("b",), ("c",)]


def test_view_reads_project_in_id_space_and_match_only_what_needs_it():
    kb = KnowledgeBase()
    kb.rules("t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y). w(pack(X, Y), X) <- e(X, Y).")
    kb.facts("e", [("a", "b"), ("b", "c"), ("c", "c")])
    kb.materialize()
    assert sorted(kb.ask("t(X, Y)?").to_python()) == sorted(recompute(kb, "t"))
    assert sorted(kb.ask("t($X, Y)?", X="a").to_python()) == [("b",), ("c",)]
    assert kb.ask("t(a, c)?").to_python() == [()] and kb.ask("t(c, a)?").to_python() == []
    assert kb.ask("t(nobody, Y)?").to_python() == []  # looked up, not interned
    assert kb.ask("t(X, X)?").to_python() == [("c",)]  # repeated variable: matched
    assert sorted(kb.ask("w(pack(X, c), Z)?").to_python()) == [("b", "b"), ("c", "c")]
    assert kb.telemetry.last["tier"] == "view"


# ------------------------------------------- facts_text is a write like facts


FACTS_TEXT_RULES = "t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y). big(X) <- size(X, N), N > 2."


def facts_text_kb():
    kb = KnowledgeBase()
    kb.rules(FACTS_TEXT_RULES)
    kb.facts("e", [("a", "b")])
    kb.facts("size", [("a", 3)])
    kb.materialize()
    return kb


def test_facts_text_maintains_views_and_evicts_by_footprint():
    kb = facts_text_kb()
    kb.ask("big(X)?")
    cached = set(kb._result_cache)
    assert kb.facts_text("e(b, c). e(a, b).") == 1
    assert kb.view_rows("t") == recompute(kb, "t") == {("a", "b"), ("b", "c"), ("a", "c")}
    assert cached <= set(kb._result_cache)  # big/1 does not read e
    assert kb.facts_text("size(b, 5). e(c, d).") == 2
    assert kb.view_rows("big") == {("a",), ("b",)} and ("a", "d") in kb.view_rows("t")
    assert not cached & set(kb._result_cache)
    assert kb.facts_text("e(a, b).") == 0  # nothing new: nothing moves
    with pytest.raises(KnowledgeBaseError):
        kb.facts_text("e(X, b).")


def test_facts_text_in_a_transaction_maintains_views_at_commit():
    kb = facts_text_kb()
    with kb.transaction():
        assert kb.facts_text("e(b, c). size(c, 9).") == 2
        kb.retract("e", [("a", "b")])
        assert kb.view_rows("t") == {("a", "b")}  # deferred to commit
    assert kb.view_rows("t") == recompute(kb, "t") == {("b", "c")}
    assert kb.view_rows("big") == {("a",), ("c",)}


def test_facts_text_in_an_aborted_transaction_leaves_the_views_alone():
    kb = facts_text_kb()
    views = kb.materialized_views
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.facts_text("e(b, c). size(c, 9).")
            raise RuntimeError("abort")
    assert kb.materialized_views is views
    assert kb.view_rows("t") == recompute(kb, "t") == {("a", "b")}
    assert kb.view_rows("big") == {("a",)}
    assert kb.facts_text("e(b, c).") == 1 and ("a", "c") in kb.view_rows("t")
