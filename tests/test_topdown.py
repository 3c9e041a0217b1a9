"""Tabled top-down evaluation: correctness vs the bottom-up reference."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import parse_literal, parse_program
from repro.datalog.builtins import default_builtins
from repro.engine import Profiler, evaluate_program
from repro.engine.topdown import TopDownEngine
from repro.errors import ExecutionError
from repro.storage import Database
from repro.workloads import random_dag, same_generation_instance

RIGHT_ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."
LEFT_ANC = "anc(X, Y) <- anc(X, Z), par(Z, Y). anc(X, Y) <- par(X, Y)."


def family_db():
    db = Database()
    db.load("par", [("abe", "homer"), ("homer", "bart"), ("homer", "lisa")])
    return db


def solve(db, program_text, goal_text, **kwargs):
    engine = TopDownEngine(db, parse_program(program_text), **kwargs)
    return engine.solve(parse_literal(goal_text))


def values(rows):
    return {tuple(str(f) for f in row) for row in rows}


def test_ground_facts():
    db = family_db()
    got = solve(db, RIGHT_ANC, "par(abe, Y)")
    assert values(got) == {("abe", "homer")}


def test_bound_goal_matches_reference():
    db = family_db()
    reference = evaluate_program(db, parse_program(RIGHT_ANC))["anc"]
    got = solve(db, RIGHT_ANC, "anc(abe, Y)")
    assert got == {r for r in reference if str(r[0]) == "abe"}


def test_free_goal_matches_reference():
    db = family_db()
    reference = evaluate_program(db, parse_program(RIGHT_ANC))["anc"]
    assert solve(db, RIGHT_ANC, "anc(X, Y)") == reference


def test_left_recursion_terminates_with_tabling():
    db = family_db()
    reference = evaluate_program(db, parse_program(RIGHT_ANC))["anc"]
    assert solve(db, LEFT_ANC, "anc(X, Y)") == reference


def test_left_recursion_without_tabling_raises():
    db = family_db()
    with pytest.raises(ExecutionError):
        solve(db, LEFT_ANC, "anc(abe, Y)", tabling=False, max_depth=200)


def test_right_recursion_works_without_tabling():
    db = family_db()
    got = solve(db, RIGHT_ANC, "anc(abe, Y)", tabling=False)
    assert values(got) == {("abe", "homer"), ("abe", "bart"), ("abe", "lisa")}


def test_comparisons_and_arithmetic():
    db = Database()
    db.load("num", [(1,), (5,)])
    got = solve(db, "big(X, Y) <- num(X), X > 2, Y = X * 10.", "big(X, Y)")
    assert values(got) == {("5", "50")}


def test_negation():
    db = Database()
    db.load("e", [("a", "b")])
    db.load("node", [("a",), ("b",)])
    program = "sink(X) <- node(X), ~moves(X). moves(X) <- e(X, Y)."
    got = solve(db, program, "sink(X)")
    assert values(got) == {("b",)}


def test_negation_over_incomplete_recursive_table_is_sound():
    # Minimized differential reproducer (repro.testing shrinker): the
    # left-recursive q tables are still growing when ~q(a, X) is first
    # tested, so the unfixed engine let the negation succeed for the
    # not-yet-derived pair (a, d) and parked p(d) in the table forever.
    db = Database()
    db.load("edge", [("a", "b"), ("b", "c"), ("c", "d")])
    db.load("node", [("a",), ("b",), ("c",), ("d",)])
    program = """
    q(X, Y) <- q(X, Z), edge(Z, Y).
    q(X, Y) <- edge(X, Y).
    p(X) <- node(X), ~q(a, X).
    """
    reference = evaluate_program(db, parse_program(program))["p"]
    assert solve(db, program, "p(X)") == reference
    assert values(reference) == {("a",)}


def test_negation_over_recursive_predicate_matches_bottom_up():
    # Stratified negation over a whole recursive stratum, free query:
    # unreached(X, Y) holds for node pairs with no path between them.
    db = Database()
    names = random_dag(db, "edge", nodes=8, edges=12, seed=7)
    db.load("node", [(n,) for n in names])
    program = """
    path(X, Y) <- edge(X, Y).
    path(X, Y) <- path(X, Z), edge(Z, Y).
    unreached(X, Y) <- node(X), node(Y), ~path(X, Y).
    """
    reference = evaluate_program(db, parse_program(program))["unreached"]
    assert solve(db, program, "unreached(X, Y)") == reference


def test_negation_unbound_raises():
    db = Database()
    db.load("node", [("a",)])
    with pytest.raises(ExecutionError):
        solve(db, "weird(X) <- ~mystery(Y), node(X).", "weird(X)")


def test_builtins_in_topdown():
    db = Database()
    db.load("noop", [(0,)])
    got = solve(
        db, "small(N) <- noop(Z), range(0, 4, N).", "small(N)",
        builtins=default_builtins(),
    )
    assert values(got) == {("0",), ("1",), ("2",), ("3",)}


def test_unknown_predicate_raises():
    db = Database()
    with pytest.raises(ExecutionError):
        solve(db, "p(X) <- mystery(X).", "p(X)")


def test_same_generation_matches_bottom_up():
    db = Database()
    same_generation_instance(db, fanout=2, depth=3)
    sg = """
    sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
    sg(X, Y) <- flat(X, Y).
    """
    reference = evaluate_program(db, parse_program(sg))["sg"]
    assert solve(db, sg, "sg(X, Y)") == reference


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_tabled_equals_bottom_up_on_random_dags(seed):
    db = Database()
    names = random_dag(db, "par", nodes=10, edges=18, seed=seed)
    reference = evaluate_program(db, parse_program(RIGHT_ANC))["anc"]
    goal = parse_literal(f"anc({names[0]}, Y)")
    engine = TopDownEngine(db, parse_program(RIGHT_ANC))
    got = engine.solve(goal)
    assert got == {r for r in reference if str(r[0]) == names[0]}


def test_aborted_expansion_does_not_poison_tables():
    # Minimized differential reproducer (repro.testing shrinker): a fault
    # injected during the recursive expansion of path/2 used to leave the
    # partially-filled table marked complete, so later reads on the same
    # engine silently returned short answers.
    from repro.engine.faults import FaultInjector
    from repro.engine.governor import ResourceGovernor

    db = Database()
    db.load("edge", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    program = parse_program(
        "path(X, Y) <- edge(X, Y). path(X, Y) <- path(X, Z), edge(Z, Y)."
    )
    injector = FaultInjector()
    injector.inject(site="sld:path", after=1, times=1)
    engine = TopDownEngine(db, program, governor=ResourceGovernor(faults=injector))
    goal = parse_literal("path(a, Y)")
    with pytest.raises(ExecutionError):
        engine.solve(goal)
    # the partial table must have rolled back its completion mark
    assert not any(table.complete for table in engine._tables.values())
    # and a retry on the same engine must deliver the full answer set
    reference = evaluate_program(db, program)["path"]
    assert engine.solve(goal) == {r for r in reference if str(r[0]) == "a"}


def test_profiler_counts_work():
    db = family_db()
    profiler = Profiler()
    engine = TopDownEngine(db, parse_program(RIGHT_ANC), profiler=profiler)
    engine.solve(parse_literal("anc(abe, Y)"))
    assert profiler.total_work > 0


def test_unsafe_rule_raises_instead_of_hanging():
    """A head variable the body never binds must raise, not loop.

    Found by the differential shrinker: the head-merge used one-way
    match(), whose ground-side contract breaks on an unbound head
    variable — it wrote a self-referential binding (X -> X) and every
    later substitution walk spun forever.  The engine must instead
    report the same unsafe-execution diagnosis as the bottom-up engines.
    """
    db = Database()
    db.load("e0", [("d0", "d1"), ("d1", "d2"), ("d2", "d3")])
    db.load("node", [("d0",)])
    unsafe = """
    n1(X, Y) <- node(Y), ~p0(d2, Y).
    top(X, Y) <- n1(X, Y).
    """
    # right-recursive p0 so the tabling=False run reaches the unsafe rule
    # instead of dying on left recursion first
    for recursive, tabling in [
        ("p0(X, Y) <- p0(X, Z), e0(Z, Y).", True),
        ("p0(X, Y) <- e0(X, Z), p0(Z, Y).", True),
        ("p0(X, Y) <- e0(X, Z), p0(Z, Y).", False),
    ]:
        program = f"p0(X, Y) <- e0(X, Y). {recursive} {unsafe}"
        with pytest.raises(ExecutionError, match="not fully bound"):
            solve(db, program, "top(X, Y)", tabling=tabling)


_TABLED_SG = """
import sys
from repro.datalog import parse_literal, parse_program
from repro.engine import Profiler
from repro.engine.topdown import TopDownEngine
from repro.storage import Database
from repro.workloads import same_generation_instance

db = Database()
levels = same_generation_instance(db, fanout=2, depth=3)
profiler = Profiler()
program = parse_program(
    "sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y). sg(X, Y) <- flat(X, Y)."
)
answers = TopDownEngine(db, program, profiler=profiler).solve(
    parse_literal(f"sg({levels[-1][0]}, Y)")
)
print(len(answers), profiler.total_work)
"""


def test_tabled_work_does_not_depend_on_the_string_hash_seed():
    """The order facts reach a table decides how many passes tabling
    takes; it must not be a term-set order, which differs per
    ``PYTHONHASHSEED`` (and CI pins one seed, so only a subprocess with
    another one sees it)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _TABLED_SG], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr[-2000:]
        outputs.append(run.stdout.split())
    assert outputs[0][0] == outputs[1][0] == "8"
    assert outputs[0] == outputs[1]
