"""Statistics on the write path.

A ``Database`` collects a relation's statistics on the first read and
keeps them in step with its writes after that: a write logs the id rows
it changed, the next read folds them in
(``repro.storage.statistics.LiveStatistics``).  Counted by monkeypatch,
a one-row write followed by a compile never reaches the from-scratch
routines; and the flag a plan's safety rests on follows the data: an
edge that closes a cycle turns ``acyclic`` off, and a form that chose
``counting`` re-plans without it.
"""

import random

import pytest

from repro import KnowledgeBase, OptimizerConfig
from repro.storage import Database, statistics

ANC = "anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).\n"  # tc_batch's program
FROM_SCRATCH = ("collect_statistics", "_cycle_candidates", "_is_acyclic_binary")


@pytest.fixture
def scratch(monkeypatch):
    """Calls of the from-scratch statistics routines, by name."""
    counts = dict.fromkeys(FROM_SCRATCH, 0)
    for name in FROM_SCRATCH:
        def counted(*args, _name=name, _routine=getattr(statistics, name), **kwargs):
            counts[_name] += 1
            return _routine(*args, **kwargs)

        monkeypatch.setattr(statistics, name, counted)
    return counts


def random_dag(nodes: int, edges: int, rng: random.Random) -> list[tuple[str, str]]:
    """Distinct edges, each from a lower-numbered node to a higher one."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < edges:
        u = rng.randrange(nodes - 1)
        chosen.add((u, rng.randrange(u + 1, nodes)))
    return [(f"n{u}", f"n{v}") for u, v in sorted(chosen)]


def test_a_write_then_a_compile_never_collects_again(scratch):
    rng = random.Random(7)
    kb = KnowledgeBase()
    kb.rules(ANC)
    kb.facts("par", random_dag(2_500, 10_000, rng))
    kb.compile("anc(X, Y)?")
    assert scratch["collect_statistics"] == 1
    scratch.update(dict.fromkeys(FROM_SCRATCH, 0))
    served = kb.db.stats_for("par")
    kb.facts("par", [("p", "q")])
    assert kb.db._stats["par"].stats is served  # the write only logged
    for i in range(50):
        if i % 2:
            edge = (f"x{i}", f"y{i}")  # tc_batch's write: a fresh isolated edge
        else:  # an edge between DAG nodes: searched for, never a cycle
            u = rng.randrange(2_499)
            edge = (f"n{u}", f"n{rng.randrange(u + 1, 2_500)}")
        kb.facts("par", [edge])
        kb.compile("anc(X, Y)?")
    assert scratch == dict.fromkeys(FROM_SCRATCH, 0)
    stats = kb.db.stats_for("par")
    assert stats.acyclic is True
    assert stats == statistics.collect_statistics(kb.db.relation("par"))


def recursive_method(kb: KnowledgeBase) -> str:
    return kb.compile("anc($X, Y)?").plan.children[0].steps[0].child.method


def test_an_edge_that_closes_a_cycle_replans_a_counting_form(scratch):
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("counting", "seminaive")))
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(30)])
    assert recursive_method(kb) == "counting"
    assert kb.db.stats_for("par").acyclic is True
    kb.facts("par", [("n30", "n0")])  # closes the chain into a ring
    assert kb.db.stats_for("par").acyclic is False
    assert scratch["_is_acyclic_binary"] == 1  # the first collection's: the search found the cycle
    assert recursive_method(kb) != "counting"
    assert set(kb.ask("anc($X, Y)?", X="n0").to_python()) == {(f"n{i}",) for i in range(31)}
    kb.retract("par", [("n30", "n0")])  # out of a cyclic graph: Kahn's test again
    assert kb.db.stats_for("par").acyclic is True
    assert scratch["_is_acyclic_binary"] == 2
    assert recursive_method(kb) == "counting"


def test_searches_past_their_budget_fall_back_to_kahn(scratch):
    db = Database()
    db.add("e", [(f"n{i}", f"n{i + 1}") for i in range(100)])
    assert db.stats_for("e").acyclic is True
    # skips from the head of the chain: each is searched down the rest of
    # it, and 40 such searches outrun one step per stored edge
    db.add("e", [(f"n{i}", f"n{i + 2}") for i in range(40)])
    assert db.stats_for("e").acyclic is True
    assert scratch["_is_acyclic_binary"] == 2
    db.add("e", [("n100", "n50")])
    assert db.stats_for("e").acyclic is False
    assert scratch["_is_acyclic_binary"] == 2
