"""Parity of the one-store fact base with what it replaced.

Two things a base relation's stored form must not move:

* the statistics the cost model reads — :func:`collect_statistics` works
  over id columns, and has to agree with a plain term-space computation
  on every generated dataset;
* the work the engines report — the lowered join variants and the
  term-space reference must still see a :class:`Relation` (``index``
  probes free, ``hash`` builds charged) and not its decoded view, so
  ``produced`` / ``examined`` / ``probes`` /
  ``iterations`` of every engine on one fixed program are pinned to the
  values recorded at the commit before the change.
"""

import random

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.datalog.terms import Constant
from repro.engine.fixpoint import FixpointEngine
from repro.engine.profiler import Profiler
from repro.kb import KnowledgeBase
from repro.optimizer.optimizer import OptimizerConfig
from repro.plans import RECURSIVE_METHODS
from repro.storage import Database, collect_statistics
from repro.testing.reference import ReferenceEngine
from repro.workloads.querygen import generate_differential_program

# ---------------------------------------------------------------- statistics


def term_space_statistics(relation):
    """What ``collect_statistics`` computed before id columns: distinct
    terms per column, the range of the numeric (non-bool) constants, and
    a depth-first cycle check over the term pairs."""
    rows = [tuple(row) for row in relation]
    columns = []
    for position in range(relation.arity):
        values = {row[position] for row in rows}
        numbers = [
            v.value for v in values
            if isinstance(v, Constant) and type(v.value) in (int, float)
        ]
        columns.append((
            (max(1, len(values)) if rows else 0),
            float(min(numbers)) if numbers else None,
            float(max(numbers)) if numbers else None,
        ))
    acyclic = None
    if relation.arity == 2:
        successors = {}
        for a, b in rows:
            successors.setdefault(a, set()).add(b)
        state = {}

        def has_cycle(node):
            state[node] = "open"
            for succ in successors.get(node, ()):
                if state.get(succ) == "open" or (succ not in state and has_cycle(succ)):
                    return True
            state[node] = "done"
            return False

        acyclic = not any(node not in state and has_cycle(node) for node in list(successors))
    return float(len(rows)), columns, acyclic


def assert_statistics_match(relation):
    stats = collect_statistics(relation)
    cardinality, columns, acyclic = term_space_statistics(relation)
    assert stats.cardinality == cardinality
    assert [(c.distinct, c.minimum, c.maximum) for c in stats.columns] == columns
    assert stats.acyclic is acyclic
    assert collect_statistics(relation, check_acyclic=False).acyclic is None


@pytest.mark.parametrize("seed", range(40))
def test_id_column_statistics_equal_term_space_on_generated_datasets(seed):
    case = generate_differential_program(seed)
    db = Database()
    for name, rows in case.facts.items():
        if rows:
            db.load(name, rows)
    for relation in db:
        assert_statistics_match(relation)


def test_statistics_over_bool_mixed_and_cyclic_columns():
    db = Database()
    rows = [
        ("a", 3, "x"), ("b", 2.5, "x"), ("c", "seven", "x"),
        ("d", -4, "x"), ("e", "nine", "y"),
    ]
    # a bool is no numeric range — unless 1 / 0 were interned first, which
    # equal True / False (see Constant); either way both sides must agree
    flags = [("on", True), ("off", False)]
    cyclic = [(1, 2), (2, 3), (3, 1), (7, 8)]
    loop = [("s", "s")]
    db.load("mixed", rows)
    db.load("flags", flags)
    db.load("cyclic", cyclic)
    db.load("loop", loop)
    db.create("empty", 2)
    for relation in db:
        assert_statistics_match(relation)
    mixed = db.stats_for("mixed")
    assert (mixed.columns[1].minimum, mixed.columns[1].maximum) == (-4.0, 3.0)
    assert mixed.columns[0].minimum is None and mixed.columns[2].distinct == 2
    assert db.stats_for("cyclic").acyclic is False and db.stats_for("loop").acyclic is False
    empty = db.stats_for("empty")
    assert empty.cardinality == 0 and empty.acyclic is True
    assert [c.distinct for c in empty.columns] == [0, 0]


# ------------------------------------------------------------- work counters

RULES = """
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
    sib(X, Y) <- par(P, X), par(P, Y), X != Y.
    rich(X, Y) <- anc(X, Y), owns(Y, W), W > 40.
"""


def tree_facts():
    rng = random.Random(11)
    par = [(f"n{i}", f"n{2 * i + k}") for i in range(1, 32) for k in (0, 1)]
    owns = [(f"n{i}", rng.randrange(100)) for i in range(1, 64, 3)]
    return par, owns


def counters(profiler):
    return (profiler.produced, profiler.examined, profiler.probes, profiler.iterations)


def fixpoint_counters(engine):
    db = Database()
    par, owns = tree_facts()
    db.load("par", par)
    db.load("owns", owns)
    profiler = Profiler()
    program = Program(list(parse_program(RULES)))
    engine(db, profiler=profiler).evaluate(program)
    return counters(profiler)


def ask_counters(query, **config):
    kb = KnowledgeBase(OptimizerConfig(**config), result_cache=False)
    kb.rules(RULES)
    par, owns = tree_facts()
    kb.facts("par", par)
    kb.facts("owns", owns)
    profiler = Profiler()
    answers = kb.ask(query, profiler=profiler)
    return counters(profiler) + (len(answers),)


def view_counters():
    kb = KnowledgeBase()
    kb.rules("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y). "
             "sib(X, Y) <- par(P, X), par(P, Y), X != Y.")
    par, _owns = tree_facts()
    kb.facts("par", par)
    views = kb.materialize()
    out = [counters(views.profiler)]
    kb.facts("par", [("n63", "n64"), ("n64", "n65"), ("n40", "n66")])
    out.append(counters(views.profiler))
    kb.retract("par", [("n1", "n2"), ("n64", "n65")])
    out.append(counters(views.profiler))
    with kb.transaction():
        kb.facts("par", [("n1", "n2")])
        kb.retract("par", [("n3", "n6")])
    out.append(counters(views.profiler))
    return out, len(kb.view_rows("anc")), len(kb.view_rows("sib"))


#: (produced, examined, probes, iterations[, answers]) recorded at commit
#: 340a29a, where a base relation was a set of term rows with a mirror;
#: the counting entry was re-recorded when counting began to run once per
#: key set (its key column, seed rule and answer rule are real work; the
#: answers did not change); the views entry's retract and transaction
#: snapshots when DRed began to rederive in one witness pass (each rule
#: fires once with the witnesses' wider head; the answers did not change).
#: The fixpoint entries are keyed by evaluator: the engine's lowered one,
#: and the term-space reference it is compared with.
RECORDED = {'ask anc bound, counting': (311, 279, 72, 5, 30),
 'ask anc bound, magic': (1318, 1256, 598, 7, 30),
 'ask anc bound, naive': (2424, 1412, 321, 5, 30),
 'ask anc bound, seminaive': (976, 946, 317, 5, 30),
 'ask anc bound, supplementary': (588, 588, 198, 12, 30),
 'ask rich, textual hash': (1441, 1693, 576, 5, 51),
 'ask rich, textual index': (1441, 1672, 576, 5, 51),
 'ask rich, textual merge': (1441, 1951, 318, 5, 51),
 'ask rich, textual nested_loop': (1441, 7006, 318, 5, 51),
 'ask sib, textual hash': (6, 131, 3, 0, 1),
 'ask sib, textual index': (6, 7, 3, 0, 1),
 'ask sib, textual merge': (6, 133, 1, 0, 1),
 'ask sib, textual nested_loop': (6, 128, 1, 0, 1),
 'fixpoint lowered': (1700, 1622, 638, 5),
 'fixpoint reference': (1700, 1942, 638, 5),
 'views': ([(1566, 1506, 442, 5), (1637, 1591, 480, 5), (1822, 1778, 656, 5), (2088, 2035, 825, 5)],
           240,
           60)}


def measured():
    out = {
        "fixpoint lowered": fixpoint_counters(FixpointEngine),
        "fixpoint reference": fixpoint_counters(ReferenceEngine),
        "views": view_counters(),
    }
    for method in RECURSIVE_METHODS:
        out[f"ask anc bound, {method}"] = ask_counters(
            "anc(n2, Y)?", recursive_methods=(method,)
        )
    for method in ("index", "hash", "merge", "nested_loop"):
        out[f"ask rich, textual {method}"] = ask_counters(
            "rich(X, Y)?", strategy="textual", force_method=method
        )
        out[f"ask sib, textual {method}"] = ask_counters(
            "sib(n4, Y)?", strategy="textual", force_method=method
        )
    return out


def test_work_counters_equal_the_values_recorded_before_the_change():
    assert measured() == RECORDED


if __name__ == "__main__":  # prints the table to record
    import pprint

    pprint.pprint(measured(), width=100)
