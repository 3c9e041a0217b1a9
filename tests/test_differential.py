"""The differential-testing harness: oracle, generator, shrinker, corpus.

The harness itself found three engine bugs (unsound tabled negation,
table poisoning on abort, the unsafe-rule substitution cycle); these
tests keep it able to do so — the oracle still agrees on generated
programs, the shrinker still minimizes, and every corpus reproducer
still replays clean.
"""

import json
from pathlib import Path

import pytest

from repro.engine.topdown import TopDownEngine
from repro.testing import (
    Case,
    DifferentialOracle,
    MetamorphicChecker,
    OracleError,
    case_from_dict,
    case_to_dict,
    shrink_case,
    strategy_names,
    to_corpus_dict,
    to_pytest_source,
)
from repro.workloads import DIFFERENTIAL_FEATURES, generate_differential_program

CORPUS = sorted(Path(__file__).parent.glob("repro_corpus/*.json"))


# ------------------------------------------------------------------ oracle


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_agrees_on_generated_programs(seed):
    oracle = DifferentialOracle()
    sample = generate_differential_program(seed)
    for query in sample.queries:
        case = Case.make(sample.rules, sample.facts, query)
        assert oracle.check(case) == []


def test_oracle_covers_every_strategy():
    names = strategy_names()
    assert "fixpoint-interpreted" in names
    assert "fixpoint-batch" in names
    assert len(names) == 14
    assert "sld-tabled" in names
    assert "magic-basic" in names
    assert "magic-supplementary" in names
    # one kb runner forcing each bound method
    assert {"kb-dp-magic", "kb-dp-supplementary", "kb-dp-counting"} <= set(names)
    # one kb runner per optimizer search strategy
    assert {n for n in names if n.startswith("kb-")} >= {
        "kb-exhaustive", "kb-dp", "kb-kbz", "kb-annealing", "kb-textual",
    }


def test_oracle_outcomes_report_skips():
    # magic rewrites skip non-recursive query predicates rather than fake
    # an answer; the sweep counts those skips instead of hiding them
    case = Case.make("q(X) <- b(X).", {"b": [("d0",)]}, "q(X)?")
    oracle = DifferentialOracle()
    statuses = {o.strategy: o.status for o in oracle.outcomes(case)}
    assert statuses["fixpoint-interpreted"] == "ok"
    assert statuses["magic-basic"] == "skip"
    assert statuses["magic-supplementary"] == "skip"


def test_oracle_raises_when_reference_cannot_run():
    case = Case.make("q(X) <- b(X).", {"b": [("d0",)]}, "missing(X)?")
    with pytest.raises(OracleError):
        DifferentialOracle().outcomes(case)


def test_case_round_trips_through_corpus_dict():
    case = Case.make("q(X) <- b(X).", {"b": [("d0",), ("d1",)]}, "q(X)?")
    assert case_from_dict(case_to_dict(case)) == case


# --------------------------------------------------------------- generator


def test_generator_is_deterministic_per_seed():
    first = generate_differential_program(11)
    second = generate_differential_program(11)
    assert first.rules == second.rules
    assert first.facts == second.facts
    assert first.queries == second.queries


def test_generator_features_cover_the_grammar():
    sample = generate_differential_program(
        3, features=frozenset(DIFFERENTIAL_FEATURES)
    )
    assert "~" in sample.rules, "stratified negation missing"
    assert "pack(" in sample.rules, "functor terms missing"
    assert "z0" in sample.rules, "zero-ary predicate missing"
    assert "!=" in sample.rules or "<" in sample.rules, "comparison missing"
    assert "p1" in sample.rules, "second clique missing"
    assert any(q.endswith("(X, Y)?") for q in sample.queries), "all-free query"
    assert any("(d" in q for q in sample.queries), "bound-argument query"


# ---------------------------------------------------------------- shrinker


def test_shrinker_minimizes_against_plain_predicate():
    # no engines involved: predicate wants one specific fact row and at
    # least one rule mentioning q — everything else must be stripped
    case = Case.make(
        "q(X) <- b(X).\nr(X) <- c(X).\nq(X) <- c(X).",
        {"b": [("d0",), ("d1",), ("d2",)], "c": [("d3",), ("d4",)]},
        "q(X)?",
    )

    def predicate(candidate):
        return "q" in candidate.rules and ("d1",) in candidate.facts.get("b", ())

    shrunk = shrink_case(case, predicate)
    assert shrunk.facts["b"] == (("d1",),)
    assert "c" not in shrunk.facts
    assert len(shrunk.rules.splitlines()) == 1


def test_shrinker_rejects_a_passing_case():
    case = Case.make("q(X) <- b(X).", {"b": [("d0",)]}, "q(X)?")
    with pytest.raises(ValueError):
        shrink_case(case, lambda candidate: False)


def test_shrinker_bounds_hanging_candidates():
    # a predicate that stalls on any candidate smaller than the original
    # must not stall the shrink run: the cap discards the candidate
    case = Case.make(
        "q(X) <- b(X).", {"b": [("d0",), ("d1",)]}, "q(X)?"
    )
    original_size = len(case.facts["b"])

    def predicate(candidate):
        if len(candidate.facts.get("b", ())) < original_size:
            while True:  # simulated engine hang
                pass
        return True

    shrunk = shrink_case(case, predicate, candidate_timeout=0.2)
    assert shrunk.facts["b"] == case.facts["b"]


def test_shrinker_minimizes_a_real_engine_disagreement(monkeypatch):
    """End-to-end teeth: restore the pre-fix unsound negation and check
    the harness still catches it and shrinks to a well-formed case."""

    def unsound_negation_holds(self, goal, depth):
        return next(iter(self._solve_literal(goal, {}, depth)), None) is None

    monkeypatch.setattr(
        TopDownEngine, "_negation_holds", unsound_negation_holds
    )
    sample = generate_differential_program(10)
    assert "negation" in sample.features
    case = Case.make(sample.rules, sample.facts, "n1(X, Y)?")
    oracle = DifferentialOracle()
    disagreements = oracle.check(case)
    assert any(d.strategy == "sld-tabled" for d in disagreements)

    shrunk = shrink_case(case, oracle.failure_predicate(case))
    assert oracle.still_failing(shrunk)
    assert len(shrunk.rules.splitlines()) <= 5
    assert sum(len(rows) for rows in shrunk.facts.values()) <= 8
    # the reproducer must keep the ingredients of the bug: recursion
    # under a negation in n1's derivation
    assert "~" in shrunk.rules
    source = to_pytest_source(shrunk, "negation_teeth", "note")
    assert "DifferentialOracle().check(case) == []" in source


# ------------------------------------------------------------------ corpus


def test_corpus_is_present():
    assert CORPUS, "tests/repro_corpus lost its reproducers"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_reproducer_replays_clean(path):
    payload = json.loads(path.read_text())
    case = case_from_dict(payload)
    assert DifferentialOracle().check(case) == [], payload.get("note", "")


def test_corpus_dict_carries_provenance():
    case = Case.make("q(X) <- b(X).", {"b": [("d0",)]}, "q(X)?")
    payload = to_corpus_dict(case, "why", seed=3, strategies=("sld-tabled",))
    assert payload["note"] == "why"
    assert payload["seed"] == 3
    assert payload["strategies"] == ["sld-tabled"]


# ------------------------------------------------------------- metamorphic


def test_metamorphic_checks_pass_on_generated_program():
    sample = generate_differential_program(0)
    case = Case.make(sample.rules, sample.facts, sample.queries[0])
    assert MetamorphicChecker().check(case) == []
