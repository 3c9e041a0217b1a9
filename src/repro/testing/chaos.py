"""Chaos harness: seeded fault sweeps over differential-oracle programs.

The fault-tolerance contract (docs/robustness.md) is a single sentence:
under any injected fault, a query either returns the *same answers* as
an undisturbed run, or raises a *clean typed error* with the database
unchanged — never a wrong answer or a partial update.  This module
enforces that sentence
mechanically, the same way :mod:`repro.testing.sweep` enforces
answer-equivalence across execution strategies.

Each seed samples one program from
:func:`~repro.workloads.generate_differential_program` plus one fault
*scenario* from a seeded RNG:

* ``inject_error`` — an operator fault.  The query must
  raise a :class:`~repro.errors.ReproError` subtype, and a subsequent
  clean run must still produce the baseline answers (no corrupted
  state).
* ``txn_abort`` — a mutation batch (inserts, retracts, sometimes a rule
  change) aborted mid-transaction by a foreign exception.  Every
  relation, every query answer, and the kb result cache must be exactly
  as before the transaction began.

CLI: ``python -m repro.testing.chaos --seed 0 --count 100``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass, field

from ..engine.faults import FaultInjector
from ..engine.governor import ResourceGovernor
from ..errors import ReproError
from ..kb import KnowledgeBase
from ..workloads import generate_differential_program

SCENARIOS = (
    "inject_error",
    "txn_abort",
)

#: checkpoint sites an operator-fault schedule may target.
_FAULT_SITES = ("join:*", "fixpoint:round")


class _ChaosAbort(RuntimeError):
    """A deliberately foreign (non-Repro) error aborting a transaction."""


@dataclass
class ChaosCaseResult:
    """Outcome of one seeded chaos case."""

    seed: int
    scenario: str
    queries: int = 0
    clean_errors: int = 0
    fired: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _answers(kb: KnowledgeBase, query: str, governor=None) -> frozenset:
    return frozenset(kb.ask(query, governor=governor).rows)


def _snapshot(kb: KnowledgeBase) -> dict[str, frozenset]:
    return {relation.name: frozenset(relation) for relation in kb.db}


def _build_kb(sample, *, result_cache: bool = False) -> KnowledgeBase:
    kb = KnowledgeBase(result_cache=result_cache)
    kb.rules(sample.rules)
    for name in sorted(sample.facts):
        rows = sample.facts[name]
        if rows:
            kb.facts(name, [tuple(row) for row in rows])
    return kb


def _run_error_case(sample, rng: random.Random, result: ChaosCaseResult) -> None:
    """Injected faults must be clean, typed, and stateless."""
    kb = _build_kb(sample)
    try:
        for query in sample.queries[:2]:
            baseline = _answers(kb, query)
            faults = FaultInjector()
            faults.inject(
                rng.choice(_FAULT_SITES),
                after=rng.randint(0, 4),
                error=f"injected operator failure (seed {result.seed})",
            )
            governor = ResourceGovernor(faults=faults).arm()
            result.queries += 1
            try:
                chaotic = _answers(kb, query, governor=governor)
            except ReproError:
                result.clean_errors += 1
            except Exception as err:  # noqa: BLE001 - the contract under test
                result.violations.append(
                    f"{query}: fault leaked an untyped {type(err).__name__}: {err}"
                )
            else:
                # schedule never fired (site unused by this plan): the run
                # must then simply agree with the baseline
                if chaotic != baseline:
                    result.violations.append(
                        f"{query}: unfired schedule changed answers"
                    )
            result.fired += faults.fired_count()
            after = _answers(kb, query)
            if after != baseline:
                result.violations.append(
                    f"{query}: database corrupted — post-fault rerun diverged"
                )
    finally:
        kb.close()


def _run_txn_abort_case(sample, rng: random.Random, result: ChaosCaseResult) -> None:
    """An aborted transaction must leave no observable trace."""
    # rollback must also restore the result cache
    kb = _build_kb(sample, result_cache=True)
    try:
        queries = sample.queries[:2]
        baseline = {query: _answers(kb, query) for query in queries}
        before = _snapshot(kb)
        domain = [f"d{i}" for i in range(8)]
        try:
            with kb.transaction():
                for _ in range(rng.randint(1, 4)):
                    name = rng.choice(sorted(sample.facts))
                    arity = len(sample.facts[name][0]) if sample.facts[name] else 2
                    row = tuple(rng.choice(domain) for _ in range(arity))
                    if rng.random() < 0.5 and sample.facts[name]:
                        kb.retract(name, [rng.choice(sample.facts[name])])
                    else:
                        kb.facts(name, [row])
                if rng.random() < 0.3:
                    kb.rules("chaos_q(X) :- node(X).")
                raise _ChaosAbort(f"chaos abort (seed {result.seed})")
        except _ChaosAbort:
            pass
        result.queries += len(queries)
        result.fired += 1
        if kb.in_transaction:
            result.violations.append("transaction still open after abort")
        if _snapshot(kb) != before:
            result.violations.append("relations changed by an aborted transaction")
        for query in queries:
            if _answers(kb, query) != baseline[query]:
                result.violations.append(
                    f"{query}: answers changed by an aborted transaction"
                )
    finally:
        kb.close()


def chaos_case(seed: int) -> ChaosCaseResult:
    """Run one seeded chaos case; violations are recorded, not raised."""
    rng = random.Random(seed * 2654435761 % (2**31))
    scenario = rng.choice(SCENARIOS)
    result = ChaosCaseResult(seed=seed, scenario=scenario)
    sample = generate_differential_program(seed)
    if scenario == "inject_error":
        _run_error_case(sample, rng, result)
    else:
        _run_txn_abort_case(sample, rng, result)
    return result


@dataclass
class ChaosReport:
    """Aggregate of one sweep: per-scenario tallies plus all violations."""

    cases: int = 0
    queries: int = 0
    clean_errors: int = 0
    fired: int = 0
    by_scenario: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_sweep(seed: int = 0, count: int = 100, verbose: bool = False) -> ChaosReport:
    report = ChaosReport()
    for index in range(count):
        case = chaos_case(seed + index)
        report.cases += 1
        report.queries += case.queries
        report.clean_errors += case.clean_errors
        report.fired += case.fired
        report.by_scenario[case.scenario] = report.by_scenario.get(case.scenario, 0) + 1
        for violation in case.violations:
            report.violations.append(f"seed {case.seed} [{case.scenario}]: {violation}")
        if verbose:
            status = "ok" if case.ok else "VIOLATION"
            print(f"seed {case.seed}: {case.scenario} "
                  f"({case.queries} queries, {case.fired} faults fired) {status}",
                  flush=True)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.chaos",
        description="seeded chaos sweep: fault schedules over "
                    "differential-oracle programs",
    )
    parser.add_argument("--seed", type=int, default=0, help="first case seed")
    parser.add_argument("--count", type=int, default=100, help="number of cases")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per case")
    args = parser.parse_args(argv)

    started = time.time()
    report = run_sweep(args.seed, args.count, verbose=args.verbose)
    elapsed = time.time() - started
    print(f"\n{report.cases} cases, {report.queries} queries, "
          f"{report.fired} faults fired, {report.clean_errors} clean typed "
          f"errors in {elapsed:.1f}s")
    for scenario in SCENARIOS:
        if scenario in report.by_scenario:
            print(f"  {scenario:>13}: {report.by_scenario[scenario]} cases")
    if report.violations:
        print(f"\n{len(report.violations)} VIOLATION(S):")
        for violation in report.violations:
            print(f"  {violation}")
        return 1
    print("no violations: every run returned correct answers or a clean "
          "typed error with the database unchanged")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
