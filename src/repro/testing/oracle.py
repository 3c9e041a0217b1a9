"""The differential oracle: one case, every execution strategy, one diff.

A *case* is a program (rules text), a fact base (plain-python rows per
base relation), and one query whose bound arguments are constants — so
every strategy can run it without keyword bindings.  Answers are
normalized to frozensets of full goal-argument term tuples, which makes
``Constant(3)`` compare equal across engines regardless of how each
strategy surfaces its rows.

Strategy families:

* ``fixpoint-interpreted`` / ``fixpoint-naive`` — the bottom-up engine
  on the reference evaluator (``compile=False``), with and without
  semi-naive deltas;
* ``fixpoint-batch`` — the bottom-up engine as shipped: every rule that
  lowers runs its columnar plan (:mod:`repro.engine.batch`);
* ``sld-tabled`` — the tabled top-down engine;
* ``magic-basic`` / ``magic-supplementary`` — the rewrites applied
  *directly* (adorn + rewrite + seeded fixpoint), bypassing the
  optimizer, so the rewrite paths are exercised even when the cost model
  would not choose them; only applicable to recursive query predicates;
* ``kb-<strategy>`` — the full pipeline under each optimizer search
  strategy, plus method-restricted variants (``kb-dp-magic``,
  ``kb-dp-supplementary``) that force the magic rewrites through the
  optimizer as well.

``fixpoint-interpreted`` is the reference: it is the simplest path and
the one the original paper's semantics define.  Comparing every strategy
against the reference compares every strategy *pair* — answer equality
is transitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping

from ..datalog.adorn import CPermutation, adorn_clique
from ..datalog.builtins import default_builtins
from ..datalog.graph import DependencyGraph
from ..datalog.literals import Literal, pred_ref
from ..datalog.magic import SeededProgram, magic_rewrite, supplementary_magic_rewrite
from ..datalog.parser import parse_program, parse_query
from ..datalog.rules import Program
from ..datalog.terms import Term
from ..datalog.unify import apply, match
from ..engine.fixpoint import evaluate_program
from ..engine.topdown import TopDownEngine
from ..errors import ExecutionError, ReproError
from ..kb import KnowledgeBase
from ..optimizer import STRATEGIES, OptimizerConfig
from ..storage.catalog import Database

Row = tuple[Term, ...]
Answers = frozenset[Row]


class OracleSkip(ReproError):
    """A strategy does not apply to this case (not a disagreement)."""


class OracleError(ReproError):
    """The *reference* strategy failed: the case itself is invalid."""


@dataclass(frozen=True)
class Case:
    """One differential test case: rules + facts + a single query."""

    rules: str
    facts: Mapping[str, tuple[tuple, ...]]
    query: str

    @staticmethod
    def make(rules: str, facts: Mapping[str, Iterable[tuple]], query: str) -> "Case":
        frozen = {name: tuple(tuple(row) for row in rows) for name, rows in facts.items()}
        return Case(rules=rules, facts=frozen, query=query)

    def database(self) -> Database:
        db = Database()
        for name in sorted(self.facts):
            rows = self.facts[name]
            if rows:
                db.load(name, [tuple(row) for row in rows])
        return db


def case_to_dict(case: Case) -> dict:
    """JSON-ready form (tuples become lists)."""
    return {
        "rules": case.rules,
        "facts": {name: [list(row) for row in rows] for name, rows in sorted(case.facts.items())},
        "query": case.query,
    }


def case_from_dict(data: Mapping) -> Case:
    return Case.make(data["rules"], data["facts"], data["query"])


@dataclass(frozen=True)
class StrategyOutcome:
    strategy: str
    status: str  # "ok" | "skip" | "error"
    answers: Answers | None = None
    detail: str = ""


@dataclass(frozen=True)
class Disagreement:
    """One strategy's answers (or error) differ from the reference's."""

    strategy: str
    reference: str
    kind: str  # "answers" | "error"
    detail: str
    missing: tuple[str, ...] = ()  # in reference, not in strategy
    extra: tuple[str, ...] = ()  # in strategy, not in reference

    def __str__(self) -> str:
        parts = [f"{self.strategy} vs {self.reference} [{self.kind}] {self.detail}"]
        if self.missing:
            parts.append(f"  missing: {', '.join(self.missing)}")
        if self.extra:
            parts.append(f"  extra:   {', '.join(self.extra)}")
        return "\n".join(parts)


# ------------------------------------------------------------- normalization


def _filter_rows(goal: Literal, rows: Iterable[Row]) -> Answers:
    """Rows of the goal's relation that match the goal's argument pattern
    (constants filter, repeated variables force equality)."""
    out = set()
    for row in rows:
        subst: dict | None = {}
        for pattern, value in zip(goal.args, row):
            subst = match(apply(pattern, subst), value, subst)
            if subst is None:
                break
        if subst is not None:
            out.add(tuple(row))
    return frozenset(out)


# ----------------------------------------------------------------- runners


def _parsed(case: Case) -> tuple[Database, Program, "object"]:
    db = case.database()
    program = parse_program(case.rules)
    form = parse_query(case.query)
    if form.bound_vars:
        raise OracleSkip("cases bind query arguments with constants, not $vars")
    return db, program, form


def run_fixpoint(case: Case, **engine_kwargs) -> Answers:
    db, program, form = _parsed(case)
    result = evaluate_program(
        db, program, builtins=default_builtins(), **engine_kwargs
    )
    ref = pred_ref(form.goal)
    if program.is_derived(ref):
        rows: Iterable[Row] = result.rows(form.predicate)
    else:
        relation = db.get(form.predicate)
        if relation is None:
            # mirror the other engines: an unknown query predicate is an
            # error, not an empty answer — otherwise the shrinker could
            # reduce any disagreement to a degenerate empty program
            raise ExecutionError(f"unknown predicate {form.predicate!r}")
        rows = frozenset(tuple(r) for r in relation)
    return _filter_rows(form.goal, rows)


def run_sld(case: Case) -> Answers:
    db, program, form = _parsed(case)
    ref = pred_ref(form.goal)
    if program.is_derived(ref):
        reached = {ref, *DependencyGraph(program).reachable_from(ref)}
        if any(rule.is_aggregate for rule in program if rule.head_ref in reached):
            raise OracleSkip("sld resolution has no aggregate heads")
    engine = TopDownEngine(db, program, builtins=default_builtins())
    return frozenset(engine.solve(form.goal))


def run_direct_magic(case: Case, rewrite: Callable[..., SeededProgram]) -> Answers:
    """Adorn + rewrite + seeded fixpoint, without the optimizer.

    Applies only to recursive, negation-free query cliques; the rewritten
    program is extended with the support rules for non-clique derived
    predicates the clique uses (the optimizer does the same).
    """
    db, program, form = _parsed(case)
    ref = pred_ref(form.goal)
    if not program.is_derived(ref):
        raise OracleSkip("query predicate is a base relation")
    graph = DependencyGraph(program)
    graph.check_stratified()
    clique = graph.clique_of(ref)
    if clique is None:
        raise OracleSkip("query predicate is not recursive")
    if any(l.negated for rule in clique.rules for l in rule.body):
        raise OracleSkip("magic rewrite of a negated clique body")
    adorned = adorn_clique(
        clique,
        ref,
        form.adornment,
        CPermutation.greedy_sip(),
        derived_predicates=program.derived_predicates,
    )
    rewritten = rewrite(adorned)
    needed: set = set()
    for clique_ref in clique.predicates:
        needed |= set(graph.reachable_from(clique_ref))
    needed -= set(clique.predicates)
    support = [r for r in program if r.head_ref in needed]
    full = rewritten.program.extend(support)
    seed_row = tuple(form.goal.args[i] for i in form.adornment.bound_positions)
    result = evaluate_program(
        db, full, seeds={rewritten.seed_predicate: {seed_row}},
        builtins=default_builtins(),
    )
    # the answer relation covers every *asked* subquery; the goal filter
    # narrows it back to the seeded one
    return _filter_rows(form.goal, result.rows(rewritten.answer_predicate))


def run_kb(case: Case, config: OptimizerConfig) -> Answers:
    kb = KnowledgeBase(config)
    kb.rules(case.rules)
    for name in sorted(case.facts):
        rows = case.facts[name]
        if rows:
            kb.facts(name, [tuple(row) for row in rows])
    form = parse_query(case.query)
    answers = kb.ask(case.query)
    out = set()
    for row in answers.rows:
        subst = dict(zip(answers.variables, row))
        out.add(tuple(apply(arg, subst) for arg in form.goal.args))
    return frozenset(out)


def _default_runners() -> dict[str, Callable[[Case], Answers]]:
    runners: dict[str, Callable[[Case], Answers]] = {
        "fixpoint-interpreted": partial(run_fixpoint, compile=False),
        "fixpoint-batch": run_fixpoint,
        "fixpoint-naive": partial(run_fixpoint, compile=False, naive=True),
        "sld-tabled": run_sld,
        "magic-basic": partial(run_direct_magic, rewrite=magic_rewrite),
        "magic-supplementary": partial(run_direct_magic, rewrite=supplementary_magic_rewrite),
    }
    for strategy in STRATEGIES:
        runners[f"kb-{strategy}"] = partial(
            run_kb, config=OptimizerConfig(strategy=strategy, seed=0)
        )
    runners["kb-dp-magic"] = partial(
        run_kb,
        config=OptimizerConfig(strategy="dp", recursive_methods=("magic", "seminaive")),
    )
    runners["kb-dp-supplementary"] = partial(
        run_kb,
        config=OptimizerConfig(strategy="dp", recursive_methods=("supplementary", "seminaive")),
    )
    runners["kb-dp-counting"] = partial(
        run_kb,
        config=OptimizerConfig(strategy="dp", recursive_methods=("counting", "seminaive")),
    )
    return runners


def strategy_names() -> tuple[str, ...]:
    """All registered strategy names, reference first."""
    return tuple(_default_runners())


REFERENCE = "fixpoint-interpreted"


class DifferentialOracle:
    """Run a case through every strategy and diff against the reference."""

    def __init__(self, strategies: Iterable[str] | None = None, reference: str = REFERENCE):
        registry = _default_runners()
        if strategies is not None:
            wanted = list(strategies)
            unknown = sorted(set(wanted) - set(registry))
            if unknown:
                raise ValueError(f"unknown strategies: {unknown}")
            names = [reference] + [n for n in registry if n in wanted and n != reference]
            registry = {name: registry[name] for name in names}
        self.reference = reference
        self.runners = registry

    def outcomes(self, case: Case) -> list[StrategyOutcome]:
        """Every strategy's answers (or skip/error) on *case*.

        Raises :class:`OracleError` if the reference strategy itself
        fails — the case is then invalid, not a disagreement.
        """
        try:
            expected = self.runners[self.reference](case)
        except OracleSkip as skip:
            raise OracleError(f"reference cannot run case: {skip}") from skip
        except ReproError as exc:
            raise OracleError(f"reference failed: {exc}") from exc
        out = [StrategyOutcome(self.reference, "ok", expected)]
        for name, runner in self.runners.items():
            if name == self.reference:
                continue
            try:
                out.append(StrategyOutcome(name, "ok", runner(case)))
            except OracleSkip as skip:
                out.append(StrategyOutcome(name, "skip", detail=str(skip)))
            except ReproError as exc:
                out.append(StrategyOutcome(name, "error", detail=f"{type(exc).__name__}: {exc}"))
        return out

    def check(self, case: Case) -> list[Disagreement]:
        """Disagreements between each strategy and the reference (empty ==
        every strategy pair agrees on this case)."""
        outcomes = self.outcomes(case)
        expected = outcomes[0].answers
        assert expected is not None
        disagreements: list[Disagreement] = []
        for outcome in outcomes[1:]:
            if outcome.status == "skip":
                continue
            if outcome.status == "error":
                disagreements.append(
                    Disagreement(
                        strategy=outcome.strategy,
                        reference=self.reference,
                        kind="error",
                        detail=outcome.detail,
                    )
                )
                continue
            assert outcome.answers is not None
            if outcome.answers != expected:
                missing = sorted(str(r) for r in expected - outcome.answers)
                extra = sorted(str(r) for r in outcome.answers - expected)
                disagreements.append(
                    Disagreement(
                        strategy=outcome.strategy,
                        reference=self.reference,
                        kind="answers",
                        detail=(
                            f"{len(outcome.answers)} answers vs "
                            f"{len(expected)} expected"
                        ),
                        missing=tuple(missing[:6]),
                        extra=tuple(extra[:6]),
                    )
                )
        return disagreements

    def still_failing(self, case: Case) -> bool:
        """Shrinker predicate: True while the case still disagrees.

        An invalid candidate (reference fails) is *not* failing — the
        shrinker must not reduce a disagreement into a parse error.
        """
        try:
            return bool(self.check(case))
        except OracleError:
            return False

    def failure_predicate(self, case: Case) -> Callable[["Case"], bool]:
        """A shrinker predicate pinned to *case*'s disagreement signature.

        Candidates count as failing only while some ``(strategy, kind)``
        pair of the original disagreement persists, so the shrinker cannot
        drift onto an unrelated failure while minimizing.
        """
        signature = {(d.strategy, d.kind) for d in self.check(case)}
        if not signature:
            raise ValueError("failure_predicate needs a disagreeing case")
        # only the disagreeing strategies need to re-run per candidate —
        # shrinking makes hundreds of oracle calls, so the narrowing is
        # the difference between seconds and minutes
        narrowed = DifferentialOracle(
            strategies={s for s, __ in signature}, reference=self.reference
        )

        def predicate(candidate: Case) -> bool:
            try:
                found = narrowed.check(candidate)
            except OracleError:
                return False
            return any((d.strategy, d.kind) in signature for d in found)

        return predicate
