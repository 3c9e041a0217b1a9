"""A long-lived knowledge base never answers from stale compiled state.

One seeded interleaving of ``facts / retract / rules / transaction
(commit | abort) / materialize / kb.db writes / ask`` per case, over a
``querygen`` differential program, on *one* knowledge base — so every
cache that outlives an ask (compiled plans and their ``PlanCode``, the
lowered-rule memo, the parsed-form memo, the result cache, the
derived-extension store, pinned or not) is exercised across the writes
that must invalidate or update it.  Each ask is compared with a
fresh knowledge base built from the model state and with the naive
term-space reference fixpoint (``run_reference(case, naive=True)``): a
persisted plan, schedule or memo entry must never outlive the rules it
was lowered from.
"""

import random

import pytest

from repro import KnowledgeBase
from repro.datalog.parser import parse_query
from repro.datalog.terms import Variable, term_from_python
from repro.datalog.unify import apply
from repro.testing.oracle import Case, run_reference
from repro.workloads.querygen import generate_differential_program

#: feature mixes: negation and aggregates are maintained like the rest
FEATURE_SETS = (
    ("multiclique", "zeroary", "comparison"),
    ("multiclique", "functor", "arith"),
    ("multiclique", "negation", "aggregate"),
    None,  # the generator's own seeded coin flips
)

#: rules a case may add mid-life, each changing what an existing derived
#: predicate means (so a plan lowered before it is wrong after it)
EXTRA_RULES = (
    "top(X, Y) <- b0(X, Y).",
    "p0(X, Y) <- b1(X, Y).",
    "j0(X, Y) <- e0(Y, X).",
    "top(X, Y) <- j0(Y, X).",
)

#: bound forms asked with fresh ``$``-values: the compile-once path
BOUND_FORMS = ("p0($X, Y)?", "top($X, Y)?", "j0(X, $Y)?")


class _Abort(Exception):
    pass


class Model:
    """The state the knowledge base should be in, in plain Python."""

    def __init__(self, rules: str, facts: dict):
        self.rules = rules.splitlines()
        self.facts = {name: set(rows) for name, rows in facts.items()}

    def case(self, query: str) -> Case:
        return Case.make("\n".join(self.rules), self.facts, query)

    def fresh_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        kb.rules("\n".join(self.rules))
        for name in sorted(self.facts):
            if self.facts[name]:
                kb.facts(name, sorted(self.facts[name]))
        return kb


def _goal_rows(kb: KnowledgeBase, text: str, bindings: dict) -> frozenset:
    """The answers as full rows of the goal's relation."""
    form = parse_query(text)
    answers = kb.ask(text, **bindings)
    bound = {Variable(name): term_from_python(value) for name, value in bindings.items()}
    return frozenset(
        tuple(apply(arg, {**bound, **dict(zip(answers.variables, row))})
              for arg in form.goal.args)
        for row in answers.rows
    )


def _write(
    rng: random.Random, kb: KnowledgeBase, model: Model, domain: list, bypass: bool = False
) -> str:
    """One random insert or retract, applied to both — on *bypass*, to
    ``kb.db`` past the knowledge base; returns its log line."""
    load, retract = (kb.db.load, kb.db.retract) if bypass else (kb.facts, kb.retract)
    prefix = "bypass " if bypass else ""
    name = rng.choice(sorted(n for n, rows in model.facts.items()
                             if n != "num" and len(next(iter(rows), ())) == 2))
    if rng.random() < 0.55 or len(model.facts[name]) < 2:
        rows = [(rng.choice(domain), rng.choice(domain)) for __ in range(rng.randint(1, 2))]
        load(name, rows)
        model.facts[name].update(rows)
        return f"{prefix}facts {name} {rows}"
    # never the last row: neither a fresh KB nor the oracle's database
    # declares a relation that holds nothing
    rows = rng.sample(sorted(model.facts[name]), k=min(2, len(model.facts[name]) - 1))
    retract(name, rows)
    model.facts[name].difference_update(rows)
    return f"{prefix}retract {name} {rows}"


def run_case(seed: int, steps: int = 12) -> list[str]:
    rng = random.Random(seed)
    features = FEATURE_SETS[seed % len(FEATURE_SETS)]
    sample = generate_differential_program(seed, features=features)
    domain = sorted({field for row in sample.facts["node"] for field in row})
    model = Model(sample.rules, sample.facts)
    kb = model.fresh_kb()  # the one long-lived knowledge base
    extra = list(EXTRA_RULES)
    rng.shuffle(extra)
    log = [f"seed {seed} features {sorted(sample.features)}"]

    def check(again: tuple | None = None) -> tuple:
        """Ask one query (*again*: the one a previous check picked) of
        the long-lived KB, a fresh one and the naive model."""
        if again is not None:
            text, bindings = again
        elif rng.random() < 0.5:
            text, bindings = rng.choice(sample.queries), {}
        else:
            text = rng.choice(BOUND_FORMS)
            bindings = {"Y" if "$Y" in text else "X": rng.choice(domain)}
        ground = text
        for name, value in bindings.items():
            ground = ground.replace(f"${name}", value)
        log.append(f"ask {text} {bindings}")
        got = _goal_rows(kb, text, bindings)
        fresh = model.fresh_kb()
        try:
            assert got == _goal_rows(fresh, text, bindings), "differs from a fresh KB"
        finally:
            fresh.close()
        expected = run_reference(model.case(ground), naive=True)
        assert got == expected, "differs from the naive model"
        return text, bindings

    # All-free forms are re-asked after every step: from the second ask on
    # the knowledge base's one store answers them, catching up by the net
    # delta of whatever the step wrote (or rebuilt, after a bypass write).
    all_free = [text for text in sample.queries if _all_free(text)]

    def recheck() -> None:
        for text in all_free:
            check((text, {}))

    try:
        check()
        for __ in range(steps):
            action = rng.random()
            if action < 0.35:
                log.append(_write(rng, kb, model, domain))
            elif action < 0.5 and extra:
                rule = extra.pop()
                kb.rules(rule)
                model.rules.append(rule)
                log.append(f"rules {rule}")
            elif action < 0.65:
                with kb.transaction():
                    for __ in range(rng.randint(1, 3)):
                        log.append("txn " + _write(rng, kb, model, domain))
                    if rng.random() < 0.5 and kb.materialized_views is None:
                        # an ask inside the block sees its writes (but a
                        # view is maintained at commit, by contract)
                        check()
                        recheck()
            elif action < 0.8:
                before = Model("\n".join(model.rules), model.facts)
                asked = None
                try:
                    with kb.transaction():
                        log.append("aborted " + _write(rng, kb, model, domain))
                        pick = None
                        if extra and rng.random() < 0.5:
                            kb.rules(extra[-1])  # rolled back with the rest
                            model.rules.append(extra[-1])
                            log.append(f"aborted rules {extra[-1]}")
                            # the whole extension of what the rule changed
                            pick = (extra[-1].split("(")[0] + "(X, Y)?", {})
                        if kb.materialized_views is None:
                            asked = check(pick)
                        raise _Abort
                except _Abort:
                    model = before
                if asked is not None:
                    check(asked)  # what was compiled in there must not survive
            elif action < 0.9:
                kb.materialize()
                log.append("materialize")
            else:
                log.append(_write(rng, kb, model, domain, bypass=True))
            recheck()
            check()
            if rng.random() < 0.4:
                check()  # a second form, or the same one from the caches
    except AssertionError as err:
        raise AssertionError(f"{err}\n" + "\n".join(log)) from None
    finally:
        kb.close()
    return log


def _all_free(text: str) -> bool:
    args = parse_query(text).goal.args
    return all(isinstance(arg, Variable) for arg in args) and len(set(args)) == len(args)


SEEDS = range(12)
_LOGS: dict[int, list[str]] = {}


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_writes_never_leave_stale_compiled_state(seed):
    _LOGS[seed] = run_case(seed)


def test_the_interleavings_cover_every_operation():
    logs = [_LOGS.get(seed) or run_case(seed) for seed in SEEDS]
    seen = {line.split()[0] for log in logs for line in log}
    assert seen >= {
        "facts", "retract", "rules", "txn", "aborted", "materialize", "bypass", "ask",
    }
