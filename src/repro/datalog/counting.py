"""Generalized counting rewrite ([SZ 86]; Section 7.3).

Counting is the second recursive method the paper's optimizer considers
alongside magic sets.  Where magic sets remember *which* bound values were
asked for, counting only remembers *how far* from the query each binding
lies: during the descending ("up") phase each level's bound values are
tagged with their distance index, and the ascending ("down") phase then
rebuilds answers level by level **without re-joining on the bound
arguments** — the index alone connects the phases.  Dropping that join
column is the efficiency gain over magic sets; the price is a narrower
applicability condition.

For the paper's same-generation query ``sg(c, Y)?`` over
``sg(X,Y) <- up(X,X1), sg(Y1,X1), dn(Y1,Y)`` and exit rule
``sg(X,Y) <- flat(X,Y)`` the rewrite emits (modulo naming)::

    cnt_sg.bf(K, 0, K)   <- seed_sg.bf(K).                        % seed
    cnt_sg.fb(K, J, X1)  <- cnt_sg.bf(K, I, X), up(X, X1), J = I + 1.
    ans_sg.bf(K, I, Y)   <- cnt_sg.bf(K, I, X), flat(X, Y).       % exit, any level
    ans_sg.fb(K, I, X)   <- cnt_sg.fb(K, I, Y), flat(X, Y).
    ans_sg.bf(K, I, Y)   <- ans_sg.fb(K, J, Y1), dn(Y1, Y), I = J - 1, I >= 0.
    ans_sg.fb(K, I, X)   <- ans_sg.bf(K, J, X1), up(X, X1), ...   % symmetric
    sg.bf(K, Y)          <- ans_sg.bf(K, 0, Y).                   % answers

Every ``cnt_`` / ``ans_`` predicate carries the query's key ``K`` (its
bound-argument values) as leading columns, so one fixpoint answers the
whole key set, seeded once into ``seed_sg.bf`` — the protocol magic sets
follow (:class:`~repro.datalog.magic.SeededProgram`).  The answer rule
rebuilds full-arity rows, in argument order, under the adorned query
name.

Applicability (checked by :func:`counting_applicable`):

1. every adorned predicate reachable from the subquery has **at most one
   recursive rule**, and that rule is **linear** (one clique literal);
2. the rule is **separable**: each variable of the post-recursive body
   part occurs only in the recursive literal's free arguments, the head's
   free arguments, or the post part itself — so the down phase needs no
   bound-argument values;
3. termination requires the up phase to saturate: the recursive
   literal's bound arguments must take a value the prefix produces (a
   binding copied from the head, as in the left-linear
   ``p(X, Y) <- p(X, Z), e(Z, Y)``, is counted one level deeper forever),
   and the bound-argument graph explored by the prefix must be acyclic —
   a *data* property the optimizer checks against catalog ``acyclic``
   annotations (Section 8: safety is a property of execution, and
   counting on cyclic data is the canonical unsafe case).
"""

from __future__ import annotations

from dataclasses import dataclass

from .adorn import AdornedClique, AdornedRule
from .bindings import BindingPattern, split_adorned_name
from .literals import Literal
from .magic import SeededProgram
from .rules import Program, Rule
from .terms import Constant, Struct, Term, Variable, variables_of


def counting_name(adorned_predicate: str) -> str:
    """The counting predicate for an adorned predicate (``cnt_sg.bf``)."""
    return f"cnt_{adorned_predicate}"


def answer_name(adorned_predicate: str) -> str:
    """The per-level answer predicate (``ans_sg.bf``)."""
    return f"ans_{adorned_predicate}"


@dataclass(frozen=True, slots=True)
class _SplitRule:
    """A linear adorned rule split at its recursive literal."""

    adorned_rule: AdornedRule
    prefix: tuple[Literal, ...]
    recursive: Literal
    recursive_pattern: BindingPattern
    suffix: tuple[Literal, ...]


def _split_linear(adorned_rule: AdornedRule) -> _SplitRule | None:
    """Split a recursive adorned rule at its unique clique literal.

    Returns ``None`` when the rule has zero or more than one clique
    literal (clique literals are recognizable by their adorned names).
    """
    recursive_positions = []
    patterns = []
    for index, literal in enumerate(adorned_rule.rule.body):
        if literal.is_comparison:
            continue
        __, pattern = split_adorned_name(literal.predicate)
        if pattern is not None:
            recursive_positions.append(index)
            patterns.append(pattern)
    if len(recursive_positions) != 1:
        return None
    position = recursive_positions[0]
    body = adorned_rule.rule.body
    return _SplitRule(
        adorned_rule=adorned_rule,
        prefix=body[:position],
        recursive=body[position],
        recursive_pattern=patterns[0],
        suffix=body[position + 1:],
    )


def _bound_args(literal: Literal, pattern: BindingPattern) -> tuple[Term, ...]:
    return tuple(literal.args[i] for i in pattern.bound_positions)


def _free_args(literal: Literal, pattern: BindingPattern) -> tuple[Term, ...]:
    return tuple(literal.args[i] for i in pattern.free_positions)


def _separable(split: _SplitRule) -> bool:
    """Condition 2: the suffix must not need bound-side values."""
    head = split.adorned_rule.rule.head
    head_pattern = split.adorned_rule.head_adornment
    allowed: set[Variable] = set()
    for term in _free_args(head, head_pattern):
        allowed.update(variables_of(term))
    for term in _free_args(split.recursive, split.recursive_pattern):
        allowed.update(variables_of(term))
    suffix_vars: set[Variable] = set()
    for literal in split.suffix:
        suffix_vars.update(literal.variables)
    forbidden: set[Variable] = set()
    for term in _bound_args(head, head_pattern):
        forbidden.update(variables_of(term))
    for literal in split.prefix:
        forbidden.update(literal.variables)
    for term in _bound_args(split.recursive, split.recursive_pattern):
        forbidden.update(variables_of(term))
    # Suffix variables may not leak in from the bound side...
    if suffix_vars & (forbidden - allowed):
        return False
    # ...and the head's free arguments must be fully determined by the
    # down phase alone: the suffix plus the recursive literal's free
    # arguments.  (The bound side is exactly what counting forgets.)
    head_free_vars: set[Variable] = set()
    for term in _free_args(head, head_pattern):
        head_free_vars.update(variables_of(term))
    produced = set(suffix_vars)
    for term in _free_args(split.recursive, split.recursive_pattern):
        produced.update(variables_of(term))
    return head_free_vars <= produced


def _advances(split: _SplitRule) -> bool:
    """Condition 3, its structural half: the recursive literal's bound
    arguments hold a variable the head does not bind."""
    head_bound: set[Variable] = set()
    for term in _bound_args(split.adorned_rule.rule.head, split.adorned_rule.head_adornment):
        head_bound.update(variables_of(term))
    inner: set[Variable] = set()
    for term in _bound_args(split.recursive, split.recursive_pattern):
        inner.update(variables_of(term))
    return bool(inner - head_bound)


def counting_applicable(adorned: AdornedClique) -> bool:
    """Check structural applicability (conditions 1, 2 and the
    structural half of 3 above).

    Condition 3's data half (acyclicity) is checked separately by the
    optimizer against catalog statistics, because it is a property of
    the database, not of the rules.
    """
    by_head: dict[str, list[AdornedRule]] = {}
    for adorned_rule in adorned.rules:
        by_head.setdefault(adorned_rule.rule.head.predicate, []).append(adorned_rule)
    for rules in by_head.values():
        recursive = [r for r in rules if r.is_recursive]
        if len(recursive) > 1:
            return False
        for rule in recursive:
            split = _split_linear(rule)
            if split is None or not _separable(split) or not _advances(split):
                return False
    # Counting needs a binding to count from.
    return adorned.query_adornment.bound_count > 0


_ZERO = Constant(0)
_LEVEL_IN = Variable("CntI")
_LEVEL_OUT = Variable("CntJ")
#: Up phase: the inner level is one more than the current (CntI bound first).
_SUCC = Literal("=", (_LEVEL_OUT, Struct("+", (_LEVEL_IN, Constant(1)))))
#: Down phase: the current level is one less than the inner (CntJ bound first).
_PRED = Literal("=", (_LEVEL_IN, Struct("-", (_LEVEL_OUT, Constant(1)))))
#: Guard: the down phase stops at the seed level, else it would descend
#: through negative levels forever.
_NONNEG = Literal(">=", (_LEVEL_IN, Constant(0)))


def counting_rewrite(adorned: AdornedClique) -> SeededProgram:
    """Apply the generalized counting transformation.

    The caller must have verified :func:`counting_applicable`; the rewrite
    raises ``ValueError`` on structurally inapplicable cliques.
    """
    if not counting_applicable(adorned):
        raise ValueError("counting method is not applicable to this adorned clique")

    # Detect the pure-copy case: every recursive rule has an empty suffix,
    # calls its own predicate, and passes the free arguments through
    # unchanged.  The down phase is then the identity: no down rules are
    # emitted and answers are read at *any* level, which turns the O(N²)
    # level-by-level copying of transitive-closure-style queries into O(N).
    any_level = True
    for adorned_rule in adorned.rules:
        if not adorned_rule.is_recursive:
            continue
        split = _split_linear(adorned_rule)
        assert split is not None
        head = adorned_rule.rule.head
        if (
            split.suffix
            or split.recursive.predicate != head.predicate
            or _free_args(split.recursive, split.recursive_pattern)
            != _free_args(head, adorned_rule.head_adornment)
        ):
            any_level = False
            break

    query = adorned.query_predicate
    pattern = adorned.query_adornment
    keys = tuple(Variable(f"CntK{i}") for i in range(pattern.bound_count))
    frees = tuple(Variable(f"CntF{i}") for i in range(len(pattern.free_positions)))
    seed = f"seed_{query}"
    rules: list[Rule] = [
        Rule(Literal(counting_name(query), keys + (_ZERO,) + keys), (Literal(seed, keys),))
    ]
    for adorned_rule in adorned.rules:
        head = adorned_rule.rule.head
        head_pattern = adorned_rule.head_adornment
        cnt_head = Literal(counting_name(head.predicate), keys + (_LEVEL_IN,) + _bound_args(head, head_pattern))
        ans_head = Literal(answer_name(head.predicate), keys + (_LEVEL_IN,) + _free_args(head, head_pattern))

        if not adorned_rule.is_recursive:
            # Exit rule: answers materialize at every level the binding reaches.
            rules.append(Rule(ans_head, (cnt_head,) + adorned_rule.rule.body))
            continue

        split = _split_linear(adorned_rule)
        assert split is not None  # guaranteed by counting_applicable
        rec_pred = split.recursive.predicate

        # Up phase: push bound values one level deeper through the prefix.
        up_head = Literal(
            counting_name(rec_pred),
            keys + (_LEVEL_OUT,) + _bound_args(split.recursive, split.recursive_pattern),
        )
        rules.append(Rule(up_head, (cnt_head,) + split.prefix + (_SUCC,)))

        if not any_level:
            # Down phase: combine the next level's answers with the suffix —
            # no bound-argument join (the counting optimization).
            inner = Literal(
                answer_name(rec_pred),
                keys + (_LEVEL_OUT,) + _free_args(split.recursive, split.recursive_pattern),
            )
            rules.append(Rule(ans_head, (inner,) + split.suffix + (_PRED, _NONNEG)))

    # The answers: full-arity rows in argument order, from level 0 (any
    # level for a pure-copy down phase).
    by_position = dict(zip(pattern.bound_positions + pattern.free_positions, keys + frees))
    level = _LEVEL_IN if any_level else _ZERO
    rules.append(Rule(
        Literal(query, tuple(by_position[i] for i in range(len(pattern.code)))),
        (Literal(answer_name(query), keys + (level,) + frees),),
    ))

    program = Program(rules)
    return SeededProgram(
        program=program,
        answer_predicate=query,
        seed_predicate=seed,
        seed_arity=pattern.bound_count,
        level_predicates=frozenset(
            rule.head.predicate
            for rule in program
            if rule.head.predicate.startswith(("cnt_", "ans_"))
        ),
    )
