"""Magic-sets rewriting of adorned cliques ([BMSU 85]; Section 7.3).

Magic sets let a fixpoint computation exploit the bindings of the subquery
— the pipelined execution of a CC node (Section 4: "the former (i.e.,
pipelining) requires the use of techniques such as Magic Sets or
Counting").  Given an :class:`~repro.datalog.adorn.AdornedClique`, the
rewrite produces an ordinary (non-adorned) program that any bottom-up
fixpoint engine evaluates efficiently:

* for every adorned predicate ``P.a`` a *magic predicate* ``m_P.a`` holds
  the tuples of bound-argument values for which ``P.a`` will be asked;
* the subquery's bound constants seed the magic set (the engine inserts
  the seed tuple at run time);
* each adorned rule ``H.a ← L1 … Ln`` contributes

  - a *modified rule* ``H.a ← m_H.a(b̄H), L1 … Ln`` restricting the head
    computation to asked-for bindings, and
  - for every clique literal ``Li = P.b(...)`` a *magic rule*
    ``m_P.b(b̄Li) ← m_H.a(b̄H), L1 … L(i-1)`` propagating bindings
    sideways through the SIP prefix.

This is the plain (non-supplementary) variant: prefix joins may be
recomputed across magic rules of one source rule, which costs work but
keeps the rewrite obviously correct; see
:class:`~repro.datalog.adorn.AdornedClique` for where the SIP came from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adorn import AdornedClique, AdornedRule
from .bindings import BindingPattern, split_adorned_name
from .literals import Literal
from .rules import Program, Rule
from .terms import Term


def magic_name(adorned_predicate: str) -> str:
    """The magic predicate for an adorned predicate (``m_sg.bf``)."""
    return f"m_{adorned_predicate}"


@dataclass(frozen=True, slots=True)
class SeededProgram:
    """Result of a bound-method rewrite: magic, supplementary magic or
    counting (:mod:`repro.datalog.counting`).

    All three follow one protocol.  The engine seeds ``seed_predicate``
    once with the whole key set, each key a tuple of ``seed_arity``
    bound-argument values in position order.  After the fixpoint,
    ``answer_predicate`` (the adorned subquery name, ``sg.bf``) holds
    full-arity rows, at least every seeded key's answers; the caller
    selects them by key.

    * ``level_predicates`` — counting only: the ``cnt_`` / ``ans_``
      predicates, one of whose columns is the bounded level index (the
      cost model caps them by rounds x domain, not domain²).
    """

    program: Program
    answer_predicate: str
    seed_predicate: str
    seed_arity: int
    level_predicates: frozenset[str] = frozenset()

    def __str__(self) -> str:
        return str(self.program)


def _bound_args(literal: Literal, pattern: BindingPattern) -> tuple[Term, ...]:
    """The literal's argument terms at the pattern's bound positions."""
    return tuple(literal.args[i] for i in pattern.bound_positions)


def _head_magic_literal(adorned_rule: AdornedRule) -> Literal:
    """``m_H.a(b̄H)`` for the rule's head.

    An all-free head adornment yields a *zero-ary* magic literal.  It is
    kept rather than dropped: it carries no bindings, but it still gates
    *whether* the predicate is asked for at all, and the seed for a
    zero-ary magic predicate is simply the empty tuple (``seed_arity ==
    0``), which the fixpoint engine inserts like any other seed row.
    """
    head = adorned_rule.rule.head
    pattern = adorned_rule.head_adornment
    return Literal(magic_name(head.predicate), _bound_args(head, pattern))


def supplementary_magic_rewrite(adorned: AdornedClique) -> SeededProgram:
    """The supplementary-magic variant ([BR 87]-style).

    Basic magic re-evaluates the SIP prefix ``L1 … L(i-1)`` once per
    magic rule *and* once more inside the modified rule.  Supplementary
    magic materializes each prefix exactly once in *supplementary
    predicates*: for a rule with clique literals at positions p₁ < … < pₖ,

    * ``sup_r_0`` is the head's magic set;
    * ``sup_r_i(V̄ᵢ) ← sup_r_(i-1)(V̄ᵢ₋₁), <segment before pᵢ>, L_pᵢ``
      carries exactly the variables still needed downstream;
    * the magic rule for ``L_pᵢ`` projects its bound arguments out of the
      segment *before* consuming ``L_pᵢ``;
    * the modified rule finishes from the last supplementary state.

    The result trades extra materialized relations for never repeating a
    join — the classic time/space trade, measured by the ablation
    benchmark (EXP-8).
    """
    rules: list[Rule] = []
    for replica_index, adorned_rule in enumerate(adorned.rules):
        source = adorned_rule.rule
        head_magic = _head_magic_literal(adorned_rule)
        body = source.body

        clique_positions = [
            position
            for position, literal in enumerate(body)
            if not literal.is_comparison
            and split_adorned_name(literal.predicate)[1] is not None
        ]
        if not clique_positions:
            # exit rule: identical to basic magic
            rules.append(Rule(source.head, (head_magic,) + body, source.label))
            continue

        def needed_after(position: int) -> frozenset:
            out = set(source.head.variables)
            for literal in body[position:]:
                out |= literal.variables
            return frozenset(out)

        def bound_through(position: int) -> frozenset:
            from .bindings import binds_after, head_bound_vars

            bound = head_bound_vars(source.head, adorned_rule.head_adornment)
            for literal in body[:position]:
                bound = binds_after(literal, bound)
            return bound

        previous_state: Literal = head_magic
        consumed = 0
        for index, position in enumerate(clique_positions):
            clique_literal = body[position]
            # magic rule from the state *before* the clique literal
            segment = body[consumed:position]
            pre_vars = sorted(
                bound_through(position) & needed_after(position),
                key=lambda v: v.name,
            )
            sup_pre = Literal(
                f"sup{index}_{adorned_rule.rule.head.predicate}_{replica_index}",
                tuple(pre_vars),
            )
            rules.append(Rule(sup_pre, (previous_state,) + segment, source.label))

            __, pattern = split_adorned_name(clique_literal.predicate)
            assert pattern is not None
            magic_head = Literal(
                magic_name(clique_literal.predicate), _bound_args(clique_literal, pattern)
            )
            rules.append(Rule(magic_head, (sup_pre,), source.label))
            previous_state = sup_pre
            consumed = position

        # modified rule: resume from the last supplementary state and
        # consume the final clique literal plus the tail segment.
        rules.append(
            Rule(source.head, (previous_state,) + body[consumed:], source.label)
        )

    seed = magic_name(adorned.query_predicate)
    return SeededProgram(
        program=Program(rules),
        answer_predicate=adorned.query_predicate,
        seed_predicate=seed,
        seed_arity=adorned.query_adornment.bound_count,
    )


def magic_rewrite(adorned: AdornedClique) -> SeededProgram:
    """Apply the (basic) magic-sets transformation to an adorned clique."""
    rules: list[Rule] = []

    for adorned_rule in adorned.rules:
        source = adorned_rule.rule
        head_magic = _head_magic_literal(adorned_rule)

        # Modified original rule: gate on the head's magic set.
        rules.append(Rule(source.head, (head_magic,) + source.body, source.label))

        # Magic rules: one per clique literal in the body.
        for position, literal in enumerate(source.body):
            if literal.is_comparison:
                continue
            base_name, pattern = split_adorned_name(literal.predicate)
            if pattern is None:
                continue  # non-clique literal: external, not adorned here
            magic_head = Literal(magic_name(literal.predicate), _bound_args(literal, pattern))
            prefix = (head_magic,) + source.body[:position]
            rules.append(Rule(magic_head, prefix, source.label))

    seed = magic_name(adorned.query_predicate)
    return SeededProgram(
        program=Program(rules),
        answer_predicate=adorned.query_predicate,
        seed_predicate=seed,
        seed_arity=adorned.query_adornment.bound_count,
    )
