"""Evaluation of arithmetic terms and comparison literals.

Section 8: "an evaluable predicate will be executed by calls to built-in
routines, [but] can be formally viewed as infinite relations defining,
for example, all the pairs of integers satisfying the relationship x>y".
This module is those built-in routines.  The *safety* analysis guarantees
the engine only reaches an evaluable literal with sufficient bindings; if
an unbound variable is still encountered (e.g. when deliberately running
an unsafe plan in tests) :class:`~repro.errors.ExecutionError` is raised —
the run-time face of unsafety.

``=`` doubles as arithmetic assignment and structural unification:
``Z = X + 1`` evaluates the right side and binds ``Z``; ``pair(A, B) =
pair(1, 2)`` decomposes.  Both directions work, matching Section 8.1's EC
rule ("as soon as all the variables in expression are instantiated").
"""

from __future__ import annotations

from typing import Callable

from ..datalog.literals import ARITHMETIC_FUNCTORS, Literal
from ..datalog.terms import Constant, Struct, Term, Variable, is_ground, walk_terms
from ..datalog.unify import Substitution, apply, unify
from ..errors import ExecutionError

Number = float | int

_BINARY_OPS: dict[str, Callable[[Number, Number], Number]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "mod": lambda a, b: a % b,
    "**": lambda a, b: a ** b,
    "min": min,
    "max": max,
}

_UNARY_OPS: dict[str, Callable[[Number], Number]] = {
    "neg": lambda a: -a,
    "abs": abs,
}


def _as_number(term: Term, context: str) -> Number:
    if isinstance(term, Constant) and isinstance(term.value, (int, float)) and not isinstance(term.value, bool):
        return term.value
    raise ExecutionError(f"{context}: {term} is not a number")


def eval_term(term: Term, subst: Substitution) -> Term:
    """Normalize *term* under *subst*, folding arithmetic functors.

    Non-arithmetic structs are evaluated structurally (their arguments are
    normalized); arithmetic functors over numbers fold to constants.
    Raises :class:`ExecutionError` if an arithmetic subterm still contains
    an unbound variable — the unsafe-execution signal.
    """
    term = apply(term, subst)
    return _fold(term)


def _fold(term: Term) -> Term:
    if isinstance(term, (Constant, Variable)):
        return term
    args = tuple(_fold(a) for a in term.args)
    if term.functor in ARITHMETIC_FUNCTORS:
        for arg in args:
            if isinstance(arg, Variable):
                raise ExecutionError(
                    f"arithmetic over unbound variable {arg} in {term} (unsafe execution)"
                )
        if term.functor in _UNARY_OPS and len(args) == 1:
            value = _UNARY_OPS[term.functor](_as_number(args[0], str(term)))
            return Constant(value)
        if term.functor in _BINARY_OPS and len(args) == 2:
            left = _as_number(args[0], str(term))
            right = _as_number(args[1], str(term))
            try:
                value = _BINARY_OPS[term.functor](left, right)
            except ZeroDivisionError:
                raise ExecutionError(f"division by zero in {term}") from None
            return Constant(value)
        raise ExecutionError(f"unknown arithmetic form {term}")
    return Struct(term.functor, args)


def _order_key(term: Term) -> tuple:
    """A total order over ground terms: numbers < strings < structs.

    Needed by the sort-merge join and for deterministic output ordering.
    Numbers (``bool`` among them) are keyed by the number itself: Python
    compares an ``int`` with a ``float`` exactly, where ``float(n)``
    would round a large int (and overflow a huge one).
    """
    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, (int, float)):
            return (0, value, "")
        return (1, 0.0, str(value))
    if isinstance(term, Struct):
        return (2, 0.0, term.functor) + tuple(_order_key(a) for a in term.args)
    raise ExecutionError(f"cannot order non-ground term {term}")


def compare_terms(left: Term, right: Term) -> int:
    """Three-way comparison of ground terms (-1, 0, 1) in the order of
    the ordering comparisons: ``2`` and ``2.0`` tie here although they
    are two terms (which ``=`` and ``!=`` tell apart)."""
    lk, rk = _order_key(left), _order_key(right)
    if lk < rk:
        return -1
    if lk > rk:
        return 1
    return 0


def term_sort_key(term: Term) -> tuple:
    """Public sort key for ground terms (stable across runs)."""
    return _order_key(term)


def solve_comparison(literal: Literal, subst: Substitution) -> Substitution | None:
    """Execute a comparison literal under *subst*.

    Returns the (possibly extended) substitution when the literal
    succeeds, ``None`` when it fails.  For ``=`` the more-instantiated
    side is evaluated and unified with the other (binding its variables);
    for ordering comparisons both sides must be ground.
    """
    if not literal.is_comparison:
        raise ExecutionError(f"not a comparison literal: {literal}")
    left_raw, right_raw = literal.args

    if literal.predicate == "=":
        left = apply(left_raw, subst)
        right = apply(right_raw, subst)
        if is_ground(left):
            left = _fold(left)
        if is_ground(right):
            right = _fold(right)
        if not is_ground(left) and not is_ground(right):
            raise ExecutionError(
                f"'=' with both sides non-ground: {left} = {right} (unsafe execution)"
            )
        for side in (left, right):
            if is_ground(side):
                continue
            for sub in walk_terms(side):
                if isinstance(sub, Struct) and sub.functor in ARITHMETIC_FUNCTORS and not is_ground(sub):
                    raise ExecutionError(
                        f"cannot invert arithmetic in {left} = {right} (unsafe execution)"
                    )
        return unify(left, right, subst)

    left = eval_term(left_raw, subst)
    right = eval_term(right_raw, subst)
    if not is_ground(left) or not is_ground(right):
        free = {v for v in (left, right) if isinstance(v, Variable)}
        raise ExecutionError(
            f"comparison {literal} entered with unbound arguments {free} (unsafe execution)"
        )
    if literal.predicate == "!=":
        # the negation of ``=`` on ground sides: the terms differ
        return subst if left != right else None
    order = compare_terms(left, right)
    outcome = {
        "<": order < 0,
        "<=": order <= 0,
        ">": order > 0,
        ">=": order >= 0,
    }[literal.predicate]
    return subst if outcome else None
