"""Literals: predicates applied to terms, including evaluable predicates.

A rule body is a conjunction of literals.  Three kinds appear:

* **base literals** — over a database (extensional) relation, e.g.
  ``up(X, X1)``;
* **derived literals** — over a predicate defined by rules;
* **evaluable literals** — comparison predicates (``X > Y``,
  ``Z = X + Y + 1``) executed by built-in routines.  Per Section 8 of the
  paper these are *formally infinite relations* (all pairs with ``x > y``),
  which is exactly how the safety analysis treats them.

Whether a literal is base or derived depends on the knowledge base, not on
the literal itself, so only evaluability is intrinsic here (it is determined
by the predicate symbol).  Negated literals carry a flag; the engine gives
them stratified set-difference semantics and the safety analysis requires
them fully bound.

Arithmetic is expressed with ordinary complex terms whose functors are the
operators: ``Z = X + Y*2`` parses into a ``=`` literal whose right argument
is ``Struct('+', (X, Struct('*', (Y, 2))))``.  The evaluable-predicate
module (:mod:`repro.engine.evaluable`) interprets those functors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .terms import Term, Variable, is_ground, term_from_python, variables_of

#: Comparison predicate symbols, per Section 8.1 of the paper.
COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})

#: Functors interpreted as arithmetic by the evaluable-predicate machinery.
ARITHMETIC_FUNCTORS = frozenset({"+", "-", "*", "/", "//", "mod", "**", "neg", "abs", "min", "max"})


@dataclass(frozen=True, slots=True)
class Literal:
    """A (possibly negated) predicate applied to argument terms.

    Comparison literals are ordinary literals whose ``predicate`` is one of
    :data:`COMPARISON_OPS`; they always have exactly two arguments.

    A literal is a key of every memo the cost search probes, so its
    variable set and its hash are computed once, at construction; the
    hash is the one the three fields would get as a tuple, so set and
    dict orders are those of a literal hashed field by field.
    """

    predicate: str
    args: tuple[Term, ...]
    negated: bool = False
    #: all variables occurring in the argument terms
    variables: frozenset[Variable] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if self.predicate in COMPARISON_OPS and len(self.args) != 2:
            raise ValueError(f"comparison {self.predicate!r} takes 2 arguments, got {len(self.args)}")
        if self.predicate in COMPARISON_OPS and self.negated:
            raise ValueError("negated comparisons are not supported; use the complement operator")
        variables: set[Variable] = set()
        for arg in self.args:
            variables.update(variables_of(arg))
        object.__setattr__(self, "variables", frozenset(variables))
        object.__setattr__(self, "_hash", hash((self.predicate, self.args, self.negated)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the cached hash is of this process's string hashing: rebuild it
        return Literal, (self.predicate, self.args, self.negated)

    # -- structural properties -------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_comparison(self) -> bool:
        """True for evaluable comparison literals (``=``, ``<``, ...)."""
        return self.predicate in COMPARISON_OPS

    @property
    def is_ground(self) -> bool:
        return all(is_ground(a) for a in self.args)

    # -- convenience -----------------------------------------------------------

    def with_predicate(self, name: str) -> "Literal":
        """A copy of this literal under a different predicate name.

        Used by the adornment machinery, which renames ``p`` to ``p.bf``.
        """
        return Literal(name, self.args, self.negated)

    def positive(self) -> "Literal":
        """This literal with the negation stripped."""
        if not self.negated:
            return self
        return Literal(self.predicate, self.args)

    def __str__(self) -> str:
        if self.is_comparison:
            return f"{self.args[0]} {self.predicate} {self.args[1]}"
        inner = ", ".join(str(a) for a in self.args)
        body = f"{self.predicate}({inner})" if self.args else self.predicate
        return f"~{body}" if self.negated else body

    def __repr__(self) -> str:
        return f"Literal({str(self)!r})"


def lit(predicate: str, *args: object, negated: bool = False) -> Literal:
    """Build a literal, lifting plain Python values into terms.

    >>> lit("up", Variable("X"), "a")
    Literal('up(X, a)')
    """
    return Literal(predicate, tuple(term_from_python(a) for a in args), negated)


def comparison(op: str, left: object, right: object) -> Literal:
    """Build a comparison literal; *op* must be in :data:`COMPARISON_OPS`."""
    if op not in COMPARISON_OPS:
        raise ValueError(f"unknown comparison operator {op!r}")
    return Literal(op, (term_from_python(left), term_from_python(right)))


def variables_of_literals(literals: Iterable[Literal]) -> frozenset[Variable]:
    """Union of the variable sets of *literals*."""
    out: set[Variable] = set()
    for literal in literals:
        out.update(literal.variables)
    return frozenset(out)


@dataclass(frozen=True, slots=True)
class PredicateRef:
    """A predicate identified by name and arity.

    Two predicates with the same name but different arities are distinct —
    the dependency graph, catalog and optimizer all key on this pair.
    """

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


def pred_ref(literal: Literal) -> PredicateRef:
    """The :class:`PredicateRef` of a literal."""
    return PredicateRef(literal.predicate, literal.arity)
