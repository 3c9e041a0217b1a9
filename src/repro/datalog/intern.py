"""Global hash-consing of ground terms.

The rule executor (:mod:`repro.engine.batch`) represents tuples as
columns of small integers.  The mapping from ground terms to those
integers lives here: a :class:`TermInterner` assigns each *distinct*
ground term one id, forever, and keeps the canonical term instance in a
dense list so decoding an id is a single list index.

Two properties matter for correctness:

* **Injectivity** — two different ids always decode to terms that compare
  unequal, so deduplicating id tuples deduplicates term tuples exactly.
* **Ground terms only** — interning a variable (or a struct containing
  one) raises.  Non-ground terms are per-rule scratch state; leaking them
  into a process-global table would pin arbitrary query internals alive
  and invite accidental cross-query aliasing of logically distinct
  variables.

Structs are hash-consed recursively: interning ``f(g(a), b)`` interns
``g(a)``, ``a`` and ``b`` too, and the canonical instance stored for the
outer struct references the canonical instances of its arguments.  After
that, equality between canonical instances is identity — which also
speeds up set/dict operations over term tuples of interned data, since
``tuple.__eq__`` short-circuits on ``is``.

The module-level :data:`INTERNER` is the default table;
:func:`~repro.datalog.terms.term_from_python` routes every lifted scalar
through it, so fact loading interns as a side effect.
"""

from __future__ import annotations

from typing import Iterable

from .terms import Constant, Struct, Term, lift_term

__all__ = ["TermInterner", "INTERNER", "intern_term", "intern_id", "term_for"]


class TermInterner:
    """A bijection between ground terms and dense integer ids."""

    __slots__ = ("_ids", "terms")

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        #: id -> canonical term instance; indexing this list decodes.
        self.terms: list[Term] = []

    def __len__(self) -> int:
        return len(self.terms)

    def id_of(self, term: Term) -> int:
        """The id of *term*, admitting it on first sight.

        Raises ``ValueError`` for non-ground terms.
        """
        found = self._ids.get(term)
        if found is not None:
            return found
        return self._admit(term)

    def _admit(self, term: Term) -> int:
        if isinstance(term, Struct):
            # Recurse first so the stored instance references canonical
            # children.  The rebuilt struct compares equal to *term*, so
            # the _ids miss that brought us here also covers it.
            canonical_args = tuple(
                self.terms[self.id_of(arg)] for arg in term.args
            )
            term = Struct(term.functor, canonical_args)
        elif not isinstance(term, Constant):  # a variable, or not a term at all
            raise ValueError(f"cannot intern non-ground term {term!r}")
        new_id = len(self.terms)
        self.terms.append(term)
        self._ids[term] = new_id
        return new_id

    def canonical(self, term: Term) -> Term:
        """The canonical (shared) instance equal to *term*."""
        return self.terms[self.id_of(term)]

    def lookup(self, term: Term) -> int | None:
        """The id of *term* if it was ever interned — never admits it, so
        probing for a constant no stored tuple holds leaves no trace."""
        return self._ids.get(term)

    def lookup_row(self, row: Iterable[object]) -> tuple[int, ...] | None:
        """:meth:`lookup` over a row of terms or plain values (lifted,
        not interned): its id row, or None when some field was never
        interned — so no stored tuple can equal it."""
        ids = tuple(map(self._ids.get, map(lift_term, row)))
        return None if None in ids else ids

    def encode_row(self, row: tuple[Term, ...]) -> tuple[int, ...]:
        id_of = self.id_of
        return tuple(id_of(t) for t in row)

    def decode_row(self, ids: tuple[int, ...]) -> tuple[Term, ...]:
        terms = self.terms
        return tuple(terms[i] for i in ids)

    # The two bulk forms below are the engine's encode / decode boundary
    # (docs/performance.md, "the id-space contract"): they work column
    # by column so the per-field work stays inside ``map``.

    def encode_rows(self, rows: Iterable[tuple[Term, ...]]) -> set[tuple[int, ...]]:
        """Equal-arity ground term rows as a set of id rows."""
        if not isinstance(rows, (list, tuple, set, frozenset)):
            rows = list(rows)
        columns = list(zip(*rows))
        if not columns:  # no rows, or the one row of arity 0
            return {()} if rows else set()
        return set(zip(*(map(self.id_of, column) for column in columns)))

    def decode_rows(self, id_rows: Iterable[tuple[int, ...]]) -> frozenset[tuple[Term, ...]]:
        """Equal-arity id rows as a frozenset of canonical term rows."""
        if not isinstance(id_rows, (list, tuple, set, frozenset)):
            id_rows = list(id_rows)
        columns = list(zip(*id_rows))
        if not columns:
            return frozenset({()}) if id_rows else frozenset()
        decode = self.terms.__getitem__
        return frozenset(zip(*(map(decode, column) for column in columns)))


#: The process-wide default table used by the engine and storage layers.
INTERNER = TermInterner()


def intern_term(term: Term) -> Term:
    """Canonical shared instance of a ground *term* (global table)."""
    return INTERNER.canonical(term)


def intern_id(term: Term) -> int:
    """Global id of a ground *term*."""
    return INTERNER.id_of(term)


def term_for(ident: int) -> Term:
    """Decode a global id back to its canonical term."""
    return INTERNER.terms[ident]
