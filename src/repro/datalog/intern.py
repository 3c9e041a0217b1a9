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

Constants are keyed by payload: one dict per exact payload class maps a
payload to its id, so ``1``, ``True`` and ``1.0`` stay three ids (as
three :class:`Constant` instances are three terms), and a field that is
already interned — a term or a plain value — is found without building
or hashing a term.  Only structs, and the rare constant whose payload is
not a lifted class or is unequal to itself (NaN: admitted afresh at
every store), are keyed by the term.

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

from itertools import chain
from typing import Iterable

from .terms import Constant, Struct, Term, lift_term

__all__ = ["TermInterner", "INTERNER", "intern_term"]

#: Payload classes (and their subclasses) that ``lift_term`` turns into a
#: :class:`Constant`; a constant over one of them is keyed by its payload.
_PAYLOADS = (int, float, str, bool)


class TermInterner:
    """A bijection between ground terms and dense integer ids."""

    __slots__ = ("_payloads", "_ids", "terms")

    def __init__(self) -> None:
        #: exact payload class -> payload -> id: every constant whose
        #: payload is of a lifted class and equal to itself
        self._payloads: dict[type, dict[object, int]] = {}
        #: every other ground term (structs, a NaN constant), by the term
        self._ids: dict[Term, int] = {}
        #: id -> canonical term instance; indexing this list decodes.
        self.terms: list[Term] = []

    def __len__(self) -> int:
        return len(self.terms)

    def id_of(self, term: object) -> int:
        """The id of *term* — a ground term, or a plain value lifted as
        :func:`~repro.datalog.terms.lift_term` lifts it — admitting it
        on first sight.  A constant, or a plain value, that is already
        interned is found by its payload: no term is built or hashed.

        Raises ``ValueError`` for non-ground terms (``TypeError`` for a
        value no term can hold).
        """
        cls = term.__class__
        if cls is Struct:
            found = self._ids.get(term)
            return self._admit(term) if found is None else found
        value = term.value if cls is Constant else term  # type: ignore[attr-defined]
        table = self._payloads.get(value.__class__)
        if table is not None:
            found = table.get(value)
            if found is not None:
                return found
        return self._admit(lift_term(term))

    def _admit(self, term: Term) -> int:
        if term.__class__ is Constant:
            value = term.value
            if isinstance(value, _PAYLOADS) and value == value:
                # its payload table missed: that is where it goes
                table = self._payloads.setdefault(value.__class__, {})
                new_id = table[value] = len(self.terms)
                self.terms.append(term)
                return new_id
        found = self._ids.get(term)
        if found is not None:
            return found
        if isinstance(term, Struct):
            # Recurse first so the stored instance references canonical
            # children.  The rebuilt struct compares equal to *term*, so
            # the _ids miss above also covers it.
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

    def lookup(self, term: object) -> int | None:
        """:meth:`id_of` without admitting: the id of *term* if it was
        ever interned, else None — so probing for a constant no stored
        tuple holds leaves no trace."""
        cls = term.__class__
        if cls is Struct:
            return self._ids.get(term)  # type: ignore[arg-type]
        value = term.value if cls is Constant else term  # type: ignore[attr-defined]
        table = self._payloads.get(value.__class__)
        if table is not None:
            found = table.get(value)
            if found is not None or value == value:
                return found
        return self._ids.get(lift_term(term))

    def lookup_row(self, row: Iterable[object]) -> tuple[int, ...] | None:
        """:meth:`lookup` over a row of terms or plain values: its id
        row, or None when some field was never interned — so no stored
        tuple can equal it."""
        ids = tuple(map(self.lookup, row))
        return None if None in ids else ids

    def encode_row(self, row: Iterable[object]) -> tuple[int, ...]:
        return tuple(map(self.id_of, row))

    # The two bulk forms below are the engine's encode / decode boundary
    # (docs/performance.md, "the id-space contract").

    def encode_rows(self, rows: Iterable[Iterable[object]]) -> set[tuple[int, ...]]:
        """Equal-arity rows of ground terms or plain values as a set of
        id rows.  New values are admitted row by row, left to right."""
        if not isinstance(rows, (list, tuple, set, frozenset)):
            rows = list(rows)
        first = next(iter(rows), ())
        # a single row (one write) costs less as a call per field than
        # the bulk path's set-up
        if len(rows) > 1 and first and isinstance(first[0], _PAYLOADS):
            cls, fields = type(first[0]), chain.from_iterable
            if set(map(type, fields(rows))) == {cls} and self._admit_all(cls, fields(rows)):
                # every field is in its class's table: one probe each,
                # and no call per field
                ids = map(self._payloads[cls].__getitem__, fields(rows))
                return set(zip(*[ids] * len(first)))
        id_of = self.id_of
        return {tuple(map(id_of, row)) for row in rows}

    def _admit_all(self, cls: type, values: Iterable[object]) -> bool:
        """Admit the new ones of *values*, plain payloads all of class
        *cls*, in the order of their first occurrence — the order the
        row path admits them in.  False at a NaN, which only the row
        path admits (afresh), with the values before it admitted."""
        table = self._payloads.setdefault(cls, {})
        terms = self.terms
        for value in dict.fromkeys(values):
            if value not in table:
                if value != value:
                    return False
                table[value] = len(terms)
                terms.append(Constant(value))
        return True

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
