"""Term representation for LDL: constants, variables and complex terms.

LDL extends flat relational data with *complex terms* built from function
symbols (Section 1 of the paper: "Horn Clauses include recursive definitions
and complex objects, such as hierarchies, lists and heterogeneous
structures").  The term language here is the usual first-order one:

* :class:`Constant` — an atomic ground value (int, float, str, bool).
* :class:`Variable` — a logic variable, identified by name.
* :class:`Struct`  — ``f(t1, ..., tn)``, a function symbol applied to terms.

Terms are immutable and hashable so they can live in sets/dicts (the
optimizer memoizes on binding patterns, the engine deduplicates tuples).

Ground ``Struct`` terms double as *values*: the storage layer stores ground
terms directly inside relation tuples, so ``parts(bike, wheel(front))`` is a
perfectly good fact.  Lists are encoded with the conventional ``cons``/``nil``
function symbols; :func:`make_list` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

#: Python types allowed as atomic constant payloads.
AtomicValue = Union[int, float, str, bool]

#: Function symbol used for list cells and the empty list.
CONS = "cons"
NIL = "nil"


@dataclass(frozen=True, slots=True, eq=False)
class Constant:
    """An atomic ground value.

    The payload is a plain Python scalar.  Two constants are equal iff
    their payloads are of the same class and equal: ``0`` and ``0.0``
    are two constants, and so are ``1`` and ``True``, although Python
    equates the payloads.  The interner, term sets and the unifier (and
    so ``=``) all share this identity; the ordering comparisons and
    ``!=`` compare numbers by value instead
    (:func:`repro.engine.evaluable.compare_terms`).
    """

    value: AtomicValue

    def __eq__(self, other: object) -> bool:
        return (
            other.__class__ is Constant
            and self.value.__class__ is other.value.__class__  # type: ignore[attr-defined]
            and self.value == other.value  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        # the value's hash alone, as a plain dataclass hashes: stable
        # across runs (a class's hash is its address), and ``0`` / ``0.0``
        # colliding costs only an ``__eq__`` call
        return hash((self.value,))

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return self.value
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass(frozen=True, slots=True)
class Variable:
    """A logic variable, identified by its name.

    By parser convention variable names start with an upper-case letter or
    underscore (``X``, ``Y1``, ``_``).  A bare ``_`` is anonymous: the parser
    renames each occurrence apart so two ``_`` never co-designate.
    """

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    @property
    def is_anonymous(self) -> bool:
        """True for parser-generated anonymous variables (``_`` renamings)."""
        return self.name.startswith("_")


@dataclass(frozen=True, slots=True)
class Struct:
    """A complex term: a function symbol applied to argument terms.

    ``Struct("wheel", (Constant("front"),))`` prints as ``wheel(front)``.
    A zero-ary struct is distinct from the string constant of the same
    name; the parser only creates zero-ary structs explicitly (``nil()``
    is written ``nil`` and parsed as a constant — lists use
    :func:`make_list` which follows the same convention).
    """

    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        # Defensive: tolerate list inputs from user code.
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    _INFIX = frozenset({"+", "-", "*", "/", "//", "mod", "**"})

    def __str__(self) -> str:
        if self.functor in self._INFIX and len(self.args) == 2:
            return f"({self.args[0]} {self.functor} {self.args[1]})"
        if not self.args:
            return f"{self.functor}()"
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.functor}({inner})"

    def __repr__(self) -> str:
        return f"Struct({self.functor!r}, {self.args!r})"

    @property
    def arity(self) -> int:
        return len(self.args)


Term = Union[Constant, Variable, Struct]


def is_term(obj: object) -> bool:
    """Return True if *obj* is a :data:`Term`."""
    return isinstance(obj, (Constant, Variable, Struct))


def lift_term(obj: object) -> Term:
    """A Python value (or an existing term) as a :data:`Term`, built
    fresh: scalars become :class:`Constant`, lists/tuples ``cons`` lists,
    terms pass through.  Nothing is interned, so the result can be
    looked up without being admitted."""
    if is_term(obj):
        return obj  # type: ignore[return-value]
    if isinstance(obj, (list, tuple)):
        return make_list(map(lift_term, obj))
    if isinstance(obj, (int, float, str, bool)):
        return Constant(obj)
    raise TypeError(f"cannot lift {obj!r} ({type(obj).__name__}) into a term")


def term_from_python(obj: object) -> Term:
    """Lift a Python value (or an existing term) into a :data:`Term`.

    Scalars become :class:`Constant`; lists/tuples become ``cons`` lists.
    Terms pass through unchanged, which lets user code mix plain values
    and explicit terms freely when stating facts.

    Lifted values are *interned* (:mod:`repro.datalog.intern`): equal
    scalars share one canonical :class:`Constant` instance, so hot-loop
    equality on loaded data short-circuits on identity.  Explicit terms
    are not forced through the interner — they may contain variables.
    """
    if is_term(obj):
        return obj  # type: ignore[return-value]
    return _intern_term(lift_term(obj))


def _intern_term(term: Term) -> Term:
    """``intern.intern_term``, bound on the first call: that module
    imports this one, and an import statement per lifted value is
    measurable in a bulk load."""
    global _intern_term
    from .intern import intern_term as _intern_term

    return _intern_term(term)


def make_list(items: Iterable[Term]) -> Term:
    """Build a ``cons``/``nil`` list term from *items*."""
    result: Term = Constant(NIL)
    for item in reversed(list(items)):
        result = Struct(CONS, (item, result))
    return result


def list_elements(term: Term) -> list[Term] | None:
    """Decompose a ``cons``/``nil`` list term; ``None`` if not a proper list."""
    items: list[Term] = []
    while True:
        if isinstance(term, Constant) and term.value == NIL:
            return items
        if isinstance(term, Struct) and term.functor == CONS and term.arity == 2:
            items.append(term.args[0])
            term = term.args[1]
            continue
        return None


def variables_of(term: Term) -> frozenset[Variable]:
    """The set of variables occurring in *term*."""
    if isinstance(term, Variable):
        return frozenset((term,))
    if isinstance(term, Struct):
        out: set[Variable] = set()
        stack = list(term.args)
        while stack:
            t = stack.pop()
            if isinstance(t, Variable):
                out.add(t)
            elif isinstance(t, Struct):
                stack.extend(t.args)
        return frozenset(out)
    return frozenset()


def is_ground(term: Term) -> bool:
    """True iff *term* contains no variables."""
    if isinstance(term, Constant):
        return True
    if isinstance(term, Variable):
        return False
    stack = list(term.args)
    while stack:
        t = stack.pop()
        if isinstance(t, Variable):
            return False
        if isinstance(t, Struct):
            stack.extend(t.args)
    return True


def term_depth(term: Term) -> int:
    """Nesting depth: constants/variables have depth 0, ``f(c)`` depth 1."""
    if not isinstance(term, Struct):
        return 0
    if not term.args:
        return 1
    return 1 + max(term_depth(a) for a in term.args)


def term_size(term: Term) -> int:
    """Number of symbol occurrences in *term* (used by well-founded orders)."""
    if not isinstance(term, Struct):
        return 1
    return 1 + sum(term_size(a) for a in term.args)


def walk_terms(term: Term) -> Iterator[Term]:
    """Yield *term* and all its subterms, pre-order."""
    yield term
    if isinstance(term, Struct):
        for arg in term.args:
            yield from walk_terms(arg)


def rename_term(term: Term, mapping: dict[Variable, Variable]) -> Term:
    """Apply a variable renaming to *term* (variables absent from the
    mapping are kept as-is)."""
    if isinstance(term, Variable):
        return mapping.get(term, term)
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(rename_term(a, mapping) for a in term.args))
    return term
