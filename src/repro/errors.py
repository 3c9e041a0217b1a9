"""Exception hierarchy for the repro LDL system.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The hierarchy mirrors the major
subsystems: parsing, the knowledge base (rule/fact consistency), plan
construction, execution, and optimization (including safety).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised when LDL source text cannot be parsed.

    Carries the line and column of the offending token when available so
    callers can point users at the problem.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + location)
        self.line = line
        self.column = column


class KnowledgeBaseError(ReproError):
    """Raised for inconsistent rule/fact definitions.

    Examples: redefining a base predicate as derived, arity mismatches
    between rules and facts, or referencing a predicate that is neither
    derived nor backed by a relation.
    """


class SchemaError(ReproError):
    """Raised for malformed relations: arity mismatch, bad column names."""


class PlanError(ReproError):
    """Raised when a processing tree is structurally invalid."""


class ExecutionError(ReproError):
    """Raised when plan execution fails at run time.

    The static safety analysis is conservative, so a plan that passes
    optimization should not raise this; it guards interpreter invariants
    (e.g. an evaluable predicate reached with unbound arguments).
    """


class TransactionError(ReproError):
    """Raised for transaction protocol misuse: opening a transaction
    while one is already active, or committing/rolling back when none
    is open.  Faults *inside* a transaction do not raise this — they
    propagate after the database has been rolled back to the state at
    ``begin``.
    """


class ResourceExhausted(ExecutionError):
    """Raised when the execution governor aborts a query.

    The static safety analysis is conservative by design; plans that slip
    through it (runaway recursion, explosive joins) are stopped at run
    time by :class:`~repro.engine.governor.ResourceGovernor`.  Each
    variant corresponds to one exhausted budget.  ``snapshot`` carries
    the profiler counters at abort time and ``partial`` the governor's
    view of progress (live tuples, iterations, elapsed seconds), so
    callers can report how far the query got before it was stopped.
    When a tracer is active, ``spans`` names the spans still open at
    abort time (root first), so the error points at the phase and
    operator that blew the budget.
    """

    #: short machine-readable tag for the exhausted budget
    kind = "resource"

    def __init__(
        self,
        message: str,
        snapshot: dict | None = None,
        partial: dict | None = None,
        spans: tuple[str, ...] = (),
    ):
        super().__init__(message)
        self.snapshot = dict(snapshot or {})
        self.partial = dict(partial or {})
        self.spans = tuple(spans)


class DeadlineExceeded(ResourceExhausted):
    """The query's wall-clock deadline passed."""

    kind = "deadline"


class TupleBudgetExceeded(ResourceExhausted):
    """The query-wide live-tuple budget was exceeded (possibly mid-join)."""

    kind = "tuples"


class MemoryBudgetExceeded(ResourceExhausted):
    """The query-wide (approximate) memory budget was exceeded."""

    kind = "memory"


class IterationBudgetExceeded(ResourceExhausted):
    """The query-wide fixpoint-iteration budget was exceeded."""

    kind = "iterations"


class ExecutionCancelled(ResourceExhausted):
    """The query was cooperatively cancelled via ``governor.cancel()``.

    Grouped under :class:`ResourceExhausted` so cancellation shares the
    abort plumbing (snapshot, partial progress, CLI exit code).
    """

    kind = "cancelled"


class OptimizationError(ReproError):
    """Raised when the optimizer cannot produce a plan for structural reasons."""


class UnsafeQueryError(OptimizationError):
    """Raised when no safe execution exists for the query form.

    Per Section 8.2 of the paper, unsafe permutations are priced at
    infinite cost; if the minimum-cost solution is still infinite the
    query is reported as unsafe.  ``reasons`` collects the diagnostics
    gathered while searching (which goals could not be made effectively
    computable, which cliques lack a well-founded order).
    """

    def __init__(self, message: str, reasons: list[str] | None = None):
        super().__init__(message)
        self.reasons = list(reasons or [])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.reasons:
            details = "\n  - ".join(self.reasons)
            return f"{base}\n  - {details}"
        return base
