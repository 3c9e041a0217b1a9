"""Span-based query tracing: the structured half of "measured cost".

The profiler (:mod:`repro.engine.profiler`) answers *how much* work a
query did; it cannot answer *where*.  The tracer adds the where: every
phase of the pipeline — parse, safety, optimize (per strategy run, per
clique adornment), execute (per plan node, per fixpoint round, per
operator/kernel invocation, per SLD call) — opens a :class:`Span`, and
each span records the delta of the profiler's deterministic tuple
counters between open and close.  Per-span *self* counters (inclusive
minus children) therefore sum to the query-global profiler totals, which
is what turns the estimate-vs-actual experiment (EXP-7) into a per-node
diagnostic instead of a single number.

Determinism is a design requirement, not an accident: span ids are
sequential per tracer, parent links come from a stack, and names are
derived from the same compile-time labels the profiler's per-kernel
timings use — so the same program and seed produce the identical span
tree whether rules run compiled or interpreted
(``tests/test_tracing.py`` pins this).

Overhead discipline matches the governor's: tracing is **off by
default** — every instrumented call site holds a module-singleton
:data:`NULL_TRACER` whose :meth:`~NullTracer.span` returns a shared
no-op context manager, so the traced-off hot path pays one attribute
lookup and two trivial calls per *operator* invocation (never per
tuple).

Span close events can be exported to a *sink* (one event per close; see
:mod:`repro.obs.events` for the JSONL schema).  A failing sink **never**
fails the query: the first write error degrades to a
:class:`TraceSinkWarning` and the sink is dropped, while in-memory
spans keep accumulating.  The ``trace-drop`` fault action in
:mod:`repro.engine.faults` exists to prove that path deterministically.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

#: The profiler fields every span snapshots (deterministic counters only;
#: wall-clock is recorded separately and never participates in tests).
COUNTER_FIELDS = ("examined", "produced", "probes", "materialized", "iterations")


class TraceSinkWarning(RuntimeWarning):
    """A trace sink failed; tracing continues without export."""


@dataclass
class Span:
    """One closed span of a traced run.

    ``counters`` are *inclusive* (everything that happened while the
    span was open, children included); ``self_counters`` are exclusive
    (inclusive minus the children's inclusive), so summing
    ``self_counters`` over a whole trace reproduces the query-global
    profiler totals.
    """

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    depth: int
    attrs: dict[str, object] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    self_counters: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    status: str = "ok"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span(#{self.span_id} {self.name!r} parent={self.parent_id} "
            f"self={self.self_counters})"
        )


class _OpenSpan:
    """The context manager guarding one open span (internal)."""

    __slots__ = (
        "tracer", "span_id", "parent_id", "name", "kind", "depth", "attrs",
        "start_counts", "start_wall", "child_counts",
    )

    def __init__(self, tracer: "Tracer", name: str, kind: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.kind = kind
        self.attrs = attrs

    def __enter__(self) -> "_OpenSpan":
        self.tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._close(self, exc_type)
        return False

    def note(self, **attrs: object) -> None:
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)


class _NullSpan:
    """The shared no-op context manager the :class:`NullTracer` hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def note(self, **attrs: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The no-op tracer held by every instrumented call site by default.

    All methods are trivial; ``span()`` returns one shared context
    manager, so the traced-off cost of an instrumented site is a couple
    of attribute lookups — never an allocation.
    """

    __slots__ = ()

    enabled = False
    profiler = None
    spans: tuple = ()

    def span(self, name: str, kind: str = "span", **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def attach(self, profiler) -> None:
        pass

    def open_stack(self) -> tuple[str, ...]:
        return ()

    def inject_sink_failure(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: The module singleton every call site defaults to.
NULL_TRACER = NullTracer()


class Tracer:
    """Records a tree of :class:`Span` objects over a profiled run.

    Parameters
    ----------
    profiler:
        The :class:`~repro.engine.profiler.Profiler` whose counters are
        snapshotted at span boundaries.  Usually attached lazily by the
        entry point (``KnowledgeBase.ask`` / ``FixpointEngine.evaluate``)
        via :meth:`attach`.
    sink:
        Optional callable invoked with one event dict per span close
        (see :func:`repro.obs.events.span_event`).  A raising sink is
        dropped with a :class:`TraceSinkWarning`; the query proceeds.
    clock:
        Wall-clock source for the (test-exempt) ``wall_seconds`` field.
    """

    enabled = True

    def __init__(
        self,
        profiler=None,
        sink: Callable[[dict], None] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.profiler = profiler
        self.sink = sink
        self.clock = clock
        #: closed spans, in close order (children before parents)
        self.spans: list[Span] = []
        self._stack: list[_OpenSpan] = []
        self._next_id = 1
        self._fail_next_emit = False

    # --------------------------------------------------------------- public

    def span(self, name: str, kind: str = "span", **attrs: object) -> _OpenSpan:
        """A context manager opening a child span of the innermost open one."""
        return _OpenSpan(self, name, kind, attrs)

    def attach(self, profiler) -> None:
        """Bind the profiler whose counters spans snapshot.

        Only takes effect between span trees (no open spans): entry
        points call this unconditionally, and the guard keeps a nested
        engine from swapping the profiler mid-query.
        """
        if not self._stack:
            self.profiler = profiler

    def open_stack(self) -> tuple[str, ...]:
        """Names of the currently open spans, root first.

        This is what a :class:`~repro.errors.ResourceExhausted` abort
        carries, so the error names the operator that blew the budget.
        """
        return tuple(handle.name for handle in self._stack)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def tree(self, span: Span | None = None) -> list:
        """The span forest as nested ``(name, [children...])`` pairs —
        the shape the determinism tests compare (no ids, no wall time)."""
        tops = self.roots() if span is None else self.children_of(span)
        return [
            (s.name, self.tree(s))
            for s in sorted(tops, key=lambda s: s.span_id)
        ]

    def total_self_counters(self) -> dict[str, int]:
        """Sum of every span's exclusive counters.

        For a complete trace (all spans closed, one root covering the
        run) this equals the profiler's global counter deltas.
        """
        totals = dict.fromkeys(COUNTER_FIELDS, 0)
        for span in self.spans:
            for key, value in span.self_counters.items():
                totals[key] += value
        return totals

    def inject_sink_failure(self) -> None:
        """Arm a one-shot sink failure (the ``trace-drop`` fault action)."""
        self._fail_next_emit = True

    def close(self) -> None:
        """Close the sink, if it has one to close (e.g. a JSONL file)."""
        closer = getattr(self.sink, "close", None)
        if closer is not None:
            closer()

    # ------------------------------------------------------------- internals

    def _snapshot(self) -> tuple[int, ...]:
        p = self.profiler
        if p is None:
            return (0, 0, 0, 0, 0)
        return (p.examined, p.produced, p.probes, p.materialized, p.iterations)

    def _open(self, handle: _OpenSpan) -> None:
        handle.span_id = self._next_id
        self._next_id += 1
        handle.parent_id = self._stack[-1].span_id if self._stack else None
        handle.depth = len(self._stack)
        handle.start_counts = self._snapshot()
        handle.start_wall = self.clock()
        handle.child_counts = (0, 0, 0, 0, 0)
        self._stack.append(handle)

    def _close(self, handle: _OpenSpan, exc_type) -> None:
        # Pop through any spans abandoned by an exception unwinding past
        # their __exit__ order (defensive; with-blocks keep this aligned).
        while self._stack and self._stack[-1] is not handle:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        end = self._snapshot()
        inclusive = tuple(e - s for e, s in zip(end, handle.start_counts))
        exclusive = tuple(i - c for i, c in zip(inclusive, handle.child_counts))
        if self._stack:
            parent = self._stack[-1]
            parent.child_counts = tuple(
                c + i for c, i in zip(parent.child_counts, inclusive)
            )
        span = Span(
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            name=handle.name,
            kind=handle.kind,
            depth=handle.depth,
            attrs=handle.attrs,
            counters=dict(zip(COUNTER_FIELDS, inclusive)),
            self_counters=dict(zip(COUNTER_FIELDS, exclusive)),
            wall_seconds=self.clock() - handle.start_wall,
            status="ok" if exc_type is None else f"error:{exc_type.__name__}",
        )
        self.spans.append(span)
        self._emit(span)

    def _emit(self, span: Span) -> None:
        if self.sink is None:
            return
        from .events import span_event

        try:
            if self._fail_next_emit:
                self._fail_next_emit = False
                raise OSError("injected trace sink failure")
            self.sink(span_event(span))
        except Exception as err:  # a broken sink must never fail the query
            self.sink = None
            warnings.warn(
                f"trace sink failed ({err}); tracing continues without export",
                TraceSinkWarning,
                stacklevel=3,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer({len(self.spans)} closed, {len(self._stack)} open)"
