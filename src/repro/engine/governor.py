"""Execution governor: deadlines, query-wide budgets, cooperative cancellation.

The paper prices unsafe executions at infinite cost (Section 8), but the
static analysis is conservative by design — plans that slip through it
(runaway recursion, explosive joins, slow optimizer searches) must be
stopped at run time.  LDL++, the production descendant of the paper's
system, grew exactly these limits; this module is our version.

One :class:`ResourceGovernor` spans the *whole* execution of one query —
every clique, every operator, every fixpoint node — not just a single
fixpoint.  It enforces four budgets:

* ``deadline_seconds`` — wall-clock deadline, measured from :meth:`arm`;
* ``max_tuples`` — an upper bound on *live* tuples: retained results of
  earlier operators (:meth:`retain`) + the current fixpoint's workspace
  (:meth:`settle` / :meth:`checkpoint_round`) + the in-flight
  intermediate rows of the operator currently executing (:meth:`tick`);
* ``max_memory_bytes`` — the same live set priced at ``bytes_per_tuple``
  each (a deliberately coarse, deterministic model: tuples are
  uniform-ish in this engine and tests must not depend on allocator
  behaviour);
* ``max_iterations`` — cumulative fixpoint rounds across all cliques.

Enforcement is *cooperative*: hot loops call :meth:`tick`, which is a
counter decrement plus an occasional clock check (every
``tick_interval`` calls), so a single explosive join round aborts
mid-join instead of blowing past the budget unobserved.  Coarser sites
(operator entry, fixpoint round boundaries) call :meth:`checkpoint`,
which additionally consults the :class:`~repro.engine.faults.FaultInjector`
when one is attached — that is how every guard path here is testable
deterministically.

Exhausted budgets raise the matching
:class:`~repro.errors.ResourceExhausted` variant carrying the profiler
snapshot and the governor's partial-progress view at abort time.
"""

from __future__ import annotations

import functools
import gc
import time
from typing import Callable

from ..errors import (
    DeadlineExceeded,
    ExecutionCancelled,
    IterationBudgetExceeded,
    MemoryBudgetExceeded,
    TupleBudgetExceeded,
)

#: A monotonic clock; injectable for tests and clock-skew fault injection.
Clock = Callable[[], float]

#: Defaults mirror the pre-governor per-fixpoint guards, now query-wide.
DEFAULT_MAX_TUPLES = 5_000_000
DEFAULT_MAX_ITERATIONS = 100_000

#: Coarse per-tuple memory price (bytes).  A row is a tuple of interned
#: Constants; ~100 bytes of unique payload per live tuple is the right
#: order of magnitude, and determinism matters more than precision here.
DEFAULT_BYTES_PER_TUPLE = 112


class ResourceGovernor:
    """Cooperative, query-wide resource enforcement.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock budget for the whole query (None = unlimited).
    max_tuples:
        Upper bound on live tuples (retained + workspace + in-flight).
    max_memory_bytes:
        Upper bound on ``live_tuples * bytes_per_tuple``.
    max_iterations:
        Cumulative fixpoint-round budget across all cliques.
    tick_interval:
        How many :meth:`tick` calls between clock/cancellation checks.
    clock:
        Monotonic time source (injectable; see :mod:`repro.engine.faults`).
    faults:
        Optional :class:`~repro.engine.faults.FaultInjector` consulted at
        every :meth:`checkpoint` site.
    profiler:
        Profiler whose counters are snapshotted into abort errors.
    """

    __slots__ = (
        "deadline_seconds",
        "max_tuples",
        "max_memory_bytes",
        "max_iterations",
        "bytes_per_tuple",
        "tick_interval",
        "clock",
        "faults",
        "profiler",
        "tracer",
        "metrics",
        "_armed",
        "_started_at",
        "_skew",
        "_retained",
        "_region_live",
        "_inflight",
        "_iterations",
        "_countdown",
        "_cancel_reason",
    )

    def __init__(
        self,
        deadline_seconds: float | None = None,
        max_tuples: int | None = DEFAULT_MAX_TUPLES,
        max_memory_bytes: int | None = None,
        max_iterations: int | None = DEFAULT_MAX_ITERATIONS,
        bytes_per_tuple: int = DEFAULT_BYTES_PER_TUPLE,
        tick_interval: int = 1024,
        clock: Clock = time.monotonic,
        faults=None,
        profiler=None,
        tracer=None,
        metrics=None,
    ):
        self.deadline_seconds = deadline_seconds
        self.max_tuples = max_tuples
        self.max_memory_bytes = max_memory_bytes
        self.max_iterations = max_iterations
        self.bytes_per_tuple = bytes_per_tuple
        self.tick_interval = max(1, tick_interval)
        self.clock = clock
        self.faults = faults
        self.profiler = profiler
        self.tracer = tracer
        self.metrics = metrics
        self._armed = False
        self._started_at = 0.0
        self._skew = 0.0
        self._retained = 0      # tuples retained by completed/cached operators
        self._region_live = 0   # the current fixpoint's workspace size
        self._inflight = 0      # intermediate rows of the operator running now
        self._iterations = 0
        self._countdown = self.tick_interval
        self._cancel_reason: str | None = None

    # ------------------------------------------------------------ clock

    def arm(self) -> "ResourceGovernor":
        """Start the query clock (idempotent; first caller wins)."""
        if not self._armed:
            self._armed = True
            self._started_at = self.clock()
            if self.metrics is not None:
                self.metrics.inc("governor_grants_total")
        return self

    def now(self) -> float:
        """Current time, including any injected clock skew."""
        return self.clock() + self._skew

    @property
    def elapsed(self) -> float:
        """Seconds since :meth:`arm` (0.0 before arming)."""
        if not self._armed:
            return 0.0
        return self.now() - self._started_at

    def remaining(self) -> float | None:
        """Seconds left before the deadline, or None when unlimited."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - self.elapsed

    def deadline_exceeded(self) -> bool:
        """Non-raising deadline probe (the optimizer's graceful-degrade
        path asks this instead of :meth:`checkpoint`)."""
        return (
            self.deadline_seconds is not None
            and self._armed
            and self.elapsed > self.deadline_seconds
        )

    def skew(self, seconds: float) -> None:
        """Shift the governor's clock (fault injection: clock skew)."""
        self._skew += seconds

    # ----------------------------------------------------- cancellation

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation; the next tick/checkpoint in
        any hot loop raises :class:`~repro.errors.ExecutionCancelled`."""
        self._cancel_reason = reason or "cancelled"

    @property
    def cancelled(self) -> bool:
        return self._cancel_reason is not None

    def check_cancelled(self) -> None:
        """Raise immediately if cancellation was requested."""
        if self._cancel_reason is not None:
            self._raise(
                ExecutionCancelled, f"execution cancelled: {self._cancel_reason}"
            )

    # ------------------------------------------------------- accounting

    @property
    def live_tuples(self) -> int:
        """The governor's current live-tuple estimate."""
        return self._retained + self._region_live + self._inflight

    @property
    def iterations(self) -> int:
        return self._iterations

    def tick(self, produced: int = 0) -> None:
        """The hot-loop check: charge *produced* intermediate tuples and
        occasionally (every ``tick_interval`` tuples/calls) check the
        clock and the cancellation flag.  Kept deliberately branch-light:
        hot loops call this only when the allowance from :meth:`grant`
        is used up, so the per-tuple cost is a local comparison."""
        if produced:
            self._inflight += produced
            live = self._retained + self._region_live + self._inflight
            if self.max_tuples is not None and live > self.max_tuples:
                self._raise_tuples(live)
            if (
                self.max_memory_bytes is not None
                and live * self.bytes_per_tuple > self.max_memory_bytes
            ):
                self._raise_memory(live)
        self._countdown -= produced or 1
        if self._countdown <= 0:
            self._countdown = self.tick_interval
            self._slow_tick()

    def grant(self) -> int:
        """Tuples the caller may emit before its next :meth:`tick`: the
        distance to the nearest budget edge, capped at ``tick_interval``.

        The contract: emitting strictly fewer than ``grant()`` tuples
        cannot cross ``max_tuples`` or ``max_memory_bytes``, so hot loops
        track ``len(out) >= check_at`` locally — one integer comparison
        per tuple — and only pay a governor call when the allowance is
        spent.  Enforcement stays exact."""
        allowance = self.tick_interval
        live = self._retained + self._region_live + self._inflight
        if self.max_tuples is not None:
            allowance = min(allowance, self.max_tuples - live + 1)
        if self.max_memory_bytes is not None:
            allowance = min(
                allowance,
                self.max_memory_bytes // self.bytes_per_tuple - live + 1,
            )
        return allowance if allowance > 1 else 1

    def _slow_tick(self) -> None:
        if self.faults is not None:
            self.faults.on_checkpoint("tick", self)
        if self._cancel_reason is not None:
            self.check_cancelled()
        if self.deadline_exceeded():
            self._raise_deadline()

    def settle(self, region_live: int) -> None:
        """Fold the operator's in-flight rows into the region count —
        called after each rule evaluation, when intermediate tables have
        been released and their output absorbed into the workspace."""
        self._region_live = region_live
        self._inflight = 0

    def checkpoint_round(self, region_live: int, iterations: int = 1) -> None:
        """Fixpoint round boundary: refresh the region's live count
        (workspace **including** the round's delta), charge *iterations*
        rounds, and run a full checkpoint."""
        self._region_live = region_live
        self._inflight = 0
        self._iterations += iterations
        if self.max_iterations is not None and self._iterations > self.max_iterations:
            self._raise(
                IterationBudgetExceeded,
                f"fixpoint exceeded {self.max_iterations} iterations — "
                "runaway recursion (unsafe execution)",
            )
        live = self.live_tuples
        if self.max_tuples is not None and live > self.max_tuples:
            self._raise_tuples(live)
        if (
            self.max_memory_bytes is not None
            and live * self.bytes_per_tuple > self.max_memory_bytes
        ):
            self._raise_memory(live)
        self.checkpoint("fixpoint:round")

    def end_region(self) -> None:
        """A fixpoint evaluation finished and its workspace was released
        (or handed to the caller, who accounts for it via :meth:`retain`)."""
        self._region_live = 0
        self._inflight = 0

    def retain(self, tuples: int) -> None:
        """Charge *tuples* as retained for the rest of the query — cached
        extensions, memoized subtree results, materialized views."""
        self._retained += tuples
        live = self.live_tuples
        if self.max_tuples is not None and live > self.max_tuples:
            self._raise_tuples(live)
        if (
            self.max_memory_bytes is not None
            and live * self.bytes_per_tuple > self.max_memory_bytes
        ):
            self._raise_memory(live)

    # ------------------------------------------------------ checkpoints

    def checkpoint(self, site: str) -> None:
        """Coarse-grained check at a named site (operator entry, round
        boundary, SLD call): fires fault-injection rules, then checks
        cancellation and the deadline.  Raises on violation."""
        if self.faults is not None:
            self.faults.on_checkpoint(site, self)
        if self._cancel_reason is not None:
            self.check_cancelled()
        if self.deadline_exceeded():
            self._raise_deadline()

    def soft_checkpoint(self, site: str) -> None:
        """Like :meth:`checkpoint` but never raises on the deadline —
        the optimizer degrades gracefully instead of aborting."""
        if self.faults is not None:
            self.faults.on_checkpoint(site, self)
        if self._cancel_reason is not None:
            self.check_cancelled()

    # -------------------------------------------------- injected aborts

    def exhaust(self, kind: str) -> None:
        """Force the *kind* budget's abort path (fault injection)."""
        if kind == "tuples":
            self._raise_tuples(self.live_tuples)
        if kind == "memory":
            self._raise_memory(self.live_tuples)
        if kind == "deadline":
            self._raise_deadline()
        if kind == "iterations":
            self._raise(
                IterationBudgetExceeded,
                f"fixpoint exceeded {self.max_iterations} iterations (injected)",
            )
        raise ValueError(f"unknown budget kind {kind!r}")

    # ------------------------------------------------------ abort paths

    def _partial(self) -> dict:
        return {
            "live_tuples": self.live_tuples,
            "iterations": self._iterations,
            "elapsed_seconds": round(self.elapsed, 6),
            "cancelled": self._cancel_reason,
        }

    def _raise(self, cls, message: str) -> None:
        snapshot = self.profiler.snapshot() if self.profiler is not None else {}
        spans = self.tracer.open_stack() if self.tracer is not None else ()
        if self.metrics is not None:
            self.metrics.inc("governor_denials_total", kind=cls.kind)
        raise cls(message, snapshot=snapshot, partial=self._partial(), spans=spans)

    def _raise_tuples(self, live: int) -> None:
        self._raise(
            TupleBudgetExceeded,
            f"execution exceeded {self.max_tuples} live tuples "
            f"(observed {live}) — runaway recursion or explosive join "
            "(unsafe execution)",
        )

    def _raise_memory(self, live: int) -> None:
        self._raise(
            MemoryBudgetExceeded,
            f"execution exceeded {self.max_memory_bytes} bytes "
            f"(~{live * self.bytes_per_tuple} bytes across {live} live tuples "
            f"at {self.bytes_per_tuple} B/tuple)",
        )

    def _raise_deadline(self) -> None:
        self._raise(
            DeadlineExceeded,
            f"execution exceeded its {self.deadline_seconds}s deadline "
            f"(elapsed {self.elapsed:.3f}s)",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budgets = []
        if self.deadline_seconds is not None:
            budgets.append(f"deadline={self.deadline_seconds}s")
        if self.max_tuples is not None:
            budgets.append(f"max_tuples={self.max_tuples}")
        if self.max_memory_bytes is not None:
            budgets.append(f"max_memory={self.max_memory_bytes}B")
        if self.max_iterations is not None:
            budgets.append(f"max_iterations={self.max_iterations}")
        state = f"live={self.live_tuples}, iterations={self._iterations}"
        return f"ResourceGovernor({', '.join(budgets) or 'unlimited'}; {state})"


def make_governor(
    deadline_seconds: float | None = None,
    max_tuples: int | None = DEFAULT_MAX_TUPLES,
    max_memory_bytes: int | None = None,
    max_iterations: int | None = DEFAULT_MAX_ITERATIONS,
    **kwargs,
) -> ResourceGovernor | None:
    """A governor for the given limits, or None when every limit is off
    (the ungoverned fast path: hot loops skip ticks entirely)."""
    if (
        deadline_seconds is None
        and max_tuples is None
        and max_memory_bytes is None
        and max_iterations is None
        and not kwargs.get("faults")
    ):
        return None
    return ResourceGovernor(
        deadline_seconds=deadline_seconds,
        max_tuples=max_tuples,
        max_memory_bytes=max_memory_bytes,
        max_iterations=max_iterations,
        **kwargs,
    )


def adopt_governor(governor, profiler, tracer, metrics, **limits) -> ResourceGovernor | None:
    """The governor an engine runs under: *governor* itself, None for
    ``False`` (the ungoverned escape hatch of the overhead A/B — no
    guards at all), or one built from *limits*.  Where it has none of
    its own it takes the engine's profiler, tracer (budget aborts name
    the open spans) and metrics (denials count)."""
    if governor is False:
        return None
    if governor is None:
        governor = make_governor(**limits)
    if governor is not None:
        if governor.profiler is None:
            governor.profiler = profiler
        if tracer.enabled and governor.tracer is None:
            governor.tracer = tracer
        if metrics is not None and governor.metrics is None:
            governor.metrics = metrics
    return governor


def collector_paused(fn):
    """Run *fn* with the cyclic garbage collector paused: a fixpoint or a
    decode allocates id rows by the hundred thousand — tuples of ints,
    which cannot form a cycle — and each 700 of them would start a
    collection pass.  Scoped and re-entrant: the collector comes back on
    every way out (budget aborts and injected faults included), and only
    if it was on at entry.  Never ``gc.freeze()``, which is process-wide
    and would pin the host application's heap."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused
