"""Work counters for measured execution cost.

The paper's cost formulae are estimates over an abstract "single cost"
combining CPU, I/O, etc. (Section 6).  Our measured analogue is tuple
traffic: how many stored/intermediate tuples each operator examined and
produced.  Tuple counts are what the estimates predict, so estimate vs.
measurement comparisons (EXP-7) are apples to apples, and they are
deterministic — no wall-clock noise in tests.

Alongside the deterministic counters the profiler also keeps *wall-clock*
aggregates: total seconds spent in profiled regions and a per-kernel
timing breakdown (``timings``), fed by the lowered rule executor's steps.
Timings are for benchmarks and EXPLAIN-style inspection only; tests
assert on tuple counts, never on seconds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Profiler:
    """Accumulates operator work counters during execution."""

    examined: int = 0   #: tuples read from an operand (scan/probe results)
    produced: int = 0   #: tuples emitted by operators
    probes: int = 0     #: index/hash lookups performed
    materialized: int = 0  #: tuples written to temporary relations
    iterations: int = 0    #: fixpoint iterations executed
    wall_seconds: float = 0.0  #: total seconds spent inside timed regions
    by_label: dict[str, int] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)  #: seconds per kernel label

    def bump_examined(self, count: int = 1) -> None:
        self.examined += count

    def bump_produced(self, count: int = 1) -> None:
        self.produced += count

    def bump_probes(self, count: int = 1) -> None:
        self.probes += count

    def bump_materialized(self, count: int = 1) -> None:
        self.materialized += count

    def bump_iterations(self, count: int = 1) -> None:
        self.iterations += count

    def charge(self, label: str, count: int = 1) -> None:
        """Attribute work to a named operator/phase (for explain output)."""
        self.by_label[label] = self.by_label.get(label, 0) + count

    def add_time(self, label: str, seconds: float) -> None:
        """Attribute wall-clock time to a named kernel/phase."""
        self.wall_seconds += seconds
        self.timings[label] = self.timings.get(label, 0.0) + seconds

    @contextmanager
    def time_block(self, label: str):
        """Context manager timing a region and charging it to *label*.

        >>> p = Profiler()
        >>> with p.time_block("join:anc"):
        ...     pass
        >>> "join:anc" in p.timings
        True
        """
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_time(label, time.perf_counter() - start)

    @property
    def total_work(self) -> int:
        """The single-number measured cost: tuples touched end to end."""
        return self.examined + self.produced + self.materialized

    def snapshot(self) -> dict:
        """Every counter, the per-label work breakdown, and wall time.

        This dict is what :class:`~repro.errors.ResourceExhausted`
        carries at abort time, so ``by_label`` and ``wall_seconds`` must
        be included — dropping them loses the per-operator breakdown the
        docs promise.
        """
        return {
            "examined": self.examined,
            "produced": self.produced,
            "probes": self.probes,
            "materialized": self.materialized,
            "iterations": self.iterations,
            "total_work": self.total_work,
            "wall_seconds": self.wall_seconds,
            "by_label": dict(sorted(self.by_label.items())),
        }

    def timing_snapshot(self) -> dict[str, float]:
        """Wall-clock aggregates: total seconds plus the per-kernel split."""
        return {"wall_seconds": self.wall_seconds, **dict(sorted(self.timings.items()))}

    def __repr__(self) -> str:
        # Deterministic counters only: wall time and labels would make
        # reprs differ between identical runs.
        parts = ", ".join(
            f"{k}={v}" for k, v in self.snapshot().items()
            if k not in ("wall_seconds", "by_label")
        )
        return f"Profiler({parts})"
