"""Deterministic fault injection for the execution governor.

Every guard path in :mod:`repro.engine.governor` must be testable without
real clocks, real memory pressure, or real multi-second runaways.  A
:class:`FaultInjector` attached to a governor fires *rules* at named
checkpoint sites:

* step entry in the lowered rule executor — ``join:anc:par``,
  ``negation:p:q``, ``builtin:p:plus`` (the same labels the profiler's
  per-step timings use);
* fixpoint round boundaries — ``fixpoint:round``;
* SLD resolution calls — ``sld:<predicate>``;
* optimizer search steps — ``optimizer:order``, ``optimizer:cperm``;
* the governor's own slow tick — ``tick``.

A rule matches a site by :func:`fnmatch.fnmatchcase` pattern, waits for
``after`` matching hits, then fires up to ``times`` times.  Firing can:

* raise an injected error (default :class:`InjectedFault`) — injected
  operator failure;
* advance the governor's clock (``advance_clock``) — clock skew, which
  is how deadline paths are tested without sleeping;
* request cooperative cancellation (``cancel=True``);
* force a budget's abort path (``exhaust="tuples" | "memory" |
  "deadline" | "iterations"``) regardless of the actual counters;
* break the trace sink (``trace_drop=True``) — the next span-close
  export raises inside the tracer, which must degrade to a
  :class:`~repro.obs.tracer.TraceSinkWarning` and never fail the query
  (``tests/test_tracing.py`` pins this).

Rule matching is purely count-based, so a fault plan is reproducible
run-to-run on the same program and data.

>>> from repro.engine.governor import ResourceGovernor
>>> faults = FaultInjector().inject("tick", after=2, advance_clock=100.0)
>>> gov = ResourceGovernor(deadline_seconds=1.0, tick_interval=1,
...                        clock=lambda: 0.0, faults=faults).arm()
>>> gov.tick(); gov.tick()   # two clean ticks
>>> try:
...     gov.tick()           # third tick: clock skews past the deadline
... except Exception as err:
...     print(type(err).__name__)
DeadlineExceeded
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from ..errors import ExecutionError


class InjectedFault(ExecutionError):
    """The default error raised by an injected operator failure."""


@dataclass
class FaultRule:
    """One deterministic trigger: fire at the (after+1)-th hit of a site."""

    site: str = "*"
    after: int = 0
    times: int = 1
    error: BaseException | None = None
    advance_clock: float = 0.0
    cancel: bool = False
    exhaust: str | None = None
    trace_drop: bool = False
    hits: int = 0
    fired: int = 0

    def matches(self, site: str) -> bool:
        return self.site == site or fnmatchcase(site, self.site)


@dataclass
class FaultInjector:
    """A deterministic fault plan consulted at governor checkpoints."""

    rules: list[FaultRule] = field(default_factory=list)
    #: every firing, as "site:action" strings (assert on this in tests)
    log: list[str] = field(default_factory=list)

    def inject(
        self,
        site: str = "*",
        after: int = 0,
        times: int = 1,
        error: BaseException | str | None = None,
        advance_clock: float = 0.0,
        cancel: bool = False,
        exhaust: str | None = None,
        trace_drop: bool = False,
    ) -> "FaultInjector":
        """Add one rule; returns self so plans read as a chain.

        *error* may be an exception instance or a message string (wrapped
        in :class:`InjectedFault`).  Actions fire in order: clock skew,
        cancel, exhaust, trace drop, error — so a rule combining
        ``advance_clock`` with ``error`` skews first, raises second.
        """
        if isinstance(error, str):
            error = InjectedFault(error)
        if (
            error is None and not advance_clock and not cancel
            and exhaust is None and not trace_drop
        ):
            error = InjectedFault(f"injected fault at {site!r}")
        self.rules.append(
            FaultRule(
                site=site,
                after=after,
                times=times,
                error=error,
                advance_clock=advance_clock,
                cancel=cancel,
                exhaust=exhaust,
                trace_drop=trace_drop,
            )
        )
        return self

    def on_checkpoint(self, site: str, governor) -> None:
        """Called by the governor at every checkpoint site."""
        for rule in self.rules:
            if not rule.matches(site):
                continue
            rule.hits += 1
            if rule.hits <= rule.after or rule.fired >= rule.times:
                continue
            rule.fired += 1
            if rule.advance_clock:
                self.log.append(f"{site}:advance_clock={rule.advance_clock}")
                governor.skew(rule.advance_clock)
            if rule.cancel:
                self.log.append(f"{site}:cancel")
                governor.cancel(f"fault injected at {site}")
            if rule.exhaust is not None:
                self.log.append(f"{site}:exhaust={rule.exhaust}")
                governor.exhaust(rule.exhaust)
            if rule.trace_drop and governor.tracer is not None:
                self.log.append(f"{site}:trace_drop")
                governor.tracer.inject_sink_failure()
            if rule.error is not None:
                self.log.append(f"{site}:error")
                raise rule.error

    def fired_count(self) -> int:
        return sum(rule.fired for rule in self.rules)
