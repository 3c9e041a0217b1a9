"""The query telemetry log: a ring buffer of per-query outcomes.

``kb.telemetry`` records one :data:`TELEMETRY_SCHEMA` event per answered
query — wall time, the execution tier that actually served it
(``batch`` / ``cache`` / ``view``), governor denials,
result-cache hit/miss and the worst q-error of the plan's executed
nodes (:func:`repro.plans.printer.worst_q_error`).  The newest *capacity*
records are kept in memory for ``kb.telemetry.slow_queries()``-style
introspection; an optional sink (any callable, typically
:class:`~repro.obs.events.JsonlSink`) receives every record as it is
appended, so telemetry shares the trace pipeline's JSONL transport and
validator (``python -m repro.obs.validate`` accepts mixed
``repro.trace/1`` / ``repro.telemetry/2`` files).

Sink failures follow the tracer's discipline: the sink is dropped with a
:class:`~repro.obs.tracer.TraceSinkWarning` and the query proceeds —
telemetry must never take a query down with it.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Callable, Iterable

from .tracer import TraceSinkWarning

#: In-band schema identifier for telemetry records.
TELEMETRY_SCHEMA = "repro.telemetry/2"

#: Execution tiers a query record may report: the plan ran on the lowered
#: columnar executor (``batch``); or no plan ran, the answer coming from
#: the result cache or the store.
TIERS = frozenset({"batch", "cache", "view"})

#: Fields every telemetry record carries (the validator checks these).
_CEIL = 1e300


def telemetry_record(
    *,
    seq: int,
    goal: str,
    adornment: str,
    wall_ms: float,
    tier: str,
    cache: str,
    rows: int,
    worst_qerror: float,
    denials: int,
    status: str = "ok",
) -> dict:
    """Build one schema-conformant telemetry event."""
    return {
        "schema": TELEMETRY_SCHEMA,
        "type": "query",
        "seq": seq,
        "goal": goal,
        "adornment": adornment,
        "wall_ms": round(min(wall_ms, _CEIL), 3),
        "tier": tier,
        "cache": cache,  # "hit" | "miss" | "off"
        "rows": rows,
        "worst_qerror": round(min(worst_qerror, _CEIL), 3),
        "denials": denials,
        "status": status,  # "ok" | "denied" | "error"
    }


class TelemetryLog:
    """Ring-buffer recorder for per-query telemetry.

    *capacity* bounds the in-memory buffer (oldest records drop first);
    *sink* is an optional callable receiving every record dict.
    """

    def __init__(
        self,
        capacity: int = 256,
        sink: Callable[[dict], None] | None = None,
    ):
        self.capacity = capacity
        self._buffer: deque[dict] = deque(maxlen=max(1, capacity))
        self._sink = sink
        self._seq = 0
        self.records_total = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def events(self) -> list[dict]:
        """The buffered records, oldest first."""
        return list(self._buffer)

    @property
    def last(self) -> dict | None:
        return self._buffer[-1] if self._buffer else None

    def record(self, **fields) -> dict:
        """Append one query record (fields as in :func:`telemetry_record`)."""
        self._seq += 1
        event = telemetry_record(seq=self._seq, **fields)
        self._buffer.append(event)
        self.records_total += 1
        sink = self._sink
        if sink is not None:
            try:
                sink(event)
            except Exception as err:
                self._sink = None
                warnings.warn(
                    f"telemetry sink failed and was dropped: {err}",
                    TraceSinkWarning,
                    stacklevel=2,
                )
        return event

    def slow_queries(self, top: int = 5) -> list[dict]:
        """The *top* buffered records by wall time, slowest first."""
        ranked = sorted(
            self._buffer, key=lambda e: (-e["wall_ms"], e["seq"])
        )
        return ranked[:top]

    def worst_estimated(self, top: int = 5) -> list[dict]:
        """The *top* buffered records by worst q-error."""
        ranked = sorted(
            self._buffer, key=lambda e: (-e["worst_qerror"], e["seq"])
        )
        return ranked[:top]

    def by_tier(self) -> dict[str, int]:
        """Buffered record counts per execution tier."""
        out: dict[str, int] = {}
        for event in self._buffer:
            out[event["tier"]] = out.get(event["tier"], 0) + 1
        return dict(sorted(out.items()))

    def close(self) -> None:
        """Close the sink if it exposes ``close()`` (JsonlSink does)."""
        sink = self._sink
        self._sink = None
        close = getattr(sink, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TelemetryLog({len(self._buffer)}/{self.capacity} buffered, "
            f"{self.records_total} total)"
        )


def validate_telemetry_event(event: object) -> list[str]:
    """Schema-check one ``repro.telemetry/2`` record; returns problems."""
    problems: list[str] = []
    if not isinstance(event, dict):
        return ["telemetry event is not an object"]
    if event.get("type") != "query":
        problems.append(f"unknown telemetry event type {event.get('type')!r}")
    required: dict[str, type | tuple[type, ...]] = {
        "seq": int,
        "goal": str,
        "adornment": str,
        "wall_ms": (int, float),
        "tier": str,
        "cache": str,
        "rows": int,
        "worst_qerror": (int, float),
        "denials": int,
        "status": str,
    }
    for field, kind in required.items():
        if field not in event:
            problems.append(f"telemetry event missing field {field!r}")
        elif not isinstance(event[field], kind) or (
            kind is int and isinstance(event[field], bool)
        ):
            problems.append(
                f"telemetry field {field!r} has type "
                f"{type(event[field]).__name__}"
            )
    tier = event.get("tier")
    if isinstance(tier, str) and tier not in TIERS:
        problems.append(f"unknown telemetry tier {tier!r}")
    cache = event.get("cache")
    if isinstance(cache, str) and cache not in {"hit", "miss", "off"}:
        problems.append(f"unknown telemetry cache state {cache!r}")
    status = event.get("status")
    if isinstance(status, str) and status not in {"ok", "denied", "error"}:
        problems.append(f"unknown telemetry status {status!r}")
    return problems
