"""Trace-event export: a versioned JSONL schema for span-close events.

One event is emitted per span close (children close before parents, so a
stream consumer can reconstruct the tree with a single pass and a dict).
The schema is versioned in-band — every event carries
``"schema": "repro.trace/1"`` — so downstream tooling can reject traces
it does not understand instead of mis-parsing them.

Event shape (version 1)::

    {
      "schema": "repro.trace/1",
      "type": "span",
      "id": 7, "parent": 3,          # parent null for roots
      "name": "join:anc:par",
      "kind": "operator",
      "depth": 4,
      "attrs": {"method": "index"},
      "counters": {...},              # inclusive profiler deltas
      "self_counters": {...},         # exclusive (sums to query totals)
      "wall_ms": 0.124,               # wall clock; excluded from tests
      "status": "ok"                  # or "error:<ExceptionType>"
    }

:func:`validate_events` checks a stream against this schema with stdlib
only (no jsonschema dependency) and is what the CI smoke step runs over
the traces produced from ``examples/``.  ``python -m repro.obs.validate
FILE`` wraps it for the command line.  Streams may interleave
``repro.telemetry/2`` query records (see :mod:`repro.obs.telemetry`)
with trace spans — the validator dispatches on the in-band schema field.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable

from .telemetry import TELEMETRY_SCHEMA, validate_telemetry_event
from .tracer import COUNTER_FIELDS, Span

#: The current trace-event schema identifier (bump on breaking change).
SCHEMA = "repro.trace/1"

#: Every span kind the engine emits; a kind outside this set is a
#: validator error so renames cannot slip past CI.
SPAN_KINDS = frozenset({
    "span", "query", "phase", "node", "operator", "rule", "round",
    "fixpoint", "sld", "optimizer", "order", "cperm",
})

#: Span names with a fixed shape, and the kind each shape must carry:
#: ``optimize:enumerate:<pred>`` (c-permutation enumeration).
_NAME_SHAPES: tuple[tuple[str, re.Pattern, str], ...] = (
    ("optimize:enumerate:", re.compile(r"^optimize:enumerate:[\w.$]+$"), "cperm"),
)


def _check_span_shape(name: str, kind: str) -> list[str]:
    """Kind-registry and shaped-name checks for one span."""
    problems: list[str] = []
    if kind not in SPAN_KINDS:
        problems.append(f"unknown span kind {kind!r}")
    for prefix, pattern, expected_kind in _NAME_SHAPES:
        if name == prefix or name.startswith(prefix):
            if not pattern.fullmatch(name):
                problems.append(f"malformed span name {name!r}")
            elif kind != expected_kind:
                problems.append(
                    f"span name {name!r} must have kind {expected_kind!r}, "
                    f"got {kind!r}"
                )
            break
    return problems


def span_event(span: Span) -> dict:
    """The version-1 event for one closed span."""
    return {
        "schema": SCHEMA,
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "depth": span.depth,
        "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
        "counters": span.counters,
        "self_counters": span.self_counters,
        "wall_ms": round(span.wall_seconds * 1000.0, 6),
        "status": span.status,
    }


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class JsonlSink:
    """Writes one JSON line per event to a file (or file-like object).

    The file is opened lazily on first event and closed via
    :meth:`close` (the tracer's :meth:`~repro.obs.tracer.Tracer.close`
    forwards to it).  Any I/O error propagates to the tracer, which
    degrades to a warning — never a query failure.
    """

    def __init__(self, target: str | IO[str]):
        self._target = target
        self._file: IO[str] | None = target if hasattr(target, "write") else None
        self.events_written = 0

    def __call__(self, event: dict) -> None:
        if self._file is None:
            self._file = open(self._target, "w", encoding="utf-8")
        self._file.write(json.dumps(event, sort_keys=True) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if hasattr(self._target, "write"):
            return  # caller owns the file object
        if self._file is not None:
            self._file.close()
            self._file = None


#: field name -> required type(s) for a version-1 span event
_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "schema": str,
    "type": str,
    "id": int,
    "name": str,
    "kind": str,
    "depth": int,
    "attrs": dict,
    "counters": dict,
    "self_counters": dict,
    "wall_ms": (int, float),
    "status": str,
}


def validate_event(event: dict) -> list[str]:
    """Schema violations of one event (empty list = valid).

    Dispatches on the in-band ``schema`` field: ``repro.trace/1`` span
    events are checked here, ``repro.telemetry/2`` query records are
    handed to :func:`~repro.obs.telemetry.validate_telemetry_event`.
    """
    errors: list[str] = []
    if not isinstance(event, dict):
        return [f"event is not an object: {event!r}"]
    if event.get("schema") == TELEMETRY_SCHEMA:
        return validate_telemetry_event(event)
    if event.get("schema") != SCHEMA:
        errors.append(
            f"unknown schema {event.get('schema')!r} "
            f"(expected {SCHEMA!r} or {TELEMETRY_SCHEMA!r})"
        )
    for name, types in _REQUIRED.items():
        if name not in event:
            errors.append(f"missing field {name!r}")
        elif not isinstance(event[name], types):
            errors.append(f"field {name!r} has type {type(event[name]).__name__}")
    parent = event.get("parent", "missing")
    if parent == "missing":
        errors.append("missing field 'parent'")
    elif parent is not None and not isinstance(parent, int):
        errors.append("field 'parent' must be an int or null")
    for side in ("counters", "self_counters"):
        block = event.get(side)
        if isinstance(block, dict):
            for key in COUNTER_FIELDS:
                if not isinstance(block.get(key), int):
                    errors.append(f"{side}[{key!r}] must be an int")
    if isinstance(event.get("name"), str) and isinstance(event.get("kind"), str):
        errors.extend(_check_span_shape(event["name"], event["kind"]))
    return errors


def validate_events(lines: Iterable[str]) -> list[str]:
    """Schema violations over a JSONL stream, prefixed with line numbers.

    Also checks the stream invariant that a parent id always refers to a
    span *not yet closed* at emission time (children close first), i.e.
    the parent must not already have appeared.
    """
    errors: list[str] = []
    closed: set[int] = set()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as err:
            errors.append(f"line {number}: not valid JSON ({err})")
            continue
        for problem in validate_event(event):
            errors.append(f"line {number}: {problem}")
        if isinstance(event, dict) and event.get("schema") != TELEMETRY_SCHEMA:
            parent = event.get("parent")
            if isinstance(parent, int) and parent in closed:
                errors.append(
                    f"line {number}: parent {parent} closed before its child"
                )
            if isinstance(event.get("id"), int):
                closed.add(event["id"])
    return errors


def validate_trace_file(path: str) -> list[str]:
    """Validate a JSONL trace file; returns the violations found."""
    with open(path, encoding="utf-8") as handle:
        return validate_events(handle)
