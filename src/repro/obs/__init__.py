"""Observability: query tracing, metrics, and trace-event export.

Four layers, each usable alone:

* :mod:`repro.obs.tracer` — a span-based tracer with stable span ids and
  parent links covering parse → optimize → execute, recording the
  profiler's deterministic tuple counters per span.  Off by default
  (:data:`NULL_TRACER` on every hot path).
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms aggregating across queries, with JSON and
  Prometheus-text exporters.
* :mod:`repro.obs.events` — the versioned JSONL span-event schema, its
  file sink, and a stdlib-only validator
  (``python -m repro.obs.validate``).
* :mod:`repro.obs.telemetry` — the per-query telemetry ring buffer
  (``kb.telemetry``) exporting ``repro.telemetry/2`` records through the
  same JSONL transport.

The CLI surfaces them all: ``--trace FILE``, ``--metrics FILE``,
``--telemetry FILE`` and ``--analyze`` (per-node EXPLAIN ANALYZE; also
``:analyze`` in the REPL).
"""

from .events import (
    SCHEMA,
    SPAN_KINDS,
    JsonlSink,
    span_event,
    validate_events,
    validate_trace_file,
)
from .metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from .telemetry import TELEMETRY_SCHEMA, TelemetryLog, validate_telemetry_event
from .tracer import (
    COUNTER_FIELDS,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TraceSinkWarning,
)

__all__ = [
    "COUNTER_FIELDS",
    "DEFAULT_BUCKETS",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SCHEMA",
    "SPAN_KINDS",
    "Span",
    "TELEMETRY_SCHEMA",
    "TelemetryLog",
    "Tracer",
    "TraceSinkWarning",
    "span_event",
    "validate_events",
    "validate_telemetry_event",
    "validate_trace_file",
]
