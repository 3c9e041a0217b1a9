"""A small metrics registry: counters, gauges, fixed-bucket histograms.

Where the tracer describes *one* query in depth, the registry aggregates
*across* queries — the numbers an operator of the ROADMAP's
production-scale deployment would put on a dashboard: plan-cache hit
rate, governor grants and denials (by exhausted budget), optimizer
deadline degradations, kernel compiles, fixpoint rounds.

Design constraints, in order:

* **Determinism** — histograms use fixed bucket boundaries declared at
  first observation, never adapted to the data, so two identical runs
  serialize byte-identically (tests and the CI smoke step diff these).
* **Near-zero overhead** — a counter bump is one dict operation; every
  hook site takes ``metrics=None`` and skips the bump entirely when no
  registry is attached, so the bench A/B gate sees nothing.
* **No dependencies** — exporters emit plain JSON
  (:meth:`MetricsRegistry.to_json`) and the Prometheus text exposition
  format (:meth:`MetricsRegistry.to_prometheus_text`) with stdlib only.

Label sets are plain keyword arguments; a labelled series is keyed by
``(name, sorted(label items))``:

>>> m = MetricsRegistry()
>>> m.inc("queries_total")
>>> m.inc("governor_denials_total", kind="deadline")
>>> m.counter_value("queries_total")
1
>>> m.observe("fixpoint_rounds", 3)
>>> print(m.to_prometheus_text().splitlines()[1])
repro_fixpoint_rounds_bucket{le="1"} 0
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Default histogram boundaries (upper bounds, inclusive).  Fixed and
#: coarse on purpose: rounds/cardinalities span orders of magnitude and
#: determinism beats resolution here.
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 1000, 10_000)

#: Prometheus metric-name prefix for everything this system exports.
PROM_PREFIX = "repro_"

LabelKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, object]) -> LabelKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


@dataclass
class Histogram:
    """Cumulative fixed-bucket histogram (Prometheus semantics)."""

    buckets: tuple[int, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    observations: int = 0

    def __post_init__(self):
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +inf bucket last

    def observe(self, value: float) -> None:
        self.total += value
        self.observations += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        out, running = [], 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


class MetricsRegistry:
    """Counters, gauges, and histograms under stable, sorted export order."""

    def __init__(self):
        self._counters: dict[LabelKey, int] = {}
        self._gauges: dict[LabelKey, float] = {}
        self._histograms: dict[LabelKey, Histogram] = {}

    # ------------------------------------------------------------ recording

    def inc(self, name: str, value: int = 1, **labels: object) -> None:
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[_key(name, labels)] = value

    def observe(
        self, name: str, value: float,
        buckets: tuple[int, ...] = DEFAULT_BUCKETS, **labels: object,
    ) -> None:
        key = _key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(buckets=buckets)
        histogram.observe(value)

    # -------------------------------------------------------------- reading

    def counter_value(self, name: str, **labels: object) -> int:
        return self._counters.get(_key(name, labels), 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter across every label set (e.g. all
        ``governor_denials_total{kind=...}`` regardless of kind)."""
        return sum(
            value for (series, _labels), value in self._counters.items()
            if series == name
        )

    def gauge_value(self, name: str, **labels: object) -> float | None:
        return self._gauges.get(_key(name, labels))

    def histogram_for(self, name: str, **labels: object) -> Histogram | None:
        return self._histograms.get(_key(name, labels))

    def snapshot(self) -> dict:
        """Every series as plain data, deterministically ordered."""

        def series(key: LabelKey) -> dict:
            name, labels = key
            return {"name": name, "labels": dict(labels)}

        return {
            "counters": [
                {**series(key), "value": value}
                for key, value in sorted(self._counters.items())
            ],
            "gauges": [
                {**series(key), "value": value}
                for key, value in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    **series(key),
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.observations,
                }
                for key, h in sorted(self._histograms.items())
            ],
        }

    # ------------------------------------------------------------ exporters

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []

        def label_str(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
            parts = [f'{k}="{v}"' for k, v in labels]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        typed: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {PROM_PREFIX}{name} {kind}")

        for (name, labels), value in sorted(self._counters.items()):
            type_line(name, "counter")
            lines.append(f"{PROM_PREFIX}{name}{label_str(labels)} {value}")
        for (name, labels), value in sorted(self._gauges.items()):
            type_line(name, "gauge")
            lines.append(f"{PROM_PREFIX}{name}{label_str(labels)} {value}")
        for (name, labels), histogram in sorted(self._histograms.items()):
            type_line(name, "histogram")
            cumulative = histogram.cumulative()
            bounds = [str(b) for b in histogram.buckets] + ["+Inf"]
            for bound, count in zip(bounds, cumulative):
                le = 'le="%s"' % bound
                lines.append(
                    f"{PROM_PREFIX}{name}_bucket{label_str(labels, le)} {count}"
                )
            lines.append(f"{PROM_PREFIX}{name}_sum{label_str(labels)} {histogram.total}")
            lines.append(f"{PROM_PREFIX}{name}_count{label_str(labels)} {histogram.observations}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
