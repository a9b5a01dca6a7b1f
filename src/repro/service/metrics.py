"""Prometheus text exposition for the service tier (no client library).

The ``/metrics`` endpoint of :mod:`repro.service.http` needs exactly three
instrument kinds — counters, gauges and one latency histogram — rendered in
the Prometheus text exposition format (version 0.0.4).  Pulling in a client
library for that would violate the "stdlib + numpy only" rule of this repo,
and the format is small enough to own: ``# HELP`` / ``# TYPE`` headers, one
``name{label="value"} number`` sample per line, histograms as cumulative
``_bucket`` series plus ``_sum`` / ``_count``.

Two layers live here:

* **Instruments** — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
  and the :class:`MetricsRegistry` that renders them.  The HTTP server owns
  a registry for its request counters and latency histogram.
* **Stats mapping** — :func:`ingestion_stats_lines` turns one
  :meth:`IngestionService.stats() <repro.service.IngestionService.stats>`
  snapshot into one unlabeled family per stats key, from one table:
  monotonic totals are counters, live queue and cache state are gauges.

Everything renders deterministically (insertion order, stable label
order), so tests can assert on exact output.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ingestion_stats_lines",
    "render_ingestion_stats",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): sub-millisecond ingest up to slow
#: multi-second tails, roughly logarithmic like client_python's defaults.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelValues = Tuple[str, ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(str(name) for name in label_names)
    for name in names:
        if not _LABEL_RE.match(name):
            raise ConfigurationError(f"invalid label name {name!r}")
    return names


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample_line(
    name: str, labels: Mapping[str, str], value: float
) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label_value(str(val))}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {_format_number(value)}"
    return f"{name} {_format_number(value)}"


class _Instrument:
    """Shared plumbing: name/help validation and label bookkeeping."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = str(help)
        self.label_names = _check_labels(label_names)

    def _key(self, labels: Optional[Mapping[str, str]]) -> LabelValues:
        labels = dict(labels or {})
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} expects labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _labels_of(self, key: LabelValues) -> Dict[str, str]:
        return dict(zip(self.label_names, key))

    def header_lines(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def sample_lines(self) -> List[str]:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def render_lines(self) -> List[str]:
        return self.header_lines() + self.sample_lines()


class Counter(_Instrument):
    """Monotonically increasing sample(s); one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, labels: Optional[Mapping[str, str]] = None) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount!r})"
            )
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, labels: Optional[Mapping[str, str]] = None) -> float:
        return self._values.get(self._key(labels), 0.0)

    def sample_lines(self) -> List[str]:
        return [
            _sample_line(self.name, self._labels_of(key), value)
            for key, value in self._values.items()
        ]


class Gauge(_Instrument):
    """Point-in-time sample(s) that may go up or down."""

    kind = "gauge"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, labels: Optional[Mapping[str, str]] = None) -> None:
        self._values[self._key(labels)] = float(value)

    def value(self, labels: Optional[Mapping[str, str]] = None) -> float:
        return self._values.get(self._key(labels), 0.0)

    def sample_lines(self) -> List[str]:
        return [
            _sample_line(self.name, self._labels_of(key), value)
            for key, value in self._values.items()
        ]


class Histogram(_Instrument):
    """Cumulative-bucket histogram (`*_bucket` / `*_sum` / `*_count`)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be non-empty and strictly "
                f"increasing, got {buckets!r}"
            )
        self.buckets = bounds
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._totals: Dict[LabelValues, int] = {}

    def observe(self, value: float, labels: Optional[Mapping[str, str]] = None) -> None:
        key = self._key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, labels: Optional[Mapping[str, str]] = None) -> int:
        return self._totals.get(self._key(labels), 0)

    def quantile(self, q: float, labels: Optional[Mapping[str, str]] = None) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        containing the ``q``-th observation): p50/p99 without keeping raw
        samples."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
        key = self._key(labels)
        total = self._totals.get(key, 0)
        if total == 0:
            return float("nan")
        rank = q * total
        seen = 0
        for bound, count in zip(self.buckets, self._counts.get(key, ())):
            seen += count
            if seen >= rank:
                return bound
        return float("inf")

    def sample_lines(self) -> List[str]:
        lines: List[str] = []
        for key in self._totals:
            labels = self._labels_of(key)
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_number(float(bound))
                lines.append(
                    _sample_line(f"{self.name}_bucket", bucket_labels, cumulative)
                )
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(
                _sample_line(f"{self.name}_bucket", inf_labels, self._totals[key])
            )
            lines.append(
                _sample_line(f"{self.name}_sum", labels, self._sums.get(key, 0.0))
            )
            lines.append(
                _sample_line(f"{self.name}_count", labels, self._totals[key])
            )
        return lines


class MetricsRegistry:
    """Ordered collection of instruments with one-shot text rendering."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def register(self, instrument: _Instrument) -> _Instrument:
        if instrument.name in self._instruments:
            raise ConfigurationError(
                f"metric {instrument.name!r} is already registered"
            )
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help: str, label_names: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help, label_names))  # type: ignore[return-value]

    def gauge(self, name: str, help: str, label_names: Sequence[str] = ()) -> Gauge:
        return self.register(Gauge(name, help, label_names))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        label_names: Sequence[str] = (),
    ) -> Histogram:
        return self.register(Histogram(name, help, buckets, label_names))  # type: ignore[return-value]

    def render_lines(self) -> List[str]:
        lines: List[str] = []
        for instrument in self._instruments.values():
            lines.extend(instrument.render_lines())
        return lines

    def render(self) -> str:
        """The full exposition payload (trailing newline included)."""
        return "\n".join(self.render_lines()) + "\n"


# ----------------------------------------------------------------------
# IngestionService.stats() -> metric families
# ----------------------------------------------------------------------
#: One unlabeled family per ``IngestionService.stats()`` key:
#: ``(family, type, help, stats key)``, in exposition order.
_INGESTION_FAMILIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro_ingest_up", "gauge",
     "Whether the ingestion service is started.", "started"),
    ("repro_ingest_shards", "gauge", "Collector shard count.", "n_shards"),
    ("repro_ingest_queue_capacity", "gauge",
     "Ingest queue capacity (batches).", "queue_capacity"),
    ("repro_ingest_queue_depth", "gauge",
     "Live ingest queue depth (batches).", "queue_depth"),
    ("repro_ingest_queue_peak", "gauge",
     "Ingest queue high-water mark (batches).", "queue_peak"),
    ("repro_ingest_submitted_batches_total", "counter",
     "Batches accepted for queueing since service creation.", "submitted_batches"),
    ("repro_ingest_submitted_users_total", "counter",
     "User reports accepted for queueing since service creation.", "submitted_users"),
    ("repro_ingest_absorbed_batches_total", "counter",
     "Batches folded into the collected statistics.", "absorbed_batches"),
    ("repro_ingest_absorbed_users_total", "counter",
     "User reports folded into the collected statistics.", "absorbed_users"),
    ("repro_ingest_rejected_batches_total", "counter",
     "Batches bounced with backpressure (full ingest queue).", "rejected_batches"),
    ("repro_ingest_rejected_users_total", "counter",
     "User reports bounced with backpressure.", "rejected_users"),
    ("repro_query_views_built_total", "counter",
     "Reduced+materialized read views built (one per generation change).",
     "views_built"),
    ("repro_query_cache_hits_total", "counter",
     "Answer-cache hits on the live read view.", "cache_hits"),
    ("repro_query_cache_misses_total", "counter",
     "Answer-cache misses on the live read view.", "cache_misses"),
    ("repro_query_cache_evictions_total", "counter",
     "Answer-cache LRU evictions on the live read view.", "cache_evictions"),
    ("repro_query_cache_size", "gauge",
     "Live answer-cache entry count.", "cache_size"),
    ("repro_query_cache_capacity", "gauge",
     "Answer-cache entry bound (0 disables caching).", "cache_capacity"),
)


def ingestion_stats_lines(stats: Mapping[str, object]) -> List[str]:
    """Render one ``IngestionService.stats()`` snapshot as exposition lines.

    One sample per ``_INGESTION_FAMILIES`` row; a key missing from the
    snapshot renders as 0.  Stateless by design: the service's stats
    dictionary *is* the state, so rendering twice never double-counts.
    """
    lines: List[str] = []
    for name, kind, help_text, key in _INGESTION_FAMILIES:
        lines += [
            f"# HELP {name} {help_text}",
            f"# TYPE {name} {kind}",
            _sample_line(name, {}, stats.get(key, 0)),  # type: ignore[arg-type]
        ]
    return lines


def render_ingestion_stats(stats: Mapping[str, object]) -> str:
    """:func:`ingestion_stats_lines` joined into one exposition payload."""
    return "\n".join(ingestion_stats_lines(stats)) + "\n"
