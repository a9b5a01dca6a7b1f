"""Unit tests for the Prometheus text exposition layer."""

import re

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ingestion_stats_lines,
    render_ingestion_stats,
)

#: A valid exposition sample line: name, optional {labels}, space, value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
)


def assert_valid_exposition(text: str) -> None:
    """Every line is a comment or a well-formed sample; every sample's
    metric family is preceded by HELP and TYPE headers."""
    seen_types = {}
    for line in text.strip().split("\n"):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            assert len(parts) >= 4, line
            if line.startswith("# TYPE "):
                seen_types[parts[2]] = parts[3]
            continue
        assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        name = re.split(r"[{ ]", line, 1)[0]
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert family in seen_types or name in seen_types, (
            f"sample {name!r} has no TYPE header"
        )


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("repro_things_total", "Things.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_render_separately(self):
        counter = Counter("repro_req_total", "Requests.", ("code",))
        counter.inc(labels={"code": "200"})
        counter.inc(3, labels={"code": "503"})
        lines = counter.render_lines()
        assert 'repro_req_total{code="200"} 1' in lines
        assert 'repro_req_total{code="503"} 3' in lines

    def test_counter_cannot_decrease(self):
        counter = Counter("repro_things_total", "Things.")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_wrong_label_set_rejected(self):
        counter = Counter("repro_req_total", "Requests.", ("code",))
        with pytest.raises(ConfigurationError):
            counter.inc(labels={"status": "200"})
        with pytest.raises(ConfigurationError):
            counter.inc()


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("repro_depth", "Depth.")
        gauge.set(4)
        gauge.set(2)
        assert gauge.value() == 2
        assert gauge.render_lines()[-1] == "repro_depth 2"

    def test_label_value_escaping(self):
        gauge = Gauge("repro_g", "G.", ("name",))
        gauge.set(1, labels={"name": 'a"b\\c\nd'})
        line = gauge.render_lines()[-1]
        assert line == 'repro_g{name="a\\"b\\\\c\\nd"} 1'


class TestHistogram:
    def test_cumulative_buckets_sum_and_count(self):
        histogram = Histogram("repro_seconds", "Latency.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            histogram.observe(value)
        lines = histogram.render_lines()
        assert 'repro_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_seconds_bucket{le="1"} 3' in lines
        assert 'repro_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_seconds_count 4" in lines
        sum_line = next(l for l in lines if l.startswith("repro_seconds_sum"))
        assert float(sum_line.split()[-1]) == pytest.approx(6.25)

    def test_quantile_estimates_bucket_upper_bound(self):
        histogram = Histogram("repro_seconds", "Latency.", buckets=(0.1, 1.0, 10.0))
        for value in [0.05] * 98 + [5.0, 5.0]:
            histogram.observe(value)
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(0.99) == 10.0
        assert np.isnan(Histogram("repro_e", "E.", buckets=(1.0,)).quantile(0.5))

    def test_buckets_must_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("repro_h", "H.", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("repro_h", "H.", buckets=())


class TestRegistry:
    def test_render_is_valid_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_a_total", "A.", ("method",))
        counter.inc(labels={"method": "GET"})
        registry.gauge("repro_b", "B.").set(1.5)
        histogram = registry.histogram("repro_c_seconds", "C.", buckets=(0.1, 1.0))
        histogram.observe(0.2)
        text = registry.render()
        assert text.endswith("\n")
        assert_valid_exposition(text)

    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "A.")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_a_total", "again")

    def test_invalid_metric_and_label_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("2bad", "Bad.")
        with pytest.raises(ConfigurationError):
            Counter("repro_ok", "Bad label.", ("0bad",))


class TestIngestionStatsRendering:
    def stats(self):
        return {
            "started": True,
            "n_shards": 2,
            "queue_size": 8,
            "materializations_performed": 3,
            "totals": {
                "submitted_batches": 10,
                "submitted_users": 5000,
                "absorbed_batches": 9,
                "absorbed_users": 4500,
                "rejected_batches": 1,
                "rejected_users": 500,
            },
            "per_shard": [
                {"shard": 0, "batches": 5, "users": 2500,
                 "rejected": 1, "queue_depth": 0, "queue_peak": 2},
                {"shard": 1, "batches": 4, "users": 2000,
                 "rejected": 0, "queue_depth": 1, "queue_peak": 3},
            ],
        }

    def test_rendering_is_valid_and_complete(self):
        text = render_ingestion_stats(self.stats())
        assert_valid_exposition(text)
        assert "repro_ingest_up 1" in text
        assert "repro_ingest_shards 2" in text
        assert "repro_ingest_absorbed_users_total 4500" in text
        assert "repro_ingest_rejected_batches_total 1" in text
        assert 'repro_ingest_queue_depth{shard="1"} 1' in text
        assert 'repro_ingest_shard_rejected{shard="0"} 1' in text
        # Shard sets no longer grow or shrink, so the scaling families and
        # the per-shard stream label are gone.
        for removed in ("repro_ingest_scale_events_total",
                        "repro_ingest_streams_spawned_total",
                        "repro_ingest_scaling", "stream="):
            assert removed not in text

    def test_no_kernel_backend_gauge(self):
        # Even a stale stats dict that still carries the field renders no
        # backend-identity series.
        text = render_ingestion_stats({**self.stats(), "kernel_backend": "numpy"})
        assert "kernel_backend" not in text

    def test_totals_survive_missing_keys(self):
        lines = ingestion_stats_lines({"started": False})
        text = "\n".join(lines)
        assert "repro_ingest_up 0" in text
        assert "repro_ingest_absorbed_users_total 0" in text
