"""Which public functions the traced run wraps, and what each metric is.

Every per-layer metric is defined once here: where its number comes from
(a span, a counter a hook adds, or a ``GET /metrics`` counter), and the
workload on which the traced run requires it to be recorded.
"""

from __future__ import annotations

import numpy as np

#: Span-derived metrics: metric -> (span names summed, workload that must
#: record one).  Reported as self milliseconds per workload operation,
#: except ``ingestion.refresh_view_ms``, whose span is a coroutine's wall
#: (drain wait included), so it is reported as that wall per operation.
SPAN_METRICS = {
    "http.self_ms": (("http.dispatch", "http.decode_query", "http.encode_answers", "http.encode_response"), "dashboard"),
    "ingestion.try_submit_ms": (("ingestion.try_submit",), "live_wavelet"),
    "ingestion.refresh_view_ms": (("ingestion.refresh_view",), "live_wavelet"),
    "coalescer.answer_ms": (("coalescer.flush",), "dashboard"),
    "sharded.submit_ms": (("sharded.submit",), "ingest"),
    "sharded.reduce_ms": (("sharded.reduce",), "live_wavelet"),
    "core.partial_fit_ms": (("core.partial_fit",), "ingest"),
    "core.fit_counts_ms": (("core.fit_counts",), "paper_sweep"),
    "core.merge_from_ms": (("core.merge_from",), "live_wavelet"),
    "core.materialize_ms": (("core.materialize",), "live_wavelet"),
    "core.answer_ranges_ms": (("core.answer_ranges",), "live_wavelet"),
    "core.answer_boxes_ms": (("core.answer_boxes",), "dashboard"),
    "core.quantiles_ms": (("core.quantiles",), "live_wavelet"),
    "oracles.add_items_ms": (("oracles.encode_batch", "oracles.add"), "ingest"),
    "oracles.add_counts_ms": (("oracles.add_counts",), "paper_sweep"),
    "oracles.merge_ms": (("oracles.merge",), "live_wavelet"),
    "oracles.estimate_ms": (("oracles.estimate",), "paper_sweep"),
    "hierarchy.consistency_ms": (("hierarchy.consistency",), "paper_sweep"),
    "hierarchy.axis_runs_ms": (("hierarchy.axis_runs",), "dashboard"),
    "hierarchy.range_sums_ms": (("hierarchy.range_sums",), "paper_sweep"),
    "transforms.haar_inverse_ms": (("transforms.haar_inverse",), "live_wavelet"),
    "kernels.unary_column_sums_ms": (("kernels.unary_column_sums",), "ingest"),
    "kernels.axis_runs_ms": (("kernels.axis_runs",), "dashboard"),
    "runner.evaluate_ms": (("runner.evaluate",), "paper_sweep"),
}

#: Count metrics: metric -> (source, key, workload, non-zero).  ``span``
#: counts calls of a span, ``counter`` reads a hook counter of either
#: process, ``metrics`` is the traced-phase delta of a ``GET /metrics``
#: sample.  On the named workload the key must be present and, when the
#: flag is set, non-zero; counts that a healthy run leaves at 0 (retries,
#: rejections, error responses) need only be present.
COUNT_METRICS = {
    "client.requests": ("counter", "client.requests", "ingest", True),
    "client.retries_503": ("counter", "client.retries_503", "ingest", False),
    "http.requests": ("metrics", "http_requests", "dashboard", True),
    "http.responses_4xx": ("metrics", "http_4xx", "dashboard", False),
    "http.responses_5xx": ("metrics", "http_5xx", "dashboard", False),
    "ingestion.rejected_batches": ("metrics", "repro_ingest_rejected_batches_total", "ingest", False),
    "ingestion.queue_peak": ("metrics", "queue_peak", "ingest", True),
    "ingestion.views_built": ("metrics", "repro_query_views_built_total", "live_wavelet", True),
    "coalescer.flushes": ("span", "coalescer.flush", "dashboard", True),
    "sharded.reduces": ("span", "sharded.reduce", "live_wavelet", True),
    "core.materializations": ("counter", "core.materializations", "live_wavelet", True),
    "cache.hits": ("metrics", "repro_query_cache_hits_total", "dashboard", True),
    "cache.misses": ("metrics", "repro_query_cache_misses_total", "dashboard", True),
    "oracles.users": ("counter", "oracles.users", "ingest", True),
    "runner.cells": ("span", "runner.evaluate", "paper_sweep", True),
}

#: Inputs of the derived metrics below, checked like ``COUNT_METRICS``.
DERIVED_INPUTS = (
    ("counter", "coalescer.queries", "dashboard", True),
    ("metrics", "http_request_seconds", "dashboard", True),
)

#: Per-layer metrics computed from the others (see ``_traced_result``).
#: ``scaling.*`` compare the untraced half's figures at the reference speed
#: with the same figures as measured, and give the speed factor between them.
DERIVED_METRICS = {
    "http.request_ms": "ms/op",
    "coalescer.queries_per_call": "queries",
    "cache.hit_ratio": "ratio",
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
    "scaling.factor": "ratio",
    "scaling.ops_per_s": "1/s",
    "scaling.ops_per_s_unscaled": "1/s",
    "scaling.server_cpu_ms_per_op": "ms",
    "scaling.server_cpu_ms_per_op_unscaled": "ms",
}


def per_layer_units() -> dict:
    units = {name: "ms/op" for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(DERIVED_METRICS)
    return units


def read_count(source: str, key: str, spans: dict, counters: dict, delta: dict):
    """The value of a count input, or ``None`` when it was never recorded."""
    if source == "span":
        return float(spans[key][0]) if key in spans else None
    store = counters if source == "counter" else delta
    return float(store[key]) if key in store else None


# ----------------------------------------------------------------------
# Hooks: run before a wrapped call, may return a callback for its result
# ----------------------------------------------------------------------
def _hook_report_users(tracer, args, kwargs):
    tracer.count("oracles.users", int(args[1].n_users))


def _hook_count_users(tracer, args, kwargs):
    tracer.count("oracles.users", int(np.asarray(args[1]).sum()))


def _hook_client(tracer, args, kwargs):
    tracer.count("client.requests")

    def after(response):
        # Counted on every response, so the key proves the hook ran.
        tracer.count("client.retries_503", 1.0 if response.status == 503 else 0.0)

    return after


def _hook_materialize(tracer, args, kwargs):
    mechanism = args[0]
    before = mechanism.materialization_count

    def after(result):
        if mechanism.materialization_count != before:
            tracer.count("core.materializations")

    return after


def _hook_flush(tracer, args, kwargs):
    tracer.count("coalescer.queries", sum(int(entry[2].shape[0]) for entry in args[0]._pending))


# ----------------------------------------------------------------------
# Target lists
# ----------------------------------------------------------------------
def library_targets():
    """Layers below the service tier (used by the server and in-process)."""
    import repro.kernels as kernels
    from repro.core.base import RangeQueryMechanism
    from repro.core.hierarchical import HierarchicalHistogramMechanism
    from repro.core.multidim import HierarchicalGridND
    from repro.core.wavelet import HaarWaveletMechanism
    from repro.frequency_oracles.accumulators import OracleAccumulator
    from repro.frequency_oracles.base import FrequencyOracle
    from repro.hierarchy import consistency, decomposition
    from repro.streaming.sharded import ShardedCollector
    from repro.transforms import haar

    targets = [
        (ShardedCollector, "submit", "sharded.submit", None),
        (ShardedCollector, "reduce", "sharded.reduce", None),
        (RangeQueryMechanism, "partial_fit", "core.partial_fit", None),
        (RangeQueryMechanism, "fit_counts", "core.fit_counts", None),
        (RangeQueryMechanism, "merge_from", "core.merge_from", None),
        (RangeQueryMechanism, "quantiles", "core.quantiles", None),
        (RangeQueryMechanism, "materialize", "core.materialize", _hook_materialize),
        (HierarchicalGridND, "answer_boxes", "core.answer_boxes", None),
        (OracleAccumulator, "add", "oracles.add", _hook_report_users),
        (OracleAccumulator, "add_counts", "oracles.add_counts", _hook_count_users),
        (OracleAccumulator, "merge", "oracles.merge", None),
        (consistency, "enforce_consistency", "hierarchy.consistency", None),
        (decomposition, "batched_axis_runs", "hierarchy.axis_runs", None),
        (decomposition, "batched_range_sums", "hierarchy.range_sums", None),
        (haar, "haar_inverse", "transforms.haar_inverse", None),
        (kernels, "unary_column_sums", "kernels.unary_column_sums", None),
        (kernels, "badic_axis_runs", "kernels.axis_runs", None),
    ]
    for cls in (RangeQueryMechanism, HierarchicalHistogramMechanism, HaarWaveletMechanism):
        targets.append((cls, "answer_ranges", "core.answer_ranges", None))
    for cls in _subclasses(FrequencyOracle):
        if "encode_batch" in cls.__dict__:
            targets.append((cls, "encode_batch", "oracles.encode_batch", None))
    for cls in _subclasses(OracleAccumulator):
        if "estimate" in cls.__dict__:
            targets.append((cls, "estimate", "oracles.estimate", None))
    return targets


def server_targets():
    """Service-tier layers plus :func:`library_targets`."""
    from repro.service.http import ReproHttpServer, _HttpResponse
    from repro.service.ingestion import IngestionService
    from repro.service.query import QueryCoalescer

    return library_targets() + [
        (ReproHttpServer, "_dispatch", "http.dispatch", None),
        (ReproHttpServer, "_decode_query_payload", "http.decode_query", None),
        (ReproHttpServer, "_answers_response", "http.encode_answers", None),
        (_HttpResponse, "encode", "http.encode_response", None),
        (IngestionService, "try_submit", "ingestion.try_submit", None),
        (IngestionService, "refresh_query_view", "ingestion.refresh_view", None),
        (QueryCoalescer, "_flush", "coalescer.flush", _hook_flush),
    ]


def runner_targets():
    from repro.experiments import runner

    return library_targets() + [
        (runner, "evaluate_mechanism", "runner.evaluate", None),
    ]


def client_targets():
    from repro.service.client import ServiceClient

    return [(ServiceClient, "_request", "client.request", _hook_client)]


def _subclasses(cls):
    seen = []
    stack = [cls]
    while stack:
        current = stack.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return seen
