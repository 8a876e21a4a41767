"""Metric names, units, and the fold from raw measurements to metrics.

End-to-end metrics are the same eight names on every workload; what each
measures on each workload is written down in README.md.  Per-layer metrics
come from the traced run: self time per statement (per ingested row on
``ingest-scan``) of each layer's spans, plus counts and ratios taken at the
same boundaries.
"""

from __future__ import annotations

from typing import Optional

END_TO_END = {
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "cold_queries_s": "s",
    "scan_rows_per_s": "1/s",
    "storage_x": "x",
    "rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer self-time metrics and the span names they sum.
SPAN_METRICS = {
    "api.cursor_us": ("api.cursor",),
    "core.proxy_us": ("core.proxy",),
    "sql.parse_us": ("sql.parse",),
    "core.rewriter_us": ("core.rewriter",),
    "core.bind_us": ("core.bind",),
    "core.results_us": ("core.results",),
    "sql.execute_us": ("sql.execute",),
    "crypto.aes_us": ("crypto.aes",),
    "crypto.ope_us": ("crypto.ope",),
    "crypto.ecc_us": ("crypto.ecc",),
    "crypto.paillier_us": ("crypto.paillier",),
    "crypto.search_us": ("crypto.search",),
    "durability.append_us": ("durability.append",),
    "durability.sync_us": ("durability.sync",),
    "server.transport_us": ("server.transport",),
    "server.codec_us": ("server.codec",),
    "server.session_exec_us": ("server.session_exec",),
}

PER_LAYER = {
    **{name: "us" for name in SPAN_METRICS},
    "server.admission_wait_us": "us",
    "crypto.aes.blocks": "count",
    "crypto.paillier.pool_hit_ratio": "ratio",
    "core.cache.det_hit_ratio": "ratio",
    "core.cache.ope_hit_ratio": "ratio",
    "core.cache.bytes": "bytes",
    "core.plan_cache.hit_ratio": "ratio",
    "core.onion.adjustments": "count",
    "durability.wal_appends": "count",
    "durability.wal_fsyncs": "count",
    "durability.wal_bytes": "bytes",
    "parallel.pool_jobs": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "gen.late_p99_ms": "ms",
}


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(
    trace: dict,
    counters: dict,
    operations: int,
    overhead: float,
    late_p99_ms: Optional[float] = None,
) -> dict[str, float]:
    """Fold a merged trace and counter deltas into the per-layer metrics.

    ``operations`` is the divisor of every per-statement figure: statements
    traced, or rows ingested on ``ingest-scan``.  ``trace["entry_s"]`` is the
    time spent under the statement entry span; coverage is the share of it
    inside some deeper layer span (plus, on the wire, the server's admission
    wait, which is time accounted for though no span runs).  On the wire,
    ``api.cursor_us`` is what the client waited beyond the server's spans:
    sockets, the event loop and the executor hand-off.
    """
    per_op = 1.0 / max(operations, 1)
    self_s = trace.get("self_s", {})
    raw = trace.get("counters", {})
    metrics: dict[str, float] = {}
    for metric, spans in SPAN_METRICS.items():
        metrics[metric] = sum(self_s.get(name, 0.0) for name in spans) * per_op * 1e6
    # Over the wire the server's spans run inside the client's entry span.
    metrics["api.cursor_us"] -= trace.get("remote_s", 0.0) * per_op * 1e6
    wait_s = raw.get("server.admission_wait_s", 0.0)
    metrics["server.admission_wait_us"] = wait_s * per_op * 1e6
    metrics["crypto.aes.blocks"] = raw.get("crypto.aes.blocks", 0) * per_op
    metrics["crypto.paillier.pool_hit_ratio"] = _ratio(
        counters["hom_pool_hits"], counters["hom_pool_misses"]
    )
    metrics["core.cache.det_hit_ratio"] = _ratio(counters["det_hits"], counters["det_misses"])
    metrics["core.cache.ope_hit_ratio"] = _ratio(counters["ope_hits"], counters["ope_misses"])
    metrics["core.cache.bytes"] = float(counters["cache_bytes"])
    metrics["core.plan_cache.hit_ratio"] = _ratio(
        counters["plan_hits"], counters["plan_misses"]
    )
    metrics["core.onion.adjustments"] = counters["onion_adjustments"] * per_op
    for name in ("wal_appends", "wal_fsyncs", "wal_bytes"):
        metrics[f"durability.{name}"] = raw.get(f"durability.{name}", 0) * per_op
    metrics["parallel.pool_jobs"] = counters["parallel_jobs"] * per_op
    entry = trace.get("entry_s", 0.0)
    inside = sum(v for k, v in self_s.items() if k != "api.cursor") + wait_s
    metrics["trace.coverage"] = inside / entry if entry else 0.0
    metrics["trace.overhead"] = overhead
    metrics["gen.late_p99_ms"] = late_p99_ms if late_p99_ms is not None else 0.0
    return metrics


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    """The final JSON object: every metric in ``units``, with its unit."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
