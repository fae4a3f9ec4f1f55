"""Observability subsystem: tracing, metrics, heartbeats, summaries.

Four small, dependency-free layers the rest of the system hangs
telemetry on (nothing here imports the solver/engine packages, so any
module may import :mod:`repro.obs` without cycles):

* :mod:`repro.obs.trace` — nestable ``span()`` context managers with
  trace-id propagation across thread pools and the process pool, a
  bounded ring buffer, JSON-lines export.
* :mod:`repro.obs.metrics` — the process-wide registry (counters,
  gauges, fixed-bucket histograms, named collectors) behind
  ``metrics.snapshot()``; ``Session.performance_stats()`` and the
  serving ``stats_snapshot()`` are views over it.
* :mod:`repro.obs.heartbeat` — atomic progress sidecars for sweeps and
  shards, read back by ``python -m repro dse status DIR``.
* :mod:`repro.obs.summary` — per-phase time breakdown over a trace,
  rendered by ``python -m repro trace summary FILE``.
* :mod:`repro.obs.export` — the metrics snapshot rendered as Prometheus
  text exposition / JSON (the ``stats`` TCP verb, ``repro stats``).
* :mod:`repro.obs.top` — the ``repro top`` dashboard model (pure
  functions over serving stats payloads).
"""

from importlib import import_module

from . import metrics, trace
from .metrics import REGISTRY, MetricsRegistry
from .trace import (
    activate,
    current_context,
    export_jsonl,
    ingest,
    load_jsonl,
    new_span_id,
    record_span,
    remote_capture,
    span,
)

#: Names of the layers only the CLI, the server's ``stats`` verb and DSE
#: sweeps use -> their module, imported on first use (PEP 562): every
#: solver module imports this package for ``trace`` and ``metrics``.
_LAZY = {
    "export": "export",
    "histogram_quantile": "export",
    "render_json": "export",
    "render_prometheus": "export",
    "DEFAULT_STALE_AFTER": "heartbeat",
    "HeartbeatWriter": "heartbeat",
    "heartbeat_path_for": "heartbeat",
    "read_heartbeats": "heartbeat",
    "render_status": "heartbeat",
    "status_payload": "heartbeat",
    "render_summary": "summary",
    "summarize": "summary",
    "top": "top",
    "compute_dashboard": "top",
    "render_dashboard": "top",
}

__all__ = [
    "DEFAULT_STALE_AFTER",
    "HeartbeatWriter",
    "MetricsRegistry",
    "REGISTRY",
    "activate",
    "compute_dashboard",
    "current_context",
    "export",
    "export_jsonl",
    "heartbeat_path_for",
    "histogram_quantile",
    "ingest",
    "load_jsonl",
    "metrics",
    "new_span_id",
    "read_heartbeats",
    "record_span",
    "remote_capture",
    "render_dashboard",
    "render_json",
    "render_prometheus",
    "render_status",
    "render_summary",
    "span",
    "status_payload",
    "summarize",
    "top",
    "trace",
]


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    loaded = import_module(f".{module}", __name__)
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
