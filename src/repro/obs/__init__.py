"""Zero-dependency observability: structured tracing and metrics.

The layer has two halves:

* :class:`~repro.obs.tracer.Tracer` — an event bus collecting typed
  span/counter/gauge records into a bounded ring buffer, exportable as JSONL.
* :class:`~repro.obs.tracer.NullTracer` — the disabled implementation; every
  instrumented hot path pays exactly one ``tracer.enabled`` attribute check.

Every layer of the stack (simulator, network, RBC, consensus, SMR) accepts an
optional tracer; ``python -m repro trace <experiment>`` runs one experiment
with tracing on, and ``python -m repro forensics trace.jsonl`` re-reads a
recorded trace.  Both read it through one pass of
:func:`repro.forensics.report.read_trace`, whose metrics registry folds each
record by the same rule as :func:`~repro.obs.regression.summarize_trace`.
"""

from .ctx import (
    TraceCtx,
    block_trace_key,
    derive_trace_id,
    sample_hit,
    txn_trace_key,
)
from .export import export_perfetto, perfetto_trace, prometheus_text
from .metrics import Histogram, MetricsRegistry
from .records import (
    ANOMALY_CLASSES,
    AnomalyRecord,
    CounterRecord,
    GaugeRecord,
    SpanRecord,
    TraceRecord,
    record_from_dict,
)
from .regression import diff_summaries, load_summary, save_summary, summarize_trace
from .spantree import span_trees, txn_completeness
from .tracer import NULL_TRACER, NullTracer, TraceFile, Tracer, ensure_tracer

__all__ = [
    "ANOMALY_CLASSES",
    "AnomalyRecord",
    "CounterRecord",
    "GaugeRecord",
    "SpanRecord",
    "TraceRecord",
    "record_from_dict",
    "NULL_TRACER",
    "NullTracer",
    "TraceFile",
    "Tracer",
    "ensure_tracer",
    "TraceCtx",
    "derive_trace_id",
    "sample_hit",
    "txn_trace_key",
    "block_trace_key",
    "Histogram",
    "MetricsRegistry",
    "export_perfetto",
    "perfetto_trace",
    "prometheus_text",
    "summarize_trace",
    "diff_summaries",
    "load_summary",
    "save_summary",
    "span_trees",
    "txn_completeness",
]
