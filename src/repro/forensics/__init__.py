"""Consensus forensics: critical-path attribution and online health monitors.

The package turns the :mod:`repro.obs` trace stream into answers to the two
questions every DAG-BFT performance claim hangs on:

* **Where does commit latency go?**  :mod:`~repro.forensics.provenance`
  reconstructs, for every committed block, the causal chain from mempool
  arrival through RBC dissemination, DAG ordering, and clan execution to the
  ``f_c + 1`` client reply quorum — and reconciles the per-segment waterfall
  against the end-to-end client latency the SMR runtime measures.
* **Is the protocol healthy right now?**  :mod:`~repro.forensics.monitors`
  attaches purely callback-driven observers (stall watchdog, commit-prefix
  safety, clan health, equivocation evidence) that emit typed ``anomaly``
  records during a run without scheduling a single simulator event, so an
  instrumented run stays bit-identical to a plain one.
* **What happened just before it went wrong?**
  :mod:`~repro.forensics.recorder` keeps a bounded per-node ring of recent
  protocol events and dumps a post-mortem bundle when a monitor fires or a
  node crashes.

:mod:`~repro.forensics.report` is the repo's one trace reader:
:func:`~repro.forensics.report.read_trace` makes a single pass that feeds
the stage tables, the provenance index and the metrics summary.
``python -m repro forensics <trace.jsonl>`` prints its report;
``python -m repro chaos --monitors`` runs the scenario library with the
monitor suite attached.
"""

from .monitors import MonitorConfig, MonitorSuite
from .provenance import Commit, ProvenanceIndex, attribution_rows
from .recorder import FlightRecorder
from .report import TraceReport, format_report, read_trace

__all__ = [
    "Commit",
    "FlightRecorder",
    "MonitorConfig",
    "MonitorSuite",
    "ProvenanceIndex",
    "TraceReport",
    "attribution_rows",
    "format_report",
    "read_trace",
]
