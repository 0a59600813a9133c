"""Trace exporters: Chrome-trace/Perfetto JSON and Prometheus text.

The Perfetto exporter maps the tracer's record stream onto the Chrome Trace
Event JSON format (the ``traceEvents`` array form), which both
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* spans become complete duration events (``ph: "X"``) with microsecond
  timestamps, placed on a per-node *process* track;
* spans carrying trace-context attrs (``trace``/``span``/``parent``) are
  grouped on a per-trace *thread* so one transaction's causal tree reads as
  one lane, with the parent/child ids preserved in ``args``;
* anomalies become instant events (``ph: "i"``, global scope) — the flight
  recorder's findings show up as pins on the timeline;
* counters and gauges become counter events (``ph: "C"``).

Timestamps are simulated seconds scaled to integer-friendly microseconds, so
a deterministic run exports a byte-identical file.
"""

from __future__ import annotations

import json
from typing import Any

from .metrics import prometheus_text  # re-exported for CLI convenience
from .tracer import record_dicts

__all__ = ["perfetto_events", "perfetto_trace", "export_perfetto", "prometheus_text"]


def _us(t: float) -> int:
    """Simulated seconds to integer microseconds (Perfetto's unit)."""
    return int(round(t * 1e6))


def perfetto_events(source: Any) -> list[dict[str, Any]]:
    """Map trace records to Chrome Trace Event dicts (``traceEvents``)."""
    events: list[dict[str, Any]] = []
    seen_pids: set[int] = set()
    #: (pid, tid) -> thread label, emitted as metadata at the end.
    tracks: dict[tuple[int, int], str] = {}
    #: span-name -> small stable tid for context-free spans.
    name_tids: dict[str, int] = {}

    def pid_of(node: Any) -> int:
        # pid 0 is the "global" process for records with no node attribution.
        pid = int(node) + 1 if node is not None else 0
        seen_pids.add(pid)
        return pid

    for rec in record_dicts(source):
        rtype = rec.get("type")
        attrs = rec.get("attrs") or {}
        pid = pid_of(rec.get("node"))
        if rtype == "span":
            trace = attrs.get("trace")
            if trace is not None:
                # One thread lane per causal trace: the whole txn tree reads
                # as a single row, regardless of which node emitted the span.
                tid = int(trace) % (2**31 - 1) + 1
                tracks.setdefault((pid, tid), f"trace {int(trace):016x}"[:32])
            else:
                tid = name_tids.setdefault(rec["name"], len(name_tids) + 1)
                tracks.setdefault((pid, tid), rec["name"])
            start, end = rec["start"], rec["end"]
            events.append({
                "ph": "X",
                "name": rec["name"],
                "cat": "span",
                "ts": _us(start),
                "dur": max(_us(end) - _us(start), 1),
                "pid": pid,
                "tid": tid,
                "args": attrs,
            })
        elif rtype == "anomaly":
            events.append({
                "ph": "i",
                "s": "g",  # global scope: drawn across every track
                "name": rec["name"],
                "cat": rec.get("kind", "info"),
                "ts": _us(rec["time"]),
                "pid": pid,
                "tid": 0,
                "args": attrs,
            })
        elif rtype in ("counter", "gauge"):
            events.append({
                "ph": "C",
                "name": rec["name"],
                "ts": _us(rec["time"]),
                "pid": pid,
                "tid": 0,
                "args": {"value": rec.get("value", 1.0)},
            })
        # meta / unknown types are skipped: the exporter is forward-tolerant.

    meta: list[dict[str, Any]] = []
    for pid in sorted(seen_pids):
        meta.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"node {pid - 1}" if pid else "global"},
        })
    for (pid, tid), label in sorted(tracks.items()):
        meta.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": label},
        })
    return meta + events


def perfetto_trace(source: Any) -> dict[str, Any]:
    """The full Chrome-trace JSON object for ``source``."""
    return {"traceEvents": perfetto_events(source), "displayTimeUnit": "ms"}


def export_perfetto(source: Any, path: str) -> int:
    """Write the Perfetto JSON for ``source``; returns the event count."""
    trace = perfetto_trace(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"), default=str)
    return len(trace["traceEvents"])
