"""Cross-run regression observatory over archived trace summaries.

Pipeline: a traced run's JSONL is folded into a constant-size summary
(counter totals + 64-bucket histogram summaries per span name) by
:func:`summarize_trace`, record by record through
:meth:`~repro.obs.metrics.MetricsRegistry.add` — the same rule the one
trace reader (:func:`repro.forensics.report.read_trace`) feeds its
registry with; :func:`diff_summaries` compares two summaries with
noise-aware thresholds.  ``repro obs summary`` and ``repro obs diff`` wrap
both; CI diffs the traced SMR smoke (``repro trace smr_smoke``, under
``PYTHONHASHSEED=0``) against the committed ``OBS_baseline.json``.

Threshold design, tuned to what the simulator guarantees:

* the sim is deterministic given a seed, so *exact* aggregates (counter
  totals, histogram counts/sums — hence means) get a tight relative
  tolerance (default 10%): any drift is a real code-behaviour change;
* histogram quantiles are bucketed estimates — adjacent 64-bucket edges are
  ~1.4x apart — so a tiny true shift can jump a whole bucket.  Quantiles get
  a coarse tolerance (default 50%) and exist to catch order-of-magnitude
  tail blowups, not percent-level drift (the means catch those).
* low-count histograms (fewer than ``min_count`` samples) are skipped:
  single-sample "tails" are pure noise.
"""

from __future__ import annotations

import json
from typing import Any

from .metrics import MetricsRegistry
from .tracer import TraceFile, record_dicts


def summarize_trace(source: Any) -> dict[str, Any]:
    """Fold a trace (Tracer / TraceFile / record dicts) into a summary.

    Output shape is :meth:`MetricsRegistry.to_dict` — the archival unit the
    observatory diffs.
    """
    reg = MetricsRegistry()
    for rec in record_dicts(source):
        reg.add(rec)
    return reg.to_dict()


def load_summary(path: str) -> dict[str, Any]:
    """Load a summary from disk, accepting either format.

    A JSON file shaped like a summary loads directly; anything else is
    treated as a JSONL trace and summarized on the fly — so ``repro obs
    diff`` works on raw traces and archived summaries interchangeably.
    """
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
    if head == "{":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if isinstance(data, dict) and "counters" in data:
                return data
        except json.JSONDecodeError:
            pass  # multi-line JSONL: fall through to the trace reader
    return summarize_trace(TraceFile(path))


def save_summary(summary: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _rel_delta(base: float, cur: float) -> float:
    if base == cur:
        return 0.0
    if base == 0.0:
        return float("inf")
    return (cur - base) / abs(base)


def diff_summaries(
    base: dict[str, Any],
    cur: dict[str, Any],
    rel_tol: float = 0.10,
    quantile_tol: float = 0.50,
    min_count: int = 20,
) -> list[dict[str, Any]]:
    """Findings where ``cur`` drifted beyond tolerance from ``base``.

    Each finding: ``{"metric", "kind", "field", "base", "cur", "delta_pct"}``.
    Metrics present in only one summary are reported as ``missing``/``new``
    (new ones are informational — ``severity: "info"`` — so adding
    instrumentation does not fail the gate).
    """
    findings: list[dict[str, Any]] = []

    def flag(metric: str, kind: str, field: str, b: float, c: float, tol: float) -> None:
        delta = _rel_delta(b, c)
        if abs(delta) > tol:
            findings.append({
                "metric": metric, "kind": kind, "field": field,
                "base": b, "cur": c,
                "delta_pct": round(delta * 100.0, 2) if delta != float("inf") else None,
                "severity": "regression",
            })

    base_counters = base.get("counters") or {}
    cur_counters = cur.get("counters") or {}
    for name, slot in sorted(base_counters.items()):
        if name not in cur_counters:
            findings.append({"metric": name, "kind": "counter", "field": "total",
                             "base": slot["total"], "cur": None,
                             "delta_pct": None, "severity": "missing"})
            continue
        flag(name, "counter", "total", slot["total"],
             cur_counters[name]["total"], rel_tol)
        flag(name, "counter", "events", slot["events"],
             cur_counters[name]["events"], rel_tol)
    for name in sorted(set(cur_counters) - set(base_counters)):
        findings.append({"metric": name, "kind": "counter", "field": "total",
                         "base": None, "cur": cur_counters[name]["total"],
                         "delta_pct": None, "severity": "info"})

    base_hists = base.get("histograms") or {}
    cur_hists = cur.get("histograms") or {}
    for name, b in sorted(base_hists.items()):
        c = cur_hists.get(name)
        if c is None:
            findings.append({"metric": name, "kind": "histogram", "field": "count",
                             "base": b["count"], "cur": None,
                             "delta_pct": None, "severity": "missing"})
            continue
        if b["count"] < min_count or c["count"] < min_count:
            continue
        flag(name, "histogram", "count", b["count"], c["count"], rel_tol)
        flag(name, "histogram", "mean", b["mean"], c["mean"], rel_tol)
        for q in ("p50", "p99"):
            flag(name, "histogram", q, b[q], c[q], quantile_tol)
    for name in sorted(set(cur_hists) - set(base_hists)):
        findings.append({"metric": name, "kind": "histogram", "field": "count",
                         "base": None, "cur": cur_hists[name]["count"],
                         "delta_pct": None, "severity": "info"})

    return findings


def format_findings(findings: list[dict[str, Any]]) -> str:
    """Human-readable rendering of :func:`diff_summaries` output."""
    if not findings:
        return "no drift beyond thresholds"
    lines = []
    for f in findings:
        delta = f" ({f['delta_pct']:+.1f}%)" if f.get("delta_pct") is not None else ""
        lines.append(
            f"[{f['severity']}] {f['kind']} {f['metric']}.{f['field']}: "
            f"{f['base']} -> {f['cur']}{delta}"
        )
    return "\n".join(lines)


def has_regressions(findings: list[dict[str, Any]]) -> bool:
    """Whether any finding should fail a gate (info-level ones do not)."""
    return any(f["severity"] in ("regression", "missing") for f in findings)
