"""The one trace reader, and every report drawn from it — terminal and JSON.

:func:`read_trace` makes exactly one pass over a trace (a path, a
:class:`~repro.obs.tracer.Tracer`, a streaming
:class:`~repro.obs.tracer.TraceFile`, or record dicts) and fills one
:class:`TraceReport`: the metrics registry (folded by the same per-record
rule as ``repro obs summary``), the provenance index, the per-stage and
per-kind ``net.hop`` tallies, the ``sim.run`` rows and the anomaly list.
Every table below is a function of that object, so a multi-GB trace is read
once, in memory that grows with commits and transactions, not with records.

The stage tables decompose every network hop the way the paper's NIC
argument does (and exactly as ``repro/net/network.py`` models it):

    NIC-queue wait → serialization (tx) → propagation → CPU-queue wait → CPU

so a clan run visibly spends less time in ``nic_wait`` than the baseline at
the same load.  Further tables summarize RBC phases, consensus rounds and
commits, client-observed latency, and simulator throughput; the forensics
sections attribute each commit's latency along its critical path.

``python -m repro trace <experiment>`` prints the stage tables for a fresh
run; ``python -m repro forensics <trace.jsonl>`` prints them ahead of the
forensics sections for a recorded one.  Its exit status is part of the
contract: non-zero when any waterfall fails to reconcile with its measured
client latency, when the trace contains ``safety`` anomalies, or when the
tracer's ring evicted records — CI can gate on the command alone.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Any

from ..bench.reporting import format_table, ms
from ..obs.metrics import VALUE_HISTOGRAM_COUNTERS, Histogram, MetricsRegistry
from ..obs.tracer import TraceFile, Tracer, record_dicts
from .provenance import (
    ProvenanceIndex,
    attribution_rows,
    reconcile,
    slowest_replicas,
    txn_waterfall,
)

#: The per-hop stages, in pipeline order (attr names on net.hop spans).
HOP_STAGES = ("nic_wait", "tx", "prop", "cpu_wait", "cpu")


class TraceReport:
    """Everything one pass over a trace learns, for every table to read."""

    def __init__(self, meta: dict[str, Any] | None) -> None:
        #: The JSONL meta header (ring-buffer accounting); None without one.
        self.meta = meta
        self.metrics = MetricsRegistry()
        self.index = ProvenanceIndex()
        #: Fixed-size histograms, so hop memory stays constant however many
        #: hops the trace holds.
        self.hop_stages = {stage: Histogram() for stage in HOP_STAGES}
        self.hop_kinds: dict[str, dict[str, float]] = defaultdict(
            lambda: {"hops": 0, "bytes": 0, "nic_wait": 0.0, "tx": 0.0}
        )
        self.sim_runs: list[dict[str, Any]] = []
        self.anomalies: list[dict[str, Any]] = []

    def add(self, row: dict[str, Any]) -> None:
        """Fold one raw record dict into every part of the report."""
        self.metrics.add(row)
        self.index.add(row)
        rtype = row.get("type")
        if rtype == "anomaly":
            self.anomalies.append(row)
        elif rtype == "span" and row.get("name") == "net.hop":
            attrs = row.get("attrs") or {}
            for stage, hist in self.hop_stages.items():
                hist.record(float(attrs.get(stage, 0.0)))
            bucket = self.hop_kinds[attrs.get("kind", "?")]
            bucket["hops"] += 1
            bucket["bytes"] += attrs.get("size", 0)
            bucket["nic_wait"] += attrs.get("nic_wait", 0.0)
            bucket["tx"] += attrs.get("tx", 0.0)
        elif rtype == "span" and row.get("name") == "sim.run":
            self.sim_runs.append(row)

    @property
    def dropped(self) -> int:
        """Records the tracer's ring evicted before the trace was written."""
        return int(self.meta.get("dropped", 0)) if self.meta else 0

    @property
    def safety_anomalies(self) -> list[dict[str, Any]]:
        return [a for a in self.anomalies if a.get("kind") == "safety"]

    @cached_property
    def reconciliation(self) -> dict[str, Any]:
        return reconcile(self.index)

    @property
    def failed(self) -> bool:
        """A waterfall failed to reconcile, safety broke, or records are lost."""
        return bool(
            not self.reconciliation["ok"] or self.safety_anomalies or self.dropped
        )


def read_trace(source: Any) -> TraceReport:
    """One pass over a trace path, Tracer, TraceFile or record dicts."""
    if isinstance(source, str):
        source = TraceFile(source)
    if isinstance(source, Tracer):
        meta = source.meta()
    elif isinstance(source, TraceFile):
        meta = source.meta
    else:
        meta = None
    report = TraceReport(meta)
    for row in record_dicts(source):
        report.add(row)
    report.index.prune()
    return report


# -- stage tables -------------------------------------------------------------


def hop_stage_table(report: TraceReport) -> list[dict[str, Any]]:
    """Per-stage decomposition of every traced network hop.

    One row per stage: mean / p50 / p95 / max in milliseconds, plus the share
    of total hop latency the stage accounts for.
    """
    hists = report.hop_stages
    hops = hists[HOP_STAGES[0]].count
    if not hops:
        return []
    grand_total = sum(h.sum for h in hists.values()) or 1.0
    return [
        {
            "stage": stage,
            "hops": hops,
            "mean_ms": ms(hist.sum / hops),
            "p50_ms": ms(hist.quantile(0.50)),
            "p95_ms": ms(hist.quantile(0.95)),
            "max_ms": ms(hist.max),
            "share_%": round(100.0 * hist.sum / grand_total, 1),
        }
        for stage, hist in hists.items()
    ]


def hop_kind_table(report: TraceReport) -> list[dict[str, Any]]:
    """NIC wait and tx time attributed per message kind (top talkers first)."""
    table = [
        {
            "kind": kind,
            "hops": int(b["hops"]),
            "MB": round(b["bytes"] / 1e6, 2),
            "nic_wait_s": round(b["nic_wait"], 3),
            "tx_s": round(b["tx"], 3),
        }
        for kind, b in report.hop_kinds.items()
    ]
    table.sort(key=lambda r: r["tx_s"] + r["nic_wait_s"], reverse=True)
    return table


def span_summary_table(report: TraceReport) -> list[dict[str, Any]]:
    """Duration statistics for every span name except raw network hops."""
    return [
        {
            "span": name,
            "count": hist.count,
            "mean_ms": ms(hist.sum / hist.count),
            "p50_ms": ms(hist.quantile(0.50)),
            "p95_ms": ms(hist.quantile(0.95)),
            "max_ms": ms(hist.max),
        }
        for name, hist in report.metrics.histograms.items()
        if name != "net.hop" and name not in VALUE_HISTOGRAM_COUNTERS
    ]


def counter_table(report: TraceReport) -> list[dict[str, Any]]:
    """Event counts and value sums per counter name (anomalies excluded)."""
    return [
        {
            "counter": name,
            "events": slot["events"],
            "value_sum": round(float(slot["total"]), 4),
        }
        for name, slot in report.metrics.counters.items()
        if not name.startswith("anomaly.")
    ]


def client_latency_table(report: TraceReport) -> list[dict[str, Any]]:
    """Client-observed latency percentiles from ``smr.client_latency``."""
    hist = report.metrics.histogram("smr.client_latency")
    if hist is None:
        return []
    return [
        {
            "accepted_txns": hist.count,
            "mean_s": round(hist.sum / hist.count, 4),
            "p50_s": round(hist.quantile(0.50), 4),
            "p95_s": round(hist.quantile(0.95), 4),
            "p99_s": round(hist.quantile(0.99), 4),
            "max_s": round(hist.max, 4),
        }
    ]


def sim_table(report: TraceReport) -> list[dict[str, Any]]:
    """Simulator wall-clock attribution from ``sim.run`` spans."""
    table = []
    for row in report.sim_runs:
        attrs = row.get("attrs") or {}
        table.append(
            {
                "sim_window_s": round(float(row["end"]) - float(row["start"]), 3),
                "events": attrs.get("events"),
                "epochs": attrs.get("epochs"),
                "wall_s": attrs.get("wall_s"),
                "wall_per_sim_s": attrs.get("wall_per_sim_s"),
                "events/wall_s": attrs.get("events_per_wall_s"),
            }
        )
    return table


#: The stage tables in print order: JSON key, text title, table function.
STAGE_TABLES = (
    ("hop_stages", "Per-hop latency decomposition (all traced hops)",
     hop_stage_table),
    ("hop_kinds", "NIC time by message kind", hop_kind_table),
    ("spans", "Span summary (RBC phases, rounds)", span_summary_table),
    ("counters", "Counters", counter_table),
    ("client_latency", "Client-observed latency", client_latency_table),
    ("sim", "Simulator", sim_table),
)


def stage_sections(report: TraceReport) -> list[str]:
    """The ring-buffer accounting line, then every non-empty stage table."""
    sections = []
    if report.meta is not None:
        line = (
            f"Trace: {report.meta.get('emitted')} records emitted, "
            f"{report.dropped} dropped "
            f"(ring capacity {report.meta.get('capacity')})"
        )
        if report.dropped:
            line += (
                "\nWARNING: the ring buffer evicted records — every aggregate "
                "below is skewed toward the end of the run; re-run with a "
                "higher --capacity."
            )
        sections.append(line)
    for _key, title, table_fn in STAGE_TABLES:
        table = table_fn(report)
        if table:
            sections.append(format_table(table, title))
    return sections


def format_trace_report(report: TraceReport) -> str:
    """Render the per-stage report for a trace."""
    return "\n\n".join(stage_sections(report)) or "(empty trace: no records)"


# -- forensics tables ---------------------------------------------------------


def attribution_table(report: TraceReport) -> list[dict[str, Any]]:
    return [
        {
            "segment": row["segment"],
            "samples": row["count"],
            "mean_ms": ms(row["mean"]),
            "p50_ms": ms(row["p50"]),
            "p99_ms": ms(row["p99"]),
            "max_ms": ms(row["max"]),
            "share_%": round(100.0 * row["share"], 1),
        }
        for row in attribution_rows(report.index)
    ]


def replica_table(report: TraceReport) -> list[dict[str, Any]]:
    return [
        {"node": node, "commits_paced": count}
        for node, count in slowest_replicas(report.index)
    ]


def commit_table(report: TraceReport, limit: int = 10) -> list[dict[str, Any]]:
    """The slowest commits, by critical-path total."""
    index = report.index
    rows = []
    for commit in index.ordered_commits():
        segments = commit.segments(index.quorum)
        if segments is None:
            continue
        rows.append(
            {
                "commit": commit.label,
                "round": commit.round,
                "proposer": commit.proposer,
                "txns": len(commit.txns),
                "total_ms": ms(sum(segments.values())),
                **{f"{name}_ms": ms(dur) for name, dur in segments.items()},
            }
        )
    rows.sort(key=lambda r: -r["total_ms"])
    return rows[:limit]


def anomaly_table(report: TraceReport) -> list[dict[str, Any]]:
    counts: dict[tuple[str, str], int] = {}
    for anomaly in report.anomalies:
        key = (anomaly.get("kind", "info"), anomaly.get("name", "?"))
        counts[key] = counts.get(key, 0) + 1
    return [
        {"kind": kind, "anomaly": name, "count": count}
        for (kind, name), count in sorted(counts.items())
    ]


def waterfall_report(report: TraceReport, ident: str) -> str | None:
    """Terminal waterfall drill-down for one commit (or transaction id)."""
    index = report.index
    commit = index.find(ident)
    txn_ids: list[str] = []
    if commit is None:
        txn = index.txns.get(ident)
        if txn is None or txn.commit_key is None:
            return None
        commit = index.commits[txn.commit_key]
        txn_ids = [ident]
    if not txn_ids:
        txn_ids = [t for t in commit.txns if t in index.txns]
    lines = [
        f"Commit {commit.label}  (round {commit.round}, proposer "
        f"{commit.proposer}, {len(commit.txns)} txns)"
    ]
    if commit.proposed_at is not None:
        lines.append(f"  proposed at t={commit.proposed_at:.6f}")
    for label, stage in (
        ("vertex delivered", commit.delivered),
        ("block available", commit.block_at),
        ("ordered", commit.ordered),
        ("executed", commit.executed),
    ):
        if stage:
            first = min(stage.values())
            last = max(stage.values())
            lines.append(
                f"  {label:<16} {len(stage)} nodes, first t={first:.6f}, "
                f"last t={last:.6f}"
            )
    waterfalls = []
    for txn_id in txn_ids:
        waterfall = txn_waterfall(index, index.txns[txn_id])
        if waterfall is not None:
            waterfalls.append(waterfall)
    if waterfalls:
        total_width = 28
        reference = waterfalls[0]
        lines.append(
            f"  critical replica: node {reference['critical_node']} "
            f"(the quorum-setting executor)"
        )
        lines.append("  per-txn critical path (ms):")
        for waterfall in waterfalls:
            segments = waterfall["segments"]
            total = waterfall["total"] or 1.0
            lines.append(f"    {waterfall['txn']}:")
            for name, duration in segments.items():
                bar = "#" * max(0, round(total_width * duration / total))
                lines.append(
                    f"      {name:<14} {ms(duration):>10.3f}  {bar}"
                )
            lines.append(
                f"      {'total':<14} {ms(total):>10.3f}  "
                f"(client latency {ms(waterfall['client_latency']):.3f}, "
                f"residual {waterfall['residual']:+.2e})"
            )
    return "\n".join(lines)


# -- whole-report rendering ---------------------------------------------------


def report_json(report: TraceReport) -> dict[str, Any]:
    reconciliation = report.reconciliation
    return {
        "meta": report.meta,
        **{key: table_fn(report) for key, _title, table_fn in STAGE_TABLES},
        "commits": len(report.index.ordered_commits()),
        "attribution": attribution_table(report),
        "slowest_replicas": replica_table(report),
        "slowest_commits": commit_table(report),
        "anomalies": anomaly_table(report),
        "anomaly_records": report.anomalies,
        "reconciliation": {
            "checked": reconciliation["checked"],
            "skipped": reconciliation["skipped"],
            "ok": reconciliation["ok"],
            "failures": reconciliation["failures"][:10],
        },
    }


def format_report(
    report: TraceReport,
    show_stages: bool = True,
    show_attribution: bool = True,
    show_anomalies: bool = True,
) -> str:
    sections = stage_sections(report) if show_stages else []
    index = report.index
    commits = index.ordered_commits()
    head = f"Forensics: {len(commits)} committed blocks"
    if index.has_clients:
        accepted = sum(
            1 for t in index.txns.values() if t.client_latency is not None
        )
        head += f", {accepted} accepted txns"
    if report.dropped:
        head += (
            f"\nWARNING: {report.dropped} trace records were "
            "evicted — provenance below is partial; raise --capacity."
        )
    sections.append(head)
    if show_attribution:
        attribution = attribution_table(report)
        if attribution:
            sections.append(
                format_table(
                    attribution, "Critical-path attribution (per segment)"
                )
            )
        replicas = replica_table(report)
        if replicas:
            sections.append(
                format_table(replicas, "Slowest replicas (commits paced)")
            )
        slowest = commit_table(report)
        if slowest:
            sections.append(format_table(slowest, "Slowest commits"))
        reconciliation = report.reconciliation
        if reconciliation["checked"] or reconciliation["skipped"]:
            status = "OK" if reconciliation["ok"] else "FAILED"
            sections.append(
                f"Reconciliation: {status} — {reconciliation['checked']} txn "
                f"waterfalls match client latency "
                f"(tolerance 1e-9); {reconciliation['skipped']} skipped "
                f"(incomplete records); {len(reconciliation['failures'])} failed"
            )
    if show_anomalies:
        anomalies = anomaly_table(report)
        if anomalies:
            sections.append(format_table(anomalies, "Anomalies"))
        else:
            sections.append("Anomalies: none recorded")
    return "\n\n".join(sections)
