"""Turn a JSONL trace into per-stage latency tables.

The headline table decomposes every network hop the way the paper's NIC
argument does (and exactly as ``repro/net/network.py`` models it):

    NIC-queue wait → serialization (tx) → propagation → CPU-queue wait → CPU

so a clan run visibly spends less time in ``nic_wait`` than the baseline at
the same load.  Further tables summarize RBC phases, consensus rounds and
commits, client-observed latency, and simulator throughput.

Use via the CLI (``python -m repro trace fig5_smoke --out trace.jsonl``) or
standalone::

    python -m repro.bench.trace_report trace.jsonl
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Any, Iterable

from ..obs.metrics import Histogram
from ..obs.tracer import META_TYPE, TraceFile, Tracer
from .reporting import format_table

#: The per-hop stages, in pipeline order (attr names on net.hop spans).
HOP_STAGES = ("nic_wait", "tx", "prop", "cpu_wait", "cpu")


def load_trace(path: str) -> list[dict[str, Any]]:
    """Load a JSONL trace file as raw record dicts (small files).

    Long sweeps should stream via :class:`~repro.obs.tracer.TraceFile`
    instead — every table in this module accepts it directly.
    """
    return Tracer.read_jsonl_dicts(path)


def _records_as_dicts(records: Iterable[Any]) -> Iterable[dict[str, Any]]:
    """Accept raw dicts, typed records, a Tracer, or a streaming TraceFile.

    ``TraceFile`` is returned as-is: it re-reads the file on every iteration,
    so each aggregation pass runs in constant memory.
    """
    if isinstance(records, Tracer):
        return records.to_dicts()
    if isinstance(records, TraceFile):
        return records
    rows = []
    for r in records:
        row = r if isinstance(r, dict) else r.to_dict()
        if row.get("type") != META_TYPE:
            rows.append(row)
    return rows


def dropped_info(records: Iterable[Any]) -> dict[str, Any] | None:
    """Ring-buffer accounting for a Tracer or TraceFile source, else None."""
    if isinstance(records, Tracer):
        return {
            "emitted": records.emitted,
            "dropped": records.dropped,
            "capacity": records._buffer.maxlen,
        }
    if isinstance(records, TraceFile) and records.meta is not None:
        return {
            "emitted": records.meta.get("emitted"),
            "dropped": records.dropped,
            "capacity": records.meta.get("capacity"),
        }
    return None


def _ms(value: float) -> float:
    return round(value * 1e3, 3)


def hop_stage_table(records: Iterable[Any]) -> list[dict[str, Any]]:
    """Per-stage decomposition of every traced network hop.

    One row per stage: mean / p50 / p95 / max in milliseconds, plus the share
    of total hop latency the stage accounts for.  Aggregation runs over
    fixed-size log-bucket histograms, so memory stays constant no matter how
    many hops the trace holds (multi-GB sweeps included).
    """
    rows = _records_as_dicts(records)
    hists = {stage: Histogram() for stage in HOP_STAGES}
    for row in rows:
        if row.get("type") != "span" or row.get("name") != "net.hop":
            continue
        attrs = row.get("attrs") or {}
        for stage in HOP_STAGES:
            hists[stage].record(float(attrs.get(stage, 0.0)))
    hops = hists[HOP_STAGES[0]].count
    if not hops:
        return []
    grand_total = sum(h.sum for h in hists.values()) or 1.0
    table = []
    for stage in HOP_STAGES:
        hist = hists[stage]
        table.append(
            {
                "stage": stage,
                "hops": hops,
                "mean_ms": _ms(hist.sum / hops),
                "p50_ms": _ms(hist.quantile(0.50)),
                "p95_ms": _ms(hist.quantile(0.95)),
                "max_ms": _ms(hist.max),
                "share_%": round(100.0 * hist.sum / grand_total, 1),
            }
        )
    return table


def hop_kind_table(records: Iterable[Any]) -> list[dict[str, Any]]:
    """NIC wait and tx time attributed per message kind (top talkers first)."""
    rows = _records_as_dicts(records)
    per_kind: dict[str, dict[str, float]] = defaultdict(
        lambda: {"hops": 0, "bytes": 0, "nic_wait": 0.0, "tx": 0.0}
    )
    for row in rows:
        if row.get("type") != "span" or row.get("name") != "net.hop":
            continue
        attrs = row.get("attrs") or {}
        bucket = per_kind[attrs.get("kind", "?")]
        bucket["hops"] += 1
        bucket["bytes"] += attrs.get("size", 0)
        bucket["nic_wait"] += attrs.get("nic_wait", 0.0)
        bucket["tx"] += attrs.get("tx", 0.0)
    table = [
        {
            "kind": kind,
            "hops": int(b["hops"]),
            "MB": round(b["bytes"] / 1e6, 2),
            "nic_wait_s": round(b["nic_wait"], 3),
            "tx_s": round(b["tx"], 3),
        }
        for kind, b in per_kind.items()
    ]
    table.sort(key=lambda r: r["tx_s"] + r["nic_wait_s"], reverse=True)
    return table


def span_summary_table(records: Iterable[Any]) -> list[dict[str, Any]]:
    """Duration statistics for every span name except raw network hops."""
    rows = _records_as_dicts(records)
    durations: dict[str, Histogram] = defaultdict(Histogram)
    for row in rows:
        if row.get("type") != "span" or row.get("name") == "net.hop":
            continue
        durations[row["name"]].record(float(row["end"]) - float(row["start"]))
    table = []
    for name in sorted(durations):
        hist = durations[name]
        table.append(
            {
                "span": name,
                "count": hist.count,
                "mean_ms": _ms(hist.sum / hist.count),
                "p50_ms": _ms(hist.quantile(0.50)),
                "p95_ms": _ms(hist.quantile(0.95)),
                "max_ms": _ms(hist.max),
            }
        )
    return table


def counter_table(records: Iterable[Any]) -> list[dict[str, Any]]:
    """Event counts and value sums per counter name."""
    rows = _records_as_dicts(records)
    counts: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    for row in rows:
        if row.get("type") != "counter":
            continue
        counts[row["name"]] += 1
        sums[row["name"]] += float(row.get("value", 1.0))
    return [
        {"counter": name, "events": counts[name], "value_sum": round(sums[name], 4)}
        for name in sorted(counts)
    ]


def client_latency_table(records: Iterable[Any]) -> list[dict[str, Any]]:
    """Client-observed latency percentiles from ``smr.client_latency``."""
    rows = _records_as_dicts(records)
    hist = Histogram()
    for row in rows:
        if row.get("type") == "counter" and row.get("name") == "smr.client_latency":
            hist.record(float(row.get("value", 0.0)))
    if not hist.count:
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


def sim_table(records: Iterable[Any]) -> list[dict[str, Any]]:
    """Simulator wall-clock attribution from ``sim.run`` spans."""
    rows = _records_as_dicts(records)
    table = []
    for row in rows:
        if row.get("type") != "span" or row.get("name") != "sim.run":
            continue
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


def _header(records: Iterable[Any]) -> str | None:
    """Ring-buffer accounting line; loud when records were evicted."""
    info = dropped_info(records)
    if info is None:
        return None
    line = (
        f"Trace: {info['emitted']} records emitted, {info['dropped']} dropped "
        f"(ring capacity {info['capacity']})"
    )
    if info["dropped"]:
        line += (
            "\nWARNING: the ring buffer evicted records — every aggregate "
            "below is skewed toward the end of the run; re-run with a higher "
            "--capacity."
        )
    return line


def format_trace_report(records: Iterable[Any]) -> str:
    """Render the full per-stage report for a trace."""
    rows = _records_as_dicts(records)
    sections = []
    header = _header(records)
    if header:
        sections.append(header)
    hop_table = hop_stage_table(rows)
    if hop_table:
        sections.append(
            format_table(hop_table, "Per-hop latency decomposition (all traced hops)")
        )
    kind_table = hop_kind_table(rows)
    if kind_table:
        sections.append(format_table(kind_table, "NIC time by message kind"))
    spans = span_summary_table(rows)
    if spans:
        sections.append(format_table(spans, "Span summary (RBC phases, rounds)"))
    counters = counter_table(rows)
    if counters:
        sections.append(format_table(counters, "Counters"))
    clients = client_latency_table(rows)
    if clients:
        sections.append(format_table(clients, "Client-observed latency"))
    sim = sim_table(rows)
    if sim:
        sections.append(format_table(sim, "Simulator"))
    if not sections:
        return "(empty trace: no records)"
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="trace_report", description="Summarize a repro JSONL trace"
    )
    parser.add_argument("trace", help="path to a trace.jsonl file")
    parser.add_argument(
        "--json", action="store_true", help="emit the tables as JSON instead of text"
    )
    args = parser.parse_args(argv)
    rows = TraceFile(args.trace)  # streaming: multi-GB traces don't OOM
    if args.json:
        print(
            json.dumps(
                {
                    "meta": dropped_info(rows),
                    "hop_stages": hop_stage_table(rows),
                    "hop_kinds": hop_kind_table(rows),
                    "spans": span_summary_table(rows),
                    "counters": counter_table(rows),
                    "client_latency": client_latency_table(rows),
                    "sim": sim_table(rows),
                },
                indent=2,
            )
        )
    else:
        print(format_trace_report(rows))
    if rows.dropped:
        print(
            f"trace_report: {rows.dropped} records were evicted from the "
            "tracer ring; aggregates are unreliable — raise --capacity and "
            "re-record.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    raise SystemExit(main())
