"""The stage tables of the one trace reader, over synthetic traces."""

import json

import pytest

from repro.cli import main
from repro.forensics.report import (
    client_latency_table,
    counter_table,
    format_trace_report,
    hop_kind_table,
    hop_stage_table,
    read_trace,
    span_summary_table,
)
from repro.obs import Tracer


def make_trace():
    t = Tracer()
    # Two hops with a known decomposition.
    t.span("net.hop", start=0.0, end=0.10, node=1, src=0, kind="ValMsg",
           size=1000, nic_wait=0.01, tx=0.02, prop=0.05, cpu_wait=0.01, cpu=0.01)
    t.span("net.hop", start=0.1, end=0.16, node=2, src=0, kind="EchoMsg",
           size=100, nic_wait=0.0, tx=0.01, prop=0.05, cpu_wait=0.0, cpu=0.0)
    # One RBC phase span and matching counters.
    t.span("rbc.e2e", start=0.0, end=0.2, node=1, origin=0, round=1)
    t.counter("rbc.propose", node=0, time=0.0, round=1)
    t.counter("smr.client_latency", value=0.4, time=0.5, client="c1")
    t.counter("smr.client_latency", value=0.6, time=0.7, client="c1")
    return t


def test_hop_stage_table_decomposition():
    rows = hop_stage_table(read_trace(make_trace().records()))
    by_stage = {r["stage"]: r for r in rows}
    assert list(by_stage) == ["nic_wait", "tx", "prop", "cpu_wait", "cpu"]
    assert by_stage["prop"]["hops"] == 2
    assert by_stage["prop"]["mean_ms"] == pytest.approx(50.0)
    assert by_stage["nic_wait"]["mean_ms"] == pytest.approx(5.0)
    # Shares cover the full decomposition.
    assert sum(r["share_%"] for r in rows) == pytest.approx(100.0, abs=0.5)


def test_hop_kind_table_sorted_by_time():
    rows = hop_kind_table(read_trace(make_trace().records()))
    assert [r["kind"] for r in rows] == ["ValMsg", "EchoMsg"]
    assert rows[0]["hops"] == 1


def test_span_summary_excludes_hops():
    # Neither the raw hops nor the client-latency value histogram the
    # registry keeps beside the span durations.
    rows = span_summary_table(read_trace(make_trace().records()))
    assert [r["span"] for r in rows] == ["rbc.e2e"]
    assert rows[0]["mean_ms"] == pytest.approx(200.0)


def test_counter_and_client_latency_tables():
    report = read_trace(make_trace().records())
    counters = {r["counter"]: r for r in counter_table(report)}
    assert counters["rbc.propose"]["events"] == 1
    (latency,) = client_latency_table(report)
    assert latency["accepted_txns"] == 2
    assert latency["mean_s"] == pytest.approx(0.5)


def test_format_trace_report_sections():
    report = format_trace_report(read_trace(make_trace()))
    assert "Per-hop latency decomposition" in report
    assert "Client-observed latency" in report
    assert format_trace_report(read_trace([])) == "(empty trace: no records)"


def test_report_main_round_trip(tmp_path, capsys):
    t = make_trace()
    path = tmp_path / "trace.jsonl"
    t.export_jsonl(str(path))
    assert Tracer.read_jsonl_dicts(str(path)) == t.to_dicts()
    # Exit 1: the client latencies name no committed block, so none of the
    # trace's accepted txns reconciles.
    assert main(["forensics", str(path)]) == 1
    out = capsys.readouterr().out
    assert "Per-hop latency decomposition" in out
    assert "Reconciliation: FAILED" in out
    assert main(["forensics", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {
        "meta", "hop_stages", "hop_kinds", "spans", "counters",
        "client_latency", "sim",
    } <= set(payload)
    assert payload["meta"]["dropped"] == 0


def test_report_main_fails_loudly_on_evictions(tmp_path, capsys):
    t = Tracer(capacity=3)
    for i in range(8):
        t.counter("rbc.propose", node=0, time=float(i), round=i)
    path = tmp_path / "trace.jsonl"
    t.export_jsonl(str(path))
    assert main(["forensics", str(path)]) == 1
    captured = capsys.readouterr()
    assert "WARNING" in captured.out
    assert "--capacity" in captured.err


def test_tables_stream_from_tracefile(tmp_path):
    from repro.obs import TraceFile

    t = make_trace()
    path = tmp_path / "trace.jsonl"
    t.export_jsonl(str(path))
    streamed = read_trace(TraceFile(str(path)))
    in_memory = read_trace(t.records())
    assert hop_stage_table(streamed) == hop_stage_table(in_memory)
    assert counter_table(streamed) == counter_table(in_memory)


def _count_iterations(monkeypatch):
    """Count every pass over a TraceFile from here on."""
    from repro.obs import TraceFile

    passes = []
    real_iter = TraceFile.__iter__

    def counting_iter(self):
        passes.append(self.path)
        return real_iter(self)

    monkeypatch.setattr(TraceFile, "__iter__", counting_iter)
    return passes


def test_read_trace_and_forensics_command_read_the_file_once(
    tmp_path, monkeypatch, capsys
):
    from repro.obs import TraceFile

    path = tmp_path / "trace.jsonl"
    make_trace().export_jsonl(str(path))
    passes = _count_iterations(monkeypatch)
    read_trace(TraceFile(str(path)))
    assert passes == [str(path)]
    for flags in ([], ["--json"], ["--attribution"], ["--anomalies"]):
        passes.clear()
        main(["forensics", str(path), *flags])
        assert passes == [str(path)], flags
    capsys.readouterr()
