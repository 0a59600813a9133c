"""The forensics report layer and its CLI contract (exit codes included)."""

import json

import pytest

from repro.cli import TRACE_EXPERIMENTS, main
from repro.committees.config import ClanConfig
from repro.forensics.report import format_report, read_trace, waterfall_report
from repro.obs import Tracer, summarize_trace
from repro.smr.runtime import SmrRuntime


@pytest.fixture(scope="module")
def smoke_tracer():
    tracer = Tracer()
    runtime = SmrRuntime(ClanConfig.single_clan(10, 5, seed=1), tracer=tracer)
    client = runtime.new_client("cli")
    runtime.start()
    for i in range(20):
        runtime.submit(client, ("set", f"k{i}", i))
    runtime.run(until=6.0)
    assert client.accepted_count() == 20
    return tracer


@pytest.fixture(scope="module")
def trace_path(smoke_tracer, tmp_path_factory):
    path = tmp_path_factory.mktemp("forensics") / "trace.jsonl"
    smoke_tracer.export_jsonl(str(path))
    return str(path)


def test_format_report_sections(trace_path):
    report = read_trace(trace_path)
    report = format_report(report)
    assert "Forensics: " in report
    assert "Critical-path attribution" in report
    assert "Slowest commits" in report
    assert "Reconciliation: OK" in report
    assert "Anomalies: none recorded" in report


def test_waterfall_report_by_commit_and_txn(trace_path):
    report = read_trace(trace_path)
    commit = report.index.ordered_commits()[0]
    by_digest = waterfall_report(report, commit.digest[:10])
    assert by_digest is not None
    assert "per-txn critical path" in by_digest
    assert "residual" in by_digest
    txn_id = next(t for t in commit.txns if t in report.index.txns)
    by_txn = waterfall_report(report, txn_id)
    assert txn_id in by_txn
    assert waterfall_report(report, "zz-nothing") is None


def test_main_text_and_json(trace_path, capsys):
    assert main(["forensics", trace_path]) == 0
    assert "Reconciliation: OK" in capsys.readouterr().out
    assert main(["forensics", trace_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reconciliation"]["ok"] is True
    assert payload["reconciliation"]["checked"] == 20
    assert payload["anomalies"] == []
    assert payload["commits"] >= 1
    assert payload["meta"]["dropped"] == 0
    segments = [r["segment"] for r in payload["attribution"]]
    assert segments == [
        "mempool", "dissemination", "ordering", "execution", "reply"
    ]


def test_main_commit_drilldown_and_unknown_id(trace_path, capsys):
    report = read_trace(trace_path)
    commit = report.index.ordered_commits()[0]
    assert main(["forensics", trace_path, "--commit", commit.digest[:10]]) == 0
    assert "critical replica" in capsys.readouterr().out
    assert main(["forensics", trace_path, "--commit", "zz-nothing"]) == 2


def test_main_section_filters(trace_path, capsys):
    assert main(["forensics", trace_path, "--anomalies"]) == 0
    out = capsys.readouterr().out
    assert "Anomalies" in out
    assert "Critical-path attribution" not in out
    assert main(["forensics", trace_path, "--attribution"]) == 0
    out = capsys.readouterr().out
    assert "Critical-path attribution" in out
    assert "Anomalies" not in out


def test_safety_anomaly_fails_the_command(smoke_tracer, tmp_path, capsys):
    rows = [dict(r) for r in smoke_tracer.to_dicts()]
    rows.append(
        {
            "type": "anomaly",
            "name": "commit.prefix_divergence",
            "time": 5.0,
            "kind": "safety",
            "node": 2,
            "attrs": {"position": 1},
        }
    )
    path = tmp_path / "bad.jsonl"
    path.write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
    )
    assert main(["forensics", str(path)]) == 1
    assert "commit.prefix_divergence" in capsys.readouterr().out


def test_reconciliation_failure_fails_the_command(
    smoke_tracer, tmp_path, capsys
):
    rows = []
    for r in smoke_tracer.to_dicts():
        row = dict(r)
        if row.get("name") == "smr.client_latency":
            row = dict(row, value=row["value"] + 0.5)  # break the telescoping
        rows.append(row)
    path = tmp_path / "skewed.jsonl"
    path.write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
    )
    assert main(["forensics", str(path)]) == 1
    assert "Reconciliation: FAILED" in capsys.readouterr().out


def test_dropped_records_warn_in_report(smoke_tracer, tmp_path):
    capped = Tracer(capacity=1000)
    for row in smoke_tracer.records():
        capped._emit(row)
    path = tmp_path / "capped.jsonl"
    capped.export_jsonl(str(path))
    report = read_trace(str(path))
    assert report.meta["dropped"] > 0
    assert "WARNING" in format_report(report)


def test_one_pass_feeds_the_metrics_summary_unchanged():
    # The report's registry and `repro obs summary` share one rule set.
    tracer = Tracer()
    _summary, ok = TRACE_EXPERIMENTS["smr_smoke"](tracer)
    assert ok
    assert read_trace(tracer).metrics.to_dict() == summarize_trace(tracer)
