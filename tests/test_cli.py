"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_stats_command(capsys):
    code, out = run_cli(capsys, "stats", "150")
    assert code == 0
    assert "n=150, f=49, quorum=100" in out
    assert "77" in out  # exact minimal clan at 1e-6


def test_stats_with_exponent(capsys):
    code, out = run_cli(capsys, "stats", "500", "--exponent", "9")
    assert code == 0
    assert "183" in out


def test_run_command_small(capsys):
    code, out = run_cli(
        capsys, "run", "--protocol", "sailfish", "--n", "7",
        "--load", "50", "--duration", "3",
    )
    assert code == 0
    assert "kTPS" in out and "avg latency" in out


def test_run_single_clan_defaults_clan_size(capsys):
    code, out = run_cli(
        capsys, "run", "--n", "8", "--load", "20", "--duration", "3"
    )
    assert code == 0
    assert "single-clan" in out


def test_sweep_command(capsys):
    code, out = run_cli(
        capsys, "sweep", "--protocol", "multi-clan", "--n", "8",
        "--loads", "10,50", "--duration", "3",
    )
    assert code == 0
    assert out.count("\n") >= 4  # title + header + rule + 2 rows


def test_model_command(capsys):
    code, out = run_cli(capsys, "model", "--n", "150")
    assert code == 0
    assert "sailfish" in out and "multi-clan" in out


def test_figures_fast_targets(capsys):
    for figure in ("table1", "sec62", "sec7", "fig5a-model"):
        code, out = run_cli(capsys, "figures", figure)
        assert code == 0, figure
        assert "Reproduction data" in out


def test_trace_command_writes_jsonl_and_reports(capsys, tmp_path):
    import json

    out_path = tmp_path / "trace.jsonl"
    code, out = run_cli(capsys, "trace", "fig5_smoke", "--out", str(out_path))
    assert code == 0
    # The report decomposes hop latency into the network model's stages.
    for stage in ("nic_wait", "tx", "prop", "cpu_wait"):
        assert stage in out
    assert "Per-hop latency decomposition" in out
    assert "trace written to" in out
    # Every line of the export is valid standalone JSON.
    lines = out_path.read_text().strip().splitlines()
    assert lines
    kinds = {json.loads(line)["type"] for line in lines}
    assert {"span", "counter"} <= kinds


def test_trace_smr_experiment_reports_client_latency(capsys, tmp_path):
    code, out = run_cli(capsys, "trace", "smr_smoke")
    assert code == 0
    assert "Client-observed latency" in out
    assert "accepted by the client" in out


def test_trace_smr_smoke_fails_below_full_acceptance(capsys, monkeypatch):
    from repro.smr.runtime import SmrRuntime

    real_run = SmrRuntime.run
    # Stop the run long before the client can accept all 20 transactions.
    monkeypatch.setattr(
        SmrRuntime, "run",
        lambda self, until, max_events=None: real_run(self, 0.2, max_events),
    )
    assert main(["trace", "smr_smoke"]) == 1
    captured = capsys.readouterr()
    assert "FAIL: smr single-clan n=10/5: 0/20" in captured.err
    assert "Client-observed latency" not in captured.out


def test_trace_capacity_bounds_records(capsys):
    code, out = run_cli(capsys, "trace", "fig5_smoke", "--capacity", "1000")
    assert code == 0
    assert "1000 kept" in out


def test_forensics_command_on_smr_trace(capsys, tmp_path):
    import json

    out_path = tmp_path / "trace.jsonl"
    code, _ = run_cli(capsys, "trace", "smr_smoke", "--out", str(out_path))
    assert code == 0
    code, out = run_cli(capsys, "forensics", str(out_path))
    assert code == 0
    assert "Reconciliation: OK" in out
    assert "Critical-path attribution" in out
    code, out = run_cli(capsys, "forensics", str(out_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reconciliation"]["ok"] is True
    commit = payload["slowest_commits"][0]["commit"]
    code, out = run_cli(capsys, "forensics", str(out_path), "--commit", commit)
    assert code == 0
    assert "critical replica" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figures", "fig99"])
