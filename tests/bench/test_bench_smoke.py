"""The CI perf-smoke script: result format, gating, and baseline handling."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "bench_smoke.py")
BASELINE = os.path.join(REPO_ROOT, "benchmarks", "baselines", "smoke.json")


def run_script(*argv):
    return subprocess.run(
        [sys.executable, SCRIPT, *argv], capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "BENCH_smoke.json"
    # --eps-tolerance 1.0: tier-1 gates the deterministic half only (simulated
    # TPS, txns, events — bit-for-bit, see below).  The events/sec floor is a
    # wall-clock reading that a busy host fails on unchanged code; CI's
    # perf-smoke job runs the script with its default and keeps that gate.
    proc = run_script("--out", str(out), "--check", "--eps-tolerance", "1.0")
    return proc, out


def test_smoke_passes_against_committed_baseline(smoke_result):
    proc, _ = smoke_result
    assert proc.returncode == 0, proc.stderr
    assert "OK: throughput" in proc.stdout


def test_smoke_result_schema(smoke_result):
    _, out = smoke_result
    result = json.loads(out.read_text())
    for key in ("throughput_tps", "avg_latency_s", "committed_txns", "wall_s", "config"):
        assert key in result
    assert result["throughput_tps"] > 0
    assert result["committed_txns"] > 0


def test_smoke_is_deterministic_vs_baseline(smoke_result):
    """Simulated throughput must match the committed baseline bit-for-bit —
    the gate's tolerance exists for intentional changes, not for noise."""
    _, out = smoke_result
    result = json.loads(out.read_text())
    baseline = json.loads(open(BASELINE).read())
    assert result["throughput_tps"] == baseline["throughput_tps"]
    assert result["committed_txns"] == baseline["committed_txns"]
    assert result["sim_events"] == baseline["sim_events"]


def test_smoke_check_fails_on_regression(tmp_path, smoke_result):
    _, out = smoke_result
    result = json.loads(out.read_text())
    inflated = dict(result)
    inflated["throughput_tps"] = result["throughput_tps"] * 2  # unreachable bar
    fake_baseline = tmp_path / "baseline.json"
    fake_baseline.write_text(json.dumps(inflated))
    proc = run_script(
        "--out", str(tmp_path / "r.json"), "--check", "--baseline", str(fake_baseline)
    )
    assert proc.returncode == 1
    assert "FAIL" in proc.stderr


def test_smoke_check_fails_without_baseline(tmp_path):
    proc = run_script(
        "--out", str(tmp_path / "r.json"), "--check",
        "--baseline", str(tmp_path / "missing.json"),
    )
    assert proc.returncode == 1
    assert "missing" in proc.stderr
