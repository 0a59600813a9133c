"""`scripts/bench_perf.py` --compare must handle skipped sections explicitly.

A 1-CPU runner skips the parallel-vs-serial grid (measuring a ~1.0x ratio on
one core says nothing), and `--skip-sparse-smoke` omits the tribe-scale
point.  Comparing such a run against a committed baseline — or comparing
against a baseline that itself skipped a section — must neither crash nor
silently pass: each skipped gate is announced and the remaining gates still
apply.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scripts", "bench_perf.py"
)


@pytest.fixture(scope="module")
def bench_perf():
    spec = importlib.util.spec_from_file_location("bench_perf_under_test", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fast_measures(bench_perf, monkeypatch):
    """Stub the expensive measurements; the CLI/compare logic is under test."""
    monkeypatch.setattr(
        bench_perf, "measure_grid",
        lambda jobs, cpus: {"skipped": "parallel-vs-serial comparison needs >= 2 CPUs (machine has 1)"},
    )
    monkeypatch.setattr(
        bench_perf, "measure_sparse_smoke",
        lambda max_events=0: {
            "n": 150, "edge_mode": "sparse", "events": 1000,
            "wall_s": 0.1, "events_per_sec": 10000.0,
        },
    )
    return bench_perf


def test_skipped_grid_is_recorded_in_output(fast_measures, tmp_path):
    out = tmp_path / "perf.json"
    assert fast_measures.main(["--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert "skipped" in result["grid"]
    assert result["sparse_smoke"]["events_per_sec"] == 10000.0


def test_skip_sparse_smoke_records_reason(fast_measures, tmp_path):
    out = tmp_path / "perf.json"
    assert fast_measures.main(["--out", str(out), "--skip-sparse-smoke"]) == 0
    result = json.loads(out.read_text())
    assert result["sparse_smoke"] == {"skipped": "--skip-sparse-smoke"}


def test_compare_tolerates_skipped_grid_on_both_sides(
    fast_measures, tmp_path, capsys
):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "cpus": 1,
        "grid": {"skipped": "needs >= 2 CPUs"},
        "sparse_smoke": {"skipped": "--skip-sparse-smoke"},
    }))
    out = tmp_path / "perf.json"
    rc = fast_measures.main(
        ["--out", str(out), "--check", "--compare", str(baseline)]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    assert "parallel-grid gate skipped" in captured
    assert "sparse-smoke gate skipped" in captured
    assert "OK: perf checks passed" in captured


def test_compare_still_gates_sparse_smoke_when_grid_skipped(
    fast_measures, tmp_path, capsys
):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "cpus": 8,
        "grid": {"points": 6, "speedup": 3.0, "identical_results": True},
        "sparse_smoke": {"events_per_sec": 1_000_000.0},
    }))
    out = tmp_path / "perf.json"
    rc = fast_measures.main(["--out", str(out), "--compare", str(baseline)])
    captured = capsys.readouterr()
    assert rc == 1  # stubbed 10k events/sec is far below the committed figure
    assert "sparse smoke" in captured.err


def test_output_has_no_core_speed_section(fast_measures, tmp_path):
    out = tmp_path / "perf.json"
    assert fast_measures.main(["--out", str(out)]) == 0
    assert "core_speed" not in json.loads(out.read_text())


def test_compare_without_out_leaves_the_baseline_untouched(
    fast_measures, tmp_path, monkeypatch
):
    # Run where the committed baseline lives, as a local gate run would.
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH_perf.json"
    baseline.write_text(json.dumps({
        "cpus": 1,
        "grid": {"skipped": "needs >= 2 CPUs"},
        "sparse_smoke": {
            "n": 150, "edge_mode": "sparse", "events": 1000,
            "wall_s": 0.1, "events_per_sec": 10000.0,
        },
    }, indent=2))
    before = baseline.read_bytes()
    assert fast_measures.main(["--check", "--compare", str(baseline)]) == 0
    assert baseline.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_perf.json"]
