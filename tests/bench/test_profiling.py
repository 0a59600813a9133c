"""`repro profile`: the collector's bill is reported beside the hot functions."""

import gc

from repro.bench.profiling import format_profile_report, profile_call, profile_experiment
from repro.bench.runner import ExperimentConfig


def _make_cyclic_garbage(count):
    for _ in range(count):
        node = []
        node.append(node)  # unreachable cycle: only the collector frees it
    return count


def test_profile_call_counts_collections_and_freed_objects():
    gc.collect()
    hooks = len(gc.callbacks)
    value, profiler, wall, stats = profile_call(_make_cyclic_garbage, 20_000)
    assert value == 20_000 and wall > 0
    assert stats.collections[0] >= 1
    assert stats.freed >= 10_000
    assert 0 < stats.seconds < wall
    assert len(gc.callbacks) == hooks  # hook removed, also on error paths


def test_profile_report_has_collector_table():
    config = ExperimentConfig(
        protocol="sailfish", n=4, txns_per_proposal=5, duration=0.6, warmup=0.2
    )
    report, _ = profile_experiment(config, target="tiny", top=3)
    assert sum(report.gc.collections) >= 1
    text = format_profile_report(report)
    assert "Cyclic collector" in text and "objects_freed" in text
    # Memory beside the collector: the process high-water mark, in MiB.
    assert "peak_rss_mb" in text
    assert 1.0 < report.peak_rss_mb < 1e6
    assert f"{round(report.peak_rss_mb, 1)}" in text
    # The calendar's one constant is checkable from the first table.
    assert 0 < report.metrics.sim_epochs <= report.sim_events
    assert "events/epoch" in text
