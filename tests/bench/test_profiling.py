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


def test_profile_of_a_capped_run_reports_the_prefix():
    # The cap is what --max-events is for: it must end the profile, not
    # raise out of it.
    config = ExperimentConfig(
        protocol="sailfish", n=4, txns_per_proposal=5, duration=5.0, warmup=0.2
    )
    report, profiler = profile_experiment(config, target="tiny", max_events=1000, top=3)
    assert report.capped == 1000 and report.metrics is None
    assert report.sim_events == 1000 and report.events_per_sec > 0
    assert len(report.hot) == 3 and sum(report.gc.collections) >= 0
    text = format_profile_report(report)
    assert "capped at 1,000 events" in text
    # Simulated metrics of a run that never reached its horizon are omitted.
    assert "throughput_ktps" not in text and "rounds" not in text
    assert "Cyclic collector" in text and "peak_rss_mb" in text


def test_cli_profile_with_max_events_exits_cleanly(capsys):
    from repro.cli import main

    assert main(["profile", "smoke", "--max-events", "1000", "--top", "2"]) == 0
    assert "capped at 1,000 events" in capsys.readouterr().out


def test_tribe150_target_is_the_paper_scale_sparse_config():
    from repro.bench.profiling import PROFILE_TARGETS, TRIBE150_CONFIG
    from repro.cli import main

    _desc, config = PROFILE_TARGETS["tribe150"]
    assert config is TRIBE150_CONFIG
    assert (config.n, config.edge_mode) == (150, "sparse")
    report, _ = profile_experiment(config, target="tribe150", max_events=5000, top=3)
    assert report.capped == 5000
    assert report.peak_rss_mb > 1.0
    assert "tribe150" in format_profile_report(report)
    # ... and it is reachable by name from the command line.
    assert main(["profile", "tribe150", "--max-events", "2000", "--top", "1"]) == 0
