"""Log-bucketed histograms, the metrics registry, and the Prometheus dump."""

import random

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.obs.metrics import BUCKET_COUNT, prometheus_text


def test_histogram_exact_aggregates():
    h = Histogram()
    for v in (0.001, 0.002, 0.004, 0.1):
        h.record(v)
    assert h.count == 4
    assert h.sum == pytest.approx(0.107)
    assert h.min == 0.001
    assert h.max == 0.1
    assert h.mean == pytest.approx(0.107 / 4)


def test_histogram_quantiles_bounded_relative_error():
    # 64 log buckets over [1e-6, 1e3] have edges ~1.4x apart, so any
    # quantile estimate is within one bucket ratio of the true value.
    rng = random.Random(42)
    values = sorted(rng.uniform(0.001, 1.0) for _ in range(5000))
    h = Histogram()
    for v in values:
        h.record(v)
    ratio = (h.hi / h.lo) ** (1 / BUCKET_COUNT)
    for q in (0.50, 0.90, 0.99):
        true = values[int(q * len(values))]
        assert true / ratio <= h.quantile(q) <= true * ratio
    # Clamped into the observed range at the extremes.
    assert h.quantile(0.0) == h.min
    assert h.quantile(1.0) == h.max
    assert h.min <= h.quantile(0.999) <= h.max


def test_histogram_empty_and_out_of_range_values():
    h = Histogram()
    assert h.quantile(0.5) == 0.0
    assert h.mean == 0.0
    assert h.summary()["count"] == 0
    # Below lo and above hi land in the edge buckets but keep exact extremes.
    h.record(0.0)
    h.record(1e9)
    assert h.counts[0] == 1 and h.counts[-1] == 1
    assert h.min == 0.0 and h.max == 1e9
    assert h.quantile(0.999) <= h.max


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram(lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        Histogram(lo=2.0, hi=1.0)


def test_registry_counters_histograms_gauges():
    reg = MetricsRegistry()
    reg.counter("consensus.commit")
    reg.counter("consensus.commit", 3.0)
    reg.observe("rbc.e2e", 0.25)
    reg.observe("rbc.e2e", 0.75)
    reg.gauge("dag.frontier", 1.0, 4.0)
    reg.gauge("dag.frontier", 2.0, 6.0)
    assert reg.counters["consensus.commit"] == {"events": 2, "total": 4.0}
    assert reg.histogram("rbc.e2e").count == 2
    assert reg.histogram("missing") is None
    out = reg.to_dict()
    assert out["counters"]["consensus.commit"]["total"] == 4.0
    assert out["histograms"]["rbc.e2e"]["count"] == 2
    assert out["histograms"]["rbc.e2e"]["mean"] == pytest.approx(0.5)
    assert out["gauges"]["dag.frontier"] == {"points": 2, "last": 6.0}


def test_prometheus_text_rendering():
    reg = MetricsRegistry()
    reg.counter("consensus.commit", 2.0)
    reg.observe("rbc.e2e", 0.5)
    reg.gauge("dag.frontier", 1.0, 7.0)
    text = prometheus_text(reg.to_dict())
    assert text.endswith("\n")
    assert "# TYPE repro_consensus_commit_total counter" in text
    assert "repro_consensus_commit_total 2" in text
    assert "repro_consensus_commit_events 1" in text
    assert '# TYPE repro_rbc_e2e summary' in text
    assert 'repro_rbc_e2e{quantile="0.99"}' in text
    assert "repro_rbc_e2e_count 1" in text
    assert "# TYPE repro_dag_frontier gauge" in text
    assert "repro_dag_frontier 7" in text
    # Dotted names are mapped into the Prometheus character set.
    assert "consensus.commit" not in text
