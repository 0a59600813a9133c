"""Tests for the latency models and the Table 1 GCP matrix."""

import pytest

from repro.errors import ConfigError
from repro.net.latency import (
    GCP_REGIONS,
    GCP_RTT_MS,
    GeoLatencyModel,
    UniformLatencyModel,
    gcp_latency_model,
    round_robin_regions,
)


def test_gcp_matrix_complete_and_positive():
    assert len(GCP_REGIONS) == 5
    for src in GCP_REGIONS:
        for dst in GCP_REGIONS:
            assert GCP_RTT_MS[(src, dst)] > 0


def test_gcp_matrix_paper_values():
    # Spot-check Table 1 entries.
    assert GCP_RTT_MS[("us-east1", "us-west1")] == 66.14
    assert GCP_RTT_MS[("europe-north1", "australia-southeast1")] == 295.13
    assert GCP_RTT_MS[("australia-southeast1", "australia-southeast1")] == 0.58


def test_gcp_matrix_roughly_symmetric():
    # Ping RTTs in Table 1 are near-symmetric; the largest measured asymmetry
    # in the paper's matrix is 2.68 ms (asia <-> australia).
    for src in GCP_REGIONS:
        for dst in GCP_REGIONS:
            assert abs(GCP_RTT_MS[(src, dst)] - GCP_RTT_MS[(dst, src)]) < 3.0


def test_round_robin_assignment_even():
    regions = round_robin_regions(10)
    assert len(regions) == 10
    assert regions.count("us-east1") == 2
    assert regions[0] == "us-east1" and regions[5] == "us-east1"


def test_uniform_latency_constant():
    model = UniformLatencyModel(base=0.05)
    assert model.delay(0, 1) == 0.05
    assert model.mean_delay(10) == 0.05


def test_uniform_latency_jitter_bounds():
    model = UniformLatencyModel(base=0.05, jitter=0.01, seed=3)
    for _ in range(100):
        d = model.delay(0, 1)
        assert 0.05 <= d < 0.06


def test_uniform_latency_rejects_negative():
    with pytest.raises(ConfigError):
        UniformLatencyModel(base=-1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make",
    [
        lambda: UniformLatencyModel(NAN),
        lambda: UniformLatencyModel(INF),
        lambda: UniformLatencyModel(0.05, jitter=NAN),
        lambda: UniformLatencyModel(0.05, jitter=INF),
        lambda: GeoLatencyModel(["us-east1", "us-west1"], jitter=INF),
        lambda: GeoLatencyModel(["us-east1", "us-west1"], jitter=NAN),
        lambda: GeoLatencyModel(["a", "b"], rtt_ms={
            ("a", "a"): 1.0, ("a", "b"): NAN, ("b", "a"): 2.0, ("b", "b"): 1.0,
        }),
        lambda: GeoLatencyModel(["a"], rtt_ms={("a", "a"): INF}),
    ],
    ids=[
        "uniform-nan", "uniform-inf", "uniform-jitter-nan", "uniform-jitter-inf",
        "geo-jitter-inf", "geo-jitter-nan", "geo-rtt-nan", "geo-rtt-inf",
    ],
)
def test_non_finite_parameters_rejected_at_construction(make):
    # Each passed its `< 0` check and failed only at the first send, deep in
    # the simulator's calendar insertion.
    with pytest.raises(ConfigError):
        make()


def test_delay_spec_matches_delay():
    # The network evaluates delay_spec's expression instead of calling
    # delay(); both must draw the same numbers in the same order.
    pairs = [(src, dst) for src in range(7) for dst in range(7)]
    for model in (
        UniformLatencyModel(0.05),
        UniformLatencyModel(0.05, 0.01, seed=4),
        gcp_latency_model(7, jitter=0.0),
        gcp_latency_model(7, seed=4),
    ):
        kind, data, jit, draw = model.delay_spec(7)
        rng = draw.__self__ if draw is not None else None
        replay = rng.getstate() if rng is not None else None
        expected = [model.delay(src, dst) for src, dst in pairs]
        if rng is not None:
            rng.setstate(replay)  # the spec must draw the very same numbers
        for (src, dst), want in zip(pairs, expected):
            if kind == "table":
                got = data[src][dst]
            elif kind == "mul":
                got = data[src][dst] * (1.0 + draw() * jit)
            else:
                got = data + draw() * jit
            assert got == want, (kind, src, dst)


def test_geo_latency_one_way_is_half_rtt():
    model = GeoLatencyModel(["us-east1", "us-west1"], jitter=0.0)
    assert model.delay(0, 1) == pytest.approx(66.14 / 2 / 1000)
    assert model.delay(1, 0) == pytest.approx(66.15 / 2 / 1000)


def test_geo_latency_unknown_region_rejected():
    with pytest.raises(ConfigError):
        GeoLatencyModel(["mars-north1"])


def test_geo_latency_jitter_multiplicative():
    model = GeoLatencyModel(["us-east1", "asia-northeast1"], jitter=0.1, seed=5)
    base = 160.28 / 2 / 1000
    for _ in range(50):
        d = model.delay(0, 1)
        assert base <= d <= base * 1.1 + 1e-12


def test_gcp_model_mean_delay_reasonable():
    model = gcp_latency_model(10, jitter=0.0)
    mean = model.mean_delay(10)
    # Table 1 one-way averages fall well inside (20 ms, 120 ms).
    assert 0.020 < mean < 0.120
