"""Tracing must be a pure observer: RunMetrics are bit-identical.

``Network._transmit`` decides per message whether its hops are traced
(always at sample=1.0, by ``trace_ctx`` at 1/k).  A traced message only gets
a tail on its delivery records: the arrival time, the RNG draws and the
calendar insertion are the same statements for every message, so turning
tracing on — at any sample rate, over any latency model or delay adversary —
may never perturb what the simulation computes.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.bench.metrics import measure_run
from repro.committees.config import ClanConfig
from repro.consensus.deployment import Deployment
from repro.net.adversary import PartialSynchronyAdversary, TargetedDelayAdversary
from repro.net.latency import UniformLatencyModel, gcp_latency_model
from repro.obs import Tracer
from repro.smr.mempool import SyntheticWorkload
from repro.smr.runtime import SmrRuntime


#: Network settings per case; fresh objects per run, since latency models and
#: adversaries own RNG streams.  Beyond the default (constant latency,
#: infinite bandwidth), three under which float addition's association
#: shows: a second derivation of the arrival time — ``clock + (d + extra)``
#: for ``(clock + d) + extra``, ``clock + (base + r·jit)`` for
#: ``(clock + base) + r·jit`` — lands commits an ulp away.
CASES = {
    "default": dict,
    "additive-jitter": lambda: dict(
        latency=UniformLatencyModel(0.05, jitter=0.013, seed=5), bandwidth_bps=400e6,
    ),
    "targeted-delay": lambda: dict(
        latency=gcp_latency_model(12, seed=5), bandwidth_bps=400e6,
        adversary=TargetedDelayAdversary({3}, 0.0371, until=3.0),
    ),
    "partial-synchrony": lambda: dict(
        latency=gcp_latency_model(12, seed=5), bandwidth_bps=400e6,
        adversary=PartialSynchronyAdversary(gst=2.0, max_extra=0.3, delta=0.5, seed=9),
    ),
}


@lru_cache(maxsize=None)
def _run(case: str, sample: float | None) -> tuple:
    """(RunMetrics fields, {honest node: [(vertex key, commit instant)]})."""
    workload = SyntheticWorkload(txns_per_proposal=8)
    dep = Deployment(
        ClanConfig.single_clan(12, 6, seed=3), make_block=workload.make_block, seed=7,
        tracer=None if sample is None else Tracer(sample=sample), **CASES[case](),
    )
    dep.start()
    dep.run(until=4.0)
    commits = {
        i: [(vertex.key, at) for vertex, at in dep.commits.entries(i)]
        for i in dep.honest_ids
    }
    return measure_run(dep, workload, warmup=0.5, end=4.0).__dict__, commits


def test_sampled_tracing_preserves_run_metrics():
    base, _ = _run("default", None)
    for sample in (1.0, 1 / 16, 0.0):
        traced, _ = _run("default", sample)
        assert traced == base, f"tracing at sample={sample} perturbed the run"


@pytest.mark.parametrize("sample", [1.0, 1 / 16])
@pytest.mark.parametrize("case", ["additive-jitter", "targeted-delay", "partial-synchrony"])
def test_tracing_preserves_every_commit_instant(case, sample):
    metrics, commits = _run(case, None)
    traced_metrics, traced_commits = _run(case, sample)
    assert traced_metrics == metrics
    assert commits[0], "the run must commit for the comparison to mean anything"
    for node, log in commits.items():
        assert traced_commits[node] == log, f"node {node} commit instants moved"


def _smr_digests(tracer) -> tuple:
    runtime = SmrRuntime(ClanConfig.single_clan(10, 5, seed=1), tracer=tracer)
    clients = [runtime.new_client(f"c{i}") for i in range(3)]
    runtime.start()
    for i in range(30):
        runtime.submit(clients[i % 3], ("set", f"k{i}", i))
    runtime.run(until=6.0)
    accepted = tuple(c.accepted_count() for c in clients)
    digests = tuple(
        sorted(ex.state_digest() for ex in runtime.executors.values())
    )
    return accepted, digests


def test_sampled_tracing_preserves_smr_outcome():
    base = _smr_digests(None)
    for sample in (1.0, 1 / 16):
        assert _smr_digests(Tracer(sample=sample)) == base
