"""Online monitor suite: detection units and the bit-identity guarantee."""

from types import SimpleNamespace

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.committees.config import ClanConfig
from repro.consensus.deployment import Deployment
from repro.consensus.params import ProtocolParams
from repro.forensics.monitors import MonitorConfig, MonitorSuite
from repro.obs import Tracer
from repro.smr.runtime import SmrRuntime

SMOKE = ExperimentConfig(
    protocol="sailfish", n=7, txns_per_proposal=16, duration=4.0, warmup=1.0
)


def make_deployment(n=4, **kwargs):
    return Deployment(
        ClanConfig.baseline(n),
        params=ProtocolParams(verify_signatures=False),
        **kwargs,
    )


# -- the load-bearing constraint: monitors never perturb the run --------------


def test_monitored_metrics_bit_identical():
    plain = run_experiment(SMOKE)
    monitored = run_experiment(SMOKE, monitors=True)
    # Frozen-dataclass equality covers every field, including sim_events —
    # the monitors may not schedule a single extra simulator event.
    assert monitored == plain


def test_monitored_smr_run_identical_and_clean():
    def run(monitors):
        tracer = Tracer()
        runtime = SmrRuntime(
            ClanConfig.single_clan(10, 5, seed=1), tracer=tracer
        )
        client = runtime.new_client("cli")
        suite = (
            MonitorSuite(tracer=tracer).attach_runtime(runtime)
            if monitors
            else None
        )
        runtime.start()
        for i in range(20):
            runtime.submit(client, ("set", f"k{i}", i))
        runtime.run(until=6.0)
        if suite is not None:
            suite.finish()
        return runtime, client, suite

    plain_rt, plain_client, _ = run(monitors=False)
    mon_rt, mon_client, suite = run(monitors=True)
    assert mon_rt.sim.processed_events == plain_rt.sim.processed_events
    assert mon_client.accepted_count() == plain_client.accepted_count() == 20
    assert suite.anomalies == []


def test_double_attach_rejected():
    deployment = make_deployment()
    suite = MonitorSuite().attach(deployment)
    with pytest.raises(ValueError):
        suite.attach(deployment)


# -- stall watchdog -----------------------------------------------------------


def test_stall_watchdog_flags_laggard():
    deployment = make_deployment()
    suite = MonitorSuite(config=MonitorConfig(stall_factor=2.0)).attach(
        deployment
    )
    threshold = 2.0 * deployment.params.leader_timeout
    node0, node1 = deployment.nodes[0], deployment.nodes[1]
    suite._on_round(node0, 1, 0.0)
    suite._on_round(node1, 1, 0.0)
    # node1 keeps advancing; node0 never enters another round.
    suite._on_round(node1, 2, threshold + 1.0)
    suite._scan_stalls(threshold + 1.0)
    stalls = [a for a in suite.anomalies if a.name == "round.stall"]
    assert [a.node for a in stalls] == [0]
    assert stalls[0].kind == "liveness"
    # Dedup: the same stuck round is not re-flagged.
    suite._scan_stalls(threshold + 2.0)
    assert len([a for a in suite.anomalies if a.name == "round.stall"]) == 1


def test_stall_watchdog_ignores_crashed_nodes():
    deployment = make_deployment()
    suite = MonitorSuite(config=MonitorConfig(stall_factor=2.0)).attach(
        deployment
    )
    threshold = 2.0 * deployment.params.leader_timeout
    suite._on_round(deployment.nodes[0], 1, 0.0)
    deployment.network.crash(0)
    suite._scan_stalls(threshold + 1.0)
    assert [a for a in suite.anomalies if a.name == "round.stall"] == []


# -- commit-prefix safety monitor ---------------------------------------------


def test_prefix_divergence_is_a_safety_anomaly():
    deployment = make_deployment()
    suite = MonitorSuite().attach(deployment)
    v1 = SimpleNamespace(key=(1, 0))
    v2 = SimpleNamespace(key=(1, 2))
    record = deployment.commits.record
    record(0, v1, 1.0)
    record(1, v1, 1.1)  # agrees
    record(0, v2, 1.2)
    divergent = SimpleNamespace(key=(1, 3))
    record(1, divergent, 1.3)
    (anomaly,) = suite.safety_anomalies
    assert anomaly.name == "commit.prefix_divergence"
    assert anomaly.node == 1
    assert anomaly.attrs["position"] == 1
    assert anomaly.attrs["expected"] == [1, 2]
    assert anomaly.attrs["got"] == [1, 3]
    # A diverged node is reported once, not once per subsequent vertex.
    record(1, SimpleNamespace(key=(1, 9)), 1.4)
    assert len(suite.safety_anomalies) == 1


def test_on_ordered_chains_previous_hook():
    deployment = make_deployment()
    seen = []
    deployment.nodes[0].on_ordered = lambda node, vertex, now: seen.append(
        (node.node_id, vertex.key, now)
    )
    MonitorSuite().attach(deployment)
    vertex = SimpleNamespace(key=(1, 0))
    deployment.nodes[0].on_ordered(deployment.nodes[0], vertex, 2.0)
    assert seen == [(0, (1, 0), 2.0)]


# -- equivocation collector ---------------------------------------------------


def test_equivocating_val_raises_byzantine_anomaly():
    from repro.consensus.messages import VertexValMsg, vertex_val_statement
    from repro.dag.vertex import Vertex

    deployment = make_deployment(n=4)
    suite = MonitorSuite().attach(deployment)
    deployment.start()
    deployment.run(until=2.0)
    observer = deployment.nodes[0]
    # Find a VAL node 0 already accepted whose vertex has reorderable edges.
    table = observer.rbc.instances
    origin, state = next(
        (origin, table[round_][origin])
        for origin, round_ in sorted((o, r) for r, row in table.items() for o in row)
        if origin != 0 and table[round_][origin].vertex is not None
        and len(table[round_][origin].vertex.strong_edges) > 1
    )
    vertex = state.vertex
    twin = Vertex(
        round=vertex.round,
        source=vertex.source,
        block_digest=vertex.block_digest,
        strong_edges=tuple(reversed(vertex.strong_edges)),
        weak_edges=vertex.weak_edges,
        nvc=vertex.nvc,
    )
    assert twin.vertex_digest() != vertex.vertex_digest()
    signature = None
    if observer.rbc.mode == "two-round":
        # Sign with the equivocator's own key: valid accountability material.
        signature = deployment.nodes[origin].rbc._key.sign(
            vertex_val_statement(origin, twin.round, twin.vertex_digest())
        )
    observer.rbc._on_val(origin, VertexValMsg(twin, None, signature))
    (anomaly,) = [a for a in suite.anomalies if a.kind == "byzantine"]
    assert anomaly.name == "rbc.equivocation"
    assert anomaly.node == origin
    assert anomaly.attrs["observer"] == 0
    # Same (origin, round) seen again: deduplicated.
    observer.rbc._on_val(origin, VertexValMsg(twin, None, signature))
    assert len([a for a in suite.anomalies if a.kind == "byzantine"]) == 1


# -- clan health monitor ------------------------------------------------------


def make_runtime():
    runtime = SmrRuntime(ClanConfig.single_clan(8, 5, seed=2))
    suite = MonitorSuite().attach_runtime(runtime)
    return runtime, suite


def test_clan_margin_degradation_and_loss():
    runtime, suite = make_runtime()
    clan = sorted(runtime.executors)
    quorum = runtime.cfg.clan_client_quorum(0)  # 3 of 5
    runtime.start()
    # Crash executors one by one through the network (fires the lifecycle
    # hooks the monitor listens on).
    for i, node_id in enumerate(clan[: quorum - 1 + 2]):
        runtime.deployment.sim.schedule(
            1.0 + i, runtime.deployment.network.crash, node_id
        )
    runtime.run(until=6.0)
    margins = [a for a in suite.anomalies if a.name == "clan.quorum_margin"]
    by_margin = {a.attrs["margin"]: a for a in margins}
    assert by_margin[0].kind == "info"  # at exactly f_c+1 live executors
    assert by_margin[-1].kind == "liveness"  # below the reply quorum
    assert all(a.kind != "safety" for a in margins)


def test_execution_divergence_is_safety():
    runtime, suite = make_runtime()
    block_a = SimpleNamespace(payload_digest=lambda: b"\xaa" * 8)
    block_b = SimpleNamespace(payload_digest=lambda: b"\xbb" * 8)
    first, second = sorted(runtime.executors)[:2]
    suite._on_executed(first, block_a, 1.0)
    suite._on_executed(second, block_b, 1.1)
    (anomaly,) = suite.safety_anomalies
    assert anomaly.name == "clan.execution_divergence"
    assert anomaly.node == second
    assert anomaly.attrs["position"] == 0


def test_finish_flags_state_divergence():
    runtime, suite = make_runtime()
    client = runtime.new_client("cli")
    runtime.start()
    for i in range(6):
        runtime.submit(client, ("set", f"k{i}", i))
    runtime.run(until=5.0)
    victim = sorted(runtime.executors)[0]
    runtime.executors[victim].state_digest = lambda: b"\x00" * 8
    suite.finish()
    names = [a.name for a in suite.safety_anomalies]
    assert "clan.state_divergence" in names
    # finish() is idempotent.
    before = len(suite.anomalies)
    suite.finish()
    assert len(suite.anomalies) == before


# -- tracer mirroring ---------------------------------------------------------


def test_anomalies_mirrored_to_tracer():
    tracer = Tracer()
    deployment = make_deployment()
    suite = MonitorSuite(tracer=tracer).attach(deployment)
    deployment.commits.record(0, SimpleNamespace(key=(1, 0)), 1.0)
    deployment.commits.record(1, SimpleNamespace(key=(1, 3)), 1.1)
    rows = [r for r in tracer.to_dicts() if r["type"] == "anomaly"]
    assert len(rows) == 1
    assert rows[0]["name"] == "commit.prefix_divergence"
    assert rows[0]["kind"] == "safety"
    # Non-info anomalies also produce a flight-recorder bundle.
    assert len(suite.recorder.bundles) == 1
    assert suite.recorder.bundles[0]["reason"] == "commit.prefix_divergence"


def test_same_key_divergence_names_both_digests():
    from repro.dag.vertex import Vertex

    deployment = make_deployment()
    suite = MonitorSuite().attach(deployment)
    ordered, other = Vertex(1, 0, b"block-a", ()), Vertex(1, 0, b"block-b", ())
    deployment.commits.record(0, ordered, 1.0)
    deployment.commits.record(1, other, 1.1)
    (anomaly,) = suite.safety_anomalies
    assert anomaly.attrs == {
        "position": 0,
        "expected": [1, 0, ordered.vertex_digest().hex()[:12]],
        "got": [1, 0, other.vertex_digest().hex()[:12]],
    }
