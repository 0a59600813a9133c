"""The safety oracle: prefix consistency and clan state agreement."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committees import ClanConfig
from repro.consensus import Deployment
from repro.consensus.oracle import PrefixOracle
from repro.dag.vertex import Vertex
from repro.errors import ConsensusError
from repro.net.faults import ChurnSchedule
from repro.smr.runtime import SmrRuntime


def forge_logs(deployment, logs):
    """Record each node's log, one stand-in vertex per key."""
    vertices = {}
    for node_id, keys in enumerate(logs):
        for key in keys:
            vertex = vertices.setdefault(key, SimpleNamespace(key=key))
            deployment.commits.record(node_id, vertex, 0.0)


def test_short_log_between_divergent_logs_is_caught():
    # Neighbouring pairs all agree on their shared length (the empty log
    # shares nothing with anyone), yet nodes 0 and 2 order different vertices
    # at position 0.
    deployment = Deployment(ClanConfig.baseline(4))
    forge_logs(deployment, [[(1, 0)], [], [(1, 1)], [(1, 1)]])
    with pytest.raises(ConsensusError, match="position 0: node 2"):
        deployment.check_total_order_consistency()
    with pytest.raises(ConsensusError):
        deployment.ordered_vertices_everywhere()


def test_consistent_logs_return_the_common_prefix():
    deployment = Deployment(ClanConfig.baseline(4))
    base = [(1, 0), (1, 1), (2, 0)]
    forge_logs(deployment, [base, base[:1], base[:2], base])
    assert deployment.check_total_order_consistency() == 1
    assert [v.key for v in deployment.ordered_vertices_everywhere()] == base[:1]


def test_member_that_stays_down_is_not_a_divergent_replica():
    # Node 3 crashes at t=2 and never recovers: it executed fewer blocks
    # than the rest of its clan, which is lag, not divergence.
    runtime = SmrRuntime(
        ClanConfig.baseline(4),
        seed=3,
        churn=ChurnSchedule.outages([(3, 2.0, None)]),
    )
    client = runtime.new_client("c")
    runtime.start()
    for i in range(40):
        runtime.sim.schedule_at(0.1 * i, runtime.submit, client, ("incr", "ctr", 1))
    runtime.run(until=8.0)
    executed = {i: ex.executed_blocks for i, ex in runtime.executors.items()}
    assert executed[3] < min(executed[i] for i in (0, 1, 2))
    runtime.check_execution_consistency()


def feed(oracle, observer, items, now=0.0):
    for item in items:
        oracle.record(observer, item, now)


def test_diverged_observer_is_reported_once():
    oracle = PrefixOracle()
    departures = []
    oracle.on_divergence = lambda *args: departures.append(args)
    feed(oracle, "a", "xyz")
    feed(oracle, "b", "xq", now=1.0)
    assert departures == [("b", 1, "y", "q", 1.0)]
    feed(oracle, "b", "z")
    feed(oracle, "c", "xyzw")
    assert len(departures) == 1
    assert oracle.canonical == list("xyzw")
    assert [item for item, _ in oracle.entries("b")] == list("xqz")


def test_same_key_with_another_digest_is_a_divergence():
    # Keys alone agree here; the vertices do not.
    ordered = Vertex(1, 0, b"block-a", ())
    same = Vertex(1, 0, b"block-a", ())
    other = Vertex(1, 0, b"block-b", ())
    oracle = PrefixOracle()
    departures = []
    oracle.on_divergence = lambda *args: departures.append(args)
    oracle.record(0, ordered, 1.0)
    oracle.record(1, same, 1.1)  # an equal copy follows the canonical entry
    oracle.record(2, other, 1.2)
    assert departures == [(2, 0, ordered, other, 1.2)]
    assert oracle.shared_prefix([0, 1]) == 1
    with pytest.raises(ConsensusError, match="position 0: node 2"):
        oracle.shared_prefix([0, 1, 2])
    assert list(oracle.entries(2)) == [(other, 1.2)]


def test_outsiders_keep_their_own_order_and_times():
    a, b = Vertex(1, 0, None, ()), Vertex(1, 1, None, ())
    oracle = PrefixOracle(outsiders=[9])
    oracle.on_divergence = lambda *args: pytest.fail("outsiders never depart")
    oracle.record(9, b, 0.5)
    oracle.record(0, a, 1.0)
    oracle.record(0, b, 2.0)
    oracle.record(9, a, 2.5)
    assert oracle.canonical == [a, b]
    assert list(oracle.entries(0)) == [(a, 1.0), (b, 2.0)]
    assert list(oracle.entries(9)) == [(b, 0.5), (a, 2.5)]
    assert (oracle.count(9), oracle.last_time(9), oracle.last_time(3)) == (2, 2.5, None)
    assert oracle.shared_prefix([0, 9]) == 2


# -- property: one canonical sequence == every pair compared ------------------

logs_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=0, max_size=12),
        st.lists(
            st.tuples(
                st.integers(0, 12),  # prefix length of the base
                st.one_of(st.none(), st.tuples(st.integers(0, 11), st.integers(4, 5))),
            ),
            min_size=n,
            max_size=n,
        ),
    )
)


def build_logs(base, specs):
    logs = []
    for length, mutation in specs:
        log = list(base[:length])
        if mutation is not None and log:
            pos, value = mutation
            log[pos % len(log)] = value
        logs.append(log)
    return logs


def brute_force(logs):
    """Consistent iff every pair agrees on its shared length."""
    for a, b in itertools.combinations(logs, 2):
        shared = min(len(a), len(b))
        if a[:shared] != b[:shared]:
            return None
    return min((len(log) for log in logs), default=0)


def post_hoc(logs):
    """Feed each log whole, then ask for the shared prefix."""
    oracle = PrefixOracle()
    for observer, log in enumerate(logs):
        feed(oracle, observer, log)
    try:
        return oracle.shared_prefix(range(len(logs)))
    except ConsensusError:
        return None


def online(logs, order):
    """Feed the logs entry by entry in the interleaving ``order``."""
    oracle = PrefixOracle()
    departures = []
    oracle.on_divergence = lambda *args: departures.append(args)
    cursor = [0] * len(logs)
    for observer in order:
        entry = logs[observer][cursor[observer]]
        cursor[observer] += 1
        reported = len(departures)
        oracle.record(observer, entry, 0.0)
        if len(departures) > reported:
            _, position, expected, got, _ = departures[-1]
            assert (position, got) == (cursor[observer] - 1, entry)
            assert expected != entry
    for observer, log in enumerate(logs):
        assert [item for item, _ in oracle.entries(observer)] == log
    if departures:
        return None
    return min((oracle.count(i) for i in range(len(logs))), default=0)


@settings(max_examples=300, deadline=None)
@given(spec=logs_strategy, data=st.data())
def test_oracle_verdict_matches_pairwise_brute_force(spec, data):
    base, specs = spec
    logs = build_logs(base, specs)
    expected = brute_force(logs)
    assert post_hoc(logs) == expected
    order = [i for i, log in enumerate(logs) for _ in log]
    order = data.draw(st.permutations(order))
    assert online(logs, order) == expected
