"""The safety oracle: prefix consistency and clan state agreement."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committees import ClanConfig
from repro.consensus import Deployment
from repro.consensus.oracle import PrefixOracle, common_prefix
from repro.errors import ConsensusError
from repro.net.faults import ChurnSchedule
from repro.smr.runtime import SmrRuntime


def forge_logs(deployment, logs):
    for node, keys in zip(deployment.nodes, logs):
        node.ordered_log = [(SimpleNamespace(key=key), 0.0) for key in keys]


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


def test_diverged_observer_is_reported_once():
    oracle = PrefixOracle()
    assert oracle.observe("a", "xyz") is None
    assert oracle.observe("b", "xq") == (1, "y")
    assert oracle.observe("b", "z") is None
    assert oracle.observe("c", "xyzw") is None
    assert oracle.canonical == list("xyzw")


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
    try:
        return common_prefix(enumerate(logs))
    except ConsensusError:
        return None


def online(logs, order):
    """Feed the logs entry by entry in the interleaving ``order``."""
    oracle = PrefixOracle()
    cursor = [0] * len(logs)
    diverged = False
    for observer in order:
        entry = logs[observer][cursor[observer]]
        cursor[observer] += 1
        divergence = oracle.observe(observer, (entry,))
        if divergence is not None:
            position, expected = divergence
            assert position == cursor[observer] - 1
            assert expected != entry
            diverged = True
    if diverged:
        return None
    return min((oracle.position.get(i, 0) for i in range(len(logs))), default=0)


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
