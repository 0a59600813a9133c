"""Tests for cross-clan 2PC over the multi-clan protocol (§6.1 sharding)."""

import pytest

from repro.committees import ClanConfig
from repro.smr import SmrRuntime
from repro.smr.cross_clan import (
    ABORT,
    COMMIT,
    PREPARE,
    CrossClanCoordinator,
    ShardedStateMachine,
)


# -- state machine unit tests ---------------------------------------------------


def test_prepare_locks_and_commit_applies():
    sm = ShardedStateMachine()
    assert sm.apply("t1", (PREPARE, "x1", {"a": 1, "b": 2})) == "prepared"
    assert sm.is_locked("a") and sm.is_locked("b")
    assert sm.get("a") is None  # staged, not applied
    assert sm.apply("t2", (COMMIT, "x1")) == "committed"
    assert sm.get("a") == 1 and sm.get("b") == 2
    assert not sm.is_locked("a")


def test_abort_discards_staged_writes():
    sm = ShardedStateMachine()
    sm.apply("t1", (PREPARE, "x1", {"a": 1}))
    assert sm.apply("t2", (ABORT, "x1")) == "aborted"
    assert sm.get("a") is None
    assert not sm.is_locked("a")


def test_conflicting_prepare_aborts_deterministically():
    sm = ShardedStateMachine()
    assert sm.apply("t1", (PREPARE, "x1", {"a": 1})) == "prepared"
    assert sm.apply("t2", (PREPARE, "x2", {"a": 9, "c": 3})) == "aborted"
    # The loser took no locks.
    assert not sm.is_locked("c")
    sm.apply("t3", (COMMIT, "x1"))
    assert sm.get("a") == 1


def test_local_write_to_locked_key_raises():
    from repro.errors import ExecutionError

    sm = ShardedStateMachine()
    sm.apply("t1", (PREPARE, "x1", {"a": 1}))
    with pytest.raises(ExecutionError):
        sm.apply("t2", ("set", "a", 99))


def test_commit_unknown_xid():
    sm = ShardedStateMachine()
    assert sm.apply("t1", (COMMIT, "nope")) == "unknown"
    assert sm.apply("t2", (ABORT, "nope")) == "unknown"


def test_replay_protection():
    sm = ShardedStateMachine()
    sm.apply("t1", ("incr", "c", 1))
    sm.apply("t1", ("incr", "c", 1))
    assert sm.get("c") == 1


@pytest.mark.parametrize("floor_passed", [False, True])
def test_replayed_prepare_and_commit_are_ignored(floor_passed):
    """Runtime-issued ids (``<client>:<n>``): a replay is ignored whether its
    original still sits above the client's watermark or has fallen below."""
    sm = ShardedStateMachine()
    ids = [f"shard0:{n}" for n in range(1, 5)]
    # shard0:1 is held back, so the next three apply out of order.
    assert sm.apply(ids[1], (PREPARE, "x1", {"a": 1})) == "prepared"
    assert sm.apply(ids[2], (COMMIT, "x1")) == "committed"
    assert sm.apply(ids[3], (PREPARE, "x2", {"b": 2})) == "prepared"
    if floor_passed:
        assert sm.apply(ids[0], ("set", "c", 3)) == 3
    assert sm._applied._windows["shard0"].contiguous == (4 if floor_passed else 0)
    before = sm.state_digest()
    # Applied again, the PREPARE would re-lock "a" and the COMMIT would
    # answer "unknown"; ignored, both return None and change nothing.
    assert sm.apply(ids[1], (PREPARE, "x1", {"a": 1})) is None
    assert sm.apply(ids[2], (COMMIT, "x1")) is None
    assert sm.apply(ids[3], (PREPARE, "x2", {"b": 2})) is None
    assert not sm.is_locked("a") and sm.is_locked("b")
    assert sm.get("a") == 1 and sm.pending_transactions() == {"x2"}
    assert sm.state_digest() == before


def test_state_digest_covers_locks():
    a, b = ShardedStateMachine(), ShardedStateMachine()
    a.apply("t1", (PREPARE, "x1", {"k": 1}))
    assert a.state_digest() != b.state_digest()
    b.apply("t1", (PREPARE, "x1", {"k": 1}))
    assert a.state_digest() == b.state_digest()


# -- end-to-end 2PC over multi-clan consensus -------------------------------------


def build_runtime():
    cfg = ClanConfig.multi_clan(12, 2, seed=3)
    runtime = SmrRuntime(cfg, seed=3, sharded=True)
    clients = {
        0: runtime.new_client("shard0", clan_idx=0),
        1: runtime.new_client("shard1", clan_idx=1),
    }
    coordinator = CrossClanCoordinator(runtime, clients)
    return cfg, runtime, clients, coordinator


def drive(runtime, xct, deadline=30.0, step=0.5):
    """Run the simulation, pumping the 2PC coordinator."""
    now = runtime.sim.now
    while runtime.sim.now < deadline:
        now += step
        runtime.run(until=now, max_events=20_000_000)
        xct.try_decide()
        if xct.is_finished():
            return
    raise AssertionError("cross-clan transaction did not finish")


def test_cross_clan_commit_end_to_end():
    cfg, runtime, clients, coordinator = build_runtime()
    runtime.start()
    xct = coordinator.begin({0: {"alpha": "A"}, 1: {"beta": "B"}})
    drive(runtime, xct)
    assert xct.decision == "commit"
    runtime.check_execution_consistency(0)
    runtime.check_execution_consistency(1)
    member0 = next(iter(cfg.clan(0)))
    member1 = next(iter(cfg.clan(1)))
    assert runtime.executors[member0].machine.get("alpha") == "A"
    assert runtime.executors[member1].machine.get("beta") == "B"
    # Each shard holds only its own keys.
    assert runtime.executors[member0].machine.get("beta") is None
    assert runtime.executors[member1].machine.get("alpha") is None


def test_cross_clan_conflict_aborts_exactly_one():
    """Two cross-clan transactions with overlapping keys: the global order
    decides a winner; the loser aborts on every replica identically."""
    cfg, runtime, clients, coordinator = build_runtime()
    runtime.start()
    x1 = coordinator.begin({0: {"k": "first"}, 1: {"m": 1}})
    x2 = coordinator.begin({0: {"k": "second"}, 1: {"q": 2}})
    now = 0.0
    while runtime.sim.now < 40.0:
        now += 0.5
        runtime.run(until=now, max_events=30_000_000)
        x1.try_decide()
        x2.try_decide()
        if x1.is_finished() and x2.is_finished():
            break
    assert x1.is_finished() and x2.is_finished()
    decisions = sorted([x1.decision, x2.decision])
    assert decisions == ["abort", "commit"]
    runtime.check_execution_consistency(0)
    runtime.check_execution_consistency(1)
    member0 = next(iter(cfg.clan(0)))
    winner_value = runtime.executors[member0].machine.get("k")
    assert winner_value in ("first", "second")
    # No stale locks remain.
    assert not runtime.executors[member0].machine.is_locked("k")
