"""A vertex computes its key and its ref once, and every store shares them.

Each simulated node's DagStore keys three tables by ``Vertex.key`` and builds
its edges from ``Vertex.ref()``; computed per call, that was one key tuple per
table per node and one ref per node for every vertex (docs/PERFORMANCE.md,
"Sharing per-copy state").  The caches must stay invisible: equality, hash,
``repr`` — and so the freeze-after-send guard's digest — ignore them.
"""

import pickle
from dataclasses import replace

from repro.analysis.sanitizers import FreezeGuard, message_digest
from repro.committees import ClanConfig
from repro.consensus import Deployment
from repro.consensus.messages import VertexValMsg
from repro.dag.vertex import Vertex, VertexRef
from repro.smr.mempool import SyntheticWorkload


def _vertex(**overrides):
    fields = dict(
        round=2,
        source=3,
        block_digest=b"b" * 32,
        strong_edges=(VertexRef(1, 0, b"x" * 32), VertexRef(1, 1, b"y" * 32)),
    )
    fields.update(overrides)
    return Vertex(**fields)


def test_key_and_ref_are_computed_once():
    v = _vertex()
    assert v.key is v.key
    assert v.key == (2, 3)
    assert v.ref() is v.ref()
    assert v.ref() == VertexRef(2, 3, v.vertex_digest())


def test_caches_leave_equality_hash_and_repr_alone():
    warm, cold = _vertex(), _vertex()
    before = repr(warm)
    warm.key, warm.ref(), warm.parents()
    assert repr(warm) == before == repr(cold)
    assert warm == cold and hash(warm) == hash(cold)
    assert "_key_cache" not in before and "_ref_cache" not in before


def test_freeze_guard_digest_does_not_move_when_caches_fill():
    v = _vertex()
    msg = VertexValMsg(v, None, None)
    sent = message_digest(msg)
    guard = FreezeGuard()
    guard.on_send(msg)
    # What every receiving store does to the shared vertex object.
    v.key, v.ref(), v.parents()
    guard.on_deliver(msg)  # raises on a digest mismatch
    assert guard.checks == 1 and guard.violations_seen == 0
    assert message_digest(msg) == sent


def test_replace_starts_with_fresh_caches():
    v = _vertex()
    v.key, v.ref()
    twin = replace(v, block_digest=b"c" * 32)
    assert twin.key == v.key
    assert twin.ref() != v.ref()
    assert twin.ref().digest == twin.vertex_digest() != v.vertex_digest()


def test_pickle_round_trip_keeps_consistent_caches():
    for warm in (False, True):
        v = _vertex()
        if warm:
            v.key, v.ref()
        clone = pickle.loads(pickle.dumps(v))
        assert clone == v and repr(clone) == repr(v)
        assert clone.key == v.key and clone.key is clone.key
        assert clone.ref() == v.ref() and clone.ref() is clone.ref()
        assert clone.ref().digest == clone.vertex_digest()


def test_every_store_shares_one_key_per_vertex():
    workload = SyntheticWorkload(txns_per_proposal=5)
    deployment = Deployment(ClanConfig.baseline(7), make_block=workload.make_block, seed=5)
    deployment.start()
    deployment.run(until=1.5, max_events=2_000_000)
    keys: dict[tuple, set[int]] = {}
    for node in deployment.nodes:
        store = node.store
        for key, vertex in store._vertices.items():
            if vertex.round == 0:
                continue  # each store makes its own genesis vertices
            assert key is vertex.key
            keys.setdefault(key, set()).add(id(key))
    assert len(keys) > 7 * 3  # several rounds were delivered everywhere
    assert all(len(ids) == 1 for ids in keys.values())
