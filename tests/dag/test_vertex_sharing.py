"""A vertex computes its key, its ref and its edge masks once, and every
store shares them.

Each simulated node builds its edges from ``Vertex.ref()`` and its DagStore
walks ``Vertex.edge_masks()``; computed per call or per store, that was one
ref per node and one strong mask and weak-level tuple per store for every
vertex (docs/PERFORMANCE.md, "Sharing per-copy state" and "Per-node copies
of the DAG").  The caches must stay invisible: equality, hash, ``repr`` —
and so the freeze-after-send guard's digest — pickling and ``replace``
ignore them.
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


def test_edge_masks_are_computed_once():
    v = _vertex(weak_edges=(VertexRef(0, 5, b"g" * 32), VertexRef(0, 2, b"h" * 32)))
    assert v.edge_masks() is v.edge_masks()
    assert v.edge_masks() == (0b11, ((0, 1 << 5 | 1 << 2),))
    assert _vertex().edge_masks()[1] == ()


def test_caches_leave_equality_hash_and_repr_alone():
    warm, cold = _vertex(), _vertex()
    before = repr(warm)
    warm.key, warm.ref(), warm.parents(), warm.edge_masks()
    assert repr(warm) == before == repr(cold)
    assert warm == cold and hash(warm) == hash(cold)
    for cache in ("_key_cache", "_ref_cache", "_masks_cache"):
        assert cache not in before


def test_freeze_guard_digest_does_not_move_when_caches_fill():
    v = _vertex()
    msg = VertexValMsg(v, None, None)
    sent = message_digest(msg)
    guard = FreezeGuard()
    guard.on_send(msg)
    # What every receiving store does to the shared vertex object.
    v.key, v.ref(), v.parents(), v.edge_masks()
    guard.on_deliver(msg)  # raises on a digest mismatch
    assert guard.checks == 1 and guard.violations_seen == 0
    assert message_digest(msg) == sent


def test_replace_starts_with_fresh_caches():
    v = _vertex()
    v.key, v.ref(), v.edge_masks()
    twin = replace(v, block_digest=b"c" * 32)
    assert twin.key == v.key
    assert twin.ref() != v.ref()
    assert twin.ref().digest == twin.vertex_digest() != v.vertex_digest()
    fewer = replace(v, strong_edges=v.strong_edges[:1])
    assert fewer.edge_masks() == (0b1, ()) != v.edge_masks()


def test_pickle_round_trip_keeps_consistent_caches():
    for warm in (False, True):
        v = _vertex()
        if warm:
            v.key, v.ref(), v.edge_masks()
        clone = pickle.loads(pickle.dumps(v))
        assert clone == v and repr(clone) == repr(v)
        assert clone.key == v.key and clone.key is clone.key
        assert clone.ref() == v.ref() and clone.ref() is clone.ref()
        assert clone.ref().digest == clone.vertex_digest()
        assert clone.edge_masks() == v.edge_masks()
        assert clone.edge_masks() is clone.edge_masks()


def test_every_store_shares_one_key_per_vertex():
    workload = SyntheticWorkload(txns_per_proposal=5)
    deployment = Deployment(ClanConfig.baseline(7), make_block=workload.make_block, seed=5)
    deployment.start()
    deployment.run(until=1.5, max_events=2_000_000)
    keys: dict[tuple, set[tuple[int, int, int]]] = {}
    for node in deployment.nodes:
        for round_, in_round in node.store._by_round.items():
            if round_ == 0:
                continue  # each store makes its own genesis vertices
            for source, vertex in in_round.items():
                key = vertex.key
                assert key == (round_, source)
                # One vertex object per position, so one key tuple and one
                # edge-mask pair, whichever store holds it.
                shared = (id(vertex), id(key), id(vertex.edge_masks()))
                keys.setdefault(key, set()).add(shared)
    assert len(keys) > 7 * 3  # several rounds were delivered everywhere
    assert all(len(ids) == 1 for ids in keys.values())
