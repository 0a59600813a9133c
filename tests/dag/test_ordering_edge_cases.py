"""Extra ordering-engine edge cases."""

import pytest

from repro.dag import DagStore, OrderingEngine, Vertex, genesis_vertex
from repro.errors import DagError

N = 4


def refs(vertices):
    return tuple(v.ref() for v in vertices)


def build_rounds(store, rounds):
    layers = [[genesis_vertex(i) for i in range(N)]]
    for r in range(1, rounds + 1):
        layer = [Vertex(r, s, None, refs(layers[-1])) for s in range(N)]
        for v in layer:
            store.add(v)
        layers.append(layer)
    return layers


def test_leader_with_full_history_orders_everything_below():
    store = DagStore(N)
    layers = build_rounds(store, 3)
    engine = OrderingEngine(store)
    newly = engine.order_leader(layers[3][0])
    # All of rounds 1..2 plus the leader itself: 4 + 4 + 1.
    assert len(newly) == 9
    assert engine.count == 9


def test_consecutive_leaders_order_disjoint_suffixes():
    store = DagStore(N)
    layers = build_rounds(store, 4)
    engine = OrderingEngine(store)
    first = engine.order_leader(layers[2][1])
    second = engine.order_leader(layers[3][2])
    third = engine.order_leader(layers[4][3])
    all_keys = [v.key for batch in (first, second, third) for v in batch]
    assert len(all_keys) == len(set(all_keys))
    # Ordering is by (round, source) within each batch.
    for batch in (first, second, third):
        keys = [v.key for v in batch]
        assert keys == sorted(keys)


def test_same_round_leader_rejected():
    store = DagStore(N)
    layers = build_rounds(store, 2)
    engine = OrderingEngine(store)
    engine.order_leader(layers[2][0])
    with pytest.raises(DagError):
        engine.order_leader(layers[2][1])


def test_weak_edges_pull_orphans_into_order():
    store = DagStore(N)
    g = [genesis_vertex(i) for i in range(N)]
    r1 = [Vertex(1, s, None, refs(g)) for s in range(N)]
    for v in r1:
        store.add(v)
    # Round 2 strongly references only sources 0..2; r1[3] is orphaned.
    r2 = [Vertex(2, s, None, refs(r1[:3])) for s in range(N)]
    for v in r2:
        store.add(v)
    # Round 3 leader weakly references the orphan.
    v3 = Vertex(3, 0, None, refs(r2), weak_edges=(r1[3].ref(),))
    store.add(v3)
    engine = OrderingEngine(store)
    engine.order_leader(r2[0])
    assert not engine.is_ordered(r1[3])
    engine.order_leader(v3)
    assert engine.is_ordered(r1[3])  # recovered via the weak edge


def test_ordered_sequence_never_mutates():
    store = DagStore(N)
    layers = build_rounds(store, 3)
    engine = OrderingEngine(store)
    first = engine.order_leader(layers[2][0])
    later = engine.order_leader(layers[3][0])
    # A later leader only appends: nothing ordered before is ordered again.
    assert first and later
    assert not {v.key for v in first} & {v.key for v in later}
    assert engine.count == len(first) + len(later)
