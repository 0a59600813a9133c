"""Bitmap store vs. reference adjacency store: randomized equivalence.

The bitmap-backed :class:`repro.dag.store.DagStore` must be observationally
identical to :class:`tests.dag.reference_store.ReferenceDagStore` — the retained
copy of the original set/BFS/DFS algorithms — across random layered DAGs
with round gaps, weak edges, out-of-order insertion, pruned (stop-set)
history walks, and GC-frontier pruning of the reachability cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import DagStore, OrderingEngine, Vertex, genesis_vertex
from repro.types import max_faults

from .reference_store import ReferenceDagStore


@st.composite
def layered_dag(draw):
    """A random DAG: layers over ``n`` sources, gaps, sparse-ish fan-out,
    and multi-target weak edges (heavier orphan traffic than the store's
    own property suite, to stress the mask paths)."""
    n = draw(st.integers(min_value=4, max_value=9))
    rounds = draw(st.integers(min_value=2, max_value=6))
    rng = draw(st.randoms(use_true_random=False))
    quorum = 2 * max_faults(n) + 1
    layers = [[genesis_vertex(i) for i in range(n)]]
    all_vertices = []
    for r in range(1, rounds + 1):
        prev = layers[-1]
        layer = []
        proposers = rng.sample(range(n), rng.randint(quorum, n))
        for source in proposers:
            # Fan-out anywhere between sparse (2 edges) and full — the
            # stores must agree regardless of protocol-level edge policy.
            strong_count = rng.randint(min(2, len(prev)), len(prev))
            strong = tuple(v.ref() for v in rng.sample(prev, strong_count))
            weak = ()
            if r >= 2 and rng.random() < 0.6:
                older = [
                    v
                    for layer_ in layers[: r - 1]
                    for v in layer_
                    if v.round > 0
                ]
                if older:
                    weak = tuple(
                        v.ref()
                        for v in rng.sample(older, rng.randint(1, min(3, len(older))))
                    )
            vertex = Vertex(r, source, None, strong, weak)
            layer.append(vertex)
            all_vertices.append(vertex)
        layers.append(layer)
    return n, all_vertices, rng


def _fill(n, vertices):
    bitmap, reference = DagStore(n), ReferenceDagStore(n)
    for v in vertices:
        a = [x.key for x in bitmap.add(v)]
        b = [x.key for x in reference.add(v)]
        assert a == b  # same attach *order*, not just the same set
    return bitmap, reference


@settings(max_examples=40, deadline=None)
@given(data=layered_dag())
def test_insertion_and_orphan_tracking_agree(data):
    n, vertices, rng = data
    shuffled = list(vertices)
    rng.shuffle(shuffled)
    bitmap, reference = _fill(n, shuffled)
    assert bitmap.size == reference.size
    assert bitmap.pending_count == reference.pending_count
    max_round = max(v.round for v in vertices)
    for r in range(max_round + 2):
        assert [v.key for v in bitmap.round_vertices(r)] == [
            v.key for v in reference.round_vertices(r)
        ]
        assert sorted(v.key for v in bitmap.uncovered_before(r)) == sorted(
            v.key for v in reference.uncovered_before(r)
        )


@settings(max_examples=40, deadline=None)
@given(data=layered_dag())
def test_path_queries_agree(data):
    n, vertices, rng = data
    bitmap, reference = _fill(n, vertices)
    probes = rng.sample(vertices, min(6, len(vertices)))
    for frm in probes:
        for to in vertices:
            assert bitmap.strong_path_exists(frm, to) == reference.strong_path_exists(
                frm, to
            ), (frm.key, to.key)
            assert bitmap.path_exists(frm, to) == reference.path_exists(frm, to), (
                frm.key,
                to.key,
            )


@settings(max_examples=40, deadline=None)
@given(data=layered_dag())
def test_causal_history_agrees_with_and_without_stop(data):
    n, vertices, rng = data
    bitmap, reference = _fill(n, vertices)
    probe = rng.choice(vertices)
    plain_a = sorted(v.key for v in bitmap.causal_history(probe))
    plain_b = sorted(v.key for v in reference.causal_history(probe))
    assert plain_a == plain_b
    # A random ancestry-closed stop set (what the ordering engine passes).
    stopped = rng.choice(vertices)
    stop = {v.key for v in reference.causal_history(stopped) if v.key != probe.key}
    with_stop_a = sorted(v.key for v in bitmap.causal_history(probe, stop=stop))
    with_stop_b = sorted(v.key for v in reference.causal_history(probe, stop=stop))
    assert with_stop_a == with_stop_b
    # The mask fast path is the same prune expressed differently.
    masks = {}
    for r, s in stop:
        masks[r] = masks.get(r, 0) | (1 << s)
    via_masks = sorted(v.key for v in bitmap.causal_history(probe, stop_masks=masks))
    assert via_masks == with_stop_a


@settings(max_examples=30, deadline=None)
@given(data=layered_dag())
def test_ordering_engine_agrees(data):
    n, vertices, rng = data
    rounds = max(v.round for v in vertices)
    leaders = []
    for r in range(1, rounds + 1):
        layer = sorted((v for v in vertices if v.round == r), key=lambda v: v.source)
        if layer:
            leaders.append(layer[0])
    shuffled = list(vertices)
    rng.shuffle(shuffled)
    bitmap, reference = _fill(n, shuffled)
    for r in range(rounds + 1):
        assert [v.key for v in bitmap.round_vertices(r)] == [
            v.key for v in reference.round_vertices(r)
        ]
    engine_a = OrderingEngine(bitmap)
    out_a = []
    out_b = []
    ordered_b: set = set()
    for leader in leaders:
        out_a += [v.key for v in engine_a.order_leader(leader)]
        # Reference ordering: the engine's contract, spelled out by hand.
        history = reference.causal_history(leader, stop=ordered_b)
        history.sort(key=lambda v: (v.round, v.source))
        ordered_b.update(v.key for v in history)
        out_b += [v.key for v in history]
        for v in vertices:
            assert engine_a.is_ordered(v) == (v.key in ordered_b), v.key
    assert out_a == out_b


@settings(max_examples=30, deadline=None)
@given(data=layered_dag(), frontier=st.integers(min_value=0, max_value=4))
def test_gc_frontier_pruning_preserves_answers(data, frontier):
    """prune_reach_below only drops cache entries, never answers."""
    n, vertices, rng = data
    bitmap, reference = _fill(n, vertices)
    probes = rng.sample(vertices, min(4, len(vertices)))
    # Warm the reachability cache, prune at the frontier, re-query: the walk
    # may rebuild closures for anchors above the frontier but answers for
    # *all* pairs must be unchanged.
    for frm in probes:
        for to in vertices:
            bitmap.strong_path_exists(frm, to)
    bitmap.prune_reach_below(frontier)
    for frm in probes:
        for to in vertices:
            assert bitmap.strong_path_exists(frm, to) == reference.strong_path_exists(
                frm, to
            )


@settings(max_examples=25, deadline=None)
@given(data=layered_dag())
def test_pending_probe_queries_agree(data):
    """Queries on a still-buffered vertex (missing parents) also agree."""
    n, vertices, rng = data
    hold_out = rng.choice([v for v in vertices if v.round >= 1])
    bitmap, reference = DagStore(n), ReferenceDagStore(n)
    for v in vertices:
        if v.key != hold_out.key:
            bitmap.add(v)
            reference.add(v)
    # Probe a vertex that references the held-out one (if any): its ancestry
    # is incomplete, exercising the attached-only expansion path.
    dependents = [
        v
        for v in vertices
        if any(ref.key == hold_out.key for ref in v.parents())
    ]
    for frm in dependents or [hold_out]:
        for to in vertices:
            assert bitmap.strong_path_exists(frm, to) == reference.strong_path_exists(
                frm, to
            )
            assert bitmap.path_exists(frm, to) == reference.path_exists(frm, to)
