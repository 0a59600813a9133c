"""Reference DAG store: the original tuple-adjacency algorithms.

This is the pre-bitmap implementation of :class:`~repro.dag.store.DagStore`,
kept as an executable specification.  ``test_bitmap_equivalence.py`` next to
it drives randomized DAGs (gaps, weak edges, GC frontiers) through both stores
and asserts identical ``causal_history`` / ``strong_path_exists`` / ordering
answers — the bitmap store in :mod:`repro.dag.store` must never diverge from
these set/BFS/DFS semantics, only outrun them.

A test oracle: it lives under ``tests/`` and no runtime path imports it.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.dag.vertex import Vertex, VertexRef, genesis_vertex
from repro.errors import DagError
from repro.types import GENESIS_ROUND, NodeId, Round

Key = tuple[Round, NodeId]


class ReferenceDagStore:
    """The original per-vertex adjacency DAG store (specification copy)."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise DagError(f"need at least one party, got {n}")
        self.n = n
        self._vertices: dict[Key, Vertex] = {}
        self._by_round: dict[Round, dict[NodeId, Vertex]] = defaultdict(dict)
        self._pending: dict[Key, Vertex] = {}
        self._uncovered: dict[Key, Vertex] = {}
        for source in range(n):
            self._attach(genesis_vertex(source))

    # -- insertion -----------------------------------------------------------

    def add(self, vertex: Vertex) -> list[Vertex]:
        key = vertex.key
        if key in self._vertices:
            existing = self._vertices[key]
            if existing.vertex_digest() != vertex.vertex_digest():
                raise DagError(f"conflicting vertices at {key}")
            return []
        if key in self._pending:
            return []
        if not self._parents_present(vertex):
            self._pending[key] = vertex
            return []
        attached = [vertex]
        self._attach(vertex)
        progress = True
        while progress:
            progress = False
            for key, pending in list(self._pending.items()):
                if self._parents_present(pending):
                    del self._pending[key]
                    self._attach(pending)
                    attached.append(pending)
                    progress = True
        return attached

    def _parents_present(self, vertex: Vertex) -> bool:
        vertices = self._vertices
        for ref in vertex.strong_edges:
            if (ref.round, ref.source) not in vertices:
                return False
        for ref in vertex.weak_edges:
            if (ref.round, ref.source) not in vertices:
                return False
        return True

    def _attach(self, vertex: Vertex) -> None:
        key = vertex.key
        self._vertices[key] = vertex
        self._by_round[vertex.round][vertex.source] = vertex
        uncovered = self._uncovered
        uncovered[key] = vertex
        pop = uncovered.pop
        for ref in vertex.strong_edges:
            pop((ref.round, ref.source), None)
        for ref in vertex.weak_edges:
            pop((ref.round, ref.source), None)

    # -- lookups -------------------------------------------------------------

    def get(self, round_: Round, source: NodeId) -> Vertex | None:
        return self._vertices.get((round_, source))

    def contains(self, ref: VertexRef) -> bool:
        vertex = self._vertices.get(ref.key)
        return vertex is not None and vertex.vertex_digest() == ref.digest

    def contains_key(self, round_: Round, source: NodeId) -> bool:
        return (round_, source) in self._vertices

    def round_vertices(self, round_: Round) -> list[Vertex]:
        return list(self._by_round.get(round_, {}).values())

    def num_in_round(self, round_: Round) -> int:
        return len(self._by_round.get(round_, {}))

    def uncovered_before(self, round_: Round) -> list[Vertex]:
        return [
            v
            for v in self._uncovered.values()
            if GENESIS_ROUND < v.round < round_
        ]

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def size(self) -> int:
        return len(self._vertices)

    # -- graph queries -------------------------------------------------------

    def strong_path_exists(self, frm: Vertex, to: Vertex) -> bool:
        if to.round > frm.round:
            return False
        if frm.key == to.key:
            return True
        target_key = to.key
        target_round = to.round
        queue = deque([frm])
        seen: set[Key] = {frm.key}
        while queue:
            vertex = queue.popleft()
            for ref in vertex.strong_edges:
                key = ref.key
                if key == target_key:
                    return True
                if key in seen or ref.round <= target_round:
                    continue
                seen.add(key)
                child = self._vertices.get(key)
                if child is not None:
                    queue.append(child)
        return False

    def path_exists(self, frm: Vertex, to: Vertex) -> bool:
        """Any-edge (strong + weak) reachability, DFS over ref tuples."""
        if to.round > frm.round:
            return False
        if frm.key == to.key:
            return True
        target_key = to.key
        target_round = to.round
        stack = [frm]
        seen: set[Key] = {frm.key}
        while stack:
            vertex = stack.pop()
            for ref in vertex.parents():
                key = ref.key
                if key == target_key:
                    return True
                if key in seen or ref.round <= target_round:
                    continue
                seen.add(key)
                child = self._vertices.get(key)
                if child is not None:
                    stack.append(child)
        return False

    def causal_history(self, vertex: Vertex, stop: set[Key] | None = None) -> list[Vertex]:
        result: list[Vertex] = []
        stack = [vertex]
        seen: set[Key] = {vertex.key}
        vertices = self._vertices
        while stack:
            v = stack.pop()
            if v.round > GENESIS_ROUND:
                result.append(v)
            for ref in v.parents():
                if ref.round == GENESIS_ROUND:
                    continue
                key = (ref.round, ref.source)
                if key in seen or (stop is not None and key in stop):
                    continue
                seen.add(key)
                parent = vertices.get(key)
                if parent is None:
                    raise DagError(f"attached vertex {v.key} missing parent {key}")
                stack.append(parent)
        return result
