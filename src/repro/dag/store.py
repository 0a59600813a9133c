"""Per-node DAG storage with orphan buffering and path queries.

Vertices arrive via RBC in arbitrary order; a vertex becomes *attached* only
once all its parents are present (RBC agreement guarantees parents eventually
arrive).  The store indexes vertices by ``(round, source)`` — unique per
honest instance thanks to RBC non-equivocation — and answers the two queries
consensus needs: strong-path reachability (commit rule) and causal history
(total ordering).

Edge storage is *per-round bitmaps*: a vertex's source id doubles as its
dense index within its round, so presence, strong edges, weak edges, and
orphan tips are all ``int`` bitmasks and every graph query is a bitwise sweep
over round arrays instead of a per-vertex set walk:

* ``_parents_present`` is two mask subtractions instead of O(edges) dict
  probes, and the masks are computed once per vertex, not once per retry.
* ``strong_path_exists`` unions strong masks level by level; the per-anchor
  reachability closure is immutable once the anchor is attached (attachment
  implies the full ancestry is attached and edges are frozen), so it is
  cached in ``_reach`` and pruned at the commit frontier via
  :meth:`prune_reach_below`.
* ``causal_history`` sweeps a ``{round: mask}`` frontier downward; since all
  edges point strictly below their source, each round is finalized the
  moment it becomes the maximum — no seen-set needed.

``tests/dag/reference_store.py`` (``ReferenceDagStore``) preserves the original
adjacency algorithms as an executable specification; the randomized
equivalence suite next to it holds this implementation to it bit for bit.
"""

from __future__ import annotations

from collections import defaultdict

from ..errors import DagError
from ..types import GENESIS_ROUND, NodeId, Round
from .vertex import Vertex, VertexRef, genesis_vertex

Key = tuple[Round, NodeId]

#: Weak-edge masks of one vertex, grouped by target round.
WeakLevels = tuple[tuple[Round, int], ...]


class DagStore:
    """The local DAG of one party."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise DagError(f"need at least one party, got {n}")
        self.n = n
        self._vertices: dict[Key, Vertex] = {}
        self._by_round: dict[Round, dict[NodeId, Vertex]] = defaultdict(dict)
        self._pending: dict[Key, Vertex] = {}
        #: Edge masks of buffered vertices (computed once, not per retry).
        self._pending_masks: dict[Key, tuple[int, WeakLevels]] = {}
        #: round -> bitmask of attached sources.
        self._present: dict[Round, int] = {}
        #: (round, source) -> strong-edge bitmask over round-1 sources.
        self._strong_mask: dict[Key, int] = {}
        #: (round, source) -> weak-edge masks grouped by target round.
        self._weak_levels: dict[Key, WeakLevels] = {}
        #: round -> bitmask of tips: attached vertices with no attached child
        #: yet — candidates for weak edges when this node proposes.
        self._uncovered: dict[Round, int] = {}
        #: Strong-reachability closures keyed by anchor: ``_reach[key][i]``
        #: is the mask of sources reachable at round ``key[0] - 1 - i``.
        #: Immutable per anchor (see module docstring); extended lazily to
        #: the deepest round queried and pruned at the commit frontier.
        self._reach: dict[Key, list[int]] = {}
        for source in range(n):
            self._attach(genesis_vertex(source), 0, ())

    # -- insertion -----------------------------------------------------------

    def add(self, vertex: Vertex) -> list[Vertex]:
        """Insert a delivered vertex; returns all vertices newly *attached*.

        If parents are missing, the vertex is buffered and attached (and
        returned by a later ``add``) once they arrive.  Duplicate positions
        are rejected — the RBC layer guarantees one vertex per (round, source).
        """
        key = vertex.key
        if key in self._vertices:
            existing = self._vertices[key]
            if existing.vertex_digest() != vertex.vertex_digest():
                raise DagError(f"conflicting vertices at {key}")
            return []
        if key in self._pending:
            return []
        strong, weak_levels = _edge_masks(vertex)
        if not self._masks_present(vertex.round, strong, weak_levels):
            self._pending[key] = vertex
            self._pending_masks[key] = (strong, weak_levels)
            return []
        attached = [vertex]
        self._attach(vertex, strong, weak_levels)
        # Attaching one vertex may unblock buffered descendants, recursively.
        masks = self._pending_masks
        progress = True
        while progress:
            progress = False
            for key, pending in list(self._pending.items()):
                strong, weak_levels = masks[key]
                if self._masks_present(pending.round, strong, weak_levels):
                    del self._pending[key]
                    del masks[key]
                    self._attach(pending, strong, weak_levels)
                    attached.append(pending)
                    progress = True
        return attached

    def _masks_present(self, round_: Round, strong: int, weak_levels: WeakLevels) -> bool:
        present = self._present
        if strong & ~present.get(round_ - 1, 0):
            return False
        for r, mask in weak_levels:
            if mask & ~present.get(r, 0):
                return False
        return True

    def _attach(self, vertex: Vertex, strong: int, weak_levels: WeakLevels) -> None:
        round_ = vertex.round
        bit = 1 << vertex.source
        self._vertices[vertex.key] = vertex
        self._by_round[round_][vertex.source] = vertex
        self._present[round_] = self._present.get(round_, 0) | bit
        self._strong_mask[vertex.key] = strong
        self._weak_levels[vertex.key] = weak_levels
        uncovered = self._uncovered
        uncovered[round_] = uncovered.get(round_, 0) | bit
        if strong:
            uncovered[round_ - 1] = uncovered.get(round_ - 1, 0) & ~strong
        for r, mask in weak_levels:
            uncovered[r] = uncovered.get(r, 0) & ~mask

    # -- lookups ---------------------------------------------------------------

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
        """Attached tips from rounds < ``round_`` (weak-edge candidates)."""
        out: list[Vertex] = []
        for r in sorted(self._uncovered):
            if not GENESIS_ROUND < r < round_:
                continue
            mask = self._uncovered[r]
            in_round = self._by_round[r]
            while mask:
                low = mask & -mask
                mask ^= low
                out.append(in_round[low.bit_length() - 1])
        return out

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def size(self) -> int:
        return len(self._vertices)

    # -- graph queries -----------------------------------------------------------

    def strong_path_exists(self, frm: Vertex, to: Vertex) -> bool:
        """Is there a path from ``frm`` to ``to`` using only strong edges?"""
        if to.round >= frm.round:
            return frm.key == to.key
        closure = self._reach_closure(frm, to.round)
        index = frm.round - 1 - to.round
        if index >= len(closure):
            return False  # the closure went empty above the target round
        return bool(closure[index] >> to.source & 1)

    def _reach_closure(self, frm: Vertex, floor: Round) -> list[int]:
        """Strong-reachability masks from ``frm`` down to round ``floor``.

        Cached per anchor: once ``frm`` is attached its ancestry is complete
        and frozen, so the closure can only ever be *extended* downward, never
        invalidated.  An unattached probe (some tests query buffered
        vertices) is computed without caching, expanding through attached
        vertices only — the same vertices the reference BFS expands.
        """
        key = frm.key
        attached = key in self._vertices
        closure = self._reach.get(key)
        if closure is None:
            strong = self._strong_mask.get(key)
            if strong is None:
                strong, _ = _edge_masks(frm)
            closure = [strong]
            if attached:
                self._reach[key] = closure
        target_index = frm.round - 1 - floor
        strong_mask = self._strong_mask
        present = self._present
        while len(closure) <= target_index and closure[-1]:
            round_ = frm.round - len(closure)  # round of closure[-1]
            mask = closure[-1]
            if not attached:
                mask &= present.get(round_, 0)
            below = 0
            while mask:
                low = mask & -mask
                mask ^= low
                below |= strong_mask[(round_, low.bit_length() - 1)]
            closure.append(below)
        return closure

    def path_exists(self, frm: Vertex, to: Vertex) -> bool:
        """Any-edge (strong + weak) reachability.

        The sparse-edge commit rule uses this: with ``edge_mode="sparse"``
        the strong-edge graph no longer guarantees quorum intersection, so
        indirect commits accept weak-edge routes too (see DESIGN.md).
        """
        if to.round >= frm.round:
            return frm.key == to.key
        target_round = to.round
        target_bit = 1 << to.source
        levels = self._seed_levels(frm)
        vertices = self._vertices
        strong_mask = self._strong_mask
        weak_levels = self._weak_levels
        while levels:
            round_ = max(levels)
            mask = levels.pop(round_)
            if round_ < target_round:
                continue  # weak edges can jump below the target round
            if round_ == target_round:
                if mask & target_bit:
                    return True
                continue
            while mask:
                low = mask & -mask
                mask ^= low
                source = low.bit_length() - 1
                if (round_, source) not in vertices:
                    continue  # unattached refs are never expanded
                strong = strong_mask[(round_, source)]
                if strong:
                    levels[round_ - 1] = levels.get(round_ - 1, 0) | strong
                for r, m in weak_levels[(round_, source)]:
                    levels[r] = levels.get(r, 0) | m
        return False

    def _seed_levels(self, vertex: Vertex) -> dict[Round, int]:
        """The ``{round: mask}`` frontier holding ``vertex``'s own edges."""
        strong = self._strong_mask.get(vertex.key)
        if strong is None:
            strong, weak = _edge_masks(vertex)
        else:
            weak = self._weak_levels[vertex.key]
        levels: dict[Round, int] = {}
        if strong:
            levels[vertex.round - 1] = strong
        for r, mask in weak:
            levels[r] = levels.get(r, 0) | mask
        return levels

    def causal_history(
        self,
        vertex: Vertex,
        stop: set[Key] | None = None,
        *,
        stop_masks: dict[Round, int] | None = None,
    ) -> list[Vertex]:
        """All attached ancestors of ``vertex`` (strong and weak edges),
        excluding genesis vertices, including ``vertex`` itself.

        Args:
            stop: keys whose subtrees are pruned from the walk.  The ordering
                engine passes its already-ordered set: ordering is closed
                under ancestry, so everything below an ordered vertex is
                ordered too and re-walking it every leader commit would make
                each commit cost O(whole DAG) instead of O(new vertices).
            stop_masks: the same pruning as per-round bitmasks (keyword-only
                fast path; the ordering engine maintains these directly).

        Returns vertices in descending round order (ascending source within a
        round); callers needing the canonical order sort by (round, source).
        """
        if stop:
            stop_masks = {}
            for r, s in stop:
                stop_masks[r] = stop_masks.get(r, 0) | (1 << s)
        result: list[Vertex] = []
        if vertex.round > GENESIS_ROUND:
            result.append(vertex)
        levels = self._seed_levels(vertex)
        vertices = self._vertices
        strong_mask = self._strong_mask
        weak_levels = self._weak_levels
        while levels:
            round_ = max(levels)
            mask = levels.pop(round_)
            if round_ <= GENESIS_ROUND:
                continue
            if stop_masks is not None:
                mask &= ~stop_masks.get(round_, 0)
            while mask:
                low = mask & -mask
                mask ^= low
                source = low.bit_length() - 1
                v = vertices.get((round_, source))
                if v is None:
                    raise DagError(
                        f"history of {vertex.key} missing parent ({round_}, {source})"
                    )
                result.append(v)
                strong = strong_mask[(round_, source)]
                if strong:
                    levels[round_ - 1] = levels.get(round_ - 1, 0) | strong
                for r, m in weak_levels[(round_, source)]:
                    levels[r] = levels.get(r, 0) | m
        return result

    # -- garbage collection -------------------------------------------------------

    def prune_reach_below(self, floor: Round) -> None:
        """Drop reachability closures anchored below ``floor``.

        The commit-chain walk only queries anchors above the committed
        frontier, so closures for older anchors are dead weight; the node's
        GC hook calls this alongside its other per-commit pruning.
        """
        if any(key[0] < floor for key in self._reach):
            self._reach = {k: v for k, v in self._reach.items() if k[0] >= floor}


def _edge_masks(vertex: Vertex) -> tuple[int, WeakLevels]:
    """(strong bitmask over round-1, weak masks grouped by round)."""
    strong = 0
    for ref in vertex.strong_edges:
        strong |= 1 << ref.source
    if not vertex.weak_edges:
        return strong, ()
    weak: dict[Round, int] = {}
    for ref in vertex.weak_edges:
        weak[ref.round] = weak.get(ref.round, 0) | (1 << ref.source)
    return strong, tuple(weak.items())
