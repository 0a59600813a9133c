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
  probes.  The masks are :meth:`Vertex.edge_masks`, computed once per
  vertex and shared by every node's store rather than copied into each.
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

from ..errors import DagError
from ..types import GENESIS_ROUND, NodeId, Round
from .vertex import Vertex, VertexRef, genesis_vertex

Key = tuple[Round, NodeId]


class DagStore:
    """The local DAG of one party."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise DagError(f"need at least one party, got {n}")
        self.n = n
        #: The one vertex index: round -> source -> attached vertex, each
        #: round's dict in attach order.
        self._by_round: dict[Round, dict[NodeId, Vertex]] = {}
        self._size = 0
        self._pending: dict[Key, Vertex] = {}
        #: round -> bitmask of attached sources.
        self._present: dict[Round, int] = {}
        #: round -> bitmask of tips: attached vertices with no attached child
        #: yet — candidates for weak edges when this node proposes.
        self._uncovered: dict[Round, int] = {}
        #: Strong-reachability closures keyed by anchor: ``_reach[key][i]``
        #: is the mask of sources reachable at round ``key[0] - 1 - i``.
        #: Immutable per anchor (see module docstring); extended lazily to
        #: the deepest round queried and pruned at the commit frontier.
        self._reach: dict[Key, list[int]] = {}
        for source in range(n):
            self._attach(genesis_vertex(source))

    # -- insertion -----------------------------------------------------------

    def add(self, vertex: Vertex) -> list[Vertex]:
        """Insert a delivered vertex; returns all vertices newly *attached*.

        If parents are missing, the vertex is buffered and attached (and
        returned by a later ``add``) once they arrive.  Duplicate positions
        are rejected — the RBC layer guarantees one vertex per (round, source).
        """
        existing = self.get(vertex.round, vertex.source)
        if existing is not None:
            if existing.vertex_digest() != vertex.vertex_digest():
                raise DagError(f"conflicting vertices at {vertex.key}")
            return []
        key = vertex.key
        if key in self._pending:
            return []
        if not self._parents_present(vertex):
            self._pending[key] = vertex
            return []
        attached = [vertex]
        self._attach(vertex)
        # Attaching one vertex may unblock buffered descendants, recursively.
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
        present = self._present
        strong, weak_levels = vertex.edge_masks()
        if strong & ~present.get(vertex.round - 1, 0):
            return False
        for r, mask in weak_levels:
            if mask & ~present.get(r, 0):
                return False
        return True

    def _attach(self, vertex: Vertex) -> None:
        round_ = vertex.round
        bit = 1 << vertex.source
        in_round = self._by_round.get(round_)
        if in_round is None:
            in_round = self._by_round[round_] = {}
        in_round[vertex.source] = vertex
        self._size += 1
        self._present[round_] = self._present.get(round_, 0) | bit
        strong, weak_levels = vertex.edge_masks()
        uncovered = self._uncovered
        uncovered[round_] = uncovered.get(round_, 0) | bit
        if strong:
            uncovered[round_ - 1] = uncovered.get(round_ - 1, 0) & ~strong
        for r, mask in weak_levels:
            uncovered[r] = uncovered.get(r, 0) & ~mask

    # -- lookups ---------------------------------------------------------------

    def get(self, round_: Round, source: NodeId) -> Vertex | None:
        in_round = self._by_round.get(round_)
        return None if in_round is None else in_round.get(source)

    def contains(self, ref: VertexRef) -> bool:
        vertex = self.get(ref.round, ref.source)
        return vertex is not None and vertex.vertex_digest() == ref.digest

    def contains_key(self, round_: Round, source: NodeId) -> bool:
        return bool(self._present.get(round_, 0) >> source & 1)

    def round_vertices(self, round_: Round) -> list[Vertex]:
        return list(self._by_round.get(round_, {}).values())

    def num_in_round(self, round_: Round) -> int:
        return len(self._by_round.get(round_, {}))

    def uncovered_before(self, round_: Round) -> list[Vertex]:
        """Attached tips from rounds < ``round_`` (weak-edge candidates)."""
        out: list[Vertex] = []
        for r in sorted(self._uncovered):
            mask = self._uncovered[r]
            if not mask or not GENESIS_ROUND < r < round_:
                continue
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
        return self._size

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
        attached = self.contains_key(frm.round, frm.source)
        closure = self._reach.get(key)
        if closure is None:
            closure = [frm.edge_masks()[0]]
            if attached:
                self._reach[key] = closure
        target_index = frm.round - 1 - floor
        by_round = self._by_round
        present = self._present
        while len(closure) <= target_index and closure[-1]:
            round_ = frm.round - len(closure)  # round of closure[-1]
            mask = closure[-1]
            if not attached:
                mask &= present.get(round_, 0)
            in_round = by_round.get(round_)
            below = 0
            while mask:
                low = mask & -mask
                mask ^= low
                below |= in_round[low.bit_length() - 1].edge_masks()[0]
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
        by_round = self._by_round
        present = self._present
        while levels:
            round_ = max(levels)
            mask = levels.pop(round_)
            if round_ < target_round:
                continue  # weak edges can jump below the target round
            if round_ == target_round:
                if mask & target_bit:
                    return True
                continue
            mask &= present.get(round_, 0)  # unattached refs are never expanded
            in_round = by_round.get(round_)
            while mask:
                low = mask & -mask
                mask ^= low
                strong, weak = in_round[low.bit_length() - 1].edge_masks()
                if strong:
                    levels[round_ - 1] = levels.get(round_ - 1, 0) | strong
                for r, m in weak:
                    levels[r] = levels.get(r, 0) | m
        return False

    def _seed_levels(self, vertex: Vertex) -> dict[Round, int]:
        """The ``{round: mask}`` frontier holding ``vertex``'s own edges."""
        strong, weak = vertex.edge_masks()
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
        by_round = self._by_round
        present = self._present
        while levels:
            round_ = max(levels)
            mask = levels.pop(round_)
            if round_ <= GENESIS_ROUND:
                continue
            if stop_masks is not None:
                mask &= ~stop_masks.get(round_, 0)
            missing = mask & ~present.get(round_, 0)
            if missing:
                source = (missing & -missing).bit_length() - 1
                raise DagError(
                    f"history of {vertex.key} missing parent ({round_}, {source})"
                )
            in_round = by_round.get(round_)
            while mask:
                low = mask & -mask
                mask ^= low
                v = in_round[low.bit_length() - 1]
                result.append(v)
                strong, weak = v.edge_masks()
                if strong:
                    levels[round_ - 1] = levels.get(round_ - 1, 0) | strong
                for r, m in weak:
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
