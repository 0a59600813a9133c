"""Deterministic total ordering from a committed-leader sequence.

Commit rules live in the consensus layer; this engine implements the part
every DAG protocol shares: once leaders are committed in round order, each
leader's not-yet-ordered causal history is appended in a deterministic order
(by round, then source).  Because honest parties agree on the DAG (RBC) and
on the committed leader sequence (consensus safety), they produce identical
total orders.
"""

from __future__ import annotations

from ..errors import DagError
from ..types import Round
from .store import DagStore
from .vertex import Vertex


class OrderingEngine:
    """Produces the ``a_deliver`` sequence of one party."""

    def __init__(self, store: DagStore) -> None:
        self.store = store
        self.ordered: list[Vertex] = []
        #: The ordered set as per-round bitmasks — the stop structure the
        #: bitmap store prunes with directly, and what ``is_ordered`` reads.
        self._ordered_masks: dict[Round, int] = {}
        self._last_leader_round: Round = 0

    @property
    def last_leader_round(self) -> Round:
        return self._last_leader_round

    def order_leader(self, leader: Vertex) -> list[Vertex]:
        """Order ``leader``'s causal history; returns the newly ordered suffix.

        Leaders must be supplied in strictly increasing round order (the
        consensus layer commits them that way).
        """
        if leader.round <= self._last_leader_round:
            raise DagError(
                f"leader round {leader.round} not after {self._last_leader_round}"
            )
        # Pruning the walk at already-ordered vertices keeps each commit
        # O(newly ordered) — the ordered set is closed under ancestry, so the
        # pruned subtrees contain only vertices ordered by earlier leaders.
        history = self.store.causal_history(leader, stop_masks=self._ordered_masks)
        history.sort(key=lambda v: (v.round, v.source))
        masks = self._ordered_masks
        for vertex in history:
            masks[vertex.round] = masks.get(vertex.round, 0) | (1 << vertex.source)
        self.ordered.extend(history)
        self._last_leader_round = leader.round
        return history

    def is_ordered(self, vertex: Vertex) -> bool:
        return bool(self._ordered_masks.get(vertex.round, 0) >> vertex.source & 1)

    @property
    def count(self) -> int:
        return len(self.ordered)
