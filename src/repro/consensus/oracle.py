"""The safety oracle: the SMR guarantee, checked in one place.

* **Prefix consistency** — every honest log is a prefix of one canonical
  sequence.  Logs are fed whole after a run or entry by entry as they grow;
  an observer is reported once, at the first position where it departs.
  Checking each log against one sequence, not neighbours against each
  other, keeps a short log from hiding two longer logs' divergence.
* **Clan state agreement** — a clan's executors that are honest and up when
  the run ends hold equal states; one that crashed for good is behind, not
  diverged.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from ..errors import ConsensusError
from ..types import NodeId


class PrefixOracle:
    """One canonical sequence, and how far each observer has followed it."""

    def __init__(self) -> None:
        self.canonical: list = []
        self.position: dict[Hashable, int] = {}
        self._diverged: set = set()

    def observe(self, observer: Hashable, items: Iterable) -> tuple[int, Any] | None:
        """Feed ``observer``'s next entries.  The first departure from the
        canonical sequence is returned as ``(position, expected)``, and the
        observer is not followed past it."""
        if observer in self._diverged:
            return None
        canonical = self.canonical
        pos = self.position.get(observer, 0)
        for item in items:
            if pos == len(canonical):
                canonical.append(item)
            elif canonical[pos] != item:
                self._diverged.add(observer)
                return pos, canonical[pos]
            pos += 1
        self.position[observer] = pos
        return None


def common_prefix(logs: Iterable[tuple[Hashable, Iterable]]) -> int:
    """Stream each ``(observer, log)`` through one oracle.  Raises
    :class:`ConsensusError` at the first divergence; otherwise returns the
    length of the prefix every log shares."""
    oracle = PrefixOracle()
    for observer, log in logs:
        divergence = oracle.observe(observer, log)
        if divergence is not None:
            pos, expected = divergence
            raise ConsensusError(
                f"order divergence at position {pos}: node {observer} departs "
                f"from the canonical order, which has {expected}"
            )
    return min(oracle.position.values(), default=0)


def order_prefix(nodes) -> int:
    """:func:`common_prefix` over consensus nodes' ordered vertex keys."""
    return common_prefix(
        (node.node_id, (vertex.key for vertex, _ in node.ordered_log))
        for node in nodes
    )


def clan_states(runtime, clan_idx: int) -> dict[bytes, list[NodeId]]:
    """End state digest -> the members of an SMR runtime's clan holding it,
    over the members that are honest and not crashed when the run ends."""
    deployment = runtime.deployment
    honest = set(deployment.honest_ids)
    states: dict[bytes, list[NodeId]] = {}
    for node_id in sorted(runtime.cfg.clan(clan_idx)):
        if node_id in honest and not deployment.network.is_crashed(node_id):
            digest = runtime.executors[node_id].state_digest()
            states.setdefault(digest, []).append(node_id)
    return states
