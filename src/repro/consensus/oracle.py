"""The safety oracle: the SMR guarantee, checked in one place.

* **Prefix consistency** — every honest sequence is a prefix of one
  canonical sequence, checked entry by entry as the sequences grow; an
  observer is reported once, at the first position where it departs.
  Checking each sequence against one canonical sequence, not neighbours
  against each other, keeps a short one from hiding two longer ones'
  divergence.  A deployment's oracle is its commit record: what every node
  ordered and when, with the canonical order kept once.
* **Clan state agreement** — a clan's executors that are honest and up when
  the run ends hold equal states; one that crashed for good is behind, not
  diverged.
"""

from __future__ import annotations

import operator
from array import array
from collections import defaultdict
from functools import partial
from itertools import chain, islice
from typing import Any, Callable, Hashable, Iterable, Iterator

from ..errors import ConsensusError
from ..types import NodeId


def same_vertex(a, b) -> bool:
    """The same object, or the same key and the same vertex digest."""
    return a is b or (a.key == b.key and a.vertex_digest() == b.vertex_digest())


class PrefixOracle:
    """One canonical sequence, how far each observer has followed it, and
    when it recorded each entry.

    An observer in ``outsiders`` (a faulty node) never extends the canonical
    sequence: it keeps its entries in a tail of its own, as does an observer
    from the position where it departs.  Entries compare with ``same``.
    """

    def __init__(
        self, outsiders: Iterable[Hashable] = (), same: Callable = operator.eq
    ) -> None:
        self.canonical: list = []
        self.position: dict[Hashable, int] = {}
        self.times: dict[Hashable, array] = defaultdict(partial(array, "d"))
        self._same = same
        self._outsiders = frozenset(outsiders)
        self._tails: dict[Hashable, list] = {o: [] for o in self._outsiders}
        #: Called as ``(observer, position, expected, got, time)`` when an
        #: observer departs.
        self.on_divergence: Callable[..., None] | None = None

    def record(self, observer: Hashable, item, now: float) -> None:
        """``observer``'s next entry is ``item``, recorded at ``now``."""
        self.times[observer].append(now)
        tail = self._tails.get(observer)
        if tail is not None:
            tail.append(item)
            return
        canonical = self.canonical
        pos = self.position.get(observer, 0)
        if pos == len(canonical):
            canonical.append(item)
        elif not self._same(canonical[pos], item):
            self.position[observer] = pos
            self._tails[observer] = [item]
            if self.on_divergence is not None:
                self.on_divergence(observer, pos, canonical[pos], item, now)
            return
        self.position[observer] = pos + 1

    def count(self, observer: Hashable) -> int:
        return self.position.get(observer, 0) + len(self._tails.get(observer, ()))

    def entries(self, observer: Hashable) -> Iterator[tuple[Any, float]]:
        """``observer``'s entries in its order, each with its time."""
        return zip(
            chain(
                islice(self.canonical, self.position.get(observer, 0)),
                self._tails.get(observer, ()),
            ),
            self.times.get(observer, ()),
        )

    def last_time(self, observer: Hashable) -> float | None:
        times = self.times.get(observer)
        return times[-1] if times else None

    def shared_prefix(self, observers: Iterable[Hashable]) -> int:
        """Raise :class:`ConsensusError` if one of ``observers`` departed;
        otherwise return the length of the prefix they all share."""
        observers = list(observers)
        for observer in observers:
            if observer in self._tails and observer not in self._outsiders:
                pos = self.position[observer]
                expected = getattr(self.canonical[pos], "key", self.canonical[pos])
                raise ConsensusError(
                    f"order divergence at position {pos}: node {observer} departs "
                    f"from the canonical order, which has {expected}"
                )
        return min((self.count(o) for o in observers), default=0)


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
