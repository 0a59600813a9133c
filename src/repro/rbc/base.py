"""Shared vocabulary of the reliable-broadcast family.

* :class:`Membership` — tribe/clan thresholds used by every protocol.
* payload helpers — any payload is either ``bytes`` or an object exposing
  ``wire_size()`` and ``payload_digest()`` (e.g. :class:`repro.dag.block.Block`).
* :class:`Delivery` — the output of ``r_deliver``.

The instance state machine itself lives in :mod:`repro.rbc.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..committees.config import ClanConfig
from ..crypto.hashing import digest
from ..errors import BroadcastError
from ..types import NodeId, Round, clan_max_faults, max_faults, quorum_size

#: Delivery callback: (origin, round, payload-or-None, digest, full).
DeliverFn = Callable[["Delivery"], None]

InstanceKey = tuple[NodeId, Round]


def payload_wire_size(payload: Any) -> int:
    """Wire size in bytes of an RBC payload."""
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    size_fn = getattr(payload, "wire_size", None)
    if callable(size_fn):
        return size_fn()
    raise BroadcastError(f"payload {type(payload).__name__} has no wire size")


def payload_digest(payload: Any) -> bytes:
    """Canonical digest H(m) of an RBC payload."""
    if isinstance(payload, (bytes, bytearray)):
        return digest(bytes(payload))
    digest_fn = getattr(payload, "payload_digest", None)
    if callable(digest_fn):
        return digest_fn()
    raise BroadcastError(f"payload {type(payload).__name__} has no digest")


@dataclass(frozen=True)
class Membership:
    """Tribe and clan thresholds for one RBC deployment.

    ``clan`` is the set of parties that receive full payloads.  For standard
    (non-tribe-assisted) RBC the clan is the whole tribe, which makes the
    "≥ f_c+1 ECHOs from the clan" condition subsume into the plain 2f+1.
    """

    n: int
    clan: frozenset[NodeId]

    def __post_init__(self) -> None:
        if not self.clan:
            raise BroadcastError("clan must be non-empty")
        if any(not 0 <= p < self.n for p in self.clan):
            raise BroadcastError("clan member outside the tribe")

    @property
    def f(self) -> int:
        return max_faults(self.n)

    @property
    def quorum(self) -> int:
        """Tribe Byzantine quorum (2f+1 at n=3f+1; see types.quorum_size)."""
        return quorum_size(self.n)

    @property
    def ready_amplify(self) -> int:
        """READY amplification threshold f+1."""
        return self.f + 1

    @property
    def clan_size(self) -> int:
        return len(self.clan)

    @property
    def clan_quorum(self) -> int:
        """ECHOs required from the clan: f_c + 1."""
        return clan_max_faults(self.clan_size) + 1

    @property
    def all_parties(self) -> range:
        return range(self.n)

    @staticmethod
    def whole_tribe(n: int) -> "Membership":
        return Membership(n, frozenset(range(n)))

    @staticmethod
    def from_clan_config(cfg: ClanConfig, clan_idx: int) -> "Membership":
        return Membership(cfg.n, cfg.clan(clan_idx))


@dataclass(frozen=True, slots=True)
class Delivery:
    """The output of ``r_deliver`` at one party.

    ``payload`` is the full message for clan members (``full=True``) and
    ``None`` for parties outside the clan, which deliver only ``digest``
    (= H(m)), per Definition 2.
    """

    origin: NodeId
    round: Round
    payload: Any | None
    digest: bytes
    full: bool
