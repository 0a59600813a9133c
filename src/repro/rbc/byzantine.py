"""Adversarial RBC senders for fault-injection tests and benchmarks.

These helpers perturb what an honest sender of the plain policy would
transmit (:func:`repro.rbc.plain.val_parts`) and put it directly on the
network, modelling senders that equivocate or withhold payloads.  They never
touch honest-party state, so they compose with any of the RBC modules.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..crypto.signatures import Pki
from ..errors import BroadcastError
from ..net.network import Network
from ..types import NodeId, Round
from .base import Membership
from .core import RbcCore
from .plain import val_parts


def silence(module: RbcCore) -> None:
    """Turn an RBC module into a silent (Byzantine-mute) party.

    The party stays on the membership roll but never echoes, readies, or
    serves pulls — the cheapest Byzantine behaviour, and the one that
    starves optimistic all-to-all fast paths.  Re-registers a drop-all
    handler because the network captured the original bound method.
    """
    def _drop(*_args, **_kwargs) -> None:
        return None

    module.broadcast = _drop
    module.on_message = _drop
    module.network.register(module.node_id, _drop)


def send_equivocating_vals(
    network: Network,
    origin: NodeId,
    round_: Round,
    assignments: dict[NodeId, Any],
    membership: Membership,
    pki: Pki | None = None,
) -> None:
    """Send different VALs to different parties (classic equivocation).

    ``assignments`` maps each recipient to the payload the Byzantine sender
    shows it.  Recipients outside the clan receive only the digest of their
    assigned payload.  With ``pki``, VALs are signed (two-round variants).
    """
    if not assignments:
        raise BroadcastError("equivocation needs at least one recipient")
    key = pki.key(origin) if pki is not None else None
    for recipient, payload in assignments.items():
        parts = val_parts(origin, round_, payload, membership, key)
        val = parts.full if recipient in membership.clan else parts.bare
        network.send(origin, recipient, val)


def send_withholding_vals(
    network: Network,
    origin: NodeId,
    round_: Round,
    payload: Any,
    membership: Membership,
    receive_full: Iterable[NodeId],
    pki: Pki | None = None,
) -> None:
    """Send the payload to only ``receive_full`` clan members, digest to the rest.

    Models a Byzantine sender that starves most of the clan so they must use
    the pull path (§3's download-from-the-clan mechanism).
    """
    full = set(receive_full)
    unknown = full - set(membership.clan)
    if unknown:
        raise BroadcastError(f"receive_full parties {sorted(unknown)} not in clan")
    key = pki.key(origin) if pki is not None else None
    parts = val_parts(origin, round_, payload, membership, key)
    for recipient in membership.all_parties:
        network.send(origin, recipient, parts.full if recipient in full else parts.bare)
