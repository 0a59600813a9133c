"""Reliable broadcast.

One instance state machine (:mod:`repro.rbc.core`) multiplexes instances
keyed by ``(origin, round)`` over the simulated network; a completion rule
(two-round certificate, Bracha READY, optimistic fast path) and a payload
policy configure it, and the clan-payload rules — when a clan member may
ECHO, when it delivers the payload, whom it pulls it from — are the core's,
for every policy.  This package holds the plain policy
(:class:`~repro.rbc.plain.PlainRbc`): ``PlainRbc(..., "bracha")`` is the
paper's Fig. 2, ``"two-round"`` its Fig. 3 and ``"optimistic"`` the 2δ fast
path; over ``Membership.whole_tribe(n)`` they are classic Bracha and Abraham
et al.'s round-optimal RBC.

The merged vertex+block RBC of §5 (:mod:`repro.consensus.vertex_rbc`) is the
same core under the clan-only block and chunked-prefix policies;
:mod:`repro.rbc.prefix` holds the Raptr-style chunk vocabulary (manifests,
chunk splitting/reassembly) the latter uses.

Clan members that reach delivery without the payload pull it from clan
members known to hold it (:mod:`repro.rbc.retrieval`), exactly as §3 allows.
"""

from .base import Delivery, Membership
from .core import RbcCore
from .plain import PlainRbc
from .prefix import BlockChunk, ChunkManifest, assemble_prefix, split_block

__all__ = [
    "Delivery",
    "Membership",
    "RbcCore",
    "PlainRbc",
    "BlockChunk",
    "ChunkManifest",
    "assemble_prefix",
    "split_block",
]
