"""Reliable broadcast.

One instance state machine (:mod:`repro.rbc.core`) multiplexes instances
keyed by ``(origin, round)`` over the simulated network; a completion rule
(two-round certificate, Bracha READY, optimistic fast path) and a payload
policy configure it.  This package holds the plain policy
(:mod:`repro.rbc.plain`) and its public configurations:

* :mod:`repro.rbc.bracha` — READY completions: :class:`TribeBrachaRbc` (the
  paper's Fig. 2: payload only to the clan, digest to the rest),
  :class:`BrachaRbc` (classic Bracha, payload to everyone) and
  :class:`OptimisticRbc` (2δ fast path on all-n ECHO agreement).
* :mod:`repro.rbc.two_round` — certificate completion:
  :class:`TribeTwoRoundRbc` (the paper's Fig. 3) and :class:`TwoRoundRbc`
  (Abraham et al., payload to everyone).

The merged vertex+block RBC of §5 (:mod:`repro.consensus.vertex_rbc`) is the
same core under the clan-only block and chunked-prefix policies;
:mod:`repro.rbc.prefix` holds the Raptr-style chunk vocabulary (manifests,
chunk splitting/reassembly) the latter uses.

Clan members that reach delivery without the payload pull it from clan
members known to hold it (:mod:`repro.rbc.retrieval`), exactly as §3 allows.
"""

from .base import Delivery, Membership
from .bracha import BrachaRbc, OptimisticRbc, TribeBrachaRbc
from .core import RbcCore
from .plain import PlainRbc
from .prefix import BlockChunk, ChunkManifest, assemble_prefix, split_block
from .two_round import TribeTwoRoundRbc, TwoRoundRbc

__all__ = [
    "Delivery",
    "Membership",
    "RbcCore",
    "PlainRbc",
    "BrachaRbc",
    "TribeBrachaRbc",
    "TwoRoundRbc",
    "TribeTwoRoundRbc",
    "OptimisticRbc",
    "BlockChunk",
    "ChunkManifest",
    "assemble_prefix",
    "split_block",
]
