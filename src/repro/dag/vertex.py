"""The vertex structure of Fig. 4.

A vertex carries the round, the proposer, the *digest* of its block, strong
edges to ≥ 2f+1 vertices of the previous round, weak edges to older orphan
vertices, and (for leader vertices after a failed round) a no-vote or timeout
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..crypto.hashing import digest
from ..errors import DagError
from ..net import sizes
from ..types import GENESIS_ROUND, NodeId, Round

#: Weak-edge masks of one vertex, grouped by target round.
WeakLevels = tuple[tuple[Round, int], ...]


@dataclass(frozen=True, slots=True)
class VertexRef:
    """A reference (edge target): round, source, and the vertex digest."""

    round: Round
    source: NodeId
    digest: bytes

    @property
    def key(self) -> tuple[Round, NodeId]:
        """Position key — unique per honest RBC instance (non-equivocation)."""
        return (self.round, self.source)

    def wire_size(self) -> int:
        return sizes.VERTEX_REF_SIZE


@dataclass(frozen=True, slots=True)
class Vertex:
    """A DAG vertex (Fig. 4): metadata only; the block travels separately."""

    round: Round
    source: NodeId
    block_digest: bytes | None
    strong_edges: tuple[VertexRef, ...]
    weak_edges: tuple[VertexRef, ...] = ()
    nvc: Any | None = None  # no-vote certificate for round-1 (if any)
    tc: Any | None = None  # timeout certificate for round-1 (if any)
    #: Prefix dissemination (rbc_mode="prefix"): how many chunks the block
    #: was split into (0 = unchunked), the manifest digest binding that
    #: chunking, and this proposer's attestations of partially-held parent
    #: blocks as (proposer, held-chunk-count) pairs (omitted pairs = full).
    block_chunks: int = 0
    chunk_root: bytes | None = None
    prefix_votes: tuple[tuple[NodeId, int], ...] = ()
    #: Lazily computed digest cache (performance: digests are requested on
    #: every ECHO-quorum check).  Not part of equality or repr.
    _digest_cache: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily computed parents() cache: hot loops (prefix tracking, history
    #: walks) call it per delivery, and concatenating two tuples per call is
    #: measurable there.  Not part of equality or repr.
    _parents_cache: "tuple[VertexRef, ...] | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily computed key and ref() caches: every node's DagStore keys its
    #: tables by ``key`` and builds its edges from ``ref()``, so computing
    #: them once per vertex lets all n stores share one tuple and one ref
    #: (docs/PERFORMANCE.md, "ninth round").  Not part of equality or repr.
    _key_cache: "tuple[Round, NodeId] | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _ref_cache: VertexRef | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily computed edge_masks() cache: every node's DagStore walks these
    #: masks, so computing them once per vertex lets all n stores share one
    #: int and one tuple (docs/PERFORMANCE.md, "twelfth round").  Not part
    #: of equality or repr.
    _masks_cache: "tuple[int, WeakLevels] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.round < GENESIS_ROUND:
            raise DagError(f"negative round {self.round}")
        for ref in self.strong_edges:
            if ref.round != self.round - 1:
                raise DagError(
                    f"strong edge to round {ref.round} from round {self.round}"
                )
        for ref in self.weak_edges:
            if ref.round >= self.round - 1:
                raise DagError(
                    f"weak edge to round {ref.round} from round {self.round}"
                )
        if self.block_chunks:
            if self.block_digest is None:
                raise DagError("chunked vertex must carry a block digest")
            if self.chunk_root is None:
                raise DagError("chunked vertex must carry a chunk root")
        elif self.chunk_root is not None:
            raise DagError("chunk_root requires block_chunks")

    def vertex_digest(self) -> bytes:
        cached = self._digest_cache
        if cached is not None:
            return cached
        # parents() is strong edges then weak edges, so feeding the cached
        # concatenation keeps the digest inputs bit-identical.
        parts = [
            b"vertex",
            self.round,
            self.source,
            self.block_digest if self.block_digest is not None else b"",
            *[e.digest for e in self.parents()],
        ]
        # Prefix-mode fields are appended only when set, so unchunked
        # vertices keep their historical digests bit for bit.
        if self.block_chunks:
            parts += (b"chunks", self.block_chunks, self.chunk_root)
        if self.prefix_votes:
            parts.append(b"votes")
            for voter, held in self.prefix_votes:
                parts += (voter, held)
        value = digest(*parts)
        object.__setattr__(self, "_digest_cache", value)
        return value

    def ref(self) -> VertexRef:
        cached = self._ref_cache
        if cached is None:
            cached = VertexRef(self.round, self.source, self.vertex_digest())
            object.__setattr__(self, "_ref_cache", cached)
        return cached

    @property
    def key(self) -> tuple[Round, NodeId]:
        cached = self._key_cache
        if cached is None:
            cached = (self.round, self.source)
            object.__setattr__(self, "_key_cache", cached)
        return cached

    def parents(self) -> tuple[VertexRef, ...]:
        cached = self._parents_cache
        if cached is None:
            cached = self.strong_edges + self.weak_edges
            object.__setattr__(self, "_parents_cache", cached)
        return cached

    def edge_masks(self) -> tuple[int, WeakLevels]:
        """(strong bitmask over round-1 sources, weak masks grouped by round)."""
        cached = self._masks_cache
        if cached is None:
            strong = 0
            for ref in self.strong_edges:
                strong |= 1 << ref.source
            weak: dict[Round, int] = {}
            for ref in self.weak_edges:
                weak[ref.round] = weak.get(ref.round, 0) | (1 << ref.source)
            cached = (strong, tuple(weak.items()))
            object.__setattr__(self, "_masks_cache", cached)
        return cached

    def wire_size(self) -> int:
        size = sizes.HEADER_SIZE + sizes.HASH_SIZE  # header + block digest
        size += (len(self.strong_edges) + len(self.weak_edges)) * sizes.VERTEX_REF_SIZE
        if self.nvc is not None:
            size += getattr(self.nvc, "wire_size", lambda: sizes.HASH_SIZE)()
        if self.tc is not None:
            size += getattr(self.tc, "wire_size", lambda: sizes.HASH_SIZE)()
        if self.block_chunks:
            size += 2 + sizes.HASH_SIZE  # chunk count + chunk root
        size += len(self.prefix_votes) * 6  # (voter, held-count) pairs
        return size

    # RBC payload protocol --------------------------------------------------

    def payload_digest(self) -> bytes:
        return self.vertex_digest()


def genesis_vertex(source: NodeId) -> Vertex:
    """The synthetic round-0 vertex every node starts with for ``source``."""
    return Vertex(
        round=GENESIS_ROUND,
        source=source,
        block_digest=None,
        strong_edges=(),
        weak_edges=(),
    )
