"""Propagation-latency models, including the paper's Table 1 GCP matrix.

The paper distributes nodes evenly across five GCP regions and reports the
round-trip ping latencies between them (Table 1).  :class:`GeoLatencyModel`
uses one-way delays of RTT/2 plus multiplicative jitter, with nodes assigned
to regions round-robin exactly as in the paper's setup.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import inf

from ..errors import ConfigError
from ..sim.rng import make_rng
from ..types import NodeId

#: Region names from Table 1, in the paper's order.
GCP_REGIONS = (
    "us-east1",
    "us-west1",
    "europe-north1",
    "asia-northeast1",
    "australia-southeast1",
)

#: Round-trip ping latencies in milliseconds between GCP regions (Table 1).
GCP_RTT_MS: dict[tuple[str, str], float] = {}


def _fill_gcp_matrix() -> None:
    rows = (
        (0.75, 66.14, 114.75, 160.28, 197.98),
        (66.15, 0.66, 158.13, 89.56, 138.33),
        (115.40, 158.38, 0.69, 245.15, 295.13),
        (159.89, 90.05, 246.01, 0.66, 105.58),
        (197.60, 139.02, 294.36, 108.26, 0.58),
    )
    for i, src in enumerate(GCP_REGIONS):
        for j, dst in enumerate(GCP_REGIONS):
            GCP_RTT_MS[(src, dst)] = rows[i][j]


_fill_gcp_matrix()


def round_robin_regions(n: int, regions: tuple[str, ...] = GCP_REGIONS) -> list[str]:
    """Assign ``n`` nodes to regions round-robin ('distributed evenly')."""
    return [regions[i % len(regions)] for i in range(n)]


class LatencyModel(ABC):
    """Computes the one-way propagation delay between two nodes."""

    @abstractmethod
    def delay(self, src: NodeId, dst: NodeId) -> float:
        """One-way delay in seconds for a message from ``src`` to ``dst``."""

    @abstractmethod
    def delay_spec(self, n: int) -> tuple:
        """The network's hot-path form of :meth:`delay` over ``n`` nodes.

        One of three shapes, each naming the float expression the network
        evaluates per delivery:

        * ``("table", rows, 0.0, None)`` — ``rows[src][dst]``, no randomness;
        * ``("mul", rows, jitter, draw)`` —
          ``rows[src][dst] * (1.0 + draw() * jitter)``;
        * ``("add", base, jitter, draw)`` — ``base + draw() * jitter``.

        ``draw`` is the model's RNG ``random`` bound method.  The network
        inlines the expression with exactly one draw per delivery, in
        destination order, so runs are bit-identical to calling
        :meth:`delay`; a jitter-free model must use ``"table"`` (precomputing
        a jittered model would change which draws each message consumes).
        """

    def mean_delay(self, n: int) -> float:
        """Mean one-way delay over all ordered pairs (used by the analytical
        model); subclasses may override with a cheaper computation."""
        total = 0.0
        pairs = 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += self.delay(i, j)
                    pairs += 1
        return total / pairs if pairs else 0.0


class UniformLatencyModel(LatencyModel):
    """Constant one-way delay with optional jitter; handy for unit tests."""

    def __init__(self, base: float = 0.05, jitter: float = 0.0, seed: int = 0) -> None:
        if not (0.0 <= base < inf and 0.0 <= jitter < inf):
            raise ConfigError(
                f"latency/jitter must be finite and non-negative, got {base}/{jitter}"
            )
        self._base = base
        self._jitter = jitter
        # Jitter-free models never draw: deriving a stream anyway would
        # register a phantom consumer with the RNG-collision sanitizer.
        self._rng = make_rng(seed, "uniform-latency") if jitter else None

    def delay(self, src: NodeId, dst: NodeId) -> float:
        if self._jitter == 0.0:
            return self._base
        return self._base + self._rng.random() * self._jitter

    def delay_spec(self, n: int) -> tuple:
        if self._jitter == 0.0:
            return ("table", [[self._base] * n for _ in range(n)], 0.0, None)
        return ("add", self._base, self._jitter, self._rng.random)

    def mean_delay(self, n: int) -> float:
        return self._base + self._jitter / 2.0


class GeoLatencyModel(LatencyModel):
    """One-way delays from a region RTT matrix with multiplicative jitter.

    Delay(src → dst) = RTT(region(src), region(dst)) / 2 × (1 + U[0, jitter)).
    Intra-machine delivery (``src == dst``) uses the intra-region RTT, which in
    Table 1 is sub-millisecond.
    """

    def __init__(
        self,
        node_regions: list[str],
        rtt_ms: dict[tuple[str, str], float] | None = None,
        jitter: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= jitter < inf:
            raise ConfigError(f"jitter must be finite and non-negative, got {jitter}")
        rtts = GCP_RTT_MS if rtt_ms is None else rtt_ms
        self._regions = list(node_regions)
        self._jitter = jitter
        self._rng = make_rng(seed, "geo-latency") if jitter else None
        # Pre-resolve per-pair one-way base delays in seconds.
        self._base: list[list[float]] = []
        for src_region in self._regions:
            row = []
            for dst_region in self._regions:
                try:
                    rtt = rtts[(src_region, dst_region)]
                except KeyError as exc:
                    raise ConfigError(f"no RTT entry for {src_region}->{dst_region}") from exc
                if not 0.0 <= rtt < inf:
                    raise ConfigError(
                        f"RTT for {src_region}->{dst_region} must be finite and "
                        f"non-negative, got {rtt}"
                    )
                row.append(rtt / 2.0 / 1000.0)
            self._base.append(row)
        self._mean = None

    @property
    def node_regions(self) -> list[str]:
        return list(self._regions)

    def delay(self, src: NodeId, dst: NodeId) -> float:
        base = self._base[src][dst]
        if self._jitter == 0.0:
            return base
        return base * (1.0 + self._rng.random() * self._jitter)

    def delay_spec(self, n: int) -> tuple:
        rows = [row[:n] for row in self._base[:n]]
        if self._jitter == 0.0:
            return ("table", rows, 0.0, None)
        return ("mul", rows, self._jitter, self._rng.random)

    def mean_delay(self, n: int | None = None) -> float:
        n = len(self._regions) if n is None else n
        total = 0.0
        pairs = 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += self._base[i][j]
                    pairs += 1
        mean = total / pairs if pairs else 0.0
        return mean * (1.0 + self._jitter / 2.0)


def gcp_latency_model(n: int, jitter: float = 0.05, seed: int = 0) -> GeoLatencyModel:
    """The paper's deployment: ``n`` nodes spread evenly over five GCP regions."""
    return GeoLatencyModel(round_robin_regions(n), jitter=jitter, seed=seed)
