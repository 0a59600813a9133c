"""Property test: RBC phase spans form a well-nested, contiguous chain.

For every delivered (node, origin, round) instance of classic Bracha RBC the
trace must contain at most one span per phase, the phases must tile the
end-to-end span without gaps or overlaps (VAL→ECHO→READY→deliver), and every
phase span must lie inside ``rbc.e2e``.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.obs import Tracer
from repro.obs.tracer import iter_spans
from repro.rbc.base import Membership
from repro.rbc.plain import PlainRbc
from repro.sim import Simulator

PHASES = ("rbc.val_to_echo", "rbc.echo_to_ready", "rbc.ready_to_deliver")


def run_bracha(n, seed, senders):
    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now)
    net = Network(
        sim, n, latency=UniformLatencyModel(0.03, jitter=0.02, seed=seed), tracer=tracer
    )
    deliveries = {i: [] for i in range(n)}
    modules = []
    for i in range(n):
        def cb(d, i=i):
            deliveries[i].append(d)
        modules.append(
            PlainRbc(i, Membership.whole_tribe(n), net, sim, None, cb, "bracha")
        )
    for round_, sender in enumerate(senders, start=1):
        modules[sender % n].broadcast(f"payload-{round_}".encode(), round_)
    sim.run(max_events=2_000_000)
    return tracer, deliveries


world = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=4, max_value=10),
        "seed": st.integers(min_value=0, max_value=10_000),
        "senders": st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=3
        ),
    }
)


@settings(max_examples=25, deadline=None)
@given(world=world)
def test_rbc_span_nesting_is_well_formed(world):
    tracer, deliveries = run_bracha(world["n"], world["seed"], world["senders"])

    by_instance = defaultdict(dict)
    for span in iter_spans(tracer.records()):
        if not span.name.startswith("rbc."):
            continue
        key = (span.node, span.attrs["origin"], span.attrs["round"])
        # Integrity: at most one span of each name per instance per node.
        assert span.name not in by_instance[key], (span.name, key)
        by_instance[key][span.name] = span

    # Every delivery produced an e2e span, and vice versa.
    delivered_keys = {
        (node, d.origin, d.round)
        for node, ds in deliveries.items()
        for d in ds
    }
    e2e_keys = {k for k, spans in by_instance.items() if "rbc.e2e" in spans}
    assert e2e_keys == delivered_keys

    for key, spans in by_instance.items():
        for span in spans.values():
            assert span.start <= span.end, (key, span)
        e2e = spans.get("rbc.e2e")
        if e2e is None:
            continue  # phase spans of an undelivered instance (none expected)
        # Phase spans nest inside the end-to-end span.
        for name in PHASES:
            phase = spans.get(name)
            if phase is not None:
                assert e2e.start <= phase.start and phase.end <= e2e.end, (key, name)
        # The chain is contiguous: each phase starts where the previous ended.
        chain = [spans[name] for name in PHASES if name in spans]
        assert chain, f"delivered instance {key} has no phase spans"
        assert chain[0].start == e2e.start
        assert chain[-1].end == e2e.end
        for left, right in zip(chain, chain[1:]):
            assert left.end == right.start, (key, left.name, right.name)
