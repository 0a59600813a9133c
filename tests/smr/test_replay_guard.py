"""Model tests for the dedup window and the transaction replay guard.

:class:`~repro.net.transport.SeqWindow` must accept exactly the seqs not
accepted before, and :class:`~repro.smr.state_machine.ReplayGuard` must
answer ``first(txn_id)`` exactly as "not in a set of every id seen" does --
for client-issued ids in order, shuffled within a window, replayed before
and after the watermark passes them, and mixed with ids that only look
client-issued.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.transaction import Transaction
from repro.net.transport import SeqWindow
from repro.smr.state_machine import KvStateMachine, ReplayGuard

#: Ids that must not share a home with a client id: no number, a leading
#: zero, zero, an empty head, a head with a colon, a far-ahead number, and
#: a non-ASCII digit.
FOREIGN = (
    "t0", "t01", "a:0", "a:01", ":7", "a:b:3", "x:1000000000000", "a:\u0661",
)


def _shuffled_within(items, window, rng):
    """``items`` with each moved by less than ``window`` places."""
    keyed = sorted((i + rng.uniform(0, window), i) for i in range(len(items)))
    return [items[i] for _, i in keyed]


@st.composite
def id_streams(draw):
    """Client ids over a few heads, locally shuffled, with replays and the
    foreign ids mixed in (each foreign id at least once)."""
    rng = draw(st.randoms(use_true_random=False))
    heads = draw(st.lists(st.sampled_from(["a", "b", "c7", "a:b", ""]),
                          min_size=1, max_size=4, unique=True))
    counts = {head: draw(st.integers(0, 40)) for head in heads}
    order = [head for head in heads for _ in range(counts[head])]
    rng.shuffle(order)
    issued = {head: 0 for head in heads}
    stream = []
    for head in order:
        issued[head] += 1
        stream.append(f"{head}:{issued[head]}")
    window = draw(st.integers(1, 16))
    stream = _shuffled_within(stream, window, rng)
    for txn_id in FOREIGN:
        stream.insert(rng.randint(0, len(stream)), txn_id)
    for _ in range(draw(st.integers(0, 30))):
        # A replay lands anywhere after its original: close behind it (the
        # id is still above the watermark) or far later (passed by it).
        pos = rng.randrange(len(stream))
        stream.insert(rng.randint(pos + 1, len(stream)), stream[pos])
    return stream


@settings(max_examples=200, deadline=None)
@given(id_streams())
def test_first_is_not_seen_before(stream):
    guard, seen = ReplayGuard(), set()
    for txn_id in stream:
        assert guard.first(txn_id) == (txn_id not in seen), txn_id
        seen.add(txn_id)


def test_lookalike_ids_have_their_own_homes():
    # Past 18 digits an id goes to the set, so a number too long for int()
    # is no error.
    ids = ("a:1", *FOREIGN, "a:1000000000000", "a:1" + "0" * 18, "a:" + "7" * 5000)
    guard = ReplayGuard()
    for txn_id in ids:
        assert guard.first(txn_id), txn_id
    for txn_id in ids:
        assert not guard.first(txn_id), txn_id


def test_far_ahead_id_keeps_its_home_when_the_floor_reaches_it():
    guard = ReplayGuard()
    assert guard.first("c:1000")
    for n in range(1, 1000):
        assert guard.first(f"c:{n}")
    assert not guard.first("c:1000")
    assert guard.first("c:1001")


def test_state_machine_applies_a_replayed_client_txn_once():
    sm = KvStateMachine()
    txns = [Transaction(txn_id=f"c:{n}", op=("incr", "k", 1)) for n in (2, 3, 1)]
    for txn in txns + txns:
        sm.apply(txn)
    assert sm.get("k") == 3 and sm.applied_count == 3


@st.composite
def seq_streams(draw):
    """Positive seqs: a locally shuffled run with gaps, then replays."""
    rng = draw(st.randoms(use_true_random=False))
    top = draw(st.integers(0, 60))
    loss = draw(st.sampled_from([0.0, 0.1]))
    seqs = [s for s in range(1, top + 1) if rng.random() >= loss]
    seqs = _shuffled_within(seqs, draw(st.integers(1, 12)), rng)
    for _ in range(draw(st.integers(0, 20)) if seqs else 0):
        pos = rng.randrange(len(seqs))
        seqs.insert(rng.randint(pos + 1, len(seqs)), seqs[pos])
    return seqs


@settings(max_examples=200, deadline=None)
@given(seq_streams())
def test_seq_window_matches_a_set_of_accepted_seqs(seqs):
    window, seen = SeqWindow(), set()
    for seq in seqs:
        assert window.accept(seq) == (seq not in seen), seq
        seen.add(seq)
        floor = 0
        while floor + 1 in seen:
            floor += 1
        assert window.contiguous == floor
        assert window.sparse == {s for s in seen if s > floor}
