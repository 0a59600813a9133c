"""Tests for the PoA dissemination layer."""

import pytest

from repro.committees import ClanConfig
from repro.crypto.signatures import Pki, Signature
from repro.dag.block import Block
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.errors import ConsensusError
from repro.sim import Simulator
from repro.strawman.poa import PoaAckMsg, PoaDisseminator, ack_statement


def build(cfg=None):
    cfg = cfg or ClanConfig.single_clan(10, 5, seed=1)
    sim = Simulator()
    net = Network(sim, cfg.n, latency=UniformLatencyModel(0.05))
    pki = Pki(cfg.n, seed=1)
    poas = {i: [] for i in range(cfg.n)}
    modules = []
    for i in range(cfg.n):
        module = PoaDisseminator(i, cfg, net, pki, lambda p, i=i: poas[i].append(p))
        net.register(i, lambda src, msg, m=module: m.on_message(src, msg))
        modules.append(module)
    return cfg, sim, net, pki, poas, modules


def make_block(proposer, txns=5):
    return Block.synthetic(proposer, 1, txn_count=txns, created_at=0.0)


def test_poa_forms_after_fc_plus_1_acks():
    cfg, sim, net, pki, poas, modules = build()
    proposer = sorted(cfg.clan(0))[0]
    block = make_block(proposer)
    modules[proposer].disseminate(block)
    sim.run(until=5.0)
    assert len(poas[proposer]) == 1
    poa = poas[proposer][0]
    assert poa.block_digest == block.payload_digest()
    assert poa.signers.bit_count() == cfg.clan_client_quorum(0)
    assert poa.verify(pki, cfg)
    # PoA formed at 2δ (push + ack round trip).
    assert sim.now >= 0.1


def test_clan_members_store_the_block():
    cfg, sim, net, pki, poas, modules = build()
    proposer = sorted(cfg.clan(0))[0]
    block = make_block(proposer)
    modules[proposer].disseminate(block)
    sim.run(until=5.0)
    for member in cfg.clan(0):
        assert block.payload_digest() in modules[member].stored
    for outsider in set(range(cfg.n)) - cfg.clan(0):
        assert block.payload_digest() not in modules[outsider].stored


def test_non_proposer_cannot_disseminate():
    cfg, sim, net, pki, poas, modules = build()
    outsider = next(i for i in range(cfg.n) if i not in cfg.clan(0))
    with pytest.raises(ConsensusError):
        modules[outsider].disseminate(make_block(outsider))


def test_poa_with_insufficient_acks_never_forms():
    cfg, sim, net, pki, poas, modules = build()
    proposer = sorted(cfg.clan(0))[0]
    # Crash all other clan members: only the proposer's self-ack remains.
    for member in cfg.clan(0):
        if member != proposer:
            net.crash(member)
    modules[proposer].disseminate(make_block(proposer))
    sim.run(until=5.0)
    assert poas[proposer] == []


def test_forged_ack_rejected():
    cfg, sim, net, pki, poas, modules = build()
    proposer = sorted(cfg.clan(0))[0]
    members = sorted(cfg.clan(0))
    block = make_block(proposer)
    digest = block.payload_digest()
    # Crash everyone else so only forged acks could complete the PoA.
    for member in members:
        if member != proposer:
            net.crash(member)
    modules[proposer].disseminate(block)
    forged = Signature(members[1], ack_statement(digest), b"\x00" * 16)
    modules[proposer]._on_ack(members[1], PoaAckMsg(digest, forged))
    sim.run(until=2.0)
    assert poas[proposer] == []


def test_poa_verify_rejects_wrong_clan_signers():
    cfg, sim, net, pki, poas, modules = build()
    proposer = sorted(cfg.clan(0))[0]
    modules[proposer].disseminate(make_block(proposer))
    sim.run(until=5.0)
    poa = poas[proposer][0]
    # Re-target the PoA at a config where those signers are no clan.
    other_cfg = ClanConfig.single_clan(10, 5, seed=99)
    if other_cfg.clan(0) != cfg.clan(0):
        assert not poa.verify(pki, other_cfg)


def test_multi_clan_dissemination_stays_local():
    cfg = ClanConfig.multi_clan(12, 3, seed=2)
    cfg, sim, net, pki, poas, modules = build(cfg)
    for clan_idx in range(3):
        proposer = sorted(cfg.clan(clan_idx))[0]
        modules[proposer].disseminate(make_block(proposer, txns=3))
    sim.run(until=5.0)
    for clan_idx in range(3):
        proposer = sorted(cfg.clan(clan_idx))[0]
        assert len(poas[proposer]) == 1
        assert poas[proposer][0].clan_idx == clan_idx
