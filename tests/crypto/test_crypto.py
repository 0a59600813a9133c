"""Tests for hashing, signatures, BLS aggregation, quorum certificates."""

import pytest

from repro.crypto import (
    KeyPair,
    MultiSignature,
    Pki,
    Signature,
    aggregate,
    digest,
    digest_hex,
)
from repro.crypto.bls import find_invalid_signers, verify_aggregate
from repro.crypto.certificates import (
    build_certificate,
    require_valid_certificate,
    verify_certificate,
)
from repro.errors import CryptoError


def test_digest_deterministic():
    assert digest("a", 1) == digest("a", 1)
    assert len(digest("a")) == 32


def test_digest_injective_encoding():
    assert digest("ab", "c") != digest("a", "bc")
    assert digest(b"ab") != digest("ab")  # bytes vs repr of str differ


def test_digest_hex_matches():
    assert digest_hex("x") == digest("x").hex()


def test_sign_and_verify():
    pki = Pki(4, seed=1)
    d = digest("hello")
    sig = pki.key(2).sign(d)
    assert sig.signer == 2
    assert pki.verify(sig)


def test_forged_signer_rejected():
    pki = Pki(4, seed=1)
    d = digest("hello")
    sig = pki.key(2).sign(d)
    forged = Signature(signer=3, message_digest=d, tag=sig.tag)
    assert not pki.verify(forged)


def test_wrong_digest_rejected():
    pki = Pki(4, seed=1)
    sig = pki.key(0).sign(digest("a"))
    tampered = Signature(sig.signer, digest("b"), sig.tag)
    assert not pki.verify(tampered)


def test_unknown_signer_rejected():
    pki = Pki(4, seed=1)
    sig = Signature(99, digest("a"), b"\x00" * 16)
    assert not pki.verify(sig)


def test_sign_requires_bytes():
    key = KeyPair(0, b"s" * 32)
    with pytest.raises(CryptoError):
        key.sign("not-bytes")


def test_different_seeds_different_keys():
    d = digest("m")
    assert Pki(4, seed=1).key(0).sign(d).tag != Pki(4, seed=2).key(0).sign(d).tag


def test_aggregate_and_verify():
    pki = Pki(7, seed=1)
    d = digest("block")
    sigs = [pki.key(i).sign(d) for i in range(5)]
    multi = aggregate(sigs)
    assert multi.signers == 0b11111  # the signer bitmap: parties 0-4
    assert verify_aggregate(pki, multi)


def test_aggregate_order_independent():
    pki = Pki(4, seed=1)
    d = digest("m")
    sigs = [pki.key(i).sign(d) for i in range(3)]
    assert aggregate(sigs).tag == aggregate(list(reversed(sigs))).tag


def test_aggregate_with_bad_signature_fails_verification():
    pki = Pki(4, seed=1)
    d = digest("m")
    good = [pki.key(i).sign(d) for i in range(2)]
    bad = Signature(3, d, b"\xff" * 16)
    multi = aggregate(good + [bad])
    assert not verify_aggregate(pki, multi)
    assert find_invalid_signers(pki, good + [bad]) == [3]


def test_aggregate_rejects_mixed_digests():
    pki = Pki(4, seed=1)
    with pytest.raises(CryptoError):
        aggregate([pki.key(0).sign(digest("a")), pki.key(1).sign(digest("b"))])


def test_aggregate_rejects_duplicates_and_empty():
    pki = Pki(4, seed=1)
    sig = pki.key(0).sign(digest("a"))
    with pytest.raises(CryptoError):
        aggregate([sig, sig])
    with pytest.raises(CryptoError):
        aggregate([])


def test_multisig_wire_size_uses_bitmap():
    multi = MultiSignature(digest("m"), frozenset({0, 1}), b"t" * 16)
    assert multi.wire_size(8) == 48 + 1
    assert multi.wire_size(9) == 48 + 2


def test_certificate_thresholds():
    pki = Pki(10, seed=1)
    d = digest("v")
    sigs = [pki.key(i).sign(d) for i in range(7)]
    cert = build_certificate(sigs)
    assert verify_certificate(pki, cert, quorum=7)
    assert not verify_certificate(pki, cert, quorum=8)


def test_certificate_clan_threshold():
    pki = Pki(10, seed=1)
    d = digest("v")
    clan = frozenset({0, 1, 2})
    sigs = [pki.key(i).sign(d) for i in (0, 1, 5, 6, 7)]
    cert = build_certificate(sigs)
    assert verify_certificate(pki, cert, quorum=5, clan=clan, clan_quorum=2)
    assert not verify_certificate(pki, cert, quorum=5, clan=clan, clan_quorum=3)


def test_require_valid_certificate_raises():
    pki = Pki(4, seed=1)
    cert = build_certificate([pki.key(0).sign(digest("v"))])
    with pytest.raises(CryptoError):
        require_valid_certificate(pki, cert, quorum=3)
