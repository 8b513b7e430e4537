"""SHA-1 known-answer and behavioural tests."""

import hashlib

import pytest

from repro.crypto.sha1 import SHA1, sha1

# FIPS 180-1 / RFC 3174 known-answer vectors.
KAT = [
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
    (b"a" * 1_000_000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
]


@pytest.mark.parametrize("message,expected", KAT[:3])
def test_known_answer_vectors(message, expected):
    assert sha1(message).hex() == expected


def test_million_a_vector():
    assert sha1(KAT[3][0]).hex() == KAT[3][1]


@pytest.mark.parametrize(
    "data",
    [b"", b"x", b"block" * 100, bytes(range(256)) * 17, b"\x00" * 4096],
)
def test_matches_hashlib(data):
    assert sha1(data) == hashlib.sha1(data).digest()


def test_incremental_equals_one_shot():
    h = SHA1()
    h.update(b"hello ")
    h.update(b"world")
    assert h.digest() == sha1(b"hello world")


def test_incremental_odd_chunk_boundaries():
    data = bytes(range(256)) * 3
    h = SHA1()
    for i in range(0, len(data), 13):
        h.update(data[i : i + 13])
    assert h.digest() == hashlib.sha1(data).digest()


def test_digest_does_not_consume_state():
    h = SHA1(b"partial")
    first = h.digest()
    second = h.digest()
    assert first == second
    h.update(b"-more")
    assert h.digest() == sha1(b"partial-more")


def test_copy_is_independent():
    h = SHA1(b"shared-prefix")
    clone = h.copy()
    h.update(b"-a")
    clone.update(b"-b")
    assert h.digest() == sha1(b"shared-prefix-a")
    assert clone.digest() == sha1(b"shared-prefix-b")


def test_hexdigest_matches_digest():
    h = SHA1(b"hex")
    assert bytes.fromhex(h.hexdigest()) == h.digest()


def test_exact_block_boundary_padding():
    # 55, 56, 63, 64, 65 bytes straddle the padding edge cases.
    for n in (55, 56, 63, 64, 65, 119, 120):
        data = b"q" * n
        assert sha1(data) == hashlib.sha1(data).digest()


def test_digest_size_constant():
    assert SHA1.digest_size == 20
    assert len(sha1(b"anything")) == 20
