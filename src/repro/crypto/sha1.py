"""SHA-1 (FIPS 180-1), implemented from the specification.

SHA-1 is the measurement hash of the TPM v1.2 architecture: every PCR
extend, every SLB measurement, and every event-log entry in this
reproduction is a SHA-1 digest, exactly as in the paper.  (SHA-1's collision
weaknesses post-date the paper's threat model; we reproduce the system as
published.)

The :class:`SHA1` class is the from-spec reference implementation; the
one-shot :func:`sha1` helper — which carries all of the fleet's
measurement traffic — delegates to :mod:`hashlib`, pinned byte-equal to
the reference by the test suite.
"""

from __future__ import annotations

import hashlib as _hashlib
import struct

_H0 = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_MASK32 = 0xFFFFFFFF


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK32


class SHA1:
    """Incremental SHA-1 with the familiar ``update``/``digest`` interface."""

    digest_size = 20
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(_H0)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "SHA1":
        """Absorb ``data``; returns self for chaining."""
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def _compress(self, block: bytes) -> None:
        # The round structure below is the FIPS 180-1 algorithm with the
        # four round families unrolled into separate loops and the rotate
        # inlined — pure-Python SHA-1 is the simulation's hottest path
        # (every SKINIT hashes up to 64 KB).
        w = list(struct.unpack(">16I", block))
        append = w.append
        for t in range(16, 80):
            x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]
            append(((x << 1) | (x >> 31)) & 0xFFFFFFFF)
        a, b, c, d, e = self._h
        for t in range(0, 20):
            tmp = ((((a << 5) | (a >> 27)) + ((b & c) | (~b & d)) + e
                    + 0x5A827999 + w[t]) & _MASK32)
            e, d, c, b, a = d, c, ((b << 30) | (b >> 2)) & _MASK32, a, tmp
        for t in range(20, 40):
            tmp = ((((a << 5) | (a >> 27)) + (b ^ c ^ d) + e
                    + 0x6ED9EBA1 + w[t]) & _MASK32)
            e, d, c, b, a = d, c, ((b << 30) | (b >> 2)) & _MASK32, a, tmp
        for t in range(40, 60):
            tmp = ((((a << 5) | (a >> 27)) + ((b & c) | (b & d) | (c & d)) + e
                    + 0x8F1BBCDC + w[t]) & _MASK32)
            e, d, c, b, a = d, c, ((b << 30) | (b >> 2)) & _MASK32, a, tmp
        for t in range(60, 80):
            tmp = ((((a << 5) | (a >> 27)) + (b ^ c ^ d) + e
                    + 0xCA62C1D6 + w[t]) & _MASK32)
            e, d, c, b, a = d, c, ((b << 30) | (b >> 2)) & _MASK32, a, tmp
        self._h = [
            (self._h[0] + a) & _MASK32,
            (self._h[1] + b) & _MASK32,
            (self._h[2] + c) & _MASK32,
            (self._h[3] + d) & _MASK32,
            (self._h[4] + e) & _MASK32,
        ]

    def digest(self) -> bytes:
        """Return the 20-byte digest without disturbing internal state."""
        clone = SHA1()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        # Padding: 0x80, zeros, then the 64-bit bit length.
        pad_len = (55 - clone._length) % 64
        padding = b"\x80" + b"\x00" * pad_len + struct.pack(">Q", clone._length * 8)
        clone._length += len(padding)
        clone._buffer += padding
        while len(clone._buffer) >= 64:
            clone._compress(clone._buffer[:64])
            clone._buffer = clone._buffer[64:]
        return struct.pack(">5I", *clone._h)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "SHA1":
        """Return an independent copy of the running hash state."""
        clone = SHA1()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of ``data``."""
    return _hashlib.sha1(data).digest()
