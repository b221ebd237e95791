"""Symmetric and hybrid encryption used by the trading pipeline.

Symmetric leg: AES-256-GCM under a deterministic nonce made of a 4-byte
layer tag and the shard's 8-byte big-endian position, a fixed field plus an
invocation counter as in NIST SP 800-38D section 8.2.1.  The nonce reads no
plaintext, so sealing is one AES pass written straight into the output.  It
is safe only while a key seals at most one plaintext per (tag, position):
each K_i seals one shard and each provider key one package, every key is
bound to the data set it seals, and a layer that re-seals under a used key
takes its own tag.  Hybrid leg: X25519 key agreement with an ephemeral key
derived deterministically from the recipient key and the wrapped key,
sealing exactly one 32-byte key under AES-256-GCM.  A blob that does not
unwrap to one 32-byte key, whatever its length or authentication,
surfaces as :class:`DecryptError`; the appeal arbitration and the
consumer both rely on that one rule to judge a posted key.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import metrics
from .errors import DecryptError, InvalidInput

KEY_SIZE = 32
NONCE_SIZE = 12
TAG_SIZE = 16
LAYER_TAG_SIZE = 4
OVERHEAD = NONCE_SIZE + TAG_SIZE  # ciphertext length minus plaintext length


def _sha256(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


@dataclass(frozen=True)
class KeyPair:
    """X25519 key pair; both halves are raw 32-byte strings."""

    public: bytes
    private: bytes


def derive_keys(master: bytes, n: int) -> list[bytes]:
    """Per-shard keys K_i = H(master || i); prefix-consistent in n."""
    if len(master) != KEY_SIZE:
        raise InvalidInput("master key must be 32 bytes")
    if n < 1:
        raise InvalidInput("key count must be >= 1")
    return [_sha256(master, i.to_bytes(8, "big")) for i in range(n)]


def sym_encrypt(key: bytes, plaintext: bytes, layer: bytes, position: int) -> bytearray:
    """AES-256-GCM seal under the nonce ``layer || position``.

    The ciphertext layout is nonce || body || tag, written into one buffer.
    """
    if len(key) != KEY_SIZE:
        raise InvalidInput("symmetric key must be 32 bytes")
    if len(layer) != LAYER_TAG_SIZE:
        raise InvalidInput(f"layer tag must be {LAYER_TAG_SIZE} bytes")
    if not 0 <= position < 1 << 64:
        raise InvalidInput("position must be in [0, 2**64)")
    metrics.record("sym_encryptions")
    nonce = layer + position.to_bytes(8, "big")
    out = bytearray(OVERHEAD + len(plaintext))
    out[:NONCE_SIZE] = nonce
    AESGCM(key).encrypt_into(nonce, plaintext, None, memoryview(out)[NONCE_SIZE:])
    return out


def sym_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Open a ``sym_encrypt`` ciphertext; the nonce is read from its head."""
    if len(key) != KEY_SIZE:
        raise InvalidInput("symmetric key must be 32 bytes")
    metrics.record("sym_decryptions")
    if len(ciphertext) < OVERHEAD:
        raise DecryptError("ciphertext too short")
    view = memoryview(ciphertext)  # slices without copying the body
    try:
        return AESGCM(key).decrypt(view[:NONCE_SIZE], view[NONCE_SIZE:], None)
    except InvalidTag as exc:
        raise DecryptError("authentication failed") from exc


def pk_keygen(seed: bytes) -> KeyPair:
    """Deterministic key pair from an arbitrary-length seed."""
    private = X25519PrivateKey.from_private_bytes(_sha256(b"keygen", seed))
    return KeyPair(
        public=private.public_key().public_bytes_raw(),
        private=private.private_bytes_raw(),
    )


def public_key_of(private: bytes) -> bytes:
    return X25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()


def pk_encrypt(public: bytes, key: bytes) -> bytes:
    """ECIES-style wrap of one 32-byte key: ephemeral pub || nonce || AES-GCM body."""
    if len(key) != KEY_SIZE:
        raise InvalidInput("hybrid encryption wraps one 32-byte key")
    metrics.record("asym_encryptions")
    eph = X25519PrivateKey.from_private_bytes(_sha256(b"eph", public, key))
    shared = eph.exchange(X25519PublicKey.from_public_bytes(public))
    wrap_key = _sha256(b"wrap", shared)
    nonce = _sha256(b"wrapnonce", shared, key)[:NONCE_SIZE]
    body = AESGCM(wrap_key).encrypt(nonce, key, None)
    return eph.public_key().public_bytes_raw() + nonce + body


def pk_decrypt(private: bytes, ciphertext: bytes) -> bytes:
    """Unwrap a ``pk_encrypt`` ciphertext to its 32-byte key.

    Anything that does not unwrap to one 32-byte key raises
    :class:`DecryptError`: this is the one rule for a usable posted key.
    """
    metrics.record("asym_decryptions")
    if len(ciphertext) != 32 + OVERHEAD + KEY_SIZE:  # ephemeral public key, sealed key
        raise DecryptError("not a wrapped 32-byte key")
    eph_pub, nonce, body = (
        ciphertext[:32],
        ciphertext[32 : 32 + NONCE_SIZE],
        ciphertext[32 + NONCE_SIZE :],
    )
    try:
        sk = X25519PrivateKey.from_private_bytes(private)
        shared = sk.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        wrap_key = _sha256(b"wrap", shared)
        return AESGCM(wrap_key).decrypt(nonce, body, None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptError("hybrid decryption failed") from exc
