"""Symmetric and hybrid encryption used by the trading pipeline.

Symmetric leg: AES-256-GCM with a nonce derived from (key, plaintext) so
that the whole pipeline is replay-deterministic.  Hybrid leg: X25519 key
agreement with an ephemeral key derived deterministically from the
recipient key and message, wrapping the payload under AES-256-GCM.
Authentication failures always surface as :class:`DecryptError`, which the
appeal arbitration relies on to detect wrong keys.
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


def sym_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """AES-256-GCM seal; ciphertext layout is nonce || body || tag."""
    if len(key) != KEY_SIZE:
        raise InvalidInput("symmetric key must be 32 bytes")
    metrics.record("sym_encryptions")
    nonce = _sha256(b"nonce", key, plaintext)[:NONCE_SIZE]
    return nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def sym_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    if len(key) != KEY_SIZE:
        raise InvalidInput("symmetric key must be 32 bytes")
    metrics.record("sym_decryptions")
    if len(ciphertext) < NONCE_SIZE + 16:
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


def pk_encrypt(public: bytes, message: bytes) -> bytes:
    """ECIES-style wrap: ephemeral pub || AES-GCM body.

    Intended for short key material (<= 64 bytes).
    """
    if len(message) > 64:
        raise InvalidInput("hybrid encryption is for key material (<= 64 bytes)")
    metrics.record("asym_encryptions")
    eph = X25519PrivateKey.from_private_bytes(_sha256(b"eph", public, message))
    shared = eph.exchange(X25519PublicKey.from_public_bytes(public))
    wrap_key = _sha256(b"wrap", shared)
    nonce = _sha256(b"wrapnonce", shared, message)[:NONCE_SIZE]
    body = AESGCM(wrap_key).encrypt(nonce, message, None)
    return eph.public_key().public_bytes_raw() + nonce + body


def pk_decrypt(private: bytes, ciphertext: bytes) -> bytes:
    metrics.record("asym_decryptions")
    if len(ciphertext) < 32 + NONCE_SIZE + 16:
        raise DecryptError("ciphertext too short")
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
