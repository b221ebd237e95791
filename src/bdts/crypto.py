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

Every seeded byte the package draws (benchmark input, scenario input, a
cheater's garbage) is an AES-256-CTR keystream from ``seeded_bytes``.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import metrics
from .errors import DecryptError, InvalidInput

KEY_SIZE = 32
NONCE_SIZE = 12
TAG_SIZE = 16
LAYER_TAG_SIZE = 4
OVERHEAD = NONCE_SIZE + TAG_SIZE  # ciphertext length minus plaintext length
_KEYSTREAM_CHUNK = 1 << 20  # zero input reused for each slice of seeded_bytes


def _sha256(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def seeded_bytes(size: int, *label) -> bytearray:
    """``size`` incompressible bytes fixed by ``label``: the AES-256-CTR
    keystream under the key sha256(repr(label)), several times faster than
    ``random.randbytes``.  Records no op.

    The keystream is written straight into the one output buffer, a chunk at
    a time; CTR carries its counter across calls, so the bytes do not depend
    on the chunk size."""
    key = _sha256(repr(label).encode())
    keystream = Cipher(algorithms.AES(key), modes.CTR(bytes(16))).encryptor()
    out = bytearray(size)
    zeros = memoryview(bytes(min(size, _KEYSTREAM_CHUNK)))
    view = memoryview(out)
    for off in range(0, size, _KEYSTREAM_CHUNK):
        chunk = view[off : off + _KEYSTREAM_CHUNK]
        keystream.update_into(zeros[: len(chunk)], chunk)
    return out


@dataclass(frozen=True)
class KeyPair:
    """X25519 key pair: both halves as raw 32-byte strings, and the private
    half parsed once, for ``pk_decrypt``."""

    public: bytes
    private: bytes
    key: X25519PrivateKey = field(repr=False, compare=False)


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


def private_key(private: bytes) -> X25519PrivateKey:
    """Parse a raw X25519 private key.  Parsing derives the public key, one
    scalar multiplication, so a holder parses each key once and passes the
    object on.  Anything but 32 ``bytes`` raises :class:`InvalidInput`."""
    if not isinstance(private, bytes) or len(private) != KEY_SIZE:
        raise InvalidInput(f"an X25519 private key is {KEY_SIZE} bytes")
    return X25519PrivateKey.from_private_bytes(private)


def pk_keygen(seed: bytes) -> KeyPair:
    """Deterministic key pair from an arbitrary-length seed."""
    private = _sha256(b"keygen", seed)
    key = private_key(private)
    return KeyPair(public=public_key_of(key), private=private, key=key)


def public_key_of(private: X25519PrivateKey) -> bytes:
    return private.public_key().public_bytes_raw()


_PROBE = X25519PrivateKey.from_private_bytes(_sha256(b"probe"))


def check_public_key(public: bytes) -> None:
    """Raise :class:`InvalidInput` unless ``public`` is 32 bytes that X25519
    accepts as a recipient: one trial exchange against a fixed key refuses a
    low-order point (RFC 7748 section 6.1; the all-zero key is one), whose
    every ``pk_encrypt`` would raise.  Records no op."""
    if not isinstance(public, bytes) or len(public) != KEY_SIZE:
        raise InvalidInput(f"an X25519 public key is {KEY_SIZE} bytes")
    try:
        _PROBE.exchange(X25519PublicKey.from_public_bytes(public))
    except ValueError as exc:
        raise InvalidInput("X25519 refuses a low-order public key") from exc


def pk_encrypt(public: bytes, key: bytes) -> bytes:
    """ECIES-style wrap of one 32-byte key: ephemeral pub || nonce || AES-GCM body.

    A recipient key that is not 32 bytes, or a low-order point that X25519
    refuses (RFC 7748 section 6.1; the all-zero key is one), raises
    :class:`InvalidInput`."""
    if len(key) != KEY_SIZE:
        raise InvalidInput("hybrid encryption wraps one 32-byte key")
    if not isinstance(public, bytes) or len(public) != KEY_SIZE:
        raise InvalidInput(f"an X25519 public key is {KEY_SIZE} bytes")
    metrics.record("asym_encryptions")
    eph = X25519PrivateKey.from_private_bytes(_sha256(b"eph", public, key))
    try:
        shared = eph.exchange(X25519PublicKey.from_public_bytes(public))
    except ValueError as exc:
        raise InvalidInput("X25519 refuses a low-order public key") from exc
    wrap_key = _sha256(b"wrap", shared)
    nonce = _sha256(b"wrapnonce", shared, key)[:NONCE_SIZE]
    body = AESGCM(wrap_key).encrypt(nonce, key, None)
    return eph.public_key().public_bytes_raw() + nonce + body


def pk_decrypt(private: X25519PrivateKey, ciphertext: bytes) -> bytes:
    """Unwrap a ``pk_encrypt`` ciphertext to its 32-byte key, under a key
    that ``private_key`` parsed.

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
        shared = private.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        wrap_key = _sha256(b"wrap", shared)
        return AESGCM(wrap_key).decrypt(nonce, body, None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptError("hybrid decryption failed") from exc
