"""A posted key a cheating payee can build without ``crypto.pk_encrypt``."""
import hashlib

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM


def forged_wrap(public: bytes, message: bytes) -> bytes:
    """``message`` of any length in ``crypto.pk_encrypt``'s layout: an
    ephemeral X25519 public key, a nonce, then the AES-GCM body under the
    key hashed from the shared secret.  ``pk_encrypt`` wraps 32-byte keys
    only; this wraps what it refuses, as a well-formed blob."""
    eph = X25519PrivateKey.from_private_bytes(hashlib.sha256(b"forged" + message).digest())
    shared = eph.exchange(X25519PublicKey.from_public_bytes(public))
    nonce = bytes(12)
    body = AESGCM(hashlib.sha256(b"wrap" + shared).digest()).encrypt(nonce, message, None)
    return eph.public_key().public_bytes_raw() + nonce + body
