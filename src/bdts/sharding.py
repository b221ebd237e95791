"""Slot-sized sharding, per-shard encryption, and the provider re-encryption layer."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import crypto
from .errors import InvalidInput
from .merkle import MerkleTree, mtree

DEFAULT_SLOT = 1 << 20  # 1 MiB


def split(data: bytes, slot: int) -> list[bytes]:
    """Ceiling-division split; the last shard keeps its true length."""
    if slot < 1:
        raise InvalidInput("slot size must be >= 1")
    return [data[i : i + slot] for i in range(0, len(data), slot)] or [b""]


@dataclass(frozen=True)
class ShardSet:
    """A seller's data after sharding and per-shard encryption.

    ``tree_plain`` commits the plaintext shards (root r_d) and ``tree_enc``
    the encrypted shards (root r_ed).
    """

    n: int
    plain_shards: tuple[bytes, ...]
    enc_shards: tuple[bytes, ...]
    tree_plain: MerkleTree
    tree_enc: MerkleTree

    @property
    def root_plain(self) -> bytes:
        return self.tree_plain.root

    @property
    def root_enc(self) -> bytes:
        return self.tree_enc.root


@dataclass(frozen=True)
class ProviderPackage:
    """A provider's second encryption layer over the seller's encrypted shards."""

    key: bytes
    eed_shards: tuple[bytes, ...]
    tree_eed: MerkleTree

    @property
    def root(self) -> bytes:
        return self.tree_eed.root


def shard_encrypt(master: bytes, data: bytes, slot: int = DEFAULT_SLOT) -> ShardSet:
    """Split ``data`` into ceil(len/slot) shards and encrypt each under K_i."""
    if not data:
        raise InvalidInput("data must be non-empty")
    plain = split(data, slot)
    keys = crypto.derive_keys(master, len(plain))
    enc = [crypto.sym_encrypt(k, shard) for k, shard in zip(keys, plain)]
    return ShardSet(
        n=len(plain),
        plain_shards=tuple(plain),
        enc_shards=tuple(enc),
        tree_plain=mtree(plain),
        tree_enc=mtree(enc),
    )


def reassemble(shards: list[bytes]) -> bytes:
    """Concatenate shards in index order."""
    return b"".join(shards)


def provider_encrypt(enc_shards: list[bytes], sp_seed: bytes) -> ProviderPackage:
    """Re-encrypt the seller's shards under a provider key derived from ``sp_seed``."""
    if not enc_shards:
        raise InvalidInput("shard list must be non-empty")
    key = hashlib.sha256(b"provider-key" + sp_seed).digest()
    eed = [crypto.sym_encrypt(key, shard) for shard in enc_shards]
    return ProviderPackage(key=key, eed_shards=tuple(eed), tree_eed=mtree(eed))

