"""Slot-sized sharding, per-shard encryption, and the provider re-encryption layer."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import crypto
from .errors import InvalidInput
from .merkle import MerkleTree, mtree

DEFAULT_SLOT = 1 << 20  # 1 MiB
# nonce layer tags: the seller seals shard i under K_i at SEAL/i, a provider
# seals position j of its package under its key at WRAP/j
SEAL = b"seal"
WRAP = b"wrap"


def split(data: bytes, slot: int) -> list[memoryview]:
    """Ceiling-division split into views of ``data``; the last shard keeps
    its true length."""
    if slot < 1:
        raise InvalidInput("slot size must be >= 1")
    view = memoryview(data)
    return [view[i : i + slot] for i in range(0, len(data), slot)] or [view]


@dataclass(frozen=True)
class ShardSet:
    """A seller's data after sharding and per-shard encryption.

    ``tree_plain`` commits the plaintext shards (root r_d) and ``tree_enc``
    the encrypted shards (root r_ed).  ``master`` is the key the honest
    seller posts; every K_i derives from it.
    """

    n: int
    master: bytes
    plain_shards: tuple[memoryview, ...]
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


def shard_encrypt(secret: bytes, data: bytes, slot: int = DEFAULT_SLOT) -> ShardSet:
    """Split ``data`` into ceil(len/slot) shards and encrypt each under K_i.

    The master key is H(secret || r_d), so one secret never seals two data
    sets under one (K_i, nonce).  r_d depends on no key, so its tree is
    built first, at no extra pass over the data.
    """
    if not data:
        raise InvalidInput("data must be non-empty")
    plain = split(data, slot)
    tree_plain = mtree(plain)
    master = hashlib.sha256(secret + tree_plain.root).digest()
    keys = crypto.derive_keys(master, len(plain))
    enc = [crypto.sym_encrypt(k, shard, SEAL, i) for i, (k, shard) in enumerate(zip(keys, plain))]
    return ShardSet(
        n=len(plain),
        master=master,
        plain_shards=tuple(plain),
        enc_shards=tuple(enc),
        tree_plain=tree_plain,
        tree_enc=mtree(enc),
    )


def reassemble(shards: list[bytes]) -> bytes:
    """Concatenate shards in index order.

    The consumer checks the opened shards against r_d and does not call
    this; the benchmark's tracer still resolves it by name."""
    return b"".join(shards)


def provider_encrypt(enc_shards: list[bytes], sp_seed: bytes) -> ProviderPackage:
    """Re-encrypt the seller's shards under a provider key derived from ``sp_seed``."""
    if not enc_shards:
        raise InvalidInput("shard list must be non-empty")
    key = hashlib.sha256(b"provider-key" + sp_seed).digest()
    eed = [crypto.sym_encrypt(key, shard, WRAP, j) for j, shard in enumerate(enc_shards)]
    return ProviderPackage(key=key, eed_shards=tuple(eed), tree_eed=mtree(eed))

