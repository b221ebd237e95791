"""Binary Merkle tree over opaque byte strings.

Leaves and internal nodes are hashed with distinct domain-separation
prefixes (0x00 / 0x01) so a proof for an internal node can never be
replayed as a leaf.  Odd-width levels duplicate their last digest.

A large tree hashes its leaves on a shared thread pool, one contiguous
slice per usable CPU: ``hashlib`` releases the GIL while it hashes inputs
of 2 KiB or more.  The levels above the leaves are 32-byte nodes and stay
serial.  The digests do not depend on which path ran.
"""
from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass

from . import metrics
from .errors import InvalidInput

DIGEST_SIZE = 32
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(data: bytes) -> bytes:
    h = hashlib.sha256(_LEAF_PREFIX)
    h.update(data)  # no copy of the leaf, unlike prefix + data
    return h.digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


# Trees below either bound stay on the serial loop, where a pool round trip
# costs more than it saves.
_POOL_MIN_BYTES = 4 << 20
_POOL_MIN_LEAVES = 2

_pool = None  # (ThreadPoolExecutor, worker count), started by the first large tree
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _leaf_pool():
    """The shared leaf-hashing pool and its worker count, started on first
    use; None on one CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = _usable_cpus()
            if workers < 2:
                return None
            from concurrent.futures import ThreadPoolExecutor  # ~9 ms; large trees only

            _pool = ThreadPoolExecutor(workers, thread_name_prefix="merkle-leaves"), workers
        return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _hash_leaves(leaves: list[bytes]) -> list[bytes]:
    return [_hash_leaf(leaf) for leaf in leaves]


def _leaf_digests(leaves: list[bytes]) -> list[bytes]:
    if len(leaves) < _POOL_MIN_LEAVES or sum(map(len, leaves)) < _POOL_MIN_BYTES:
        return _hash_leaves(leaves)
    pool = _leaf_pool()
    if pool is None:
        return _hash_leaves(leaves)
    executor, workers = pool
    width = -(-len(leaves) // workers)  # one contiguous slice per worker
    slices = [leaves[i : i + width] for i in range(0, len(leaves), width)]
    return [digest for part in executor.map(_hash_leaves, slices) for digest in part]


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf: sibling digests from bottom to top.

    Each sibling carries a flag telling whether it sits to the right of
    the running hash.
    """

    index: int
    siblings: tuple[tuple[bytes, bool], ...]


class MerkleTree:
    """Immutable tree; ``levels[0]`` holds leaf digests, ``levels[-1]`` the root."""

    def __init__(self, leaves: list[bytes]):
        if not leaves:
            raise InvalidInput("merkle tree needs at least one leaf")
        self.leaf_count = len(leaves)
        levels = [_leaf_digests(leaves)]
        while len(levels[-1]) > 1:
            level = levels[-1]
            if len(level) % 2:
                level = level + [level[-1]]
            levels.append(
                [_hash_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
            )
        self.levels = levels
        metrics.record("tree_builds")

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]


def mtree(leaves: list[bytes]) -> MerkleTree:
    """Build a tree over ``leaves``; deterministic for a given leaf list."""
    return MerkleTree(leaves)


def mproof(tree: MerkleTree, index: int) -> MerkleProof:
    """Produce the inclusion proof for leaf ``index``."""
    if not 0 <= index < tree.leaf_count:
        raise IndexError(f"leaf index {index} out of range [0, {tree.leaf_count})")
    siblings = []
    pos = index
    for level in tree.levels[:-1]:
        # past the end of an odd level the sibling is the duplicated last digest
        sibling = pos ^ 1 if pos ^ 1 < len(level) else pos
        siblings.append((level[sibling], pos % 2 == 0))
        pos //= 2
    return MerkleProof(index=index, siblings=tuple(siblings))


def mvrfy(index: int, root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """True iff ``leaf`` at ``index`` reproduces ``root`` along ``proof``.

    Malformed proofs return False rather than raising.
    """
    metrics.record("proof_verifications")
    if proof.index != index or index < 0:
        return False
    acc = _hash_leaf(leaf)
    pos = index
    for sibling, is_right in proof.siblings:
        if not isinstance(sibling, bytes) or len(sibling) != DIGEST_SIZE:
            return False
        # side flags must agree with the claimed index path
        if is_right != (pos % 2 == 0):
            return False
        acc = _hash_node(acc, sibling) if is_right else _hash_node(sibling, acc)
        pos //= 2
    return acc == root
