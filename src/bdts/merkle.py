"""Binary Merkle tree over opaque byte strings.

Leaves and internal nodes are hashed with distinct domain-separation
prefixes (0x00 / 0x01) so a proof for an internal node can never be
replayed as a leaf.  Odd-width levels duplicate their last digest.

``leaf_digests`` hashes a large leaf list on threads started for that
call and joined before it returns, one contiguous slice per usable CPU:
``hashlib`` releases the GIL while it hashes inputs of 2 KiB or more.  A
tree builds its leaves with it; a verifier holding many leaves can hash
them with it too and climb each proof with ``mvrfy_digest``.  The levels
above the leaves are 32-byte nodes and stay serial.  The digests do not
depend on which path ran.
"""
from __future__ import annotations

import hashlib
import os
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


# Leaf lists that total less than this stay on the serial loop, where
# starting threads costs more than it saves.
_POOL_MIN_BYTES = 4 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _hash_leaves(leaves: list[bytes]) -> list[bytes]:
    return [_hash_leaf(leaf) for leaf in leaves]


def leaf_digests(leaves: list[bytes]) -> list[bytes]:
    """The leaf digest of each of ``leaves``, in order; lists of at least
    4 MiB in total are hashed on one thread per usable CPU."""
    if sum(map(len, leaves)) < _POOL_MIN_BYTES:  # before the affinity call
        return _hash_leaves(leaves)
    workers = min(_usable_cpus(), len(leaves))
    if workers < 2:
        return _hash_leaves(leaves)
    from concurrent.futures import ThreadPoolExecutor  # ~9 ms; large trees only

    width = -(-len(leaves) // workers)  # one contiguous slice per worker
    slices = [leaves[i : i + width] for i in range(0, len(leaves), width)]
    with ThreadPoolExecutor(workers, thread_name_prefix="merkle-leaves") as executor:
        return [digest for part in executor.map(_hash_leaves, slices) for digest in part]


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf: sibling digests from bottom to top.

    As in RFC 6962's audit paths, the side of each sibling follows from the
    leaf index, so the proof carries no side flags.
    """

    index: int
    siblings: tuple[bytes, ...]


class MerkleTree:
    """Immutable tree; ``levels[0]`` holds leaf digests, ``levels[-1]`` the root."""

    def __init__(self, leaves: list[bytes]):
        if not leaves:
            raise InvalidInput("merkle tree needs at least one leaf")
        self.leaf_count = len(leaves)
        levels = [leaf_digests(leaves)]
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
        raise InvalidInput(f"leaf index {index} out of range [0, {tree.leaf_count})")
    siblings = []
    pos = index
    for level in tree.levels[:-1]:
        # past the end of an odd level the sibling is the duplicated last digest
        sibling = pos ^ 1 if pos ^ 1 < len(level) else pos
        siblings.append(level[sibling])
        pos //= 2
    return MerkleProof(index=index, siblings=tuple(siblings))


def mvrfy(index: int, root: bytes, leaf: bytes, proof: MerkleProof, leaf_count: int) -> bool:
    """True iff ``leaf`` at ``index`` of a ``leaf_count``-leaf tree
    reproduces ``root`` along ``proof``: ``mvrfy_digest`` on its leaf digest."""
    return mvrfy_digest(index, root, _hash_leaf(leaf), proof, leaf_count)


def mvrfy_digest(
    index: int, root: bytes, digest: bytes, proof: MerkleProof, leaf_count: int
) -> bool:
    """True iff the leaf digest ``digest`` at ``index`` of a
    ``leaf_count``-leaf tree climbs to ``root`` along ``proof``.

    The index must lie in ``[0, leaf_count)`` and the proof must hold one
    sibling per level, so a proof cannot be replayed at another position or
    past the last leaf.  Malformed proofs return False rather than raising.
    Each call counts one proof verification.
    """
    metrics.record("proof_verifications")
    if proof.index != index or not 0 <= index < leaf_count:
        return False
    if type(proof.siblings) is not tuple or len(proof.siblings) != (leaf_count - 1).bit_length():
        return False
    acc = digest
    pos = index
    for sibling in proof.siblings:
        if not isinstance(sibling, bytes) or len(sibling) != DIGEST_SIZE:
            return False
        acc = _hash_node(sibling, acc) if pos % 2 else _hash_node(acc, sibling)
        pos //= 2
    return acc == root
