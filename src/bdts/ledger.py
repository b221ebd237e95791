"""Deterministic single-process token ledger with explicit block production.

Transfers apply eagerly against account balances; a transfer that would
drive a balance negative raises ``InsufficientTokens`` and leaves no trace,
neither a balance change nor an event.  ``mine_block`` seals all
events since the previous block into a hash-chained block whose hash doubles
as the public randomness consumed by the exposure step.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import InsufficientTokens, InvalidInput, NotFound

Address = str  # 40-hex-char opaque identifier


def address_for(label: str) -> Address:
    """Stable 20-byte address derived from a human-readable label."""
    return hashlib.sha256(b"addr:" + label.encode()).digest()[:20].hex()


@dataclass(frozen=True)
class Block:
    height: int
    parent: bytes
    tx_digest: bytes
    hash: bytes


GENESIS_PARENT = b"\x00" * 32
# a block's events are sealed as json.dumps(events, sort_keys=True) gives
# them; an empty block's encoding is the constant "[]"
_EVENTS_JSON = json.JSONEncoder(sort_keys=True)
_EMPTY_TX_DIGEST = hashlib.sha256(b"[]").digest()


class Ledger:
    def __init__(self, genesis_balances: dict[Address, int] | None = None):
        self.balances: dict[Address, int] = dict(genesis_balances or {})
        if any(v < 0 for v in self.balances.values()):
            raise InvalidInput("genesis balances must be non-negative")
        self.blocks: list[Block] = []
        self.events: list[dict] = []
        self._pending_events: list[dict] = []
        self.mine_block()  # genesis block seals the initial state

    # -- accounts ---------------------------------------------------------

    def balance(self, addr: Address) -> int:
        return self.balances.get(addr, 0)

    def total_supply(self) -> int:
        return sum(self.balances.values())

    # -- transfers --------------------------------------------------------

    def transfer(self, src: Address, dst: Address, amount: int, memo: str = "") -> None:
        """Move a positive ``int`` amount and log it; an overdraw raises
        ``InsufficientTokens`` before any balance changes or event is logged."""
        if type(amount) is not int or amount <= 0:
            raise InvalidInput(f"transfer amount must be a positive int, got {amount!r}")
        if self.balance(src) < amount:
            raise InsufficientTokens(f"{src} holds {self.balance(src)} of {amount} tokens")
        self.balances[src] -= amount
        self.balances[dst] = self.balance(dst) + amount
        self._log(
            {
                "type": "transfer",
                "from": src,
                "to": dst,
                "amount": amount,
                "memo": memo,
                "status": "applied",
            }
        )

    def log_event(self, memo: str, **payload) -> None:
        """Record a contract event in the next block."""
        self._log({"type": "event", "memo": memo, **payload})

    def _log(self, event: dict) -> None:
        event["height"] = len(self.blocks)  # height the event will be sealed at
        self._pending_events.append(event)

    # -- blocks -----------------------------------------------------------

    def mine_block(self) -> Block:
        """Seal a block over every event since the last one."""
        height = len(self.blocks)
        parent = self.blocks[-1].hash if self.blocks else GENESIS_PARENT
        tx_digest = (
            hashlib.sha256(_EVENTS_JSON.encode(self._pending_events).encode()).digest()
            if self._pending_events else _EMPTY_TX_DIGEST
        )
        block_hash = hashlib.sha256(
            height.to_bytes(8, "big") + parent + tx_digest
        ).digest()
        block = Block(height=height, parent=parent, tx_digest=tx_digest, hash=block_hash)
        self.blocks.append(block)
        self.events.extend(self._pending_events)
        self._pending_events = []
        return block

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def seed_at(self, height: int) -> bytes:
        """Hash of the block at ``height``, used as public randomness."""
        if not 0 <= height < len(self.blocks):
            raise NotFound(f"no block at height {height}")
        return self.blocks[height].hash

def rand_indices(seed: bytes, n: int, k: int) -> list[int]:
    """k distinct indices in [0, n), drawn deterministically from ``seed``.

    Indices are expanded by hashing seed || counter and rejection-sampled
    so every index is (near-)uniform without replacement.
    """
    if not 1 <= k <= n:
        raise InvalidInput(f"need 1 <= k <= n, got k={k} n={n}")
    # smallest power-of-two modulus bound >= n for rejection sampling
    bound = 1
    while bound < n:
        bound <<= 1
    chosen: list[int] = []
    seen: set[int] = set()
    counter = 0
    while len(chosen) < k:
        digest = hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
        counter += 1
        for off in range(0, 32, 4):
            idx = int.from_bytes(digest[off : off + 4], "big") % bound
            if idx < n and idx not in seen:
                seen.add(idx)
                chosen.append(idx)
                if len(chosen) == k:
                    break
    return sorted(chosen)
