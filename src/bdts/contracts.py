"""The three contract state machines: listing/exposure (SSMC), ordering
(SCMC), and escrowed payment with appeal arbitration (CPC).

All state mutates through sequential method calls against one ledger, so a
whole run is replayable.  Verdict logic for appeals:

* the evidence index is a global shard index, and it must name a shard
  the payee is paid for (any of the data set's n shards for the seller, a
  shard the provider served); the contract derives the shard's position in
  the provider's package and both trees' leaf counts itself;
* a posted key that ``crypto.pk_decrypt`` will not unwrap to one 32-byte
  key under the consumer's private key upholds the appeal;
* otherwise the evidence ciphertext is tried against the key the payee posted;
* if it decrypts, the plaintext must match the committed root for the
  layer below (r_d for seller appeals, r_ed for provider appeals) or the
  appeal is upheld;
* if it does not decrypt, the appeal is upheld only when the ciphertext
  itself authenticates against the committed root for its own layer
  (r_ed / r_eed) - i.e. the delivered bytes are genuine but the posted
  key cannot open them.  Unauthenticated, non-decryptable evidence is
  treated as fabricated and the appeal is denied.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from . import crypto
from .errors import (
    AlreadyClosed,
    BadState,
    DecryptError,
    DoublePost,
    DuplicateRoot,
    IncompleteCover,
    InsufficientDeposit,
    InsufficientTokens,
    LateAppeal,
    NoPubKey,
    NotFound,
    NotSeller,
    PrivKeyMismatch,
    ProofFailure,
    UnconfirmedProvider,
    UnknownData,
    WrongIndices,
)
from .ledger import Address, Ledger, address_for, rand_indices
from .merkle import MerkleProof, mvrfy

# record / order statuses
REGISTERED = "Registered"
EXPOSED = "Exposed"
LIVE = "Live"
REJECTED = "Rejected"

PLACED = "Placed"
FUNDED = "Funded"
DOWNLOADING = "Downloading"
SETTLING = "Settling"
CLOSED = "Closed"

UPHELD = "Upheld"
DENIED = "Denied"

SELLER_PAYEE = "seller"


def provider_payee(addr: Address) -> str:
    return f"provider:{addr}"


def default_exposure_count(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


@dataclass
class ContractConfig:
    appeal_window: int = 10  # blocks


@dataclass
class SPRecord:
    provider: Address
    endpoint: str
    data_id: str
    confirmed: bool = False


@dataclass
class DataRecord:
    data_id: str
    seller: Address
    endpoint: str
    description: str
    size_bytes: int
    n: int
    r_d: bytes
    r_ed: bytes
    price: int
    unit_price: int
    deposit: int
    reg_block: int
    status: str = REGISTERED
    exposed_indices: list[int] = field(default_factory=list)
    providers: dict[Address, SPRecord] = field(default_factory=dict)
    deposit_returned: bool = False
    delisted: bool = False


@dataclass
class Order:
    order_id: str
    consumer: Address
    data_id: str
    tokens: int
    status: str = PLACED
    # provider -> the global shard indices it serves, in package order
    served: dict[Address, list[int]] = field(default_factory=dict)
    provider_roots: dict[Address, bytes] = field(default_factory=dict)


@dataclass
class Escrow:
    order_id: str
    post_deadline: int
    tranches: dict[str, int]  # payee -> token amount
    payee_addrs: dict[str, Address]
    pub_cm: bytes | None = None
    posted_keys: dict[str, bytes] = field(default_factory=dict)
    appeal_deadlines: dict[str, int] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)


@dataclass
class AppealEvidence:
    """Consumer-supplied material for one appeal.

    ``index`` is the shard's global index, whoever the payee is.
    ``auth_proof`` places the ciphertext in its own layer's tree (r_ed for
    seller appeals; the provider's r_eed, at the shard's position in the
    package, for provider appeals); ``inner_proof`` places the decrypted
    payload in the layer below.
    """

    index: int
    ciphertext: bytes
    auth_proof: MerkleProof
    inner_proof: MerkleProof


class ContractSystem:
    """SSMC + SCMC + CPC over one ledger."""

    def __init__(self, ledger: Ledger, config: ContractConfig | None = None):
        self.ledger = ledger
        self.config = config or ContractConfig()
        self.ssmc_addr = address_for("contract:SSMC")
        self.scmc_addr = address_for("contract:SCMC")
        self.cpc_addr = address_for("contract:CPC")
        self.records: dict[str, DataRecord] = {}
        self.orders: dict[str, Order] = {}
        self.escrows: dict[str, Escrow] = {}
        self.exposed_piece_index: dict[bytes, str] = {}  # plaintext hash -> data_id
        self.listed_roots: dict[bytes, str] = {}  # r_d -> data_id, while listed
        self.seen_pubkeys: set[bytes] = set()
        # order -> {"in": tokens}; kept only for the market benchmark, which reads it
        self.escrow_flows: dict[str, dict[str, int]] = {}
        self._data_counter = 0
        self._order_counter = 0

    # ---------------------------------------------------------------- SSMC

    def min_deposit(self, price: int) -> int:
        return (price + 1) // 2

    def ssmc_register_seller(
        self,
        seller: Address,
        endpoint: str,
        description: str,
        size_bytes: int,
        n: int,
        r_d: bytes,
        r_ed: bytes,
        price: int,
        unit_price: int,
        deposit: int,
    ) -> str:
        if deposit < self.min_deposit(price):
            raise InsufficientDeposit(
                f"deposit {deposit} below minimum {self.min_deposit(price)}"
            )
        if r_d in self.listed_roots:
            raise DuplicateRoot(f"root already listed as {self.listed_roots[r_d]}")
        if not self.ledger.transfer(seller, self.ssmc_addr, deposit, memo="deposit"):
            raise InsufficientDeposit("seller balance does not cover deposit")
        self._data_counter += 1
        data_id = f"d{self._data_counter:04d}"
        # sealed in the block currently being built
        reg_block = self.ledger.height + 1
        self.records[data_id] = DataRecord(
            data_id=data_id,
            seller=seller,
            endpoint=endpoint,
            description=description,
            size_bytes=size_bytes,
            n=n,
            r_d=r_d,
            r_ed=r_ed,
            price=price,
            unit_price=unit_price,
            deposit=deposit,
            reg_block=reg_block,
        )
        self.listed_roots[r_d] = data_id
        self.ledger.log_event("register_seller", data_id=data_id, seller=seller)
        return data_id

    def expected_exposure_indices(self, data_id: str) -> list[int]:
        rec = self._record(data_id)
        seed = self.ledger.seed_at(rec.reg_block + 1)
        return rand_indices(seed, rec.n, default_exposure_count(rec.n))

    def ssmc_expose(
        self,
        data_id: str,
        pieces: list[tuple[int, bytes, MerkleProof, MerkleProof, bytes]],
    ) -> str:
        """pieces: (index, plaintext shard, proof vs r_d, proof vs r_ed, encrypted shard)."""
        rec = self._record(data_id)
        if rec.status != REGISTERED:
            raise BadState(f"{data_id} is {rec.status}, expected {REGISTERED}")
        expected = self.expected_exposure_indices(data_id)
        if sorted(i for i, *_ in pieces) != expected:
            raise WrongIndices(f"expected indices {expected}")
        for i, plain, p_d, p_ed, enc in pieces:
            if not (
                mvrfy(i, rec.r_d, plain, p_d, rec.n) and mvrfy(i, rec.r_ed, enc, p_ed, rec.n)
            ):
                self._reject(rec, reason="exposure proof failed")
                raise ProofFailure(f"exposure proof failed at index {i}")
        for i, plain, *_ in pieces:
            digest = hashlib.sha256(plain).digest()
            owner = self.exposed_piece_index.get(digest)
            if owner is not None and owner != data_id:
                self._reject(rec, reason=f"plagiarism of {owner}")
                raise ProofFailure(f"exposed piece {i} duplicates {owner}")
        for i, plain, *_ in pieces:
            self.exposed_piece_index[hashlib.sha256(plain).digest()] = data_id
        rec.exposed_indices = expected
        rec.status = EXPOSED
        self.ledger.log_event("expose_ok", data_id=data_id, indices=expected)
        return EXPOSED

    def _reject(self, rec: DataRecord, reason: str) -> None:
        # deposit stays with SSMC: forfeited
        rec.status = REJECTED
        self._unlist_root(rec)
        self.ledger.log_event("reject", data_id=rec.data_id, reason=reason)

    def _unlist_root(self, rec: DataRecord) -> None:
        # the root may already be listed again under a newer record
        if self.listed_roots.get(rec.r_d) == rec.data_id:
            del self.listed_roots[rec.r_d]

    def ssmc_register_provider(self, provider: Address, endpoint: str, data_id: str) -> None:
        rec = self._record(data_id)
        if rec.status not in (EXPOSED, LIVE):
            raise BadState(f"{data_id} is {rec.status}, providers join after exposure")
        if provider not in rec.providers:  # duplicate registration is a no-op
            rec.providers[provider] = SPRecord(provider, endpoint, data_id)
            self.ledger.log_event("register_provider", data_id=data_id, provider=provider)

    def ssmc_confirm_provider(self, seller: Address, provider: Address, data_id: str) -> None:
        rec = self._record(data_id)
        if seller != rec.seller:
            raise NotSeller("only the listing seller can confirm providers")
        if provider not in rec.providers:
            raise UnknownData(f"provider {provider} not registered for {data_id}")
        rec.providers[provider].confirmed = True
        rec.status = LIVE
        self.ledger.log_event("confirm_provider", data_id=data_id, provider=provider)

    def ssmc_delist(self, seller: Address, data_id: str) -> None:
        """Withdraw a listing and reclaim the deposit (unless forfeited)."""
        rec = self._record(data_id)
        if seller != rec.seller:
            raise NotSeller("only the listing seller can delist")
        open_orders = [
            o
            for o in self.orders.values()
            if o.data_id == data_id and o.status not in (CLOSED,)
        ]
        if open_orders:
            raise BadState("cannot delist with open orders")
        rec.delisted = True
        self._unlist_root(rec)
        if rec.status != REJECTED and not rec.deposit_returned:
            rec.deposit_returned = True
            self.ledger.transfer(self.ssmc_addr, seller, rec.deposit, memo="deposit-return")
        self.ledger.log_event("delist", data_id=data_id)

    def match_products(self, keyword: str) -> list[dict]:
        out = []
        for rec in self.records.values():
            if rec.status != LIVE or rec.delisted:
                continue
            if keyword.lower() in rec.description.lower():
                out.append(
                    {
                        "data_id": rec.data_id,
                        "description": rec.description,
                        "price": rec.price,
                        "size": rec.size_bytes,
                        "providers": sorted(rec.providers),
                    }
                )
        return sorted(out, key=lambda d: d["data_id"])

    # ---------------------------------------------------------------- SCMC

    def scmc_place_order(self, consumer: Address, data_id: str, tokens: int) -> str:
        rec = self.records.get(data_id)
        if rec is None or rec.status != LIVE or rec.delisted:
            raise UnknownData(f"no live listing {data_id}")
        required = rec.price + rec.n * rec.unit_price
        if tokens < required:
            if tokens > 0:
                self.ledger.transfer(consumer, self.ssmc_addr, tokens, memo="forfeit")
            self.ledger.log_event(
                "order_discarded", data_id=data_id, tokens=tokens, required=required
            )
            raise InsufficientTokens(f"{tokens} < price+size*unit price = {required}")
        if not self.ledger.transfer(consumer, self.scmc_addr, tokens, memo="escrow"):
            raise InsufficientTokens("consumer balance does not cover the order")
        self._order_counter += 1
        order_id = f"o{self._order_counter:04d}"
        self.orders[order_id] = Order(
            order_id=order_id, consumer=consumer, data_id=data_id, tokens=tokens,
            status=FUNDED,
        )
        self.escrow_flows[order_id] = {"in": tokens}
        self.ledger.log_event("order_funded", order_id=order_id, data_id=data_id)
        return order_id

    def scmc_select(
        self, order_id: str, assignments: list[tuple[Address, list[int]]]
    ) -> None:
        order = self._order(order_id)
        if order.status != FUNDED:
            raise BadState(f"order {order_id} is {order.status}, expected {FUNDED}")
        rec = self._record(order.data_id)
        covered: dict[int, Address] = {}
        for provider, indices in assignments:
            sp = rec.providers.get(provider)
            if sp is None or not sp.confirmed:
                raise UnconfirmedProvider(f"{provider} not confirmed for {rec.data_id}")
            for i in indices:
                covered.setdefault(i, provider)  # duplicates go to the first listed
        if set(covered) != set(range(rec.n)):
            missing = sorted(set(range(rec.n)) - set(covered))
            raise IncompleteCover(f"shards {missing} unassigned")
        for i, provider in covered.items():
            order.served.setdefault(provider, []).append(i)
        order.status = DOWNLOADING
        self.ledger.log_event("order_selected", order_id=order_id)

    def scmc_record_provider_root(
        self, order_id: str, provider: Address, r_eed: bytes
    ) -> None:
        order = self._order(order_id)
        if provider not in order.served:
            raise UnconfirmedProvider(f"{provider} is not serving order {order_id}")
        order.provider_roots[provider] = r_eed
        self.ledger.log_event("provider_root", order_id=order_id, provider=provider)

    # ----------------------------------------------------------------- CPC

    def cpc_open(self, order_id: str) -> Escrow:
        order = self._order(order_id)
        if order.status != DOWNLOADING:
            raise BadState(f"order {order_id} is {order.status}, expected {DOWNLOADING}")
        if order_id in self.escrows:
            raise BadState(f"escrow for {order_id} already open")
        if set(order.provider_roots) != set(order.served):
            # every r_eed is fixed before any key can be posted
            raise BadState(f"order {order_id} lacks a serving provider's root")
        rec = self._record(order.data_id)
        self.ledger.transfer(self.scmc_addr, self.cpc_addr, order.tokens, memo="escrow-cpc")
        tranches = {SELLER_PAYEE: rec.price}
        payee_addrs = {SELLER_PAYEE: rec.seller}
        for provider, package in order.served.items():
            tranches[provider_payee(provider)] = len(package) * rec.unit_price
            payee_addrs[provider_payee(provider)] = provider
        escrow = Escrow(
            order_id=order_id,
            post_deadline=self.ledger.height + self.config.appeal_window,
            tranches=tranches,
            payee_addrs=payee_addrs,
        )
        self.escrows[order_id] = escrow
        self.ledger.log_event("escrow_open", order_id=order_id)
        return escrow

    def cpc_post_pubkey(self, order_id: str, pub_cm: bytes) -> None:
        escrow = self._escrow(order_id)
        if escrow.pub_cm is not None:
            raise DoublePost("public key already posted for this order")
        if pub_cm in self.seen_pubkeys:
            raise DoublePost("consumer key pair must be fresh per order")
        self.seen_pubkeys.add(pub_cm)
        escrow.pub_cm = pub_cm
        self.ledger.log_event("pubkey_posted", order_id=order_id)

    def cpc_post_key(self, order_id: str, payee: str, wrapped_key: bytes) -> None:
        escrow = self._escrow(order_id)
        if escrow.pub_cm is None:
            raise NoPubKey("consumer public key not posted yet")
        if payee not in escrow.tranches:
            raise NotFound(f"no tranche for payee {payee}")
        if payee in escrow.posted_keys:
            raise DoublePost(f"{payee} already posted a key")
        if self.ledger.height > escrow.post_deadline:
            raise LateAppeal(f"posting window closed at height {escrow.post_deadline}")
        escrow.posted_keys[payee] = wrapped_key
        escrow.appeal_deadlines[payee] = self.ledger.height + self.config.appeal_window
        self.ledger.log_event("key_posted", order_id=order_id, payee=payee)
        order = self._order(order_id)
        if set(escrow.posted_keys) == set(escrow.tranches):
            order.status = SETTLING

    def cpc_appeal(
        self, order_id: str, payee: str, pri_cm: bytes, evidence: AppealEvidence
    ) -> str:
        escrow = self._escrow(order_id)
        if escrow.pub_cm is None:
            raise NoPubKey("no consumer public key on record")
        if crypto.public_key_of(pri_cm) != escrow.pub_cm:
            raise PrivKeyMismatch("private key does not match the posted public key")
        if payee not in escrow.posted_keys:
            raise BadState(f"{payee} has not posted a key; nothing to appeal")
        if payee in escrow.verdicts:
            raise BadState(f"appeal against {payee} already decided")
        if self.ledger.height > escrow.appeal_deadlines[payee]:
            raise LateAppeal("appeal window closed")
        order = self._order(order_id)
        rec = self._record(order.data_id)
        i = evidence.index
        if payee == SELLER_PAYEE:
            package, inner_root, own_root = range(rec.n), rec.r_d, rec.r_ed
        else:
            provider = escrow.payee_addrs[payee]
            package, inner_root = order.served[provider], rec.r_ed
            own_root = order.provider_roots[provider]
        if i not in package:
            raise WrongIndices(f"shard {i} is not one that {payee} is paid for")
        try:
            posted = crypto.pk_decrypt(pri_cm, escrow.posted_keys[payee])
        except DecryptError:
            # the payee posted no key anyone could open the data with
            upheld = True
        else:
            shard_key = crypto.derive_keys(posted, i + 1)[i] if payee == SELLER_PAYEE else posted
            try:
                payload = crypto.sym_decrypt(shard_key, evidence.ciphertext)
            except DecryptError:
                # posted key cannot open the evidence: upheld only when the
                # evidence is provably the genuine delivered ciphertext
                upheld = mvrfy(
                    package.index(i), own_root, evidence.ciphertext, evidence.auth_proof,
                    len(package),
                )
            else:
                upheld = not mvrfy(i, inner_root, payload, evidence.inner_proof, rec.n)
        verdict = UPHELD if upheld else DENIED
        escrow.verdicts[payee] = verdict
        self.ledger.log_event("appeal", order_id=order_id, payee=payee, verdict=verdict)
        return verdict

    def cpc_settle(self, order_id: str) -> dict[str, int]:
        order = self._order(order_id)
        if order.status == CLOSED:
            raise AlreadyClosed(f"order {order_id} already settled")
        escrow = self._escrow(order_id)
        height = self.ledger.height
        for payee in escrow.tranches:
            if payee in escrow.verdicts:
                continue
            if payee in escrow.posted_keys:
                if height <= escrow.appeal_deadlines[payee]:
                    raise BadState(f"appeal window for {payee} still open")
            elif height <= escrow.post_deadline:
                raise BadState(f"posting window still open")
        transfers: dict[str, int] = {}
        disbursed = 0
        rec = self._record(order.data_id)
        held = self.ledger.balance(self.cpc_addr)
        if held < order.tokens:
            raise BadState(f"CPC holds {held} tokens, less than {order_id}'s {order.tokens}")
        for payee, amount in escrow.tranches.items():
            verdict = escrow.verdicts.get(payee)
            if payee not in escrow.posted_keys or verdict == UPHELD:
                dst, memo = order.consumer, f"refund:{payee}"
            else:
                dst, memo = escrow.payee_addrs[payee], f"pay:{payee}"
            if amount > 0:
                self.ledger.transfer(self.cpc_addr, dst, amount, memo=memo)
            transfers[memo] = amount
            disbursed += amount
        excess = order.tokens - disbursed
        if excess > 0:
            self.ledger.transfer(self.cpc_addr, order.consumer, excess, memo="excess")
            transfers["excess"] = excess
        if held - self.ledger.balance(self.cpc_addr) != order.tokens:
            raise BadState(f"escrow for {order_id} did not release its {order.tokens} tokens")
        order.status = CLOSED
        if rec.status != REJECTED and not rec.deposit_returned:
            rec.deposit_returned = True
            self.ledger.transfer(self.ssmc_addr, rec.seller, rec.deposit, memo="deposit-return")
        self.ledger.log_event("settled", order_id=order_id, transfers=transfers)
        return transfers

    # -------------------------------------------------------------- helpers

    def _record(self, data_id: str) -> DataRecord:
        rec = self.records.get(data_id)
        if rec is None:
            raise UnknownData(f"unknown data id {data_id}")
        return rec

    def _order(self, order_id: str) -> Order:
        order = self.orders.get(order_id)
        if order is None:
            raise NotFound(f"unknown order id {order_id}")
        return order

    def _escrow(self, order_id: str) -> Escrow:
        self._order(order_id)
        escrow = self.escrows.get(order_id)
        if escrow is None:
            raise BadState(f"escrow for {order_id} not open")
        return escrow
