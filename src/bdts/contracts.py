"""The three contract state machines: listing/exposure (SSMC), ordering
(SCMC), and escrowed payment with appeal arbitration (CPC).

All state mutates through sequential method calls against one ledger, so a
whole run is replayable.  Each listing and each order is in one status,
and every call checks it first, through ``_record`` or ``_order``: a
listing goes Registered -> Exposed -> Live and ends, for good, Rejected or
Delisted (it cannot delist before it exposes); an order goes Funded ->
Downloading (providers selected) -> Escrowed (keys, appeals) -> Closed.
So a listing's status alone says whether its plaintext root is taken:
``roots`` names each root's latest listing, and the root is free once that
listing has ended.  Every refusal is one of the rules in ``bdts.errors``,
raised before any state changes, but for one on purpose: an order below
price plus shards forfeits its tokens and is then refused.
An order is its own escrow.  Its tokens go straight from the consumer into
a ledger account of the order's own (``Order.account``) and stay there
until settle, which reads and pays out of nothing but that account.
The order holds one ``Tranche`` per payee, the seller's from funding and
then one per serving provider from selection: its party, its amount, the
global shard indices it is paid for in package order, the root those
shards are committed to, its deadline, the key it posted and its verdict;
``_tranche`` finds a payee's, or refuses a payee the order does not pay
with ``NotFound``.  A tranche's deadline is the last height at which its
payee may post its key, and then the last at which the consumer may
appeal it: each open status the order enters, and the consumer's public
key post, puts every tranche's deadline ``APPEAL_WINDOW`` blocks ahead,
and a payee's key post does the same for its own.  Once every undecided
tranche is past its deadline, anyone may settle the order, whatever its
open status: a payee whose posted key no appeal upheld is paid, and every
other tranche and the excess go back to the consumer.  So no absent party holds an order's tokens, or the
seller's deposit, for good; and a consumer's key that comes after every
deadline is refused, so it cannot reopen an order that is open to settle.
A listing's providers map each registered provider to whether its seller
confirmed it; only confirmed providers are listed and may be selected.
The ``endpoint`` that a seller or provider registers with must be a
``str``, and is not recorded: no call reads it.
A call that one party must make (confirming a provider, delisting,
posting the consumer's public key, a payee's key) names its sender first,
and any other sender is refused with ``WrongSender``.  A provider records
only its own root: the caller names the tranche it writes.
An appeal passes ``cpc_appeal``'s gates and is then decided by ``judge``,
a function of the listing, the payee's tranche, the consumer's private key
and the evidence alone.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import crypto
from .errors import (
    BadState,
    DecryptError,
    DuplicateRoot,
    InsufficientTokens,
    InvalidInput,
    NotFound,
    ProofFailure,
    WrongSender,
)
from .ledger import Address, Ledger, address_for, rand_indices
from .merkle import DIGEST_SIZE, MerkleProof, leaf_digests, mvrfy, mvrfy_digest

# record / order statuses
REGISTERED = "Registered"
EXPOSED = "Exposed"
LIVE = "Live"
REJECTED = "Rejected"
DELISTED = "Delisted"

FUNDED = "Funded"
DOWNLOADING = "Downloading"
ESCROWED = "Escrowed"
CLOSED = "Closed"

UPHELD = "Upheld"
DENIED = "Denied"

SELLER_PAYEE = "seller"
APPEAL_WINDOW = 10  # blocks a tranche's deadline lies past the call that sets it


def provider_payee(addr: Address) -> str:
    return f"provider:{addr}"


def default_exposure_count(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def _well_formed_piece(piece) -> bool:
    """True iff ``piece`` is an exposed piece's 5-tuple: an ``int`` index,
    a bytes-like plaintext, two ``MerkleProof``s and a bytes-like ciphertext."""
    bytes_like = (bytes, bytearray, memoryview)
    return (
        isinstance(piece, tuple) and len(piece) == 5 and type(piece[0]) is int
        and isinstance(piece[1], bytes_like) and isinstance(piece[4], bytes_like)
        and all(isinstance(p, MerkleProof) for p in piece[2:4])
    )


def _well_formed_assignment(assignment) -> bool:
    """True iff ``assignment`` is a 2-tuple of a ``str`` provider address
    and a list or tuple of ``int`` shard indices."""
    return (
        isinstance(assignment, tuple) and len(assignment) == 2
        and isinstance(assignment[0], str) and isinstance(assignment[1], (list, tuple))
        and all(type(i) is int for i in assignment[1])
    )


@dataclass
class DataRecord:
    data_id: str
    seller: Address
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
    providers: dict[Address, bool] = field(default_factory=dict)  # provider -> confirmed
    deposit_returned: bool = False


@dataclass
class Tranche:
    """One payee's share of an order; its key is ``None`` until posted."""

    party: Address
    amount: int
    shards: Sequence[int]  # the global shard indices it is paid for, in package order
    root: bytes | None  # the root of its package: r_ed, or the provider's r_eed once recorded
    # the last height to post its key, then to appeal it; each open status
    # the order enters, the consumer's public key and this payee's key post
    # set it APPEAL_WINDOW blocks ahead
    deadline: int
    wrapped_key: bytes | None = None
    verdict: str | None = None


@dataclass
class Order:
    order_id: str
    consumer: Address
    data_id: str
    tokens: int
    account: Address  # holds this order's tokens, and no other order's
    status: str = FUNDED
    # payee -> its share: the seller's from funding, then the providers' in selection order
    tranches: dict[str, Tranche] = field(default_factory=dict)
    pub_cm: bytes | None = None


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


def judge(rec: DataRecord, tranche: Tranche, seller: bool, sk: crypto.X25519PrivateKey,
          evidence: AppealEvidence) -> tuple[str, str]:
    """The verdict on an appeal against ``tranche`` (the seller's if
    ``seller``) and its reason, from nothing but the arguments.

    ``sk`` unwraps the posted key, which opens the evidence ciphertext (as
    the shard key K_i, for the seller); the layer below the tranche's root
    is r_d for the seller, r_ed for a provider.  One reason per outcome:

    * ``unopenable_posted_key`` (Upheld): the posted key unwraps to no 32-byte key.
    * ``genuine_ciphertext_wont_open`` (Upheld): the ciphertext won't open, but is on the root.
    * ``uncommitted_evidence`` (Denied): the ciphertext neither opens nor is on the root.
    * ``plaintext_off_commitment`` (Upheld): the plaintext fails ``inner_proof`` to the layer below.
    * ``plaintext_on_commitment`` (Denied): the plaintext passes ``inner_proof`` to the layer below.

    The appellant picks ``inner_proof``, so a proof it spoils upholds an
    appeal against an honest payee: no committed digest is proven.
    """
    i, package = evidence.index, tranche.shards
    try:
        posted = crypto.pk_decrypt(sk, tranche.wrapped_key)
    except DecryptError:
        return UPHELD, "unopenable_posted_key"
    shard_key = crypto.derive_keys(posted, i + 1)[i] if seller else posted
    try:
        payload = crypto.sym_decrypt(shard_key, evidence.ciphertext)
    except DecryptError:
        if mvrfy(package.index(i), tranche.root, evidence.ciphertext, evidence.auth_proof,
                 len(package)):
            return UPHELD, "genuine_ciphertext_wont_open"
        return DENIED, "uncommitted_evidence"
    inner_root = rec.r_d if seller else rec.r_ed
    if mvrfy(i, inner_root, payload, evidence.inner_proof, rec.n):
        return DENIED, "plaintext_on_commitment"
    return UPHELD, "plaintext_off_commitment"


class ContractSystem:
    """SSMC + SCMC + CPC over one ledger."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.ssmc_addr = address_for("contract:SSMC")
        self.records: dict[str, DataRecord] = {}
        self.orders: dict[str, Order] = {}
        self.exposed_piece_index: dict[bytes, str] = {}  # plaintext leaf digest -> data_id
        self.roots: dict[bytes, str] = {}  # r_d -> data_id of its latest listing
        self.seen_pubkeys: set[bytes] = set()
        # order -> {"in": tokens}; kept only for the market benchmark, which reads it
        self.escrow_flows: dict[str, dict[str, int]] = {}

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
        if not all(isinstance(v, str) for v in (endpoint, description)):
            raise InvalidInput("endpoint and description must be str")
        if not all(type(v) is int for v in (n, size_bytes, price, unit_price, deposit)):
            raise InvalidInput("n, size_bytes, price, unit_price and deposit must be int")
        if n < 1:
            raise InvalidInput(f"a listing needs at least one shard, got n={n}")
        if size_bytes < 1:
            raise InvalidInput(f"a listing holds at least one byte, got size_bytes={size_bytes}")
        if price < 1 or unit_price < 0:
            raise InvalidInput(
                f"need price >= 1 and unit_price >= 0, got {price} and {unit_price} per shard"
            )
        if not all(isinstance(r, bytes) and len(r) == DIGEST_SIZE for r in (r_d, r_ed)):
            raise InvalidInput(f"r_d and r_ed must be {DIGEST_SIZE}-byte roots")
        if deposit < self.min_deposit(price):
            raise InvalidInput(f"deposit {deposit} below minimum {self.min_deposit(price)}")
        latest = self.records.get(self.roots.get(r_d, ""))
        if latest is not None and latest.status not in (REJECTED, DELISTED):
            raise DuplicateRoot(f"root already listed as {latest.data_id}")
        self.ledger.transfer(seller, self.ssmc_addr, deposit, memo="deposit")
        data_id = f"d{len(self.records) + 1:04d}"
        # sealed in the block currently being built
        reg_block = self.ledger.height + 1
        self.records[data_id] = DataRecord(
            data_id=data_id,
            seller=seller,
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
        self.roots[r_d] = data_id
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
        """pieces: (index, plaintext shard, proof vs r_d, proof vs r_ed, encrypted shard).

        The plagiarism index keys each exposed plaintext shard by its leaf
        digest, so it catches an aligned copy of another seller's listing
        only when the two exposures draw an unchanged shard in common.  It
        never catches a copy shifted by one byte or cut at another slot:
        every shard then differs, and catching it would need
        content-defined chunking, as in LBFS."""
        if not (isinstance(pieces, (list, tuple)) and all(map(_well_formed_piece, pieces))):
            raise InvalidInput("each piece is an int index, bytes, two Merkle proofs and bytes")
        rec = self._record(data_id, REGISTERED)
        expected = self.expected_exposure_indices(data_id)
        if sorted(i for i, *_ in pieces) != expected:
            raise InvalidInput(f"expected indices {expected}")
        digests = leaf_digests([plain for _, plain, *_ in pieces])
        for (i, _, p_d, p_ed, enc), digest in zip(pieces, digests):
            if not (
                mvrfy_digest(i, rec.r_d, digest, p_d, rec.n)
                and mvrfy(i, rec.r_ed, enc, p_ed, rec.n)
            ):
                self._reject(rec, reason="exposure proof failed")
                raise ProofFailure(f"exposure proof failed at index {i}")
        for (i, *_), digest in zip(pieces, digests):
            # a seller may list again what it delisted; any other overlap is plagiarism
            prior = self.records.get(self.exposed_piece_index.get(digest, ""))
            if prior is not None and (prior.seller, prior.status) != (rec.seller, DELISTED):
                self._reject(rec, reason=f"plagiarism of {prior.data_id}")
                raise ProofFailure(f"exposed piece {i} duplicates {prior.data_id}")
        for digest in digests:
            self.exposed_piece_index[digest] = data_id
        rec.status = EXPOSED
        self.ledger.log_event("expose_ok", data_id=data_id, indices=expected)
        return EXPOSED

    def _reject(self, rec: DataRecord, reason: str) -> None:
        # deposit stays with SSMC: forfeited
        rec.status = REJECTED
        self.ledger.log_event("reject", data_id=rec.data_id, reason=reason)

    def ssmc_register_provider(self, provider: Address, endpoint: str, data_id: str) -> None:
        if not isinstance(endpoint, str):
            raise InvalidInput("endpoint must be str")
        rec = self._record(data_id, EXPOSED, LIVE)
        if provider not in rec.providers:  # duplicate registration is a no-op
            rec.providers[provider] = False
            self.ledger.log_event("register_provider", data_id=data_id, provider=provider)

    def ssmc_confirm_provider(self, seller: Address, provider: Address, data_id: str) -> None:
        rec = self._record(data_id, EXPOSED, LIVE)
        if seller != rec.seller:
            raise WrongSender("only the listing seller can confirm providers")
        if provider not in rec.providers:
            raise NotFound(f"provider {provider} not registered for {data_id}")
        if not rec.providers[provider]:  # a second confirmation is a no-op
            rec.providers[provider] = True
            rec.status = LIVE
            self.ledger.log_event("confirm_provider", data_id=data_id, provider=provider)

    def ssmc_delist(self, seller: Address, data_id: str) -> None:
        """Withdraw an exposed or live listing for good and reclaim the
        deposit.  A Registered listing must expose first, so a seller cannot
        re-register its root for other exposure indices."""
        rec = self._record(data_id, EXPOSED, LIVE)
        if seller != rec.seller:
            raise WrongSender("only the listing seller can delist")
        if any(o.data_id == data_id and o.status != CLOSED for o in self.orders.values()):
            raise BadState("cannot delist with open orders")
        rec.status = DELISTED
        self._return_deposit(rec)
        self.ledger.log_event("delist", data_id=data_id)

    def _return_deposit(self, rec: DataRecord) -> None:
        # once per listing, by settle or delist
        if not rec.deposit_returned:
            rec.deposit_returned = True
            self.ledger.transfer(self.ssmc_addr, rec.seller, rec.deposit, memo="deposit-return")

    def match_products(self, keyword: str) -> list[dict]:
        if not isinstance(keyword, str):
            raise InvalidInput(f"a keyword is a str, got {type(keyword).__name__}")
        word = keyword.lower()
        hits = [
            {
                "data_id": rec.data_id,
                "description": rec.description,
                "price": rec.price,
                "size": rec.size_bytes,
                "providers": sorted(p for p, confirmed in rec.providers.items() if confirmed),
            }
            for rec in self.records.values()
            if rec.status == LIVE and word in rec.description.lower()
        ]
        return sorted(hits, key=lambda d: d["data_id"])

    # ---------------------------------------------------------------- SCMC

    def scmc_place_order(self, consumer: Address, data_id: str, tokens: int) -> str:
        if type(tokens) is not int or tokens < 0:
            raise InvalidInput(f"an order pays whole tokens, at least 0, got {tokens!r}")
        rec = self._record(data_id, LIVE)
        required = rec.price + rec.n * rec.unit_price
        if tokens < required:
            if tokens > 0:
                self.ledger.transfer(consumer, self.ssmc_addr, tokens, memo="forfeit")
            self.ledger.log_event(
                "order_discarded", data_id=data_id, tokens=tokens, required=required
            )
            raise InsufficientTokens(f"{tokens} < price+size*unit price = {required}")
        order_id = f"o{len(self.orders) + 1:04d}"
        account = address_for(f"contract:CPC:{order_id}")
        self.ledger.transfer(consumer, account, tokens, memo="escrow")
        deadline = self.ledger.height + APPEAL_WINDOW
        seller = Tranche(rec.seller, rec.price, range(rec.n), rec.r_ed, deadline)
        self.orders[order_id] = Order(
            order_id=order_id, consumer=consumer, data_id=data_id, tokens=tokens,
            account=account, tranches={SELLER_PAYEE: seller},
        )
        self.escrow_flows[order_id] = {"in": tokens}
        self.ledger.log_event("order_funded", order_id=order_id, data_id=data_id)
        return order_id

    def scmc_select(
        self, order_id: str, assignments: list[tuple[Address, list[int]]]
    ) -> None:
        if not (isinstance(assignments, (list, tuple))
                and all(map(_well_formed_assignment, assignments))):
            raise InvalidInput("each assignment is a str provider and a list of int indices")
        order = self._order(order_id, FUNDED)
        rec = self._record(order.data_id)
        packages: dict[Address, list[int]] = {}
        covered: set[int] = set()
        for provider, indices in assignments:
            if not rec.providers.get(provider):
                raise BadState(f"{provider} not confirmed for {rec.data_id}")
            for i in indices:
                if not 0 <= i < rec.n:
                    raise InvalidInput(f"shard index {i} is outside [0, {rec.n})")
                if i not in covered:  # duplicates go to the first listed
                    covered.add(i)
                    packages.setdefault(provider, []).append(i)
        if covered != set(range(rec.n)):
            raise InvalidInput(f"shards {sorted(set(range(rec.n)) - covered)} unassigned")
        for provider, package in packages.items():
            order.tranches[provider_payee(provider)] = Tranche(
                provider, len(package) * rec.unit_price, package, None, 0  # _enter sets it
            )
        self._enter(order, DOWNLOADING)
        self.ledger.log_event("order_selected", order_id=order_id)

    def scmc_record_provider_root(self, provider: Address, order_id: str, r_eed: bytes) -> None:
        # an appeal against a provider is judged on this root: it is fixed
        # once, by the provider, before the escrow opens and any key can be posted
        order = self._order(order_id, DOWNLOADING)
        tranche = self._tranche(order, provider_payee(provider))
        if tranche.root is not None:
            raise BadState(f"{provider} already recorded its root for {order_id}")
        tranche.root = r_eed
        self.ledger.log_event("provider_root", order_id=order_id, provider=provider)

    # ----------------------------------------------------------------- CPC

    def cpc_open(self, order_id: str) -> None:
        order = self._order(order_id, DOWNLOADING)
        if any(t.root is None for t in order.tranches.values()):
            # every r_eed is fixed before any key can be posted
            raise BadState(f"order {order_id} lacks a serving provider's root")
        self._enter(order, ESCROWED)
        self.ledger.log_event("escrow_open", order_id=order_id)

    def cpc_post_pubkey(self, sender: Address, order_id: str, pub_cm: bytes) -> None:
        order = self._order(order_id, ESCROWED)
        if sender != order.consumer:
            raise WrongSender(f"only the consumer of {order_id} can post its public key")
        crypto.check_public_key(pub_cm)
        if order.pub_cm is not None:
            raise BadState("public key already posted for this order")
        if pub_cm in self.seen_pubkeys:
            raise BadState("consumer key pair must be fresh per order")
        if all(self.ledger.height > t.deadline for t in order.tranches.values()):
            # settle is already open to anyone, and a key must not close it again
            raise BadState(f"every window of {order_id} has closed; only settle remains")
        self.seen_pubkeys.add(pub_cm)
        order.pub_cm = pub_cm
        # the payees can wrap their keys only now, so each gets a full window
        self._enter(order, ESCROWED)
        self.ledger.log_event("pubkey_posted", order_id=order_id)

    def cpc_post_key(
        self, sender: Address, order_id: str, payee: str, wrapped_key: bytes
    ) -> None:
        order = self._order(order_id, ESCROWED)
        if order.pub_cm is None:
            raise BadState("consumer public key not posted yet")
        tranche = self._tranche(order, payee)
        if sender != tranche.party:
            raise WrongSender(f"only {payee} can post its key")
        if not isinstance(wrapped_key, bytes):
            raise InvalidInput(f"a posted key is bytes, got {type(wrapped_key).__name__}")
        if tranche.wrapped_key is not None:
            raise BadState(f"{payee} already posted a key")
        if self.ledger.height > tranche.deadline:
            raise BadState(f"posting window closed at height {tranche.deadline}")
        tranche.wrapped_key = wrapped_key
        tranche.deadline = self.ledger.height + APPEAL_WINDOW
        self.ledger.log_event("key_posted", order_id=order_id, payee=payee)

    def cpc_appeal(
        self, order_id: str, payee: str, pri_cm: bytes, evidence: AppealEvidence
    ) -> str:
        if not (
            isinstance(evidence, AppealEvidence) and type(evidence.index) is int
            and isinstance(evidence.ciphertext, (bytes, bytearray))
            and all(isinstance(p, MerkleProof) for p in (evidence.auth_proof, evidence.inner_proof))
        ):
            raise InvalidInput("evidence is an int index, bytes and two Merkle proofs")
        order = self._order(order_id, ESCROWED)
        if order.pub_cm is None:
            raise BadState("no consumer public key on record")
        # parsed once, for the check and the unwrap
        sk = crypto.private_key(pri_cm)
        if crypto.public_key_of(sk) != order.pub_cm:
            raise WrongSender("private key does not match the posted public key")
        tranche = self._tranche(order, payee)
        if tranche.wrapped_key is None:
            raise BadState(f"{payee} has not posted a key; nothing to appeal")
        if tranche.verdict is not None:
            raise BadState(f"appeal against {payee} already decided")
        if self.ledger.height > tranche.deadline:
            raise BadState("appeal window closed")
        rec = self._record(order.data_id)
        if evidence.index not in tranche.shards:
            raise InvalidInput(f"shard {evidence.index} is not one that {payee} is paid for")
        verdict, _ = judge(rec, tranche, payee == SELLER_PAYEE, sk, evidence)
        tranche.verdict = verdict
        self.ledger.log_event("appeal", order_id=order_id, payee=payee, verdict=verdict)
        return verdict

    def cpc_settle(self, order_id: str) -> dict[str, int]:
        """Close an open order once every undecided tranche is past its
        deadline: pay each payee that posted a key no appeal upheld, and
        refund the rest, and the excess, to the consumer."""
        order = self._order(order_id, FUNDED, DOWNLOADING, ESCROWED)
        for payee, tranche in order.tranches.items():
            if tranche.verdict is None and self.ledger.height <= tranche.deadline:
                window = "posting" if tranche.wrapped_key is None else "appeal"
                raise BadState(f"{window} window for {payee} still open")
        transfers: dict[str, int] = {}
        disbursed = 0
        rec = self._record(order.data_id)
        held = self.ledger.balance(order.account)
        if held < order.tokens:
            raise BadState(f"escrow for {order_id} holds {held} of its {order.tokens} tokens")
        for payee, tranche in order.tranches.items():
            if tranche.wrapped_key is None or tranche.verdict == UPHELD:
                dst, memo = order.consumer, f"refund:{payee}"
            else:
                dst, memo = tranche.party, f"pay:{payee}"
            if tranche.amount > 0:
                self.ledger.transfer(order.account, dst, tranche.amount, memo=memo)
            transfers[memo] = tranche.amount
            disbursed += tranche.amount
        excess = order.tokens - disbursed
        if excess > 0:
            self.ledger.transfer(order.account, order.consumer, excess, memo="excess")
            transfers["excess"] = excess
        if held - self.ledger.balance(order.account) != order.tokens:
            raise BadState(f"escrow for {order_id} did not release its {order.tokens} tokens")
        order.status = CLOSED
        self._return_deposit(rec)
        self.ledger.log_event("settled", order_id=order_id, transfers=transfers)
        return transfers

    # -------------------------------------------------------------- helpers

    def _enter(self, order: Order, status: str) -> None:
        """Put ``order`` in the open ``status`` and start every tranche's
        window afresh."""
        for tranche in order.tranches.values():
            tranche.deadline = self.ledger.height + APPEAL_WINDOW
        order.status = status

    def _record(self, data_id: str, *statuses: str) -> DataRecord:
        """The listing, if it is in one of ``statuses`` (in any, if none is given)."""
        if not isinstance(data_id, str):
            raise InvalidInput(f"a data id is a str, got {type(data_id).__name__}")
        rec = self.records.get(data_id)
        if rec is None:
            raise NotFound(f"unknown data id {data_id}")
        if statuses and rec.status not in statuses:
            raise BadState(f"{data_id} is {rec.status}, expected {' or '.join(statuses)}")
        return rec

    def _order(self, order_id: str, *statuses: str) -> Order:
        """The order, if it is in one of ``statuses``."""
        if not isinstance(order_id, str):
            raise InvalidInput(f"an order id is a str, got {type(order_id).__name__}")
        order = self.orders.get(order_id)
        if order is None:
            raise NotFound(f"unknown order id {order_id}")
        if order.status not in statuses:
            raise BadState(f"order {order_id} is {order.status}, expected {' or '.join(statuses)}")
        return order

    def _tranche(self, order: Order, payee: str) -> Tranche:
        """The order's tranche for ``payee``, if the order pays it."""
        if not isinstance(payee, str):
            raise InvalidInput(f"a payee is a str, got {type(payee).__name__}")
        tranche = order.tranches.get(payee)
        if tranche is None:
            raise NotFound(f"order {order.order_id} pays no {payee}")
        return tranche
