"""Strategy-parameterized seller / consumer / provider agents.

``run_trade`` is the one trade pipeline: it drives a full trade under a
strategy profile, with the shards split across providers and delivered by a
caller-chosen transport, and returns a transcript: contract events, balance
deltas, appeal verdicts, and a data-recovery flag.  ``run_scenario`` runs it
on seeded random data with one provider and in-memory delivery; the
benchmark runs it over throttled sockets.  Cheating variants:

* seller ``b``/``d`` substitute garbage shards after passing exposure (the
  exposure step kills pre-exposure fakery outright, which would make those
  strategies unreachable), sealed under the ``SUBSTITUTE`` nonce tag so that
  ``b`` never reuses a nonce its honest seal took under the same K_i;
* seller ``c``/``d`` post a key unrelated to the one the shards were
  encrypted under; ``d`` encrypts its garbage under the key it posts, so
  the substitution is only detectable through the plaintext commitment;
* provider ``k``/``l`` re-encrypt garbage instead of the seller's shards,
  ``j``/``l`` post a wrong re-encryption key;
* consumer ``f``/``g``/``h`` offer less than the listed price + fees, so
  the order is never funded.

Each provider delivers one frame per shard: the eed shard, its proof in
the provider's r_eed, and the seller's proof of the inner shard in r_ed,
which the seller hands over with the shard.  The honest consumer holds only
what a consumer holds: the on-chain record, order and escrow, its private
key, the listing's r_d leaf digests and the delivered frames.  It files one
appeal per cheating payee, peeling the layers in the phase that posts their
keys.  In the download phase it checks each provider's frames against that
provider's on-chain root, refusing a missing or mismatched frame before any
appeal, and opens them with the provider's posted key; a package that will
not open implicates its provider, and the frame is the appeal.  In the
decrypt phase it opens the other shards under the seller's posted key: a
genuine seller-layer shard (on r_ed by the seller's proof) that will not
open, or plaintext off the seller's commitment, implicates the seller; any
other shard that will not open was swapped by its provider.  A posted key
that ``crypto.pk_decrypt`` will not unwrap opens no shard, so its payee is
appealed like any payee whose shard will not open, and the contract
upholds that appeal.  Recovery is decided by the seller's plaintext root
r_d alone, as the consumer never holds the seller's data.  Every appeal
names the shard by its global index.  Every sealing key hashes in the data
set it seals, so trades with one seed and different data never share a
(key, nonce) pair.  The expected outcome of each cheat profile is pinned
by the tests' cheat catalog.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from . import crypto, metrics
from .contracts import (
    AppealEvidence,
    ContractSystem,
    SELLER_PAYEE,
    provider_payee,
)
from .errors import DecryptError, InsufficientTokens, InvalidInput, ProofFailure
from .ledger import Ledger, address_for
from .merkle import MerkleProof, mproof, mtree, mvrfy
from .sharding import provider_encrypt, shard_encrypt

SELLER_STRATEGIES = "abcd"
CONSUMER_STRATEGIES = "efgh"
PROVIDER_STRATEGIES = "ijkl"

PRICE = 20  # units paid to the seller
FEE = 4  # units paid to the provider(s)
SUBSTITUTE = b"subs"  # nonce layer tag of a cheating seller's garbage shards


@dataclass(frozen=True)
class StrategyProfile:
    seller: str
    consumer: str
    provider: str

    def __post_init__(self):
        if (
            self.seller not in SELLER_STRATEGIES
            or self.consumer not in CONSUMER_STRATEGIES
            or self.provider not in PROVIDER_STRATEGIES
        ):
            raise InvalidInput(f"bad profile {self.seller}{self.consumer}{self.provider}")

    @classmethod
    def parse(cls, text: str) -> "StrategyProfile":
        if len(text) != 3:
            raise InvalidInput(f"profile must be three letters, got {text!r}")
        return cls(text[0], text[1], text[2])

    def __str__(self) -> str:
        return self.seller + self.consumer + self.provider


def all_profiles() -> list[StrategyProfile]:
    return [
        StrategyProfile(sl, cm, sp)
        for sl in SELLER_STRATEGIES
        for cm in CONSUMER_STRATEGIES
        for sp in PROVIDER_STRATEGIES
    ]


@dataclass
class RunTranscript:
    profile: str
    x: float
    y: float
    n: int
    price: int
    unit_price: int
    seed: int
    funded: bool = False
    recovery: bool = False
    verdicts: dict[str, str] = field(default_factory=dict)
    appeals: list[dict] = field(default_factory=list)
    deltas: dict[str, int] = field(default_factory=dict)
    balances: dict[str, int] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    phase_ops: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def _validate_params(x: float, y: float) -> None:
    if not (0 <= x < PRICE and 0 <= y < FEE):
        raise InvalidInput(f"need 0<=x<{PRICE} and 0<=y<{FEE}, got x={x} y={y}")


def run_scenario(
    profile: StrategyProfile | str,
    x: float = 10.0,
    y: float = 2.0,
    n: int = 8,
    price: int = 40,
    unit_price: int = 1,
    seed: int = 0,
    slot: int = 1 << 20,
) -> RunTranscript:
    """One seeded trade of ``n`` random shards through a single provider."""
    if isinstance(profile, str):
        profile = StrategyProfile.parse(profile)
    _validate_params(x, y)
    rng = random.Random(("scenario", str(profile), seed).__repr__())
    data = rng.randbytes(n * slot)
    return run_trade(
        profile, data, slot, [list(range(n))], deliver_in_memory, rng,
        x=x, y=y, price=price, unit_price=unit_price, seed=seed,
    )


# What a provider delivers for global shard i: the eed shard, its proof in the
# provider's r_eed (at the shard's package position), and the seller's proof
# of the inner shard in r_ed, handed over with the shard.  A frame is also a
# whole appeal against its provider: ``AppealEvidence(i, *frame)``.
Frame = tuple[bytes, MerkleProof, MerkleProof]
Served = list[dict[int, Frame]]  # per provider: global shard index -> frame


def deliver_in_memory(served: Served) -> Served:
    """Hand every provider's shards straight to the consumer."""
    return served


def run_trade(
    profile: StrategyProfile,
    data: bytes,
    slot: int,
    assignment: list[list[int]],
    deliver: Callable[[Served], Served],
    rng: random.Random,
    x: float = 10.0,
    y: float = 2.0,
    price: int = 40,
    unit_price: int = 1,
    seed: int = 0,
) -> RunTranscript:
    """Trade ``data`` end to end under ``profile`` and return the transcript.

    Provider ``p`` serves the shard indices ``assignment[p]``; ``deliver``
    carries the shards the providers serve to the consumer.  Cheating
    sellers and providers draw the garbage they serve from ``rng``.  The
    consumer appeals once against each payee it catches cheating.
    """
    seed_tag = str(seed).encode()
    labels = ["seller", "consumer", "provider"] + [
        f"provider{p}" for p in range(1, len(assignment))
    ]
    addrs = {label: address_for(f"actor:{label}") for label in labels}
    seller, consumer = addrs["seller"], addrs["consumer"]
    providers = [addrs[label] for label in labels[2:]]
    secret = hashlib.sha256(b"master" + seed_tag).digest()

    with metrics.collect() as col:
        with col.phase("upload"):
            shards = shard_encrypt(secret, data, slot)
            n = shards.n
            # every party can afford the full order
            endow = max(100 * price, price + n * unit_price)
            ledger = Ledger({addr: endow for addr in addrs.values()})
            system = ContractSystem(ledger)
            tr = RunTranscript(
                profile=str(profile), x=x, y=y, n=n, price=price,
                unit_price=unit_price, seed=seed,
            )
            data_id = system.ssmc_register_seller(
                seller, "tcp://seller", "weather sensor dump", len(data), n,
                shards.root_plain, shards.root_enc, price, unit_price,
                deposit=system.min_deposit(price),
            )
            record = system.records[data_id]
            # published with the listing until the record holds them
            r_d_leaves = shards.tree_plain.levels[0]
            # the key a cheating seller posts, bound to the data set as shards.master is
            wrong_master = hashlib.sha256(b"not-the-master" + seed_tag + record.r_d).digest()
            ledger.mine_block()  # seals the registration
            ledger.mine_block()  # supplies the exposure randomness
            pieces = [
                (i, shards.plain_shards[i], mproof(shards.tree_plain, i),
                 mproof(shards.tree_enc, i), shards.enc_shards[i])
                for i in system.expected_exposure_indices(data_id)
            ]
            system.ssmc_expose(data_id, pieces)
            for label, provider in zip(labels[2:], providers):
                system.ssmc_register_provider(provider, f"tcp://{label}", data_id)
                system.ssmc_confirm_provider(seller, provider, data_id)
            ledger.mine_block()

        required = price + n * unit_price
        x_tokens = round(x * price / PRICE)
        y_tokens = round(y * n * unit_price / FEE)
        offer = {
            "e": required,
            "f": x_tokens + n * unit_price,
            "g": price + y_tokens,
            "h": x_tokens + y_tokens,
        }[profile.consumer]
        try:
            order_id = system.scmc_place_order(consumer, data_id, offer)
        except InsufficientTokens:
            # order discarded before funding; the seller withdraws the listing
            # so the deposit round-trips
            ledger.mine_block()
            system.ssmc_delist(seller, data_id)
            ledger.mine_block()
            return _finalize(tr, ledger, col, addrs, endow)
        tr.funded = True

        with col.phase("download"):
            system.scmc_select(order_id, list(zip(providers, assignment)))
            order = system.orders[order_id]
            # the seller hands the providers one shard set (honest or
            # substituted), each shard with its proof in r_ed
            r_ed_proofs = [mproof(shards.tree_enc, i) for i in range(n)]
            if profile.seller in "bd":
                basis = shards.master if profile.seller == "b" else wrong_master
                keys = crypto.derive_keys(basis, n)
                inner_served = tuple(
                    crypto.sym_encrypt(k, rng.randbytes(slot), SUBSTITUTE, i)
                    for i, k in enumerate(keys)
                )
            else:
                inner_served = shards.enc_shards
            # each provider wraps the package the contract recorded for it (its
            # listed shards less those an earlier-listed provider serves) and
            # commits that root; a listed provider left with none serves nothing
            packages = {}
            for p, (provider, indices) in enumerate(order.served.items()):
                to_wrap = [inner_served[i] for i in indices]
                if profile.provider in "kl":
                    to_wrap = [rng.randbytes(len(s)) for s in to_wrap]
                # each provider key is bound to the data set through r_ed
                sp_seed = hashlib.sha256(b"sp" + bytes([p]) + seed_tag + record.r_ed).digest()
                packages[provider] = provider_encrypt(to_wrap, sp_seed)
                system.scmc_record_provider_root(order_id, provider, packages[provider].root)
            escrow = system.cpc_open(order_id)
            kp = crypto.pk_keygen(b"consumer" + str((str(profile), seed)).encode())
            system.cpc_post_pubkey(order_id, kp.public)
            wrong_sp_key = hashlib.sha256(b"not-the-sp-key" + seed_tag).digest()
            for provider, pkg in packages.items():
                sp_key_posted = pkg.key if profile.provider in "ik" else wrong_sp_key
                system.cpc_post_key(
                    order_id, provider_payee(provider),
                    crypto.pk_encrypt(kp.public, sp_key_posted),
                )
            ledger.mine_block()
            delivered = deliver([
                {i: (pkg.eed_shards[j], mproof(pkg.tree_eed, j), r_ed_proofs[i])
                 for j, i in enumerate(order.served[sp])}
                for sp, pkg in packages.items()
            ])
            received = dict(zip(order.served, delivered))
            opened, appeals = _open_provider_layer(order, escrow, kp.private, received)

        with col.phase("decrypt"):
            sl_key_posted = wrong_master if profile.seller in "cd" else shards.master
            system.cpc_post_key(
                order_id, SELLER_PAYEE, crypto.pk_encrypt(kp.public, sl_key_posted)
            )
            ledger.mine_block()
            appeals += _open_seller_layer(record, escrow, kp.private, r_d_leaves, opened)
        tr.recovery = not appeals

        with col.phase("appeal"):
            for payee, evidence in appeals:
                verdict = system.cpc_appeal(order_id, payee, kp.private, evidence)
                tr.appeals.append({"payee": payee, "index": evidence.index, "verdict": verdict})
        for _ in range(system.config.appeal_window + 1):
            ledger.mine_block()
        system.cpc_settle(order_id)
        ledger.mine_block()
        tr.verdicts = dict(system.escrows[order_id].verdicts)
    return _finalize(tr, ledger, col, addrs, endow)


def _open_provider_layer(order, escrow, private, received):
    """The consumer's provider layer, in the download phase.

    Checks each provider's delivered frames against its on-chain root, then
    unwraps its posted key and opens its eed shards with it in package
    order.  Returns the opened seller-layer shards (global index ->
    (provider, shard, frame)) and one appeal against each provider with a
    shard that will not open, whose package is dropped; an unusable key is
    a first shard that will not open.  A missing or mismatched frame raises
    ``ProofFailure`` before any appeal.
    """
    opened, appeals = {}, []
    for provider, indices in order.served.items():
        frames, root = received.get(provider, {}), order.provider_roots[provider]
        for j, i in enumerate(indices):
            frame = frames.get(i)
            if frame is None or not mvrfy(j, root, frame[0], frame[1], len(indices)):
                raise ProofFailure(f"shard {i} does not match {provider}'s root")
        package = {}
        try:
            key = crypto.pk_decrypt(private, escrow.posted_keys[provider_payee(provider)])
            for i in indices:
                package[i] = provider, crypto.sym_decrypt(key, frames[i][0]), frames[i]
        except DecryptError:
            i = indices[len(package)]  # the first shard that did not open
            appeals.append((provider_payee(provider), AppealEvidence(i, *frames[i])))
        else:
            opened.update(package)
    return opened, appeals


def _open_seller_layer(record, escrow, private, r_d_leaves, opened):
    """The consumer's seller layer, in the decrypt phase.

    Unwraps the seller's posted key, then opens the shards of the providers
    not yet caught, in index order, each under its K_i; under an unusable
    key no shard opens.  A genuine shard (on r_ed, by the seller's proof in
    its frame) that will not open implicates the seller and ends the scan;
    any other shard that will not open implicates its provider, whose other
    shards are skipped.  With no shard left to open, the seller keeps its
    tranche.  Only when every shard opened is the plaintext checked against
    r_d, which alone decides recovery; the first shard off the published
    leaf digests ``r_d_leaves`` implicates the seller.
    """
    n = record.n
    try:
        master = crypto.pk_decrypt(private, escrow.posted_keys[SELLER_PAYEE])
        shard_keys = crypto.derive_keys(master, n)
    except DecryptError:
        shard_keys = None  # an unusable key opens no shard
    plain, appeals, caught = {}, [], set()
    for i in sorted(opened):
        provider, enc_i, frame = opened[i]
        if provider in caught:
            continue
        on_r_ed = mvrfy(i, record.r_ed, enc_i, frame[2], n)
        try:
            if shard_keys is None:
                raise DecryptError("the seller's posted key does not unwrap")
            plain[i] = crypto.sym_decrypt(shard_keys[i], enc_i)
        except DecryptError:
            if on_r_ed:
                return appeals + [(SELLER_PAYEE, AppealEvidence(i, enc_i, frame[2], frame[2]))]
            # anything off r_ed was swapped in transit
            appeals.append((provider_payee(provider), AppealEvidence(i, *frame)))
            caught.add(provider)
    if appeals or len(opened) < n:  # a caught payee's shards never reach r_d
        return appeals
    check = mtree([plain[i] for i in range(n)])
    if check.root == record.r_d:
        return []
    # opened under the seller's posted key but off-commitment
    i = next(j for j in range(n) if check.levels[0][j] != r_d_leaves[j])
    _, enc_i, frame = opened[i]
    return [(SELLER_PAYEE, AppealEvidence(i, enc_i, frame[2], mproof(check, i)))]


def _finalize(tr, ledger, col, addrs, endow) -> RunTranscript:
    tr.balances = {label: ledger.balance(addr) for label, addr in addrs.items()}
    tr.deltas = {k: v - endow for k, v in tr.balances.items()}
    tr.events = [dict(e) for e in ledger.events]
    tr.phase_ops = {label: c.as_dict() for label, c in col.phases.items()}
    return tr

