"""Strategy-parameterized seller / consumer / provider agents.

``run_trade`` is the one trade pipeline: it drives a full trade under a
strategy profile, with the shards split across providers and delivered by a
caller-chosen transport, and returns a transcript: contract events, balance
deltas, appeal verdicts, and a data-recovery flag.  ``run_scenario`` runs it
on seeded random data with one provider and in-memory delivery; the
benchmark runs it over throttled sockets.  Cheating variants:

* seller ``b``/``d`` substitute garbage shards after passing exposure
  (exposure catches fakery in the shards it samples, but a seller that
  grinds the block hash its indices come from can steer them clear of
  fake shards), sealed under the ``SUBSTITUTE`` nonce tag so that ``b``
  never reuses a nonce its honest seal took under the same K_i;
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
what a consumer holds: the on-chain record and order (whose tranches hold
each payee's shards, root and posted key), its private key, the listing's
r_d leaf digests and the delivered frames.  It files one
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

Each party's copy of a layer is released once its next holder has its
own, so the freed shard buffers take the next layer the consumer opens: the
providers' packages go as their frames are sent (a transport that copies
drops each frame once it is sent, and the consumer's received frame takes
its memory), the seller's enc layer once the consumer holds its frames, and
a shard's eed frame once the shard opens under K_i, after which it is
evidence only against the seller.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable

from . import crypto, metrics
from .contracts import APPEAL_WINDOW, AppealEvidence, ContractSystem, SELLER_PAYEE
from .errors import DecryptError, InsufficientTokens, InvalidInput, ProofFailure
from .ledger import Ledger, address_for
from .merkle import MerkleProof, leaf_digests, mproof, mtree, mvrfy_digest
from .sharding import provider_encrypt, shard_encrypt

SELLER_STRATEGIES = "abcd"
CONSUMER_STRATEGIES = "efgh"
PROVIDER_STRATEGIES = "ijkl"

PRICE = 20  # units paid to the seller
FEE = 4  # units paid to the provider(s)
# a trade's prices in tokens: 2 per unit of PRICE, and of FEE at 8 shards
LISTING_PRICE = 40  # tokens for the data, to the seller
UNIT_PRICE = 1  # tokens per shard, to its provider
SUBSTITUTE = b"subs"  # nonce layer tag of a cheating seller's garbage shards


# each role's strategy letters, in move order: a profile is one letter of each
ROLES = (SELLER_STRATEGIES, CONSUMER_STRATEGIES, PROVIDER_STRATEGIES)


def all_profiles() -> list[str]:
    """The 64 profiles, seller letter outermost."""
    return ["".join(letters) for letters in itertools.product(*ROLES)]


_PROFILES = frozenset(all_profiles())


def check_profile(profile: str) -> None:
    """Raise ``InvalidInput`` unless ``profile`` is one strategy letter per role."""
    if not isinstance(profile, str) or profile not in _PROFILES:
        raise InvalidInput(f"profile must be one letter from each of {ROLES}, got {profile!r}")


def consumer_offer(consumer: str, x: float, y: float) -> tuple[float, float]:
    """What a consumer strategy pays, in units: (to the seller, to the providers).

    The honest ``e`` pays PRICE and FEE; ``f`` pays the seller only ``x``,
    ``g`` the providers only ``y``, and ``h`` both only part.
    """
    return (PRICE if consumer in "eg" else x, FEE if consumer in "ef" else y)


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
    profile: str,
    x: float = 10.0,
    y: float = 2.0,
    n: int = 8,
    seed: int = 0,
    slot: int = 4096,
) -> RunTranscript:
    """One seeded trade of ``n`` random shards through a single provider.

    A transcript holds no shard bytes, so ``slot`` changes nothing it reports.
    """
    check_profile(profile)
    _validate_params(x, y)
    data = crypto.seeded_bytes(n * slot, "scenario", profile, seed)
    return run_trade(
        profile, data, slot, [list(range(n))], deliver_in_memory, x=x, y=y, seed=seed
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
    profile: str,
    data: bytes,
    slot: int,
    assignment: list[list[int]],
    deliver: Callable[[Served], Served],
    x: float = 10.0,
    y: float = 2.0,
    seed: int = 0,
) -> RunTranscript:
    """Trade ``data`` end to end under ``profile`` and return the transcript.

    Provider ``p`` serves the shard indices ``assignment[p]``; ``deliver``
    carries the frames the providers serve to the consumer, and may take
    them out of the dicts it is handed.  Cheating sellers and providers draw
    the garbage they serve from ``crypto.seeded_bytes``, seeded by
    ``profile`` and ``seed``.  The consumer appeals once against each payee
    it catches cheating.  Raises ``InvalidInput`` before any transfer unless the
    consumer's offer comes to whole tokens at this data set's shard count.
    """
    check_profile(profile)
    sl, cm, sp = profile
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
            n, master = shards.n, shards.master
            # the offer in tokens: LISTING_PRICE / PRICE per unit to the
            # seller, n * UNIT_PRICE / FEE per unit to the providers
            to_seller, to_providers = consumer_offer(cm, x, y)
            offer = to_seller * LISTING_PRICE / PRICE, to_providers * n * UNIT_PRICE / FEE
            if not all(part.is_integer() for part in offer):
                raise InvalidInput(f"x={x}, y={y} do not come to whole tokens at {n} shards")
            # every party can afford the full order
            endow = max(100 * LISTING_PRICE, LISTING_PRICE + n * UNIT_PRICE)
            ledger = Ledger({addr: endow for addr in addrs.values()})
            system = ContractSystem(ledger)
            tr = RunTranscript(
                profile=profile, x=x, y=y, n=n, price=LISTING_PRICE,
                unit_price=UNIT_PRICE, seed=seed,
            )
            data_id = system.ssmc_register_seller(
                seller, "tcp://seller", "weather sensor dump", len(data), n,
                shards.root_plain, shards.root_enc, LISTING_PRICE, UNIT_PRICE,
                deposit=system.min_deposit(LISTING_PRICE),
            )
            record = system.records[data_id]
            # published with the listing until the record holds them
            r_d_leaves = shards.tree_plain.levels[0]
            # the key a cheating seller posts, bound to the data set as master is
            wrong_master = hashlib.sha256(b"not-the-master" + seed_tag + record.r_d).digest()
            ledger.mine_block()  # seals the registration
            ledger.mine_block()  # supplies the exposure randomness
            system.ssmc_expose(data_id, [
                (i, shards.plain_shards[i], mproof(shards.tree_plain, i),
                 mproof(shards.tree_enc, i), shards.enc_shards[i])
                for i in system.expected_exposure_indices(data_id)
            ])
            for label, provider in zip(labels[2:], providers):
                system.ssmc_register_provider(provider, f"tcp://{label}", data_id)
                system.ssmc_confirm_provider(seller, provider, data_id)
            ledger.mine_block()

        try:
            order_id = system.scmc_place_order(consumer, data_id, int(sum(offer)))
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
            if sl in "bd":
                basis = master if sl == "b" else wrong_master
                keys = crypto.derive_keys(basis, n)
                garbage = _garbage([slot] * n, "seller", profile, seed)
                inner_served = tuple(
                    crypto.sym_encrypt(k, g, SUBSTITUTE, i)
                    for i, (k, g) in enumerate(zip(keys, garbage))
                )
                del garbage
            else:
                inner_served = shards.enc_shards
            # a cheating provider wraps garbage of the same sizes instead
            wrapped = (
                _garbage(list(map(len, inner_served)), "provider", profile, seed)
                if sp in "kl" else inner_served
            )
            # each provider wraps the package the contract recorded for it (its
            # listed shards less those an earlier-listed provider serves) and
            # commits that root; a listed provider left with none serves nothing
            serving = _provider_tranches(order)
            packages = {}
            for p, (payee, tranche) in enumerate(serving.items()):
                # each provider key is bound to the data set through r_ed
                sp_seed = hashlib.sha256(b"sp" + bytes([p]) + seed_tag + record.r_ed).digest()
                packages[payee] = provider_encrypt([wrapped[i] for i in tranche.shards], sp_seed)
                system.scmc_record_provider_root(tranche.party, order_id, packages[payee].root)
            del wrapped  # a cheating provider's garbage is sealed in its packages
            system.cpc_open(order_id)
            kp = crypto.pk_keygen(b"consumer" + str((profile, seed)).encode())
            system.cpc_post_pubkey(consumer, order_id, kp.public)
            wrong_sp_key = hashlib.sha256(b"not-the-sp-key" + seed_tag).digest()
            for payee in packages:
                sp_key_posted = packages[payee].key if sp in "ik" else wrong_sp_key
                system.cpc_post_key(
                    serving[payee].party, order_id, payee,
                    crypto.pk_encrypt(kp.public, sp_key_posted),
                )
            ledger.mine_block()
            served = [
                {i: (pkg.eed_shards[j], mproof(pkg.tree_eed, j), r_ed_proofs[i])
                 for j, i in enumerate(serving[payee].shards)}
                for payee, pkg in packages.items()
            ]
            # the frames hold the only copy of the eed layer, so a transport
            # that drops each frame once it is sent frees the memory that
            # the consumer's next received frame takes
            del packages
            received = dict(zip(serving, deliver(served)))
            # the consumer holds its own frames, so the seller's layer goes
            # and its buffers take the provider layer the consumer opens
            del shards, inner_served, served
            opened, appeals = _open_provider_layer(order, kp.key, received)
            del received

        with col.phase("decrypt"):
            sl_key_posted = wrong_master if sl in "cd" else master
            system.cpc_post_key(
                seller, order_id, SELLER_PAYEE, crypto.pk_encrypt(kp.public, sl_key_posted)
            )
            ledger.mine_block()
            appeals += _open_seller_layer(record, order, kp.key, r_d_leaves, opened)
        tr.recovery = not appeals

        with col.phase("appeal"):
            for payee, evidence in appeals:
                verdict = system.cpc_appeal(order_id, payee, kp.private, evidence)
                tr.appeals.append({"payee": payee, "index": evidence.index, "verdict": verdict})
        for _ in range(APPEAL_WINDOW + 1):
            ledger.mine_block()
        system.cpc_settle(order_id)
        ledger.mine_block()
        tranches = order.tranches.items()
        tr.verdicts = {payee: t.verdict for payee, t in tranches if t.verdict is not None}
    return _finalize(tr, ledger, col, addrs, endow)


def _garbage(sizes: list[int], *label) -> list[memoryview]:
    """Consecutive pieces of the given sizes from one ``seeded_bytes`` draw."""
    view = memoryview(crypto.seeded_bytes(sum(sizes), "garbage", *label))
    starts = itertools.accumulate(sizes, initial=0)
    return [view[at : at + size] for at, size in zip(starts, sizes)]


def _provider_tranches(order):
    """The order's provider tranches (payee -> tranche), in selection order."""
    return {payee: t for payee, t in order.tranches.items() if payee != SELLER_PAYEE}


def _open_provider_layer(order, private, received):
    """The consumer's provider layer, in the download phase.

    Checks each provider's delivered frames (``received``: payee -> global
    index -> frame) against its on-chain root, then unwraps its posted key
    and opens its eed shards with it in package order.  Returns the opened
    seller-layer shards (global index -> (payee, shard, frame)) and one
    appeal against each provider with a shard that will not open, whose
    package is dropped; an unusable key is a first shard that will not
    open.  A missing or mismatched frame raises ``ProofFailure`` before any
    appeal.
    """
    opened, appeals = {}, []
    for payee, tranche in _provider_tranches(order).items():
        frames, indices, root = received.get(payee, {}), tranche.shards, tranche.root
        # hashed in one call, on every core; the digests line up with
        # ``indices`` up to the first missing frame, where the scan stops
        digests = leaf_digests([frames[i][0] for i in indices if i in frames])
        for j, i in enumerate(indices):
            frame = frames.get(i)
            if frame is None or not mvrfy_digest(j, root, digests[j], frame[1], len(indices)):
                raise ProofFailure(f"shard {i} does not match {payee}'s root")
        package = {}
        try:
            key = crypto.pk_decrypt(private, tranche.wrapped_key)
            for i in indices:
                package[i] = payee, crypto.sym_decrypt(key, frames[i][0]), frames[i]
        except DecryptError:
            i = indices[len(package)]  # the first shard that did not open
            appeals.append((payee, AppealEvidence(i, *frames[i])))
        else:
            opened.update(package)
    return opened, appeals


def _open_seller_layer(record, order, private, r_d_leaves, opened):
    """The consumer's seller layer, in the decrypt phase.

    Unwraps the seller's posted key, then opens the shards of the providers
    not yet caught, in index order, each under its K_i; under an unusable
    key no shard opens.  A genuine shard (on r_ed, by the seller's proof in
    its frame) that will not open implicates the seller and ends the scan;
    any other shard that will not open implicates its provider, whose other
    shards are skipped.  With no shard left to open, the seller keeps its
    tranche, unless its key will not unwrap: the contract upholds that
    appeal at any index, so it names shard 0.  Only when every shard opened
    is the plaintext checked against r_d, which alone decides recovery; the
    first shard off the published leaf digests ``r_d_leaves`` implicates
    the seller.  A shard that opens keeps in ``opened`` only its enc shard
    and r_ed proof, the evidence an off-commitment appeal needs.
    """
    n = record.n
    try:
        master = crypto.pk_decrypt(private, order.tranches[SELLER_PAYEE].wrapped_key)
        shard_keys = crypto.derive_keys(master, n)
    except DecryptError:
        shard_keys = None  # an unusable key opens no shard
    plain, appeals, caught = {}, [], set()
    indices = sorted(opened)
    # hashed in one call, on every core; a proof is checked, and counted,
    # only where the scan reaches it
    digests = dict(zip(indices, leaf_digests([opened[i][1] for i in indices])))
    for i in indices:
        payee, enc_i, frame = opened[i]
        if payee in caught:
            continue
        on_r_ed = mvrfy_digest(i, record.r_ed, digests[i], frame[2], n)
        try:
            if shard_keys is None:
                raise DecryptError("the seller's posted key does not unwrap")
            plain[i] = crypto.sym_decrypt(shard_keys[i], enc_i)
        except DecryptError:
            if on_r_ed:
                return appeals + [(SELLER_PAYEE, AppealEvidence(i, enc_i, frame[2], frame[2]))]
            # anything off r_ed was swapped in transit
            appeals.append((payee, AppealEvidence(i, *frame)))
            caught.add(payee)
        else:  # opened under K_i: evidence only against the seller now
            opened[i] = payee, enc_i, frame[2]
    if shard_keys is None:  # no genuine shard was left to show it
        no_proof = MerkleProof(0, ())
        return appeals + [(SELLER_PAYEE, AppealEvidence(0, b"", no_proof, no_proof))]
    if appeals or len(opened) < n:  # a caught payee's shards never reach r_d
        return appeals
    check = mtree([plain[i] for i in range(n)])
    if check.root == record.r_d:
        return []
    # opened under the seller's posted key but off-commitment
    i = next(j for j in range(n) if check.levels[0][j] != r_d_leaves[j])
    _, enc_i, ed_proof = opened[i]
    return [(SELLER_PAYEE, AppealEvidence(i, enc_i, ed_proof, mproof(check, i)))]


def _finalize(tr, ledger, col, addrs, endow) -> RunTranscript:
    tr.balances = {label: ledger.balance(addr) for label, addr in addrs.items()}
    tr.deltas = {k: v - endow for k, v in tr.balances.items()}
    tr.events = [dict(e) for e in ledger.events]
    tr.phase_ops = {label: c.as_dict() for label, c in col.phases.items()}
    return tr

