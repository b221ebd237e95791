"""Contract state machine coverage: listing/exposure, ordering, escrow,
appeals, and settlement edge cases."""
import copy
import dataclasses
import hashlib
import random
import re
from contextlib import contextmanager

import pytest

from bdts import contracts, crypto
from bdts.contracts import (
    CLOSED,
    DELISTED,
    DOWNLOADING,
    ESCROWED,
    FUNDED,
    AppealEvidence,
    ContractSystem,
    DENIED,
    EXPOSED,
    LIVE,
    REGISTERED,
    REJECTED,
    SELLER_PAYEE,
    UPHELD,
    provider_payee,
)
from bdts.errors import (
    BadState,
    DuplicateRoot,
    InsufficientTokens,
    InvalidInput,
    NotFound,
    ProofFailure,
    WrongSender,
)
from bdts.ledger import Ledger, address_for
from bdts.merkle import MerkleProof, mproof, mtree, mvrfy
from bdts.sharding import provider_encrypt, shard_encrypt
from forged_wrap import forged_wrap

SELLER = address_for("t:seller")
CONSUMER = address_for("t:consumer")
PROVIDER = address_for("t:provider")
SECRET = hashlib.sha256(b"m").digest()


def make_system():
    return ContractSystem(Ledger({SELLER: 1000, CONSUMER: 1000, PROVIDER: 1000}))


def register(system, data=b"0123456789abcdef" * 8, n=4, price=40, unit_price=2,
             secret=SECRET, deposit=None, seller=SELLER):
    shards = shard_encrypt(secret, data, slot=len(data) // n)
    data_id = system.ssmc_register_seller(
        seller, "ep", "solar telemetry", len(data), shards.n,
        shards.root_plain, shards.root_enc, price, unit_price,
        deposit if deposit is not None else system.min_deposit(price),
    )
    system.ledger.mine_block()
    system.ledger.mine_block()
    return data_id, shards


def expose(system, data_id, shards):
    pieces = [
        (i, shards.plain_shards[i], mproof(shards.tree_plain, i),
         mproof(shards.tree_enc, i), shards.enc_shards[i])
        for i in system.expected_exposure_indices(data_id)
    ]
    system.ssmc_expose(data_id, pieces)


def go_live(system, **kw):
    data_id, shards = register(system, **kw)
    expose(system, data_id, shards)
    system.ssmc_register_provider(PROVIDER, "ep", data_id)
    system.ssmc_confirm_provider(SELLER, PROVIDER, data_id)
    system.ledger.mine_block()
    return data_id, shards


# -- SSMC -------------------------------------------------------------------


def test_min_deposit_is_half_price_rounded_up():
    s = make_system()
    assert s.min_deposit(40) == 20
    assert s.min_deposit(41) == 21


def test_register_rejects_low_deposit():
    s = make_system()
    with pytest.raises(InvalidInput):
        register(s, deposit=19)


def test_register_refuses_a_deposit_the_seller_cannot_cover():
    # the refused deposit used to land in the block as a rejected transfer
    s = make_system()
    with refused_silently(s, InsufficientTokens):
        register(s, price=2001, deposit=1001)
    assert s.records == {} and s.roots == {}


def test_register_escrows_deposit():
    s = make_system()
    register(s)
    assert s.ledger.balance(SELLER) == 1000 - 20


@pytest.mark.parametrize("bad", [
    {"n": 0}, {"n": -2}, {"price": -1}, {"unit_price": -3},
    {"r_d": bytes(5)}, {"r_ed": b""}, {"r_d": bytes(33)},
    # a None description made every later search raise AttributeError
    {"description": None}, {"endpoint": None}, {"description": b"solar telemetry"},
    # a negative size was listed and shown in search results
    {"size_bytes": -5}, {"size_bytes": 0},
    # a 40.5-token price with 0.25 per shard listed, and its order left
    # the consumer 958.5 tokens
    {"price": 40.5}, {"unit_price": 0.25}, {"deposit": 20.5},
    {"n": 4.0}, {"size_bytes": "128"}, {"n": True}, {"price": False},
    # a free listing: with no deposit the ledger, not the contract, refused it
    {"price": 0}, {"price": 0, "unit_price": 0, "deposit": 0},
])
def test_register_refuses_malformed_listing(bad):
    s = make_system()
    shards = shard_encrypt(SECRET, b"0123456789abcdef" * 8, slot=32)
    listing = {"seller": SELLER, "endpoint": "ep", "description": "solar telemetry",
               "size_bytes": 128, "n": shards.n, "r_d": shards.root_plain,
               "r_ed": shards.root_enc, "price": 40, "unit_price": 2, "deposit": 20, **bad}
    with pytest.raises(InvalidInput):
        s.ssmc_register_seller(**listing)
    s.ledger.mine_block()
    assert (s.ledger.balance(SELLER), s.records, s.ledger.events) == (1000, {}, [])


def test_negative_unit_price_cannot_lock_an_order():
    # with n=4 and unit_price=-3 an order of 28 tokens opened an escrow
    # whose provider tranche was -12, and settle then kept the 28 for good;
    # the listing is refused before its deposit moves
    s = make_system()
    with pytest.raises(InvalidInput):
        open_escrow(s, unit_price=-3)
    assert s.ledger.balance(SELLER) == 1000 and s.records == {}
    assert s.ledger.total_supply() == 3000 and not s.orders


def test_duplicate_root_rejected():
    s = make_system()
    register(s)
    with pytest.raises(DuplicateRoot):
        register(s)


def test_rejected_listing_does_not_block_reregistration():
    s = make_system()
    data_id, shards = register(s)
    bad = [(i, b"junk", mproof(shards.tree_plain, i), mproof(shards.tree_enc, i),
            shards.enc_shards[i]) for i in s.expected_exposure_indices(data_id)]
    with pytest.raises(ProofFailure):
        s.ssmc_expose(data_id, bad)
    assert s.records[data_id].status == REJECTED
    data_id2, shards2 = register(s)  # same content, prior record is Rejected
    expose(s, data_id2, shards2)
    assert s.records[data_id2].status == EXPOSED


def test_delisted_listing_does_not_block_reregistration():
    s = make_system()
    data_id, _ = go_live(s)
    s.ssmc_delist(SELLER, data_id)
    relisted, shards = register(s)  # same content, prior record is delisted
    expose(s, relisted, shards)
    assert s.records[relisted].status == EXPOSED


def test_a_delisted_listing_cannot_delist_again_to_free_its_root():
    # delisting the old record again was allowed: it logged a delist and
    # had to leave the root listed under the newer record
    s = make_system()
    data_id, _ = go_live(s)
    s.ssmc_delist(SELLER, data_id)
    relisted, shards = register(s)
    with refused_silently(s, BadState):
        s.ssmc_delist(SELLER, data_id)
    with pytest.raises(DuplicateRoot, match=f"listed as {relisted}"):
        register(s)
    assert s.roots == {shards.root_plain: relisted}
    # once the newer record is delisted too, the root is free again
    expose(s, relisted, shards)
    s.ssmc_delist(SELLER, relisted)
    third, _ = register(s)
    assert s.roots == {shards.root_plain: third}


def test_expose_wrong_indices():
    s = make_system()
    data_id, shards = register(s)
    expected = s.expected_exposure_indices(data_id)
    wrong = [i for i in range(shards.n) if i not in expected][: len(expected)]
    pieces = [(i, shards.plain_shards[i], mproof(shards.tree_plain, i),
               mproof(shards.tree_enc, i), shards.enc_shards[i]) for i in wrong]
    with pytest.raises(InvalidInput):
        s.ssmc_expose(data_id, pieces)


def _last_piece(malform):
    return lambda pieces: [*pieces[:-1], malform(pieces[-1])]


# a str index raised TypeError and a 4-tuple ValueError; a str proof was
# judged a failed proof, which rejected the listing and forfeited its deposit
MALFORMED_PIECES = {
    "str index": _last_piece(lambda p: (str(p[0]), *p[1:])),
    "bool index": _last_piece(lambda p: (bool(p[0]), *p[1:])),
    "4-tuple": _last_piece(lambda p: p[:4]),
    "6-tuple": _last_piece(lambda p: (*p, b"")),
    "list": _last_piece(list),
    "str plaintext": _last_piece(lambda p: (p[0], "shard", *p[2:])),
    "str r_d proof": _last_piece(lambda p: (*p[:2], "proof", *p[3:])),
    "str r_ed proof": _last_piece(lambda p: (*p[:3], "proof", p[4])),
    "str ciphertext": _last_piece(lambda p: (*p[:4], "enc")),
    "pieces not a list": lambda pieces: None,
}


@pytest.mark.parametrize("malform", MALFORMED_PIECES.values(), ids=MALFORMED_PIECES)
def test_expose_refuses_malformed_pieces(malform):
    s = make_system()
    data_id, shards = register(s)
    pieces = [(i, shards.plain_shards[i], mproof(shards.tree_plain, i),
               mproof(shards.tree_enc, i), shards.enc_shards[i])
              for i in s.expected_exposure_indices(data_id)]
    with refused_silently(s, InvalidInput):
        s.ssmc_expose(data_id, malform(pieces))
    assert s.records[data_id].status == REGISTERED


def test_expose_bad_proof_forfeits_deposit():
    s = make_system()
    data_id, shards = register(s)
    pieces = [(i, shards.plain_shards[i], mproof(shards.tree_plain, i),
               mproof(shards.tree_enc, i), shards.enc_shards[i])
              for i in s.expected_exposure_indices(data_id)]
    i, _, p_d, p_ed, enc = pieces[0]
    pieces[0] = (i, b"not the shard", p_d, p_ed, enc)
    with pytest.raises(ProofFailure):
        s.ssmc_expose(data_id, pieces)
    assert s.records[data_id].status == REJECTED
    # deposit stays with the contract, and a rejected listing cannot delist
    assert s.ledger.balance(SELLER) == 1000 - 20
    with refused_silently(s, BadState):
        s.ssmc_delist(SELLER, data_id)
    assert s.records[data_id].status == REJECTED


def test_plagiarism_detected_on_overlapping_pieces(monkeypatch):
    # expose every shard (k = n) so overlapping content is guaranteed visible
    monkeypatch.setattr(contracts, "default_exposure_count", lambda n: n)
    s = make_system()
    base = b"0123456789abcdef" * 8
    data_id, shards = register(s, data=base)
    expose(s, data_id, shards)
    # second listing shares half its shards with the first
    other = base[:64] + b"X" * 64
    data_id2, shards2 = register(s, data=other)
    with pytest.raises(ProofFailure, match="duplicates"):
        expose(s, data_id2, shards2)
    assert s.records[data_id2].status == REJECTED


def test_a_seller_can_list_its_own_delisted_data_again(monkeypatch):
    # a seller that delisted its data and registered it again was rejected as
    # plagiarising itself wherever the two exposures overlapped: exposed at
    # [0, 2], then at [1, 2], it ended Rejected with its deposit forfeited
    monkeypatch.setattr(contracts, "default_exposure_count", lambda n: n)
    s = make_system()
    data = bytes(range(128))  # four distinct shards
    data_id, _ = go_live(s, data=data)
    s.ssmc_delist(SELLER, data_id)
    # another seller's copy is still plagiarism
    copied, shards = register(s, data=data, seller=PROVIDER)
    with pytest.raises(ProofFailure, match=f"duplicates {data_id}"):
        expose(s, copied, shards)
    relisted, shards = register(s, data=data)
    expose(s, relisted, shards)
    assert s.records[relisted].status == EXPOSED
    assert s.ledger.balance(SELLER) == 1000 - 20
    assert set(s.exposed_piece_index.values()) == {relisted}


def test_confirm_requires_seller():
    s = make_system()
    data_id, shards = register(s)
    expose(s, data_id, shards)
    s.ssmc_register_provider(PROVIDER, "ep", data_id)
    with pytest.raises(WrongSender):
        s.ssmc_confirm_provider(CONSUMER, PROVIDER, data_id)
    s.ssmc_confirm_provider(SELLER, PROVIDER, data_id)
    assert s.records[data_id].status == LIVE


@pytest.mark.parametrize("endpoint", [None, b"ep", 5])
def test_register_provider_refuses_an_endpoint_that_is_not_str(endpoint):
    # a provider was registered with whatever endpoint it passed
    s = make_system()
    data_id, shards = register(s)
    expose(s, data_id, shards)
    with refused_silently(s, InvalidInput):
        s.ssmc_register_provider(PROVIDER, endpoint, data_id)


def test_match_products_substring():
    s = make_system()
    data_id, _ = go_live(s)
    assert s.match_products("telemetry")[0]["data_id"] == data_id
    assert s.match_products("SOLAR")  # case-insensitive
    assert s.match_products("nonexistent") == []


def test_match_products_lists_only_confirmed_providers():
    # anyone can register for a listing; only those the seller confirmed
    # can be selected, so only they are listed
    s = make_system()
    data_id, _ = go_live(s)
    s.ssmc_register_provider(address_for("t:stranger"), "ep", data_id)
    assert s.match_products("telemetry")[0]["providers"] == [PROVIDER]


def test_unknown_data_id():
    s = make_system()
    go_live(s)
    for call in (
        lambda data_id: s.ssmc_expose(data_id, []),
        lambda data_id: s.ssmc_register_provider(PROVIDER, "ep", data_id),
        lambda data_id: s.ssmc_confirm_provider(SELLER, PROVIDER, data_id),
        lambda data_id: s.ssmc_delist(SELLER, data_id),
        lambda data_id: s.scmc_place_order(CONSUMER, data_id, 48),
    ):
        with refused(s, NotFound):
            call("d9999")


# -- SCMC -------------------------------------------------------------------


def test_underfunded_order_strict_forfeit():
    # the one refusal that changes state, on purpose: the tokens are forfeited
    s = make_system()
    data_id, _ = go_live(s)
    events = len(s.ledger.events)
    with pytest.raises(InsufficientTokens):
        s.scmc_place_order(CONSUMER, data_id, 47)
    assert s.ledger.balance(CONSUMER) == 1000 - 47
    assert s.ledger.balance(s.ssmc_addr) == 20 + 47
    s.ledger.mine_block()
    assert [(e["memo"], e.get("amount", e.get("tokens"))) for e in s.ledger.events[events:]] == [
        ("forfeit", 47), ("order_discarded", 47),
    ]


@pytest.mark.parametrize("tokens", (41.5, 48.0, "48", None, True, -1))
def test_order_refuses_tokens_that_are_not_whole(tokens):
    # a fractional order was funded when it covered the price, and
    # forfeited as a fraction of a token when it did not; a negative one
    # was logged as a discarded order
    s = make_system()
    data_id, _ = go_live(s)
    s.ledger.mine_block()
    events = len(s.ledger.events)
    with refused(s, InvalidInput):
        s.scmc_place_order(CONSUMER, data_id, tokens)
    s.ledger.mine_block()
    assert s.orders == {} and len(s.ledger.events) == events


def test_order_the_consumer_cannot_cover_is_refused():
    # the refused escrow used to land in the block as a rejected transfer
    s = make_system()
    data_id, _ = go_live(s)
    account = address_for("contract:CPC:o0001")
    with refused_silently(s, InsufficientTokens):
        s.scmc_place_order(CONSUMER, data_id, 1001)
    assert s.orders == {} and s.ledger.balance(account) == 0
    # the next order takes the id, and its account holds exactly its tokens
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    assert (order, s.orders[order].account, s.ledger.balance(account)) == ("o0001", account, 48)


def test_select_rejects_unconfirmed_provider():
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    stranger = address_for("t:stranger")
    with pytest.raises(BadState):
        s.scmc_select(order, [(stranger, [0, 1, 2, 3])])


def test_select_requires_full_cover():
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    with pytest.raises(InvalidInput):
        s.scmc_select(order, [(PROVIDER, [0, 1])])


def test_duplicate_indices_served_by_first_listed():
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3, 3, 2])])
    assert s.orders[order].tranches[provider_payee(PROVIDER)].shards == [0, 1, 2, 3]


# -- CPC --------------------------------------------------------------------


def open_escrow(s, excess=0, **listing):
    data_id, shards = go_live(s, **listing)
    rec = s.records[data_id]
    order = s.scmc_place_order(CONSUMER, data_id, rec.price + rec.n * rec.unit_price + excess)
    s.scmc_select(order, [(PROVIDER, list(range(rec.n)))])
    pkg = provider_encrypt(list(shards.enc_shards), b"sp-seed")
    s.scmc_record_provider_root(PROVIDER, order, pkg.root)
    s.cpc_open(order)
    return data_id, shards, order, pkg


def test_open_requires_every_serving_providers_root():
    s = make_system()
    data_id, _ = go_live(s)
    rec = s.records[data_id]
    order = s.scmc_place_order(CONSUMER, data_id, rec.price + rec.n * rec.unit_price)
    s.scmc_select(order, [(PROVIDER, list(range(rec.n)))])
    with refused(s, BadState):
        s.cpc_open(order)  # PROVIDER never recorded its r_eed
    assert s.orders[order].status == DOWNLOADING


def test_escrow_tranches():
    # one record per payee, the seller's first: party, amount, the shards it
    # is paid for and the root they are committed to
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    tranches = s.orders[order].tranches
    assert {payee: (t.party, t.amount, t.shards, t.root) for payee, t in tranches.items()} == {
        SELLER_PAYEE: (SELLER, 40, range(4), shards.root_enc),
        provider_payee(PROVIDER): (PROVIDER, 8, [0, 1, 2, 3], pkg.root),
    }
    assert list(tranches) == [SELLER_PAYEE, provider_payee(PROVIDER)]


def test_post_key_requires_pubkey():
    s = make_system()
    _, _, order, pkg = open_escrow(s)
    with pytest.raises(BadState):
        s.cpc_post_key(SELLER, order, SELLER_PAYEE, b"x" * 64)


def test_pubkey_reuse_rejected():
    s = make_system()
    _, _, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(CONSUMER, order, kp.public)
    with pytest.raises(BadState):
        s.cpc_post_pubkey(CONSUMER, order, kp.public)


def test_double_key_post_rejected():
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(CONSUMER, order, kp.public)
    blob = crypto.pk_encrypt(kp.public, shards.master)
    s.cpc_post_key(SELLER, order, SELLER_PAYEE, blob)
    with pytest.raises(BadState):
        s.cpc_post_key(SELLER, order, SELLER_PAYEE, blob)


def test_post_after_window_rejected(monkeypatch):
    monkeypatch.setattr(contracts, "APPEAL_WINDOW", 2)
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(CONSUMER, order, kp.public)
    for _ in range(3):
        s.ledger.mine_block()
    with pytest.raises(BadState):
        s.cpc_post_key(SELLER, order, SELLER_PAYEE, crypto.pk_encrypt(kp.public, shards.master))


def seller_posts(s, order, kp, master):
    s.cpc_post_pubkey(CONSUMER, order, kp.public)
    s.cpc_post_key(SELLER, order, SELLER_PAYEE, crypto.pk_encrypt(kp.public, master))


def provider_posts(s, order, kp, key, provider=PROVIDER):
    s.cpc_post_key(provider, order, provider_payee(provider), crypto.pk_encrypt(kp.public, key))


def test_appeal_needs_matching_private_key():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    with pytest.raises(WrongSender):
        s.cpc_appeal(order, SELLER_PAYEE, crypto.pk_keygen(b"other").private, ev)


def test_appeal_upheld_on_wrong_seller_key():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    wrong = hashlib.sha256(b"wrong").digest()
    seller_posts(s, order, kp, wrong)
    # genuine encrypted shard the posted key cannot open
    ev = AppealEvidence(1, shards.enc_shards[1], mproof(shards.tree_enc, 1),
                        mproof(shards.tree_enc, 1))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == UPHELD


def test_fabricated_evidence_denied():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)  # honest key
    # random bytes: neither decryptable under the posted key nor committed
    ev = AppealEvidence(0, b"\x99" * 64, mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == DENIED


@pytest.mark.parametrize("index", range(4))
def test_genuine_evidence_against_an_honest_seller_denied(index):
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)  # the key the shards are sealed under
    # enc shard i with its r_ed proof opens under K_i onto its r_d proof
    ev = AppealEvidence(index, shards.enc_shards[index], mproof(shards.tree_enc, index),
                        mproof(shards.tree_plain, index))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == DENIED


def test_appeal_past_the_last_shard_rejected():
    s = make_system()
    _, shards, order, _ = open_escrow(s, data=b"0123456789abcdef" * 6, n=3)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)  # honest key
    # index 3 of a 3-leaf tree pairs with the duplicated last digest; K_3
    # cannot open the genuine last ciphertext, and mvrfy refuses the index
    tree = shards.tree_enc
    proof = MerkleProof(3, (tree.levels[0][2], tree.levels[1][0]))
    assert not mvrfy(3, tree.root, shards.enc_shards[2], proof, 3)
    ev = AppealEvidence(3, shards.enc_shards[2], proof, proof)
    with pytest.raises(InvalidInput):
        s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev)
    assert not any(t.verdict for t in s.orders[order].tranches.values())


@pytest.mark.parametrize("index", (4, -1))
def test_appeal_outside_the_served_shards_rejected(index):
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    payee = provider_payee(PROVIDER)
    provider_posts(s, order, kp, pkg.key)
    ev = AppealEvidence(index, pkg.eed_shards[0], mproof(pkg.tree_eed, 0),
                        mproof(shards.tree_enc, 0))
    with pytest.raises(InvalidInput):
        s.cpc_appeal(order, payee, kp.private, ev)
    assert not any(t.verdict for t in s.orders[order].tranches.values())


PROVIDER2 = address_for("t:provider2")


def open_two_provider_escrow(s, kp, sp2_key=None):
    """An 8-shard order served by PROVIDER (shards 0-3) and PROVIDER2 (4-7);
    the seller and PROVIDER post honest keys, PROVIDER2 posts ``sp2_key``
    (its genuine key by default)."""
    data_id, shards = go_live(s, n=8)
    s.ssmc_register_provider(PROVIDER2, "ep", data_id)
    s.ssmc_confirm_provider(SELLER, PROVIDER2, data_id)
    rec = s.records[data_id]
    order = s.scmc_place_order(CONSUMER, data_id, rec.price + rec.n * rec.unit_price)
    ranges = [[0, 1, 2, 3], [4, 5, 6, 7]]
    s.scmc_select(order, list(zip((PROVIDER, PROVIDER2), ranges)))
    pkgs = []
    for provider, indices in zip((PROVIDER, PROVIDER2), ranges):
        pkg = provider_encrypt([shards.enc_shards[i] for i in indices], provider.encode())
        s.scmc_record_provider_root(provider, order, pkg.root)
        pkgs.append(pkg)
    s.cpc_open(order)
    seller_posts(s, order, kp, shards.master)
    posted = (pkgs[0].key, sp2_key or pkgs[1].key)
    for provider, key in zip((PROVIDER, PROVIDER2), posted):
        provider_posts(s, order, kp, key, provider)
    return shards, order, pkgs[1]


def second_provider_evidence(shards, pkg2, index):
    """PROVIDER2's genuine first shard (global index 4) offered at ``index``."""
    return AppealEvidence(
        index, pkg2.eed_shards[0], mproof(pkg2.tree_eed, 0), mproof(shards.tree_enc, 4)
    )


def test_honest_second_provider_appeal_denied_at_global_index():
    s = make_system()
    kp = crypto.pk_keygen(b"cm")
    shards, order, pkg2 = open_two_provider_escrow(s, kp)
    ev = second_provider_evidence(shards, pkg2, 4)
    assert s.cpc_appeal(order, provider_payee(PROVIDER2), kp.private, ev) == DENIED


def test_appeal_at_a_shard_another_provider_served_rejected():
    s = make_system()
    kp = crypto.pk_keygen(b"cm")
    shards, order, pkg2 = open_two_provider_escrow(s, kp)
    ev = second_provider_evidence(shards, pkg2, 0)  # shard 0 is PROVIDER's
    with pytest.raises(InvalidInput):
        s.cpc_appeal(order, provider_payee(PROVIDER2), kp.private, ev)
    assert not any(t.verdict for t in s.orders[order].tranches.values())


def test_second_provider_wrong_key_appeal_upheld():
    s = make_system()
    kp = crypto.pk_keygen(b"cm")
    wrong = hashlib.sha256(b"wrong").digest()
    shards, order, pkg2 = open_two_provider_escrow(s, kp, sp2_key=wrong)
    ev = second_provider_evidence(shards, pkg2, 4)
    assert s.cpc_appeal(order, provider_payee(PROVIDER2), kp.private, ev) == UPHELD
    transfers = settle_after_windows(s, order)
    assert transfers[f"refund:{provider_payee(PROVIDER2)}"] == 8
    assert transfers[f"pay:{provider_payee(PROVIDER)}"] == 8


@pytest.mark.parametrize(
    "payee,wrap",
    [
        (SELLER_PAYEE, lambda kp, pkg: b"\x07" * 80),
        (SELLER_PAYEE, lambda kp, pkg: forged_wrap(kp.public, bytes(16))),
        (provider_payee(PROVIDER), lambda kp, pkg: forged_wrap(kp.public, pkg.key[:16])),
    ],
    ids=("seller-unwrappable", "seller-16-byte-master", "provider-16-byte-key"),
)
def test_unusable_posted_key_upholds_appeal(payee, wrap):
    s = make_system()
    _, _, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(CONSUMER, order, kp.public)
    s.cpc_post_key(s.orders[order].tranches[payee].party, order, payee, wrap(kp, pkg))
    # no posted key opens anything, so the evidence cannot matter
    ev = AppealEvidence(0, b"\x99" * 64, mproof(pkg.tree_eed, 0), mproof(pkg.tree_eed, 0))
    assert s.cpc_appeal(order, payee, kp.private, ev) == UPHELD
    transfers = settle_after_windows(s, order)
    assert transfers[f"refund:{payee}"] == s.orders[order].tranches[payee].amount


def judged(s, order, payee, kp, ev):
    """``judge``'s verdict and reason on this appeal, which leave the
    tranche undecided until ``cpc_appeal`` records the same verdict."""
    o = s.orders[order]
    tranche = o.tranches[payee]
    verdict, reason = contracts.judge(s.records[o.data_id], tranche, payee == SELLER_PAYEE,
                                      crypto.private_key(kp.private), ev)
    assert tranche.verdict is None
    assert s.cpc_appeal(order, payee, kp.private, ev) == verdict
    return verdict, reason


def test_judge_unopenable_posted_key():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(CONSUMER, order, kp.public)
    s.cpc_post_key(SELLER, order, SELLER_PAYEE, b"\x07" * 80)
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_plain, 0))
    assert judged(s, order, SELLER_PAYEE, kp, ev) == (UPHELD, "unopenable_posted_key")


def test_judge_genuine_ciphertext_wont_open():
    # cei: the seller serves real data and posts a wrong key
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, hashlib.sha256(b"wrong").digest())
    ev = AppealEvidence(1, shards.enc_shards[1], mproof(shards.tree_enc, 1),
                        mproof(shards.tree_plain, 1))
    assert judged(s, order, SELLER_PAYEE, kp, ev) == (UPHELD, "genuine_ciphertext_wont_open")


def test_judge_uncommitted_evidence():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    ev = AppealEvidence(0, b"\x99" * 64, mproof(shards.tree_enc, 0),
                        mproof(shards.tree_plain, 0))
    assert judged(s, order, SELLER_PAYEE, kp, ev) == (DENIED, "uncommitted_evidence")


def test_judge_plaintext_off_commitment():
    # aek: the provider wraps garbage, records its root and posts the real key
    s = make_system()
    data_id, shards = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])])
    pkg = provider_encrypt([bytes(len(e)) for e in shards.enc_shards], b"sp-seed")
    s.scmc_record_provider_root(PROVIDER, order, pkg.root)
    s.cpc_open(order)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    provider_posts(s, order, kp, pkg.key)
    ev = AppealEvidence(2, pkg.eed_shards[2], mproof(pkg.tree_eed, 2),
                        mproof(shards.tree_enc, 2))
    payee = provider_payee(PROVIDER)
    assert judged(s, order, payee, kp, ev) == (UPHELD, "plaintext_off_commitment")


@pytest.mark.parametrize("payee", (SELLER_PAYEE, provider_payee(PROVIDER2)),
                         ids=("seller", "provider"))
def test_judge_plaintext_on_commitment(payee):
    s = make_system()
    kp = crypto.pk_keygen(b"cm")
    shards, order, pkg2 = open_two_provider_escrow(s, kp)
    if payee == SELLER_PAYEE:
        ev = AppealEvidence(5, shards.enc_shards[5], mproof(shards.tree_enc, 5),
                            mproof(shards.tree_plain, 5))
    else:
        ev = second_provider_evidence(shards, pkg2, 4)
    assert judged(s, order, payee, kp, ev) == (DENIED, "plaintext_on_commitment")


def test_second_appeal_rejected():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    ev = AppealEvidence(0, b"\x99" * 64, mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev)
    with pytest.raises(BadState):
        s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev)


def test_appeal_after_window_rejected(monkeypatch):
    monkeypatch.setattr(contracts, "APPEAL_WINDOW", 1)
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    s.ledger.mine_block()
    s.ledger.mine_block()
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    with pytest.raises(BadState):
        s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev)


def settle_after_windows(s, order):
    for _ in range(contracts.APPEAL_WINDOW + 1):
        s.ledger.mine_block()
    return s.cpc_settle(order)


def test_settle_blocked_while_window_open():
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    provider_posts(s, order, kp, pkg.key)
    with pytest.raises(BadState):
        s.cpc_settle(order)


def test_settle_pays_posted_payees_and_returns_deposit():
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    provider_posts(s, order, kp, pkg.key)
    settle_after_windows(s, order)
    assert s.ledger.balance(SELLER) == 1000 + 40  # price in, deposit back
    assert s.ledger.balance(PROVIDER) == 1000 + 8
    assert s.ledger.balance(CONSUMER) == 1000 - 48
    assert s.ledger.balance(s.orders[order].account) == 0


def test_settle_refuses_to_close_an_escrow_that_kept_tokens(monkeypatch):
    s = make_system()
    _, shards, order, pkg = open_escrow(s, excess=5)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    provider_posts(s, order, kp, pkg.key)
    transfer = s.ledger.transfer

    def drop_excess(src, dst, amount, memo=""):
        return memo == "excess" or transfer(src, dst, amount, memo=memo)

    monkeypatch.setattr(s.ledger, "transfer", drop_excess)
    with pytest.raises(BadState):
        settle_after_windows(s, order)
    assert s.orders[order].status != CLOSED
    assert s.ledger.balance(s.orders[order].account) == 5


def test_refused_settle_moves_no_token_on_retry(monkeypatch):
    s = make_system()
    _, shards, order, pkg = open_escrow(s, excess=5)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    provider_posts(s, order, kp, pkg.key)
    transfer = s.ledger.transfer
    monkeypatch.setattr(
        s.ledger, "transfer",
        lambda src, dst, amount, memo="": memo == "excess" or transfer(src, dst, amount, memo),
    )
    with pytest.raises(BadState):
        settle_after_windows(s, order)
    # the real ledger again: the escrow no longer holds the order's tokens,
    # so the retry is refused before any payout is tried
    attempts = []
    monkeypatch.setattr(s.ledger, "transfer", lambda *args, **kw: attempts.append(args))
    with pytest.raises(BadState):
        s.cpc_settle(order)
    assert attempts == []
    assert s.orders[order].status != CLOSED
    assert s.ledger.balance(s.orders[order].account) == 5


def test_refused_settle_never_spends_another_orders_escrow(monkeypatch):
    s = make_system()
    _, shards_a, a, pkg_a = open_escrow(s, excess=5)
    _, shards_b, b, pkg_b = open_escrow(s, data=b"fedcba9876543210" * 8)
    account_a, account_b = s.orders[a].account, s.orders[b].account
    for order, shards, pkg in ((a, shards_a, pkg_a), (b, shards_b, pkg_b)):
        kp = crypto.pk_keygen(b"cm" + order.encode())
        seller_posts(s, order, kp, shards.master)
        provider_posts(s, order, kp, pkg.key)

    def held():
        return s.ledger.balance(account_a), s.ledger.balance(account_b)

    assert held() == (53, 48)
    transfer = s.ledger.transfer
    monkeypatch.setattr(
        s.ledger, "transfer",
        lambda src, dst, amount, memo="": memo == "excess" or transfer(src, dst, amount, memo),
    )
    with pytest.raises(BadState):
        settle_after_windows(s, a)
    # the real ledger again: A's escrow holds 5 of its 53 tokens, so its
    # retry is refused before any transfer, and B settles from its own
    attempts = []
    monkeypatch.setattr(
        s.ledger, "transfer", lambda *args, **kw: attempts.append(args) or transfer(*args, **kw)
    )
    with pytest.raises(BadState):
        s.cpc_settle(a)
    assert attempts == []
    assert s.cpc_settle(b) == {"pay:seller": 40, f"pay:{provider_payee(PROVIDER)}": 8}
    assert account_a not in {src for src, *_ in attempts}
    assert (s.orders[a].status, s.orders[b].status) == (ESCROWED, CLOSED)
    assert held() == (5, 0)


def test_settle_refunds_never_posted_payee():
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)  # provider never posts
    settle_after_windows(s, order)
    assert s.ledger.balance(PROVIDER) == 1000
    assert s.ledger.balance(CONSUMER) == 1000 - 40


def test_settle_refunds_upheld_tranche():
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, hashlib.sha256(b"wrong").digest())
    provider_posts(s, order, kp, pkg.key)
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == UPHELD
    settle_after_windows(s, order)
    assert s.ledger.balance(SELLER) == 1000  # tranche refunded, deposit back
    assert s.ledger.balance(CONSUMER) == 1000 - 8
    assert s.ledger.balance(PROVIDER) == 1000 + 8


def test_settle_names_the_payee_whose_posting_window_is_open():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, hashlib.sha256(b"wrong").digest())
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == UPHELD
    # the seller's tranche is decided; the provider has not posted yet
    payee = provider_payee(PROVIDER)
    with pytest.raises(BadState, match=f"posting window for {re.escape(payee)} still open"):
        s.cpc_settle(order)


def test_delist_blocked_with_open_order():
    s = make_system()
    data_id, _ = go_live(s)
    s.scmc_place_order(CONSUMER, data_id, 48)
    with pytest.raises(BadState):
        s.ssmc_delist(SELLER, data_id)


def test_delist_returns_deposit_once():
    s = make_system()
    data_id, _ = go_live(s)
    s.ssmc_delist(SELLER, data_id)
    assert s.ledger.balance(SELLER) == 1000
    with refused_silently(s, BadState):
        s.ssmc_delist(SELLER, data_id)  # was allowed, logged and moved nothing


def test_delist_after_settle_returns_no_second_deposit():
    s = make_system()
    data_id, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    provider_posts(s, order, kp, pkg.key)
    settle_after_windows(s, order)
    assert s.ledger.balance(SELLER) == 1000 + 40  # price in, deposit back
    s.ssmc_delist(SELLER, data_id)
    assert s.ledger.balance(SELLER) == 1000 + 40
    assert s.records[data_id].status == DELISTED


def test_a_registered_listing_cannot_delist_to_reroll_its_exposure():
    # a seller read its exposure indices, delisted with its deposit back and
    # registered the same root again for new ones, at no cost: [0, 2], then
    # [1, 2], [0, 1] and [2, 3], with its balance back at 1000
    s = make_system()
    data_id, _ = register(s)
    indices = s.expected_exposure_indices(data_id)
    with refused(s, BadState):
        s.ssmc_delist(SELLER, data_id)
    assert s.records[data_id].status == REGISTERED
    with refused(s, DuplicateRoot):
        register(s)  # the root stays listed
    assert s.expected_exposure_indices(data_id) == indices
    assert s.ledger.balance(SELLER) == 1000 - 20


# -- guards -----------------------------------------------------------------


@contextmanager
def refused(s, error):
    """The block raises ``error`` and moves no token."""
    held = dict(s.ledger.balances)
    with pytest.raises(error):
        yield
    assert s.ledger.balances == held


def contract_state(s):
    """Everything the contracts hold but the ledger: listings, orders (their
    tranches included) and the indexes over them."""
    return copy.deepcopy({k: v for k, v in vars(s).items() if k != "ledger"})


@contextmanager
def refused_silently(s, error):
    """The block raises ``error``, moves no token, changes no contract
    state, and logs no event."""
    s.ledger.mine_block()  # the next block then holds only what the block logs
    state = contract_state(s)
    events = len(s.ledger.events)
    with refused(s, error):
        yield
    s.ledger.mine_block()
    assert contract_state(s) == state
    assert len(s.ledger.events) == events


def test_confirm_requires_a_registered_provider():
    s = make_system()
    data_id, shards = register(s)
    expose(s, data_id, shards)
    with refused(s, NotFound):
        s.ssmc_confirm_provider(SELLER, PROVIDER, data_id)
    assert s.records[data_id].status == EXPOSED


def test_delist_requires_seller():
    s = make_system()
    data_id, _ = go_live(s)
    with refused(s, WrongSender):
        s.ssmc_delist(CONSUMER, data_id)
    assert s.records[data_id].status == LIVE


# each listing call and the statuses it is made in
LISTING_CALLS = {
    "ssmc_expose": (REGISTERED,),
    "ssmc_register_provider": (EXPOSED, LIVE),
    "ssmc_confirm_provider": (EXPOSED, LIVE),
    "ssmc_delist": (EXPOSED, LIVE),
    "scmc_place_order": (LIVE,),
}
LATE, STRANGER = address_for("t:late"), address_for("t:stranger")


def listing_in(status):
    """A system with one listing walked to ``status``, ``LATE`` registered
    for it but not confirmed once it exposes, and each call of
    ``LISTING_CALLS`` against it."""
    s = make_system()
    data_id, shards = register(s)
    calls = {
        "ssmc_expose": lambda: expose(s, data_id, shards),
        "ssmc_register_provider": lambda: s.ssmc_register_provider(STRANGER, "ep", data_id),
        "ssmc_confirm_provider": lambda: s.ssmc_confirm_provider(SELLER, LATE, data_id),
        "ssmc_delist": lambda: s.ssmc_delist(SELLER, data_id),
        "scmc_place_order": lambda: s.scmc_place_order(CONSUMER, data_id, 48),
    }
    if status == REJECTED:
        junk = [(i, b"junk", mproof(shards.tree_plain, i), mproof(shards.tree_enc, i),
                 shards.enc_shards[i]) for i in s.expected_exposure_indices(data_id)]
        with pytest.raises(ProofFailure):
            s.ssmc_expose(data_id, junk)
    elif status != REGISTERED:
        calls["ssmc_expose"]()
        s.ssmc_register_provider(LATE, "ep", data_id)
    if status in (LIVE, DELISTED):
        s.ssmc_register_provider(PROVIDER, "ep", data_id)
        s.ssmc_confirm_provider(SELLER, PROVIDER, data_id)
    if status == DELISTED:
        calls["ssmc_delist"]()
    assert s.records[data_id].status == status
    return s, calls


@pytest.mark.parametrize("call,status", [
    (call, status) for call, made_in in LISTING_CALLS.items()
    for status in (REGISTERED, EXPOSED, LIVE, REJECTED, DELISTED) if status not in made_in
])
def test_listing_call_outside_its_status_is_refused(call, status):
    # among these, unchecked: a delisted listing took a new provider's
    # registration, and the seller's confirmation of it set the listing Live
    s, calls = listing_in(status)
    with refused_silently(s, BadState):
        calls[call]()


def test_match_products_lists_only_live_listings():
    for status in (REGISTERED, EXPOSED, REJECTED, DELISTED):
        s, _ = listing_in(status)
        assert s.match_products("telemetry") == []


# each order-scoped call and the one status it is made in
ORDER_CALLS = {
    "scmc_select": FUNDED,
    "scmc_record_provider_root": DOWNLOADING,
    "cpc_open": DOWNLOADING,
    "cpc_post_pubkey": ESCROWED,
    "cpc_post_key": ESCROWED,
    "cpc_appeal": ESCROWED,
    "cpc_settle": ESCROWED,
}


def order_in(status):
    """A system with one honest order walked to ``status``, and each call
    of ``ORDER_CALLS`` against it."""
    s = make_system()
    data_id, shards = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    pkg = provider_encrypt(list(shards.enc_shards), b"sp-seed")
    kp = crypto.pk_keygen(b"cm")
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_plain, 0))
    calls = {
        "scmc_select": lambda: s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])]),
        "scmc_record_provider_root":
            lambda: s.scmc_record_provider_root(PROVIDER, order, pkg.root),
        "cpc_open": lambda: s.cpc_open(order),
        "cpc_post_pubkey": lambda: s.cpc_post_pubkey(CONSUMER, order, kp.public),
        "cpc_post_key": lambda: s.cpc_post_key(
            SELLER, order, SELLER_PAYEE, crypto.pk_encrypt(kp.public, shards.master)),
        "cpc_appeal": lambda: s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev),
        "cpc_settle": lambda: s.cpc_settle(order),
    }
    if status != FUNDED:
        calls["scmc_select"]()
    if status in (ESCROWED, CLOSED):
        calls["scmc_record_provider_root"]()
        calls["cpc_open"]()
    if status == CLOSED:
        seller_posts(s, order, kp, shards.master)
        provider_posts(s, order, kp, pkg.key)
        settle_after_windows(s, order)
    assert s.orders[order].status == status
    return s, order, calls


@pytest.mark.parametrize("call,status", [
    (call, status) for call, made_in in ORDER_CALLS.items()
    for status in (FUNDED, DOWNLOADING, ESCROWED, CLOSED) if status != made_in
])
def test_order_call_outside_its_status_is_refused(call, status):
    s, order, calls = order_in(status)
    with refused_silently(s, BadState):
        calls[call]()


def test_provider_root_is_recorded_once():
    s = make_system()
    data_id, shards = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])])
    pkg = provider_encrypt(list(shards.enc_shards), b"sp-seed")
    s.scmc_record_provider_root(PROVIDER, order, pkg.root)
    with refused_silently(s, BadState):
        s.scmc_record_provider_root(PROVIDER, order, bytes(32))
    assert s.orders[order].tranches[provider_payee(PROVIDER)].root == pkg.root


def test_provider_root_only_from_a_serving_provider():
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])])
    with refused_silently(s, NotFound):
        s.scmc_record_provider_root(STRANGER, order, bytes(32))


def test_provider_root_cannot_be_rewritten_once_the_escrow_is_open():
    # the consumer records the root of four random blobs as an honest
    # provider's, after both keys are posted, and appeals with one of them:
    # the posted key cannot open the blob, so only the root judges it
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    payee = provider_payee(PROVIDER)
    provider_posts(s, order, kp, pkg.key)
    rng = random.Random(0)
    blobs = [rng.randbytes(len(pkg.eed_shards[0])) for _ in range(4)]
    forged = mtree(blobs)
    with refused_silently(s, BadState):
        s.scmc_record_provider_root(PROVIDER, order, forged.root)
    assert s.orders[order].tranches[payee].root == pkg.root
    ev = AppealEvidence(0, blobs[0], mproof(forged, 0), mproof(shards.tree_enc, 0))
    assert s.cpc_appeal(order, payee, kp.private, ev) == DENIED


def test_only_the_seller_posts_the_sellers_key():
    # the consumer posts junk as the seller's key: unchecked, it took the
    # seller's place, whose own post was refused as a second post, and the
    # consumer's appeal against the junk was upheld
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(CONSUMER, order, kp.public)
    with refused_silently(s, WrongSender):
        s.cpc_post_key(CONSUMER, order, SELLER_PAYEE, b"junk")
    s.cpc_post_key(SELLER, order, SELLER_PAYEE, crypto.pk_encrypt(kp.public, shards.master))
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_plain, 0))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == DENIED


def test_only_the_consumer_posts_its_public_key():
    # the seller posts a public key of its own first: unchecked, the
    # consumer's own post was refused as a second post, so no appeal could
    # be made
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    with refused_silently(s, WrongSender):
        s.cpc_post_pubkey(SELLER, order, crypto.pk_keygen(b"sl").public)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, hashlib.sha256(b"wrong").digest())
    assert s.orders[order].pub_cm == kp.public
    ev = AppealEvidence(1, shards.enc_shards[1], mproof(shards.tree_enc, 1),
                        mproof(shards.tree_enc, 1))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == UPHELD


def test_only_the_provider_records_its_root():
    # the consumer records the root of four random blobs as the provider's
    # first: unchecked, the provider's own record was refused as a second
    # one, an appeal with a blob was upheld, and settle refunded the honest
    # provider.  A caller records only its own root, and the consumer
    # serves no shard
    s = make_system()
    data_id, shards = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])])
    pkg = provider_encrypt(list(shards.enc_shards), b"sp-seed")
    rng = random.Random(0)
    blobs = [rng.randbytes(len(pkg.eed_shards[0])) for _ in range(4)]
    forged = mtree(blobs)
    with refused_silently(s, NotFound):
        s.scmc_record_provider_root(CONSUMER, order, forged.root)
    s.scmc_record_provider_root(PROVIDER, order, pkg.root)
    s.cpc_open(order)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    provider_posts(s, order, kp, pkg.key)
    payee = provider_payee(PROVIDER)
    ev = AppealEvidence(0, blobs[0], mproof(forged, 0), mproof(shards.tree_enc, 0))
    assert s.cpc_appeal(order, payee, kp.private, ev) == DENIED
    assert settle_after_windows(s, order)[f"pay:{payee}"] == 8


def test_public_key_is_fresh_across_orders():
    s = make_system()
    _, _, first, _ = open_escrow(s)
    _, _, second, _ = open_escrow(s, data=b"fedcba9876543210" * 8)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(CONSUMER, first, kp.public)
    with refused(s, BadState):
        s.cpc_post_pubkey(CONSUMER, second, kp.public)
    assert s.orders[second].pub_cm is None


def test_post_key_for_an_unknown_payee_rejected():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(CONSUMER, order, kp.public)
    blob = crypto.pk_encrypt(kp.public, shards.master)
    with refused(s, NotFound):
        s.cpc_post_key(CONSUMER, order, provider_payee(CONSUMER), blob)
    assert not any(t.wrapped_key for t in s.orders[order].tranches.values())


def test_appeal_before_any_public_key_rejected():
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    with refused(s, BadState):
        s.cpc_appeal(order, SELLER_PAYEE, crypto.pk_keygen(b"cm").private, ev)
    assert not any(t.verdict for t in s.orders[order].tranches.values())


def test_unknown_order_id():
    s = make_system()
    go_live(s)
    for call in (s.cpc_open, s.cpc_settle, lambda order: s.scmc_select(order, [])):
        with refused(s, NotFound):
            call("o9999")


@pytest.mark.parametrize("pri_cm", [None, "k" * 32, b"short", bytes(31)])
def test_appeal_refuses_a_malformed_private_key(pri_cm):
    # None and a str raised TypeError from the key parse, 5 and 31 bytes
    # ValueError
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_plain, 0))
    with refused_silently(s, InvalidInput):
        s.cpc_appeal(order, SELLER_PAYEE, pri_cm, ev)
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == DENIED


@pytest.mark.parametrize("pub_cm", [None, "k" * 32, b"short", bytes(31), bytes(33)])
def test_post_pubkey_refuses_a_malformed_key(pub_cm):
    # unchecked, each was posted and every payee's pk_encrypt to it raised;
    # after None the consumer's second post was not refused as a second one
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    with refused_silently(s, InvalidInput):
        s.cpc_post_pubkey(CONSUMER, order, pub_cm)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    assert s.orders[order].pub_cm == kp.public


def test_no_payee_can_wrap_to_a_low_order_public_key():
    # the contract took any 32 bytes as the consumer's key; X25519 refuses a
    # low-order point (the all-zero one, 1, and one of order 8: RFC 7748
    # section 6.1), so every payee's wrap to it raised, and settle then
    # refunded every tranche whatever the payees served
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    order_8 = "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"
    for pub_cm in (bytes(32), (1).to_bytes(32, "little"), bytes.fromhex(order_8)):
        with pytest.raises(InvalidInput):
            crypto.pk_encrypt(pub_cm, shards.master)
        with refused_silently(s, InvalidInput):
            s.cpc_post_pubkey(CONSUMER, order, pub_cm)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    provider_posts(s, order, kp, pkg.key)
    payee = provider_payee(PROVIDER)
    assert settle_after_windows(s, order) == {"pay:seller": 40, f"pay:{payee}": 8}


@pytest.mark.parametrize("wrapped_key", [None, "junk"])
def test_post_key_refuses_a_key_that_is_not_bytes(wrapped_key):
    # unchecked, None counted as never posted: a second None was accepted,
    # and settle refunded the provider's tranche to the consumer
    s = make_system()
    _, shards, order, pkg = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    payee = provider_payee(PROVIDER)
    for _ in range(2):
        with refused_silently(s, InvalidInput):
            s.cpc_post_key(PROVIDER, order, payee, wrapped_key)
    provider_posts(s, order, kp, pkg.key)
    assert settle_after_windows(s, order) == {"pay:seller": 40, f"pay:{payee}": 8}


def test_appeal_against_a_payee_the_order_does_not_pay_is_not_found():
    # it was refused as BadState, as a payee that has not posted its key is
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_plain, 0))
    with refused_silently(s, NotFound):
        s.cpc_appeal(order, provider_payee(STRANGER), kp.private, ev)
    with refused_silently(s, BadState):
        s.cpc_appeal(order, provider_payee(PROVIDER), kp.private, ev)


@pytest.mark.parametrize("field,value", [
    (None, None),  # no evidence at all
    ("index", 1.0), ("index", True),
    ("ciphertext", None), ("ciphertext", "junk"),
    ("auth_proof", None), ("inner_proof", None),
])
def test_appeal_refuses_malformed_evidence(field, value):
    # index 1.0 and a None or str ciphertext raised TypeError, a None inner
    # proof or no evidence AttributeError; index True was judged as shard 1
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    ev = AppealEvidence(1, shards.enc_shards[1], mproof(shards.tree_enc, 1),
                        mproof(shards.tree_plain, 1))
    bad = dataclasses.replace(ev, **{field: value}) if field else None
    with refused_silently(s, InvalidInput):
        s.cpc_appeal(order, SELLER_PAYEE, kp.private, bad)
    # the consumer's own delivered frames are bytearrays
    ev = dataclasses.replace(ev, ciphertext=bytearray(ev.ciphertext))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == DENIED


def test_appeal_with_a_proof_that_holds_no_siblings_is_judged():
    # MerkleProof(1, None) raised TypeError where the contract climbed it
    s = make_system()
    _, shards, order, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    no_siblings = MerkleProof(1, None)
    ev = AppealEvidence(1, b"\x99" * 64, no_siblings, no_siblings)
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == DENIED


@pytest.mark.parametrize("index", [1.0, True, "1"])
def test_select_refuses_a_shard_index_that_is_not_an_int(index):
    # 1.0 and True covered shard 1 and were stored as the provider's shards
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    with refused_silently(s, InvalidInput):
        s.scmc_select(order, [(PROVIDER, [0, index, 2, 3])])
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])])
    assert s.orders[order].tranches[provider_payee(PROVIDER)].shards == [0, 1, 2, 3]


def test_a_forfeit_the_consumer_cannot_cover_discards_no_order():
    # a consumer holding 10 tokens offered 47 of 48: the block logged a
    # rejected forfeit and then the order discarded with its 47 tokens
    s = ContractSystem(Ledger({SELLER: 1000, CONSUMER: 10, PROVIDER: 1000}))
    data_id, _ = go_live(s)
    with refused_silently(s, InsufficientTokens):
        s.scmc_place_order(CONSUMER, data_id, 47)


@pytest.mark.parametrize("keyword", [None, 5, b"solar"])
def test_match_products_refuses_a_keyword_that_is_not_str(keyword):
    # None raised AttributeError, but only once some listing was Live
    s = make_system()
    go_live(s)
    with refused_silently(s, InvalidInput):
        s.match_products(keyword)
