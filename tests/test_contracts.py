"""Contract state machine coverage: listing/exposure, ordering, escrow,
appeals, and settlement edge cases."""
import hashlib
from contextlib import contextmanager

import pytest

from bdts import contracts, crypto
from bdts.contracts import (
    CLOSED,
    AppealEvidence,
    ContractConfig,
    ContractSystem,
    DENIED,
    EXPOSED,
    LIVE,
    REJECTED,
    SELLER_PAYEE,
    UPHELD,
    provider_payee,
)
from bdts.errors import (
    AlreadyClosed,
    BadState,
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
from bdts.ledger import Ledger, address_for
from bdts.merkle import MerkleProof, mproof, mvrfy
from bdts.sharding import provider_encrypt, shard_encrypt
from forged_wrap import forged_wrap

SELLER = address_for("t:seller")
CONSUMER = address_for("t:consumer")
PROVIDER = address_for("t:provider")
SECRET = hashlib.sha256(b"m").digest()


def make_system(**cfg):
    ledger = Ledger({SELLER: 1000, CONSUMER: 1000, PROVIDER: 1000})
    return ContractSystem(ledger, ContractConfig(**cfg))


def register(system, data=b"0123456789abcdef" * 8, n=4, price=40, unit_price=2,
             secret=SECRET, deposit=None):
    shards = shard_encrypt(secret, data, slot=len(data) // n)
    data_id = system.ssmc_register_seller(
        SELLER, "ep", "solar telemetry", len(data), shards.n,
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
    with pytest.raises(InsufficientDeposit):
        register(s, deposit=19)


def test_register_escrows_deposit():
    s = make_system()
    register(s)
    assert s.ledger.balance(SELLER) == 1000 - 20


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
    register(s)  # same content, prior record is delisted
    s.ssmc_delist(SELLER, data_id)  # delisting the old record again frees nothing
    with pytest.raises(DuplicateRoot):
        register(s)


def test_expose_wrong_indices():
    s = make_system()
    data_id, shards = register(s)
    expected = s.expected_exposure_indices(data_id)
    wrong = [i for i in range(shards.n) if i not in expected][: len(expected)]
    pieces = [(i, shards.plain_shards[i], mproof(shards.tree_plain, i),
               mproof(shards.tree_enc, i), shards.enc_shards[i]) for i in wrong]
    with pytest.raises(WrongIndices):
        s.ssmc_expose(data_id, pieces)


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
    # deposit stays with the contract
    assert s.ledger.balance(SELLER) == 1000 - 20
    s.ssmc_delist(SELLER, data_id)
    assert s.ledger.balance(SELLER) == 1000 - 20  # forfeited, not returned


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


def test_provider_registration_requires_exposure():
    s = make_system()
    data_id, _ = register(s)
    with pytest.raises(BadState):
        s.ssmc_register_provider(PROVIDER, "ep", data_id)


def test_confirm_requires_seller():
    s = make_system()
    data_id, shards = register(s)
    expose(s, data_id, shards)
    s.ssmc_register_provider(PROVIDER, "ep", data_id)
    with pytest.raises(NotSeller):
        s.ssmc_confirm_provider(CONSUMER, PROVIDER, data_id)
    s.ssmc_confirm_provider(SELLER, PROVIDER, data_id)
    assert s.records[data_id].status == LIVE


def test_match_products_substring():
    s = make_system()
    data_id, _ = go_live(s)
    assert s.match_products("telemetry")[0]["data_id"] == data_id
    assert s.match_products("SOLAR")  # case-insensitive
    assert s.match_products("nonexistent") == []


def test_unknown_data_id():
    s = make_system()
    with pytest.raises(UnknownData):
        s.ssmc_expose("d9999", [])


# -- SCMC -------------------------------------------------------------------


def test_order_requires_live_listing():
    s = make_system()
    data_id, _ = register(s)
    with pytest.raises(UnknownData):
        s.scmc_place_order(CONSUMER, data_id, 48)


def test_underfunded_order_strict_forfeit():
    s = make_system()
    data_id, _ = go_live(s)
    with pytest.raises(InsufficientTokens):
        s.scmc_place_order(CONSUMER, data_id, 47)
    assert s.ledger.balance(CONSUMER) == 1000 - 47
    assert s.ledger.balance(s.ssmc_addr) >= 47


def test_select_rejects_unconfirmed_provider():
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    stranger = address_for("t:stranger")
    with pytest.raises(UnconfirmedProvider):
        s.scmc_select(order, [(stranger, [0, 1, 2, 3])])


def test_select_requires_full_cover():
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    with pytest.raises(IncompleteCover):
        s.scmc_select(order, [(PROVIDER, [0, 1])])


def test_duplicate_indices_served_by_first_listed():
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3, 3, 2])])
    assert s.orders[order].served == {PROVIDER: [0, 1, 2, 3]}


# -- CPC --------------------------------------------------------------------


def open_escrow(s, excess=0, **listing):
    data_id, shards = go_live(s, **listing)
    rec = s.records[data_id]
    order = s.scmc_place_order(CONSUMER, data_id, rec.price + rec.n * rec.unit_price + excess)
    s.scmc_select(order, [(PROVIDER, list(range(rec.n)))])
    pkg = provider_encrypt(list(shards.enc_shards), b"sp-seed")
    s.scmc_record_provider_root(order, PROVIDER, pkg.root)
    escrow = s.cpc_open(order)
    return data_id, shards, order, pkg, escrow


def test_open_requires_every_serving_providers_root():
    s = make_system()
    data_id, _ = go_live(s)
    rec = s.records[data_id]
    order = s.scmc_place_order(CONSUMER, data_id, rec.price + rec.n * rec.unit_price)
    s.scmc_select(order, [(PROVIDER, list(range(rec.n)))])
    held = {addr: s.ledger.balance(addr) for addr in (CONSUMER, s.scmc_addr, s.cpc_addr)}
    with pytest.raises(BadState):
        s.cpc_open(order)  # PROVIDER never recorded its r_eed
    assert order not in s.escrows
    assert {addr: s.ledger.balance(addr) for addr in held} == held


def test_escrow_tranches():
    s = make_system()
    *_, escrow = open_escrow(s)
    assert escrow.tranches == {SELLER_PAYEE: 40, provider_payee(PROVIDER): 8}


def test_post_key_requires_pubkey():
    s = make_system()
    _, _, order, pkg, _ = open_escrow(s)
    with pytest.raises(NoPubKey):
        s.cpc_post_key(order, SELLER_PAYEE, b"x" * 64)


def test_pubkey_reuse_rejected():
    s = make_system()
    _, _, order, _, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(order, kp.public)
    with pytest.raises(DoublePost):
        s.cpc_post_pubkey(order, kp.public)


def test_double_key_post_rejected():
    s = make_system()
    _, shards, order, pkg, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(order, kp.public)
    blob = crypto.pk_encrypt(kp.public, shards.master)
    s.cpc_post_key(order, SELLER_PAYEE, blob)
    with pytest.raises(DoublePost):
        s.cpc_post_key(order, SELLER_PAYEE, blob)


def test_post_after_window_rejected():
    s = make_system(appeal_window=2)
    _, shards, order, pkg, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(order, kp.public)
    for _ in range(3):
        s.ledger.mine_block()
    with pytest.raises(LateAppeal):
        s.cpc_post_key(order, SELLER_PAYEE, crypto.pk_encrypt(kp.public, shards.master))


def seller_posts(s, order, kp, master):
    s.cpc_post_pubkey(order, kp.public)
    s.cpc_post_key(order, SELLER_PAYEE, crypto.pk_encrypt(kp.public, master))


def test_appeal_needs_matching_private_key():
    s = make_system()
    _, shards, order, _, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    with pytest.raises(PrivKeyMismatch):
        s.cpc_appeal(order, SELLER_PAYEE, crypto.pk_keygen(b"other").private, ev)


def test_appeal_upheld_on_wrong_seller_key():
    s = make_system()
    _, shards, order, _, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    wrong = hashlib.sha256(b"wrong").digest()
    seller_posts(s, order, kp, wrong)
    # genuine encrypted shard the posted key cannot open
    ev = AppealEvidence(1, shards.enc_shards[1], mproof(shards.tree_enc, 1),
                        mproof(shards.tree_enc, 1))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == UPHELD


def test_fabricated_evidence_denied():
    s = make_system()
    _, shards, order, _, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)  # honest key
    # random bytes: neither decryptable under the posted key nor committed
    ev = AppealEvidence(0, b"\x99" * 64, mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == DENIED


@pytest.mark.parametrize("index", range(4))
def test_genuine_evidence_against_an_honest_seller_denied(index):
    s = make_system()
    _, shards, order, _, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)  # the key the shards are sealed under
    # enc shard i with its r_ed proof opens under K_i onto its r_d proof
    ev = AppealEvidence(index, shards.enc_shards[index], mproof(shards.tree_enc, index),
                        mproof(shards.tree_plain, index))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == DENIED


def test_appeal_past_the_last_shard_rejected():
    s = make_system()
    _, shards, order, _, escrow = open_escrow(s, data=b"0123456789abcdef" * 6, n=3)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)  # honest key
    # index 3 of a 3-leaf tree pairs with the duplicated last digest; K_3
    # cannot open the genuine last ciphertext, and mvrfy refuses the index
    tree = shards.tree_enc
    proof = MerkleProof(3, (tree.levels[0][2], tree.levels[1][0]))
    assert not mvrfy(3, tree.root, shards.enc_shards[2], proof, 3)
    ev = AppealEvidence(3, shards.enc_shards[2], proof, proof)
    with pytest.raises(WrongIndices):
        s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev)
    assert escrow.verdicts == {}


@pytest.mark.parametrize("index", (4, -1))
def test_appeal_outside_the_served_shards_rejected(index):
    s = make_system()
    _, shards, order, pkg, escrow = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    payee = provider_payee(PROVIDER)
    s.cpc_post_key(order, payee, crypto.pk_encrypt(kp.public, pkg.key))
    ev = AppealEvidence(index, pkg.eed_shards[0], mproof(pkg.tree_eed, 0),
                        mproof(shards.tree_enc, 0))
    with pytest.raises(WrongIndices):
        s.cpc_appeal(order, payee, kp.private, ev)
    assert escrow.verdicts == {}


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
        s.scmc_record_provider_root(order, provider, pkg.root)
        pkgs.append(pkg)
    s.cpc_open(order)
    seller_posts(s, order, kp, shards.master)
    posted = (pkgs[0].key, sp2_key or pkgs[1].key)
    for provider, key in zip((PROVIDER, PROVIDER2), posted):
        s.cpc_post_key(order, provider_payee(provider), crypto.pk_encrypt(kp.public, key))
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
    with pytest.raises(WrongIndices):
        s.cpc_appeal(order, provider_payee(PROVIDER2), kp.private, ev)
    assert s.escrows[order].verdicts == {}


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
    _, _, order, pkg, escrow = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(order, kp.public)
    s.cpc_post_key(order, payee, wrap(kp, pkg))
    # no posted key opens anything, so the evidence cannot matter
    ev = AppealEvidence(0, b"\x99" * 64, mproof(pkg.tree_eed, 0), mproof(pkg.tree_eed, 0))
    assert s.cpc_appeal(order, payee, kp.private, ev) == UPHELD
    transfers = settle_after_windows(s, order)
    assert transfers[f"refund:{payee}"] == escrow.tranches[payee]


def test_second_appeal_rejected():
    s = make_system()
    _, shards, order, _, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    ev = AppealEvidence(0, b"\x99" * 64, mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev)
    with pytest.raises(BadState):
        s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev)


def test_appeal_after_window_rejected():
    s = make_system(appeal_window=1)
    _, shards, order, _, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    s.ledger.mine_block()
    s.ledger.mine_block()
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    with pytest.raises(LateAppeal):
        s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev)


def settle_after_windows(s, order):
    for _ in range(s.config.appeal_window + 1):
        s.ledger.mine_block()
    return s.cpc_settle(order)


def test_settle_blocked_while_window_open():
    s = make_system()
    _, shards, order, pkg, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    s.cpc_post_key(order, provider_payee(PROVIDER), crypto.pk_encrypt(kp.public, pkg.key))
    with pytest.raises(BadState):
        s.cpc_settle(order)


def test_settle_pays_posted_payees_and_returns_deposit():
    s = make_system()
    _, shards, order, pkg, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    s.cpc_post_key(order, provider_payee(PROVIDER), crypto.pk_encrypt(kp.public, pkg.key))
    settle_after_windows(s, order)
    assert s.ledger.balance(SELLER) == 1000 + 40  # price in, deposit back
    assert s.ledger.balance(PROVIDER) == 1000 + 8
    assert s.ledger.balance(CONSUMER) == 1000 - 48
    assert s.ledger.balance(s.cpc_addr) == s.ledger.balance(s.scmc_addr) == 0


def test_settle_refuses_to_close_an_escrow_that_kept_tokens(monkeypatch):
    s = make_system()
    _, shards, order, pkg, _ = open_escrow(s, excess=5)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    s.cpc_post_key(order, provider_payee(PROVIDER), crypto.pk_encrypt(kp.public, pkg.key))
    transfer = s.ledger.transfer

    def drop_excess(src, dst, amount, memo=""):
        return memo == "excess" or transfer(src, dst, amount, memo=memo)

    monkeypatch.setattr(s.ledger, "transfer", drop_excess)
    with pytest.raises(BadState):
        settle_after_windows(s, order)
    assert s.orders[order].status != CLOSED
    assert s.ledger.balance(s.cpc_addr) == 5


def test_refused_settle_moves_no_token_on_retry(monkeypatch):
    s = make_system()
    _, shards, order, pkg, _ = open_escrow(s, excess=5)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    s.cpc_post_key(order, provider_payee(PROVIDER), crypto.pk_encrypt(kp.public, pkg.key))
    transfer = s.ledger.transfer
    monkeypatch.setattr(
        s.ledger, "transfer",
        lambda src, dst, amount, memo="": memo == "excess" or transfer(src, dst, amount, memo),
    )
    with pytest.raises(BadState):
        settle_after_windows(s, order)
    # the real ledger again: CPC no longer holds the order's tokens, so the
    # retry is refused before any payout is tried
    attempts = []
    monkeypatch.setattr(s.ledger, "transfer", lambda *args, **kw: attempts.append(args))
    with pytest.raises(BadState):
        s.cpc_settle(order)
    assert attempts == []
    assert s.orders[order].status != CLOSED
    assert s.ledger.balance(s.cpc_addr) == 5


def test_settle_refunds_never_posted_payee():
    s = make_system()
    _, shards, order, pkg, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)  # provider never posts
    settle_after_windows(s, order)
    assert s.ledger.balance(PROVIDER) == 1000
    assert s.ledger.balance(CONSUMER) == 1000 - 40


def test_settle_refunds_upheld_tranche():
    s = make_system()
    _, shards, order, pkg, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, hashlib.sha256(b"wrong").digest())
    s.cpc_post_key(order, provider_payee(PROVIDER), crypto.pk_encrypt(kp.public, pkg.key))
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    assert s.cpc_appeal(order, SELLER_PAYEE, kp.private, ev) == UPHELD
    settle_after_windows(s, order)
    assert s.ledger.balance(SELLER) == 1000  # tranche refunded, deposit back
    assert s.ledger.balance(CONSUMER) == 1000 - 8
    assert s.ledger.balance(PROVIDER) == 1000 + 8


def test_settle_twice_rejected():
    s = make_system()
    _, shards, order, pkg, _ = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    seller_posts(s, order, kp, shards.master)
    s.cpc_post_key(order, provider_payee(PROVIDER), crypto.pk_encrypt(kp.public, pkg.key))
    settle_after_windows(s, order)
    with pytest.raises(AlreadyClosed):
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
    s.ssmc_delist(SELLER, data_id)
    assert s.ledger.balance(SELLER) == 1000


# -- guards -----------------------------------------------------------------


@contextmanager
def refused(s, error):
    """The block raises ``error`` and moves no token."""
    held = dict(s.ledger.balances)
    with pytest.raises(error):
        yield
    assert s.ledger.balances == held


def test_confirm_requires_a_registered_provider():
    s = make_system()
    data_id, shards = register(s)
    expose(s, data_id, shards)
    with refused(s, UnknownData):
        s.ssmc_confirm_provider(SELLER, PROVIDER, data_id)
    assert s.records[data_id].status == EXPOSED


def test_delist_requires_seller():
    s = make_system()
    data_id, _ = go_live(s)
    with refused(s, NotSeller):
        s.ssmc_delist(CONSUMER, data_id)
    assert not s.records[data_id].delisted


def test_match_products_lists_only_live_listings():
    s = make_system()
    data_id, shards = register(s)
    assert s.match_products("telemetry") == []  # Registered
    expose(s, data_id, shards)
    assert s.match_products("telemetry") == []  # Exposed


def test_select_requires_a_funded_order():
    s = make_system()
    data_id, _ = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])])
    with refused(s, BadState):
        s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])])
    assert s.orders[order].served == {PROVIDER: [0, 1, 2, 3]}


def test_open_requires_selection_and_opens_once():
    s = make_system()
    data_id, shards = go_live(s)
    order = s.scmc_place_order(CONSUMER, data_id, 48)
    with refused(s, BadState):
        s.cpc_open(order)  # the order is Funded, not yet Downloading
    s.scmc_select(order, [(PROVIDER, [0, 1, 2, 3])])
    pkg = provider_encrypt(list(shards.enc_shards), b"sp-seed")
    s.scmc_record_provider_root(order, PROVIDER, pkg.root)
    escrow = s.cpc_open(order)
    with refused(s, BadState):
        s.cpc_open(order)
    assert s.escrows[order] is escrow


def test_public_key_is_fresh_across_orders():
    s = make_system()
    _, _, first, _, _ = open_escrow(s)
    _, _, second, _, escrow = open_escrow(s, data=b"fedcba9876543210" * 8)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(first, kp.public)
    with refused(s, DoublePost):
        s.cpc_post_pubkey(second, kp.public)
    assert escrow.pub_cm is None


def test_post_key_for_an_unknown_payee_rejected():
    s = make_system()
    _, shards, order, _, escrow = open_escrow(s)
    kp = crypto.pk_keygen(b"cm")
    s.cpc_post_pubkey(order, kp.public)
    blob = crypto.pk_encrypt(kp.public, shards.master)
    with refused(s, NotFound):
        s.cpc_post_key(order, provider_payee(CONSUMER), blob)
    assert escrow.posted_keys == {}


def test_appeal_before_any_public_key_rejected():
    s = make_system()
    _, shards, order, _, escrow = open_escrow(s)
    ev = AppealEvidence(0, shards.enc_shards[0], mproof(shards.tree_enc, 0),
                        mproof(shards.tree_enc, 0))
    with refused(s, NoPubKey):
        s.cpc_appeal(order, SELLER_PAYEE, crypto.pk_keygen(b"cm").private, ev)
    assert escrow.verdicts == {}


def test_unknown_order_id():
    s = make_system()
    go_live(s)
    for call in (s.cpc_open, s.cpc_settle, lambda order: s.scmc_select(order, [])):
        with refused(s, NotFound):
            call("o9999")
