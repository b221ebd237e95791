"""Acceptance suite: the eight headline behaviors, each with its stated
tolerance.

Equilibrium boundary: criterion 2's backward-induction clause checks honest
play (aei) only where the paper's numbers support it.  Under enforced
payoffs the honest consumer nets UTILITY - (PRICE + FEE) = -4, while an
unfunded order (h) costs only the forfeited x+y.  So induction selects
aei where x+y >= 4 (the tie at exactly 4 breaks toward the earlier-listed
e) and ahi where x+y < 4, i.e. the x=0 grid column.  The test pins both
sides of that boundary; see README for the analysis.
"""
import math
import random
import time

import pytest

from bdts import bench, crypto, game, metrics
from bdts.actors import all_profiles, run_scenario
from bdts.contracts import (
    CLOSED,
    AppealEvidence,
    ContractConfig,
    ContractSystem,
    SELLER_PAYEE,
    provider_payee,
)
from bdts.errors import BdtsError, DecryptError
from bdts.ledger import Ledger, address_for
from bdts.merkle import MerkleProof, mproof, mtree, mvrfy
from bdts.sharding import provider_encrypt, shard_encrypt
from cheat_catalog import cheat_catalog

GRID = [(x, y) for x in (0, 5, 10, 19) for y in (0, 1, 2, 3)]


# -- 1. payoff-table fidelity ----------------------------------------------


def test_criterion_1_table_fidelity():
    start = time.perf_counter()
    for x, y in GRID:
        assert game.verify_table(x, y) == [], f"mismatches at x={x} y={y}"
    assert time.perf_counter() - start < 1.0


# -- 2. equilibrium reproduction -------------------------------------------


def test_criterion_2_raw_totals_maximal():
    start = time.perf_counter()
    for x, y in GRID:
        totals = {
            str(p): sum(game.raw_payoff(p, x, y)) for p in all_profiles()
        }
        assert totals["aei"] == totals["afi"] == totals["agi"] == 7
        assert max(totals.values()) == 7
    assert time.perf_counter() - start < 1.0


# The consumer prefers forfeiting x+y (h) to paying PRICE + FEE for data
# worth UTILITY (e) exactly when x+y is below this; 4 with the paper's values.
HONEST_PLAY_MIN_FORFEIT = game.PRICE + game.FEE - game.UTILITY


# (1, 3) sits on the boundary (tie, broken toward e) and (1, 2) just below it.
@pytest.mark.parametrize("x,y", GRID + [(1, 3), (1, 2)])
def test_criterion_2_backward_induction(x, y):
    # honest play is the induction result only where the forfeit x+y is at
    # least what honest play costs the consumer; below it the consumer shorts
    # both, and the unfunded order leaves seller and provider tied at 0 -> a, i
    honest = x + y >= HONEST_PLAY_MIN_FORFEIT
    assert str(game.backward_induction(game.enforced_payoff, x, y)) == (
        "aei" if honest else "ahi"
    )
    assert ("aei" in game.nash_equilibria(game.enforced_payoff, x, y)) == honest


# -- 3. cheat-scenario suite ------------------------------------------------


def test_criterion_3_cheat_catalog_full_size():
    start = time.perf_counter()
    for profile, expect in cheat_catalog():
        tr = run_scenario(profile, n=8, slot=1 << 20, price=40, unit_price=1)
        assert tr.funded == expect["funded"], profile
        assert tr.recovery == expect["recovery"], profile
        assert len(tr.appeals) == expect["appeals"], profile
        if expect["appeals"]:
            assert tr.appeals[0]["verdict"] == expect["verdict"], profile
        if expect["cheater"] is not None:
            assert tr.deltas[expect["cheater"]] <= 0, profile
        if profile == "aei":
            # +20 units price to the seller, +4 units fee to the provider
            # (scale 2 tokens/unit), data recovered in full
            assert tr.deltas == {"seller": 40, "consumer": -48, "provider": 8}
    assert time.perf_counter() - start < 10.0


# -- 4. model / execution agreement ----------------------------------------


def test_criterion_4_crosscheck_all_profiles():
    start = time.perf_counter()
    for profile in all_profiles():
        assert game.crosscheck_simulation(profile, x=10, y=2)
    assert time.perf_counter() - start < 60.0


# -- 5. randomized merkle / crypto suites ----------------------------------


def test_criterion_5_crypto_roundtrip_1000():
    rng = random.Random(501)
    for _ in range(1000):
        key = rng.randbytes(32)
        msg = rng.randbytes(rng.randint(0, 200))
        assert crypto.sym_decrypt(key, crypto.sym_encrypt(key, msg, b"test", 0)) == msg


def test_criterion_5_tamper_rejection_1000():
    rng = random.Random(502)
    for _ in range(1000):
        key = rng.randbytes(32)
        ct = bytearray(crypto.sym_encrypt(key, rng.randbytes(rng.randint(1, 100)), b"test", 0))
        if rng.random() < 0.5:
            ct[rng.randrange(len(ct))] ^= 1 << rng.randrange(8)
            with pytest.raises(DecryptError):
                crypto.sym_decrypt(key, bytes(ct))
        else:
            with pytest.raises(DecryptError):
                crypto.sym_decrypt(rng.randbytes(32), bytes(ct))


def test_criterion_5_merkle_proofs_1000():
    rng = random.Random(503)
    for _ in range(1000):
        leaves = [rng.randbytes(rng.randint(0, 24)) for _ in range(rng.randint(1, 20))]
        t = mtree(leaves)
        i = rng.randrange(len(leaves))
        proof = mproof(t, i)
        assert mvrfy(i, t.root, leaves[i], proof, len(leaves))
        # invalidity: wrong leaf, or transplanted index
        if rng.random() < 0.5:
            assert not mvrfy(i, t.root, leaves[i] + b"x", proof, len(leaves))
        else:
            j = rng.randrange(len(leaves))
            if j != i:
                assert not mvrfy(j, t.root, leaves[j], proof, len(leaves))


# -- 6. escrow conservation fuzz -------------------------------------------


def _fuzz_sequence(rng: random.Random) -> None:
    seller = address_for("f:seller")
    consumer = address_for("f:consumer")
    provider = address_for("f:provider")
    balances = {a: rng.randint(0, 300) for a in (seller, consumer, provider)}
    supply = sum(balances.values())
    ledger = Ledger(balances)
    rng.random()  # unused; the draw keeps each seed's sequence of ops
    system = ContractSystem(ledger, ContractConfig(appeal_window=rng.choice([1, 2, 5])))
    listings: list = []  # (data_id, shards, master)
    orders: list = []  # (order_id, keypair or None)

    def op_register():
        master = rng.randbytes(32)
        data = rng.randbytes(32)
        shards = shard_encrypt(master, data, slot=16)
        data_id = system.ssmc_register_seller(
            seller, "ep", "fuzz lot", len(data), shards.n, shards.root_plain,
            shards.root_enc, rng.choice([10, 20, 41]), rng.choice([1, 3]),
            deposit=rng.randint(0, 30),
        )
        ledger.mine_block()
        ledger.mine_block()
        listings.append((data_id, shards, master))

    def op_expose():
        data_id, shards, _ = rng.choice(listings)
        pieces = [
            (i, shards.plain_shards[i], mproof(shards.tree_plain, i),
             mproof(shards.tree_enc, i), shards.enc_shards[i])
            for i in system.expected_exposure_indices(data_id)
        ]
        if rng.random() < 0.2:
            i, _, p_d, p_ed, enc = pieces[0]
            pieces[0] = (i, b"forged", p_d, p_ed, enc)
        system.ssmc_expose(data_id, pieces)
        system.ssmc_register_provider(provider, "ep", data_id)
        system.ssmc_confirm_provider(seller, provider, data_id)

    def op_order():
        data_id, shards, _ = rng.choice(listings)
        rec = system.records[data_id]
        tokens = rng.randint(0, rec.price + rec.n * rec.unit_price + 10)
        if tokens > 0:
            order_id = system.scmc_place_order(consumer, data_id, tokens)
            orders.append([order_id, None, shards])

    def op_select():
        order_id, _, shards = rng.choice(orders)
        cover = list(range(shards.n))
        if rng.random() < 0.2:
            cover = cover[:-1]  # incomplete on purpose
        system.scmc_select(order_id, [(provider, cover)])

    def op_open():
        order_id, _, shards = rng.choice(orders)
        pkg = provider_encrypt(list(shards.enc_shards), rng.randbytes(8))
        system.scmc_record_provider_root(order_id, provider, pkg.root)
        system.cpc_open(order_id)

    def op_keys():
        entry = rng.choice(orders)
        order_id, kp, shards = entry
        if kp is None:
            kp = crypto.pk_keygen(rng.randbytes(16))
            system.cpc_post_pubkey(order_id, kp.public)
            entry[1] = kp
        payee = rng.choice([SELLER_PAYEE, provider_payee(provider)])
        system.cpc_post_key(order_id, payee, crypto.pk_encrypt(kp.public, rng.randbytes(32)))

    def op_appeal():
        order_id, kp, shards = rng.choice(orders)
        if kp is None:
            return
        ev = AppealEvidence(
            0, rng.choice([shards.enc_shards[0], rng.randbytes(40)]),
            mproof(shards.tree_enc, 0), mproof(shards.tree_enc, 0),
        )
        system.cpc_appeal(
            order_id, rng.choice([SELLER_PAYEE, provider_payee(provider)]),
            kp.private, ev,
        )

    def op_settle():
        system.cpc_settle(rng.choice(orders)[0])

    def op_mine():
        ledger.mine_block()

    ops = [op_register, op_expose, op_order, op_select, op_open, op_keys,
           op_appeal, op_settle, op_mine, op_mine]
    for _ in range(rng.randint(6, 18)):
        op = rng.choice(ops)
        try:
            if op in (op_expose, op_order) and not listings:
                continue
            if op in (op_select, op_open, op_keys, op_appeal, op_settle) and not orders:
                continue
            op()
        except (BdtsError, IndexError):
            pass
        assert all(v >= 0 for v in ledger.balances.values())
        open_tokens = sum(
            order.tokens for order_id, order in system.orders.items()
            if order_id in system.escrows and order.status != CLOSED
        )
        assert ledger.balance(system.cpc_addr) == open_tokens
    assert ledger.total_supply() == supply


def test_criterion_6_escrow_conservation_fuzz():
    for seq in range(500):
        _fuzz_sequence(random.Random(60_000 + seq))


def _opened_escrow_sequence(rng: random.Random) -> bool:
    """Random key posts, appeals, settles and blocks against one opened
    escrow; returns whether the order settled.

    CPC must hold exactly the order's tokens until it closes and nothing
    after, so every tranche, refund and excess leaves it exactly once.
    """
    seller, consumer, provider = (address_for(f"e:{r}") for r in ("sl", "cm", "sp"))
    ledger = Ledger({seller: 300, consumer: 300, provider: 300})
    supply = ledger.total_supply()
    system = ContractSystem(ledger, ContractConfig(appeal_window=rng.choice([1, 2, 5])))
    shards = shard_encrypt(rng.randbytes(32), rng.randbytes(48), slot=16)
    data_id = system.ssmc_register_seller(
        seller, "ep", "fuzz lot", 48, shards.n, shards.root_plain, shards.root_enc,
        20, 2, deposit=system.min_deposit(20),
    )
    ledger.mine_block()
    ledger.mine_block()
    system.ssmc_expose(data_id, [
        (i, shards.plain_shards[i], mproof(shards.tree_plain, i),
         mproof(shards.tree_enc, i), shards.enc_shards[i])
        for i in system.expected_exposure_indices(data_id)
    ])
    system.ssmc_register_provider(provider, "ep", data_id)
    system.ssmc_confirm_provider(seller, provider, data_id)
    order_id = system.scmc_place_order(consumer, data_id, 20 + 3 * 2 + rng.randint(0, 5))
    order = system.orders[order_id]
    system.scmc_select(order_id, [(provider, [0, 1, 2])])
    pkg = provider_encrypt(list(shards.enc_shards), rng.randbytes(8))
    system.scmc_record_provider_root(order_id, provider, pkg.root)
    system.cpc_open(order_id)
    kp = crypto.pk_keygen(rng.randbytes(16))
    system.cpc_post_pubkey(order_id, kp.public)
    # payee -> (its genuine key, the ciphertexts it is paid for, their tree)
    layers = {
        SELLER_PAYEE: (shards.master, shards.enc_shards, shards.tree_enc),
        provider_payee(provider): (pkg.key, pkg.eed_shards, pkg.tree_eed),
    }

    def op_post():
        payee = rng.choice(list(layers))
        key = rng.choice([layers[payee][0], rng.randbytes(32)])
        system.cpc_post_key(order_id, payee, crypto.pk_encrypt(kp.public, key))

    def op_appeal():
        payee = rng.choice(list(layers))
        i = rng.randrange(shards.n)
        _, cts, tree = layers[rng.choice(list(layers))]  # its own layer or the other's
        ciphertext = rng.choice([cts[i], rng.randbytes(len(cts[i]))])
        proofs = [mproof(t, rng.randrange(shards.n)) for t in (tree, shards.tree_plain)]
        proofs.append(MerkleProof(i, (rng.randbytes(32), rng.randbytes(32))))
        evidence = AppealEvidence(i, ciphertext, rng.choice(proofs), rng.choice(proofs))
        system.cpc_appeal(order_id, payee, kp.private, evidence)

    def op_settle():
        system.cpc_settle(order_id)

    def op_mine():
        ledger.mine_block()

    ops = [op_post, op_post, op_appeal, op_appeal, op_settle, op_mine, op_mine]
    for _ in range(rng.randint(6, 18)):
        try:
            rng.choice(ops)()
        except BdtsError:
            pass
        held = order.tokens if order.status != CLOSED else 0
        assert ledger.balance(system.cpc_addr) == held, order.status
        assert ledger.total_supply() == supply
    return order.status == CLOSED


def test_escrow_conservation_from_an_opened_escrow():
    settled = sum(_opened_escrow_sequence(random.Random(61_000 + seq)) for seq in range(500))
    assert settled >= 100, settled


# -- 7. download scaling trend ---------------------------------------------


def test_criterion_7_scaling_trend():
    start = time.perf_counter()
    size = 100 * 1000 * 1000
    medians = {}
    for providers in (1, 2, 3, 4):
        report = bench.bench_download(
            bench.BenchConfig(size_bytes=size, providers=providers, reps=5, seed=7)
        )
        assert report.recovery
        medians[providers] = report.median_download
    assert medians[1] >= medians[2] >= medians[3] >= medians[4], medians
    assert medians[1] / medians[2] >= 1.5, medians
    assert time.perf_counter() - start < 300.0


# -- 8. complexity-counter shape -------------------------------------------


def phase_op_tuples(tr):
    """Each phase's op counts in ``metrics.FIELDS`` order."""
    return {
        label: tuple(ops[f] for f in metrics.FIELDS) for label, ops in tr.phase_ops.items()
    }


@pytest.mark.parametrize("n", (1, 4, 16))
def test_criterion_8_phase_counters(n):
    start = time.perf_counter()
    tr = run_scenario("aei", n=n, slot=1024)
    ops = phase_op_tuples(tr)
    k = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    assert ops["upload"] == (n, 0, 0, 0, 2, 2 * k)
    assert ops["download"] == (n, 1, n, 1, 1, n)
    assert ops["decrypt"] == (0, 1, n, 1, 1, n)
    assert time.perf_counter() - start < 5.0


def test_criterion_8_appeal_delta():
    tr = run_scenario("cei", n=4, slot=1024)
    assert phase_op_tuples(tr)["appeal"] == (0, 0, 1, 1, 0, 1)
