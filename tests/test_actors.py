"""Scenario-level behavior: who recovers, who gets paid, who gets caught."""
import functools
import hashlib
import json
import os
import random
import threading
import tracemalloc

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from bdts import actors, bench, crypto, merkle
from bdts.actors import (
    all_profiles,
    deliver_in_memory,
    run_scenario,
    run_trade,
)
from bdts.contracts import SELLER_PAYEE, UPHELD, ContractSystem, provider_payee
from bdts.errors import InvalidInput, ProofFailure
from bdts.ledger import address_for
from cheat_catalog import cheat_catalog
from forged_wrap import forged_wrap

SLOT = 1024  # small shards keep the full matrix fast


def run(profile, **kw):
    kw.setdefault("slot", SLOT)
    return run_scenario(profile, **kw)


def test_bad_profile_is_refused():
    # one letter per role, seller then consumer then provider
    for profile in ("zzz", "ae", "aeii", "eai"):
        with pytest.raises(InvalidInput):
            run(profile)


@pytest.mark.parametrize("profile,parses", [("aei", 3), ("cei", 4)])
def test_each_x25519_private_key_is_parsed_once(profile, parses, monkeypatch):
    # the consumer's key pair, one ephemeral key per wrap, and the
    # appellant's key once per appeal; each parse is a scalar multiplication
    calls = []
    parse = X25519PrivateKey.from_private_bytes

    def counted(data):
        calls.append(bytes(data))
        return parse(data)

    monkeypatch.setattr(X25519PrivateKey, "from_private_bytes", counted)
    run(profile)
    assert len(calls) == parses


def test_all_profiles_enumerates_64():
    ps = all_profiles()
    assert len(ps) == len(set(ps)) == 64
    assert ps[:2] == ["aei", "aej"] and ps[-1] == "dhl"


def test_param_ranges_enforced():
    with pytest.raises(InvalidInput):
        run("aei", x=20)
    with pytest.raises(InvalidInput):
        run("aei", y=4)


def test_honest_run():
    tr = run("aei", n=8)
    assert tr.funded and tr.recovery
    assert tr.verdicts == {} and tr.appeals == []
    assert tr.deltas == {"seller": 40, "consumer": -48, "provider": 8}


def test_transcript_determinism():
    a = run("cei", seed=7)
    b = run("cei", seed=7)
    assert a.to_json() == b.to_json()


def test_transcript_changes_with_seed():
    assert run("aei", seed=1).to_json() != run("aei", seed=2).to_json()


def test_scenario_input_is_fixed_by_profile_and_seed(monkeypatch):
    inputs = []
    real = actors.run_trade

    def capture(profile, data, *args, **kwargs):
        inputs.append(bytes(data))
        return real(profile, data, *args, **kwargs)

    monkeypatch.setattr(actors, "run_trade", capture)
    for profile, seed in (("aei", 1), ("aei", 1), ("aei", 2), ("cei", 1)):
        run(profile, seed=seed)
    first, same, other_seed, other_profile = inputs
    assert len(first) == 8 * SLOT
    assert first == same
    assert first != other_seed and first != other_profile


@pytest.mark.parametrize("profile,expect", cheat_catalog())
def test_cheat_catalog_outcomes(profile, expect):
    tr = run(profile)
    assert tr.funded == expect["funded"]
    assert tr.recovery == expect["recovery"]
    assert len(tr.appeals) == expect["appeals"]
    if expect["appeals"]:
        assert tr.appeals[0]["verdict"] == expect["verdict"]
    cheater = expect["cheater"]
    if cheater is not None:
        assert tr.deltas[cheater] <= 0


def test_recovery_iff_fully_honest():
    # honest consumer: data recovered exactly when seller=a and provider=i
    for sl in "abcd":
        for sp in "ijkl":
            tr = run(f"{sl}e{sp}")
            assert tr.recovery == (sl == "a" and sp == "i"), f"{sl}e{sp}"


def test_cheating_payee_never_profits():
    for p in all_profiles():
        sl, cm, sp = p
        if cm != "e":
            continue
        tr = run(p)
        if sl != "a" and sp == "i":
            assert tr.deltas["seller"] <= 0, p
        if sp != "i":
            assert tr.deltas["provider"] <= 0, p


def test_supply_conserved_in_every_catalog_run():
    for profile, _ in cheat_catalog():
        tr = run(profile)
        # actor gains are funded entirely by actor losses and contract sinks
        assert sum(tr.deltas.values()) <= 0


def test_phase_ops_present_for_funded_run():
    tr = run("aei")
    assert set(tr.phase_ops) == {"upload", "download", "decrypt"}
    tr = run("cei")
    assert "appeal" in tr.phase_ops


HONEST = "aei"
OVER_SOCKETS = functools.partial(bench._deliver, 0, [])


def provider_labels(providers):
    return ["provider"] + [f"provider{p}" for p in range(1, providers)]


def escrow_in_out(tr):
    cpc = address_for("contract:CPC:o0001")  # the trade's one order's escrow
    moved = [e for e in tr.events if e["type"] == "transfer" and e["status"] == "applied"]
    return (
        sum(e["amount"] for e in moved if e["to"] == cpc),
        sum(e["amount"] for e in moved if e["from"] == cpc),
    )


@pytest.mark.parametrize("deliver", (deliver_in_memory, OVER_SOCKETS), ids=("memory", "sockets"))
@pytest.mark.parametrize("providers", (2, 3))
def test_honest_multi_provider_trade(providers, deliver):
    n = 7
    data = random.Random(providers).randbytes(n * SLOT - 100)  # short last shard
    ranges = bench._ranges(n, providers)
    tr = run_trade(HONEST, data, SLOT, ranges, deliver)
    assert tr.funded and tr.recovery and not tr.appeals and not tr.verdicts
    labels = provider_labels(providers)
    assert [tr.deltas[label] for label in labels] == [len(r) * tr.unit_price for r in ranges]
    assert tr.deltas["seller"] == tr.price
    assert tr.deltas["consumer"] == -(tr.price + n * tr.unit_price)
    assert sum(tr.deltas.values()) == 0  # supply conserved, no contract keeps tokens
    assert escrow_in_out(tr) == (tr.price + n * tr.unit_price,) * 2


def cheat_over(profile, providers, deliver=deliver_in_memory, n=8):
    """``profile`` traded over ``n`` shards split evenly across ``providers``,
    of data drawn from an rng seeded by the profile."""
    data = random.Random(profile).randbytes(n * SLOT)
    ranges = bench._ranges(n, providers)
    tr = run_trade(profile, data, SLOT, ranges, deliver)
    return ranges, tr


# each cheat test runs both transports, so its appeal evidence has also been
# through the wire
DELIVERIES = (deliver_in_memory, OVER_SOCKETS)


@pytest.mark.parametrize("providers", (2, 3))
@pytest.mark.parametrize("profile", ("aej", "aek", "ael"))
def test_every_cheating_provider_is_appealed(profile, providers):
    labels = provider_labels(providers)
    payees = [provider_payee(address_for(f"actor:{label}")) for label in labels]
    for deliver in DELIVERIES:
        _, tr = cheat_over(profile, providers, deliver)
        assert [(a["payee"], a["verdict"]) for a in tr.appeals] == [(p, UPHELD) for p in payees]
        assert not tr.recovery
        assert [tr.deltas[label] for label in labels] == [0] * providers
        # the consumer gets back exactly the providers' tranches and pays the seller
        assert tr.deltas["consumer"] == -tr.price
        assert escrow_in_out(tr) == (tr.price + 8 * tr.unit_price,) * 2


@pytest.mark.parametrize("providers", (2, 3))
@pytest.mark.parametrize("profile", ("bei", "cei", "dei"))
def test_cheating_seller_is_appealed_once_over_providers(profile, providers):
    labels = provider_labels(providers)
    for deliver in DELIVERIES:
        ranges, tr = cheat_over(profile, providers, deliver)
        assert [(a["payee"], a["verdict"]) for a in tr.appeals] == [(SELLER_PAYEE, UPHELD)]
        assert not tr.recovery
        assert [tr.deltas[label] for label in labels] == [len(r) * tr.unit_price for r in ranges]
        assert tr.deltas["seller"] <= 0
        assert tr.deltas["consumer"] == -8 * tr.unit_price


@pytest.mark.parametrize("providers", (1, 2))
def test_each_layer_is_kept_only_until_its_next_holder_has_it(providers):
    # over the copying transport every layer is a copy of its own: the
    # seller's enc layer, the providers' eed layer, the consumer's frames and
    # its two openings.  Holding all five would take five times the data;
    # with each eed frame dropped once it is sent, and each received frame
    # taking its place, no more than about two and a half are held at once.
    n, slot = 16, 256 * 1024
    data = random.Random(providers).randbytes(n * slot)
    tracemalloc.start()  # the input is drawn: only the trade's copies count
    try:
        tr = run_trade(HONEST, data, slot, bench._ranges(n, providers), OVER_SOCKETS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.recovery
    assert peak < 3 * len(data)


@pytest.mark.parametrize(
    "profile", ("aei", "bei", "cei", "dei", "aej", "aek", "ael", "cej", "dek", "del", "bek")
)
def test_appeal_evidence_survives_the_releases(profile):
    # in memory the consumer's frames are the providers' own buffers; over
    # the copying transport they are its own copies, so a frame released
    # before its shard opens would take bytes an appeal needs with it
    def trade(deliver):
        data = random.Random(profile).randbytes(8 * 64 * 1024)
        return run_trade(profile, data, 64 * 1024, bench._ranges(8, 2), deliver)

    tr = trade(deliver_in_memory)
    assert trade(OVER_SOCKETS).to_json() == tr.to_json()
    assert tr.recovery == (profile == HONEST)
    assert bool(tr.appeals) != tr.recovery
    assert all(a["verdict"] == UPHELD for a in tr.appeals)


# posted keys that ``crypto.pk_decrypt`` will not unwrap to one 32-byte key
UNUSABLE_KEYS = {
    "garbage-80": lambda public: b"\x07" * 80,
    "blob-20": lambda public: b"\x07" * 20,
    "wrapped-16": lambda public: forged_wrap(public, bytes(16)),
    "wrapped-64": lambda public: forged_wrap(public, bytes(64)),
}


@pytest.mark.parametrize("deliver", DELIVERIES, ids=("memory", "sockets"))
@pytest.mark.parametrize("forge", UNUSABLE_KEYS.values(), ids=UNUSABLE_KEYS)
@pytest.mark.parametrize("cheater", ("seller", "provider", "both"))
def test_unusable_posted_key_is_appealed(cheater, forge, deliver, monkeypatch):
    # an honest two-provider trade but for the posted keys of the seller, of
    # the first provider, or of both roles (every payee): the consumer
    # appeals each of those payees, and the trade still settles
    cheaters = {"seller": ["seller"], "provider": ["provider"],
                "both": ["provider", "provider1", "seller"]}[cheater]
    payees = [SELLER_PAYEE if label == "seller" else provider_payee(address_for(f"actor:{label}"))
              for label in cheaters]
    post = ContractSystem.cpc_post_key

    def post_unusable(self, sender, order_id, to, wrapped_key):
        if to in payees:
            wrapped_key = forge(self.orders[order_id].pub_cm)
        post(self, sender, order_id, to, wrapped_key)

    monkeypatch.setattr(ContractSystem, "cpc_post_key", post_unusable)
    ranges, tr = cheat_over("aei", 2, deliver)
    assert [(a["payee"], a["verdict"]) for a in tr.appeals] == [(p, UPHELD) for p in payees]
    assert tr.verdicts == dict.fromkeys(payees, UPHELD) and not tr.recovery
    assert any(e.get("memo") == "settled" for e in tr.events)  # the order is Closed
    tranches = {"seller": tr.price, "provider": len(ranges[0]) * tr.unit_price,
                "provider1": len(ranges[1]) * tr.unit_price}
    for label, amount in tranches.items():
        # every honest payee is paid, and no cheater
        assert tr.deltas[label] == (0 if label in cheaters else amount), label
    paid = sum(amount for label, amount in tranches.items() if label not in cheaters)
    assert tr.deltas["consumer"] == -paid
    assert escrow_in_out(tr) == (tr.price + 8 * tr.unit_price,) * 2  # the escrow keeps nothing
    assert sum(tr.deltas.values()) == 0  # supply unchanged


def test_provider_left_without_shards_serves_nothing():
    # every shard listed for provider1 is served by the provider listed first
    data = random.Random(4).randbytes(4 * SLOT)
    tr = run_trade(HONEST, data, SLOT, [[0, 1, 2, 3], [3]], deliver_in_memory)
    assert tr.recovery and not tr.appeals
    assert tr.deltas["provider"] == 4 * tr.unit_price and tr.deltas["provider1"] == 0
    assert escrow_in_out(tr) == (tr.price + 4 * tr.unit_price,) * 2


def test_providers_serve_the_packages_the_contract_recorded():
    # shard 3 is listed for both providers; the contract gives it to the first
    delivered = []

    def record(served):
        delivered.extend(sorted(shards) for shards in served)
        return served

    data = random.Random(8).randbytes(8 * SLOT)
    tr = run_trade(HONEST, data, SLOT, [[0, 1, 2, 3], [3, 4, 5, 6, 7]], record)
    assert delivered == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert tr.recovery and tr.deltas["provider1"] == 4 * tr.unit_price


def test_recovery_rests_on_r_d_not_the_sellers_copy():
    # the seller's buffer is zeroed once the listing is live; the consumer
    # never holds it, so only the committed root r_d can decide recovery
    data = bytearray(random.Random(6).randbytes(4 * SLOT))

    def zero_the_sellers_copy(served):
        memoryview(data)[:] = bytes(len(data))
        return served

    tr = run_trade(HONEST, data, SLOT, [[0, 1, 2, 3]], zero_the_sellers_copy)
    assert not any(data)
    assert tr.recovery and tr.appeals == []
    assert tr.deltas["seller"] == tr.price


def flip_a_shard_bit(frames):
    eed, *proofs = frames[0]
    frames[0] = (bytes([eed[0] ^ 1]) + eed[1:], *proofs)


def swap_an_eed_proof(frames):
    eed, _, ed_proof = frames[0]
    frames[0] = (eed, frames[1][1], ed_proof)  # position 1's proof at position 0


def drop_a_frame(frames):
    del frames[2]


@pytest.mark.parametrize("tamper", (flip_a_shard_bit, swap_an_eed_proof, drop_a_frame))
def test_tampered_delivery_is_refused(tamper, monkeypatch):
    # frames are untrusted input: a bad one stops the trade before any appeal
    appealed = []
    monkeypatch.setattr(ContractSystem, "cpc_appeal", lambda *args: appealed.append(args))

    def tampered(served):
        tamper(served[0])
        return served

    with pytest.raises(ProofFailure):
        run_trade(HONEST, bytes(4 * SLOT), SLOT, [[0, 1, 2, 3]], tampered)
    assert appealed == []


def record_seals(monkeypatch):
    """Patch ``crypto.sym_encrypt`` to log (key, nonce, plaintext digest) of
    every seal, in order."""
    seals = []
    seal = crypto.sym_encrypt

    def recording(key, plaintext, layer, position):
        ct = seal(key, plaintext, layer, position)
        digest = hashlib.sha256(plaintext).digest()
        seals.append((bytes(key), bytes(ct[: crypto.NONCE_SIZE]), digest))
        return ct

    monkeypatch.setattr(crypto, "sym_encrypt", recording)
    return seals


def sealed_once(seals):
    return len({(key, nonce) for key, nonce, _ in seals}) == len(seals)


@pytest.mark.parametrize("providers", (1, 2, 3))
def test_no_trade_seals_twice_under_one_key_and_nonce(providers, monkeypatch):
    # within a trade each (key, nonce) seals once; across the 64 trades, one
    # seed and 64 data sets, none seals two plaintexts, as every key is bound
    # to its data set
    seals = record_seals(monkeypatch)
    plaintext_of = {}
    for profile in all_profiles():
        seals.clear()
        cheat_over(profile, providers)
        assert seals and sealed_once(seals), profile
        for key, nonce, digest in seals:
            assert plaintext_of.setdefault((key, nonce), digest) == digest, profile


def test_bench_download_seals_each_nonce_once(monkeypatch):
    seals = record_seals(monkeypatch)
    config = bench.BenchConfig(size_bytes=10 * SLOT + 1, providers=2, slot=SLOT, reps=1,
                               bandwidth=0)
    assert bench.bench_download(config).recovery
    assert len(seals) == 2 * 11 and sealed_once(seals)


@pytest.mark.parametrize("profile", ("bei", "dei"))
def test_substituted_shards_take_their_own_nonces(profile, monkeypatch):
    seals = record_seals(monkeypatch)
    cheat_over(profile, 1)
    # upload seals the 8 genuine shards, then the seller substitutes 8 and
    # the provider wraps them
    assert len(seals) == 3 * 8
    honest, substituted = seals[:8], seals[8:16]
    assert all(h[1] != s[1] for h, s in zip(honest, substituted))


SHORT_SHARD_CASES = [c for c in cheat_catalog() if c[0] in ("aei", "bei", "cei", "dei", "aek")]


@pytest.mark.parametrize("providers", (1, 2))
@pytest.mark.parametrize("size", (7 * SLOT - 100, SLOT // 3), ids=("short-last", "one-short"))
@pytest.mark.parametrize("profile,expect", SHORT_SHARD_CASES)
def test_short_shards_keep_catalog_outcomes(profile, expect, size, providers):
    data = random.Random(size).randbytes(size)
    ranges = bench._ranges(-(-size // SLOT), providers)
    tr = run_trade(profile, data, SLOT, ranges, deliver_in_memory)
    assert tr.funded and tr.recovery == expect["recovery"]  # recovery: the shards rebuild r_d
    cheater = expect["cheater"]
    if cheater == "provider":  # every provider cheats, and each is appealed once
        cheaters = provider_labels(len(ranges))
    else:
        cheaters = [cheater] if cheater else []
    assert [a["verdict"] for a in tr.appeals] == [expect.get("verdict")] * len(cheaters)
    assert all(tr.deltas[label] <= 0 for label in cheaters)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden_transcripts.json")
MIB = 1 << 20


@pytest.mark.parametrize("providers", [1, 2])
@pytest.mark.parametrize(
    "profile", ["aei", "bei", "cei", "dei", "aej", "aek", "ael", "cej", "dek"]
)
def test_threaded_consumer_checks_change_nothing(monkeypatch, profile, providers):
    """The consumer hashes 8 x 1 MiB shards on ``merkle-leaves`` threads
    when 3 CPUs are usable and on its own thread when 1 is, and the two
    transcripts are byte-identical, phase op counts included.  A transcript
    holds no shard bytes, so the 1-provider trade also matches its golden
    digest, pinned at 1 KiB shards."""
    names, consumer_names = [], []
    hash_leaves, leaf_digests = merkle._hash_leaves, actors.leaf_digests

    def recording(leaves):
        names.append(threading.current_thread().name)
        return hash_leaves(leaves)

    def consumer_digests(leaves):
        start = len(names)
        digests = leaf_digests(leaves)
        consumer_names.extend(names[start:])
        return digests

    def trade():
        if providers == 1:
            return run_scenario(profile, slot=MIB)
        data = random.Random(profile).randbytes(8 * MIB)
        return run_trade(profile, data, MIB, bench._ranges(8, 2), deliver_in_memory)

    monkeypatch.setattr(merkle, "_hash_leaves", recording)
    monkeypatch.setattr(actors, "leaf_digests", consumer_digests)
    runs, pooled = {}, {}
    for cpus in (1, 3):
        monkeypatch.setattr(merkle, "_usable_cpus", lambda cpus=cpus: cpus)
        consumer_names.clear()
        runs[cpus] = trade().to_json()
        pooled[cpus] = any(name.startswith("merkle-leaves") for name in consumer_names)
    assert runs[1] == runs[3]
    assert pooled == {1: False, 3: True}
    if providers == 1:
        with open(GOLDEN) as fh:
            want = json.load(fh)[f"{profile}/seed0"]
        assert hashlib.sha256(runs[1].encode()).hexdigest() == want
