"""Scenario-level behavior: who recovers, who gets paid, who gets caught."""
import functools
import random

import pytest

from bdts import bench
from bdts.actors import (
    StrategyProfile,
    all_profiles,
    deliver_in_memory,
    run_scenario,
    run_trade,
)
from bdts.contracts import SELLER_PAYEE, UPHELD, provider_payee
from bdts.errors import InvalidInput, ProofFailure
from bdts.ledger import address_for
from cheat_catalog import cheat_catalog

SLOT = 1024  # small shards keep the full matrix fast


def run(profile, **kw):
    kw.setdefault("slot", SLOT)
    return run_scenario(profile, **kw)


def test_profile_parsing():
    p = StrategyProfile.parse("aei")
    assert (p.seller, p.consumer, p.provider) == ("a", "e", "i")
    assert str(p) == "aei"
    with pytest.raises(InvalidInput):
        StrategyProfile.parse("zzz")
    with pytest.raises(InvalidInput):
        StrategyProfile.parse("ae")


def test_all_profiles_enumerates_64():
    ps = all_profiles()
    assert len(ps) == len(set(map(str, ps))) == 64


def test_param_ranges_enforced():
    with pytest.raises(InvalidInput):
        run("aei", x=20)
    with pytest.raises(InvalidInput):
        run("aei", y=4)


def test_honest_run():
    tr = run("aei", price=40, unit_price=1, n=8)
    assert tr.funded and tr.recovery
    assert tr.verdicts == {} and tr.appeals == []
    assert tr.deltas == {"seller": 40, "consumer": -48, "provider": 8}


def test_transcript_determinism():
    a = run("cei", seed=7)
    b = run("cei", seed=7)
    assert a.to_json() == b.to_json()


def test_transcript_changes_with_seed():
    assert run("aei", seed=1).to_json() != run("aei", seed=2).to_json()


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
            tr = run(StrategyProfile(sl, "e", sp))
            assert tr.recovery == (sl == "a" and sp == "i"), f"{sl}e{sp}"


def test_cheating_payee_never_profits():
    for p in all_profiles():
        if p.consumer != "e":
            continue
        tr = run(p)
        if p.seller != "a" and p.provider == "i":
            assert tr.deltas["seller"] <= 0, str(p)
        if p.provider != "i":
            assert tr.deltas["provider"] <= 0, str(p)


def test_supply_conserved_in_every_catalog_run():
    for profile, _ in cheat_catalog():
        tr = run(profile)
        # actor gains are funded entirely by actor losses and contract sinks
        assert sum(tr.deltas.values()) <= 0


def test_strict_forfeit_off_refunds_underpayment():
    tr = run("afi", strict_forfeit=False)
    assert not tr.funded
    assert tr.deltas == {"seller": 0, "consumer": 0, "provider": 0}


def test_phase_ops_present_for_funded_run():
    tr = run("aei")
    assert set(tr.phase_ops) == {"upload", "download", "decrypt"}
    tr = run("cei")
    assert "appeal" in tr.phase_ops


HONEST = StrategyProfile.parse("aei")
OVER_SOCKETS = functools.partial(bench._deliver, 0, [])


def provider_labels(providers):
    return ["provider"] + [f"provider{p}" for p in range(1, providers)]


def escrow_in_out(tr):
    cpc = address_for("contract:CPC")
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
    tr = run_trade(HONEST, data, SLOT, ranges, deliver, random.Random(0))
    assert tr.funded and tr.recovery and not tr.appeals and not tr.verdicts
    labels = provider_labels(providers)
    assert [tr.deltas[label] for label in labels] == [len(r) * tr.unit_price for r in ranges]
    assert tr.deltas["seller"] == tr.price
    assert tr.deltas["consumer"] == -(tr.price + n * tr.unit_price)
    assert sum(tr.deltas.values()) == 0  # supply conserved, no contract keeps tokens
    assert escrow_in_out(tr) == (tr.price + n * tr.unit_price,) * 2


def cheat_over(profile, providers, n=8):
    """``profile`` traded over ``n`` shards split evenly across ``providers``."""
    data = random.Random(profile).randbytes(n * SLOT)
    ranges = bench._ranges(n, providers)
    tr = run_trade(StrategyProfile.parse(profile), data, SLOT, ranges, deliver_in_memory,
                   random.Random(0))
    return ranges, tr


@pytest.mark.parametrize("providers", (2, 3))
@pytest.mark.parametrize("profile", ("aej", "aek", "ael"))
def test_every_cheating_provider_is_appealed(profile, providers):
    _, tr = cheat_over(profile, providers)
    labels = provider_labels(providers)
    payees = [provider_payee(address_for(f"actor:{label}")) for label in labels]
    assert [(a["payee"], a["verdict"]) for a in tr.appeals] == [(p, UPHELD) for p in payees]
    assert not tr.recovery
    assert [tr.deltas[label] for label in labels] == [0] * providers
    # the consumer gets back exactly the providers' tranches and pays the seller
    assert tr.deltas["consumer"] == -tr.price
    assert escrow_in_out(tr) == (tr.price + 8 * tr.unit_price,) * 2


@pytest.mark.parametrize("providers", (2, 3))
@pytest.mark.parametrize("profile", ("bei", "cei", "dei"))
def test_cheating_seller_is_appealed_once_over_providers(profile, providers):
    ranges, tr = cheat_over(profile, providers)
    assert [(a["payee"], a["verdict"]) for a in tr.appeals] == [(SELLER_PAYEE, UPHELD)]
    assert not tr.recovery
    labels = provider_labels(providers)
    assert [tr.deltas[label] for label in labels] == [len(r) * tr.unit_price for r in ranges]
    assert tr.deltas["seller"] <= 0
    assert tr.deltas["consumer"] == -8 * tr.unit_price


def test_provider_left_without_shards_serves_nothing():
    # every shard listed for provider1 is served by the provider listed first
    data = random.Random(4).randbytes(4 * SLOT)
    tr = run_trade(HONEST, data, SLOT, [[0, 1, 2, 3], [3]], deliver_in_memory, random.Random(0))
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
    tr = run_trade(HONEST, data, SLOT, [[0, 1, 2, 3], [3, 4, 5, 6, 7]], record, random.Random(0))
    assert delivered == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert tr.recovery and tr.deltas["provider1"] == 4 * tr.unit_price


def test_tampered_delivery_is_refused():
    def flip_a_bit(served):
        shards = served[0]
        shards[0] = bytes([shards[0][0] ^ 1]) + shards[0][1:]
        return served

    with pytest.raises(ProofFailure):
        run_trade(HONEST, bytes(4 * SLOT), SLOT, [[0, 1, 2, 3]], flip_a_bit, random.Random(0))
