import collections
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from bdts.errors import InsufficientTokens, InvalidInput, NotFound
from bdts.ledger import Ledger, address_for, rand_indices

A, B, C = address_for("a"), address_for("b"), address_for("c")


def test_genesis_and_balances():
    led = Ledger({A: 100})
    assert led.balance(A) == 100
    assert led.balance(B) == 0
    assert led.height == 0
    assert led.total_supply() == 100


def test_negative_genesis_rejected():
    with pytest.raises(InvalidInput):
        Ledger({A: -1})


def test_transfer_applies_eagerly():
    led = Ledger({A: 10})
    led.transfer(A, B, 4)
    assert led.balance(A) == 6 and led.balance(B) == 4


def test_overdraw_raises_and_leaves_no_trace():
    # an overdraw used to log a rejected transfer into the next block
    led = Ledger({A: 3})
    with pytest.raises(InsufficientTokens):
        led.transfer(A, B, 5)
    assert led.balance(A) == 3 and led.balance(B) == 0
    led.mine_block()
    assert led.events == []


@pytest.mark.parametrize("moves", [0, 1, 3])
def test_block_seals_the_json_of_its_events(moves):
    led = Ledger({A: 10})
    for _ in range(moves):
        led.transfer(A, B, 1, memo="m")
    led.log_event("note", text="\u00e9", n=moves)
    block = led.mine_block()
    sealed = [e for e in led.events if e["height"] == block.height]
    assert len(sealed) == moves + 1
    want = hashlib.sha256(json.dumps(sealed, sort_keys=True).encode()).digest()
    assert block.tx_digest == want
    empty = led.mine_block()
    assert empty.tx_digest == hashlib.sha256(json.dumps([], sort_keys=True).encode()).digest()


def test_zero_amount_rejected():
    led = Ledger({A: 3})
    with pytest.raises(InvalidInput):
        led.transfer(A, B, 0)


@pytest.mark.parametrize("amount", (1.5, 2.0, "2", True))
def test_non_int_amount_rejected(amount):
    # 1.5 moved, leaving fractional balances behind
    led = Ledger({A: 3})
    with pytest.raises(InvalidInput):
        led.transfer(A, B, amount)
    led.mine_block()
    assert led.balances == {A: 3} and led.events == []


def test_supply_conserved_through_blocks():
    led = Ledger({A: 50, B: 50})
    for src, dst, amount in ((A, B, 10), (B, C, 30), (C, A, 5)):
        led.transfer(src, dst, amount)
    led.mine_block()
    assert led.total_supply() == 100
    assert (led.balance(A), led.balance(B), led.balance(C)) == (45, 30, 25)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((A, B, C)), st.sampled_from((A, B, C)),
                          st.integers(1, 40)), max_size=30))
def test_random_transfers_conserve_supply_and_overdraws_leave_no_trace(moves):
    led = Ledger({A: 30, B: 20, C: 10})
    for src, dst, amount in moves:
        held, events = dict(led.balances), len(led.events)
        overdraw = amount > led.balance(src)
        if overdraw:
            with pytest.raises(InsufficientTokens):
                led.transfer(src, dst, amount)
        else:
            led.transfer(src, dst, amount)
        led.mine_block()
        sealed = led.events[events:]
        if overdraw:
            assert led.balances == held and sealed == []
        else:
            assert [(e["from"], e["to"], e["amount"]) for e in sealed] == [(src, dst, amount)]
        assert led.total_supply() == 60
        assert min(led.balances.values()) >= 0


def test_chain_links_and_seed():
    led = Ledger({A: 1})
    b1 = led.mine_block()
    b2 = led.mine_block()
    assert b2.parent == b1.hash
    assert led.seed_at(1) == b1.hash
    with pytest.raises(NotFound):
        led.seed_at(99)


def test_replay_determinism():
    def build():
        led = Ledger({A: 100, B: 100})
        led.transfer(A, B, 7, memo="one")
        led.mine_block()
        led.log_event("note", n=3)
        led.transfer(B, C, 50)
        led.mine_block()
        return led

    x, y = build(), build()
    assert [b.hash for b in x.blocks] == [b.hash for b in y.blocks]
    assert x.events == y.events


# -- rand_indices -----------------------------------------------------------


def test_rand_indices_basic():
    out = rand_indices(b"seed", 10, 4)
    assert out == sorted(out)
    assert len(set(out)) == 4
    assert all(0 <= i < 10 for i in out)


def test_rand_indices_deterministic():
    assert rand_indices(b"s", 100, 10) == rand_indices(b"s", 100, 10)
    assert rand_indices(b"s", 100, 10) != rand_indices(b"t", 100, 10)


def test_rand_indices_full_range():
    assert rand_indices(b"x", 5, 5) == [0, 1, 2, 3, 4]


def test_rand_indices_bounds():
    with pytest.raises(InvalidInput):
        rand_indices(b"x", 5, 0)
    with pytest.raises(InvalidInput):
        rand_indices(b"x", 5, 6)


def test_rand_indices_roughly_uniform():
    # draw 1 of 10 across many seeds; each index should land well within a
    # loose band around the expected 400 hits
    counts = collections.Counter()
    trials = 4000
    for t in range(trials):
        counts[rand_indices(t.to_bytes(4, "big"), 10, 1)[0]] += 1
    expected = trials / 10
    chi2 = sum((counts[i] - expected) ** 2 / expected for i in range(10))
    assert chi2 < 30  # 9 dof; p ~ 4e-4 false-alarm bound
