"""Payoff rules against the transcribed profit table, equilibrium search,
and the model/simulation crosscheck."""
import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from bdts import bench, game
from bdts.actors import ROLES, all_profiles, deliver_in_memory, run_scenario, run_trade
from bdts.errors import InvalidInput, Mismatch
import paper_table

GRID = [(x, y) for x in (0, 5, 10, 19) for y in (0, 1, 2, 3)]


# -- raw table fidelity -----------------------------------------------------


@pytest.mark.parametrize("profile", ["zzz", "ae", "aeii", ["a", "e", "i"]])
@pytest.mark.parametrize("payoff", [game.raw_payoff, game.enforced_payoff, game.token_flows])
def test_payoffs_refuse_a_malformed_profile(payoff, profile):
    with pytest.raises(InvalidInput):
        payoff(profile, 10, 2)


def test_pinned_raw_cells():
    assert tuple(game.raw_payoff("aei", 10, 2)) == (9, -4, 2)
    assert tuple(game.raw_payoff("afi", 10, 2)) == (10 - 11, 16 - 10, 2)
    assert tuple(game.raw_payoff("dei", 10, 2)) == (20, -24, 2)
    assert tuple(game.raw_payoff("ahi", 3, 1)) == (3 - 11, -3 - 1, 1 - 2)


@pytest.mark.parametrize("x,y", GRID)
def test_verify_table_clean(x, y):
    assert paper_table.verify_table(x, y) == []


def test_verify_table_flags_corruption(monkeypatch):
    # harness self-test: a deliberately corrupted fixture cell must show up
    broken = dict(paper_table.RAW_TABLE)
    broken["dhl"] = lambda x, y: (999, 0, 0)
    monkeypatch.setattr(paper_table, "RAW_TABLE", broken)
    diffs = paper_table.verify_table(10, 2)
    assert len(diffs) == 1 and diffs[0]["profile"] == "dhl"


def test_param_validation():
    with pytest.raises(InvalidInput):
        game.raw_payoff("aei", 20, 0)
    with pytest.raises(InvalidInput):
        game.raw_payoff("aei", 0, 4)


# -- system totals and equilibria ------------------------------------------


@pytest.mark.parametrize("x,y", GRID)
def test_top_raw_totals(x, y):
    totals = {p: sum(game.raw_payoff(p, x, y)) for p in all_profiles()}
    assert totals["aei"] == totals["afi"] == totals["agi"] == 7
    assert max(totals.values()) == 7


def test_constant_payoff_all_nash():
    fn = lambda p, x, y: game.PayoffVector(1, 1, 1)
    assert len(game.nash_equilibria(fn, 10, 2)) == 64


def test_honest_profile_is_enforced_nash():
    for x, y in ((5, 1), (10, 2), (19, 3)):
        assert "aei" in game.nash_equilibria(game.enforced_payoff, x, y)


def test_backward_induction_constructed_case():
    fn = lambda p, x, y: (
        game.PayoffVector(5, 5, 5) if p == "dhl" else game.PayoffVector(0, 0, 0)
    )
    assert game.backward_induction(fn, 10, 2) == "dhl"


def test_backward_induction_honest_at_reference_point():
    assert game.backward_induction(game.enforced_payoff, 10, 2) == "aei"


def test_backward_induction_lexicographic_ties():
    fn = lambda p, x, y: game.PayoffVector(0, 0, 0)
    assert game.backward_induction(fn, 10, 2) == "aei"


# Reference solvers: a per-profile scan of every unilateral deviation, and
# the recursive descent of the game tree.  The module's solvers must agree.


def reference_nash_equilibria(payoff_fn, x, y):
    table = {p: payoff_fn(p, x, y) for p in all_profiles()}
    return {
        name
        for name, payoff in table.items()
        if all(
            table[name[:role] + alt + name[role + 1 :]][role] <= payoff[role]
            for role, letters in enumerate(ROLES)
            for alt in letters
        )
    }


def reference_backward_induction(payoff_fn, x, y):
    def solve(prefix):
        if len(prefix) == len(ROLES):
            return prefix, payoff_fn(prefix, x, y)
        role = len(prefix)
        return max((solve(prefix + s) for s in ROLES[role]), key=lambda out: out[1][role])

    return solve("")[0]


# small payoffs, so that ties within a deviation group are common
PAYOFF_TABLES = st.lists(
    st.tuples(*[st.integers(-2, 2)] * len(ROLES)), min_size=64, max_size=64
)


@given(PAYOFF_TABLES)
def test_solvers_match_the_reference_on_tied_tables(cells):
    table = dict(zip(all_profiles(), (game.PayoffVector(*c) for c in cells)))
    fn = lambda p, x, y: table[p]
    assert game.nash_equilibria(fn, 10, 2) == reference_nash_equilibria(fn, 10, 2)
    assert game.backward_induction(fn, 10, 2) == reference_backward_induction(fn, 10, 2)


@pytest.mark.parametrize("fn", [game.raw_payoff, game.enforced_payoff])
@pytest.mark.parametrize("x,y", GRID)
def test_solvers_match_the_reference_on_the_grid(fn, x, y):
    assert game.nash_equilibria(fn, x, y) == reference_nash_equilibria(fn, x, y)
    assert game.backward_induction(fn, x, y) == reference_backward_induction(fn, x, y)


# -- enforced payoffs -------------------------------------------------------


def test_enforced_pinned_cells():
    assert tuple(game.enforced_payoff("aei", 10, 2)) == (9, -4, 2)
    assert tuple(game.enforced_payoff("cei", 10, 2)) == (-10, -4, 2)
    assert tuple(game.enforced_payoff("afi", 10, 2)) == (0, -(10 + 4), 0)


def test_token_flows_exclude_costs_and_utility():
    assert tuple(game.token_flows("aei", 10, 2)) == (20, -24, 4)
    assert tuple(game.token_flows("bei", 10, 2)) == (0, -4, 4)
    assert tuple(game.token_flows("aej", 10, 2)) == (20, -20, 0)
    assert tuple(game.token_flows("agi", 10, 2)) == (0, -22, 0)


# -- simulation agreement ---------------------------------------------------


def test_crosscheck_honest_and_cheating():
    assert game.crosscheck_simulation("aei")
    assert game.crosscheck_simulation("cei")
    assert game.crosscheck_simulation("ahl")
    # an underpaying consumer forfeits its offer to the token, at the
    # extremes of x and y and at half units
    for p in all_profiles():
        if p[1] != "e":
            for x, y in ((0, 0), (0.5, 3.5), (19.5, 0.5)):
                assert game.crosscheck_simulation(p, x=x, y=y), (p, x, y)


@pytest.mark.parametrize("providers", (2, 3))
def test_crosscheck_over_several_providers(providers):
    # the model's provider is every provider together
    ranges = bench._ranges(8, providers)
    for p in all_profiles():
        data = random.Random(p).randbytes(8 * 1024)
        tr = run_trade(p, data, 1024, ranges, deliver_in_memory)
        assert game.crosscheck_transcript(tr), p


def test_crosscheck_runs_the_scenario_once(monkeypatch):
    runs = []
    real = game.run_scenario
    monkeypatch.setattr(game, "run_scenario", lambda *a, **kw: runs.append(a) or real(*a, **kw))
    assert game.crosscheck_simulation("aei")
    assert len(runs) == 1


def test_crosscheck_rejects_bad_scaling():
    tr = run_scenario("aei")
    with pytest.raises(InvalidInput):
        game.crosscheck_transcript(dataclasses.replace(tr, price=30))
    with pytest.raises(InvalidInput):
        game.crosscheck_transcript(run_scenario("aei", n=5))


def test_crosscheck_raises_mismatch_on_model_violation(monkeypatch):
    monkeypatch.setattr(
        game, "token_flows", lambda p, x, y: game.PayoffVector(1, 2, 3)
    )
    with pytest.raises(Mismatch):
        game.crosscheck_simulation("aei")
