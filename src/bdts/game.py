"""Sequential trading game over the 64 strategy profiles.

Two payoff modes:

* ``raw_payoff`` — profit rules under the bookkeeping where every payee
  collects his tranche regardless of honesty; reproduced cell-for-cell by
  the transcription fixture ``RAW_TABLE`` (``verify_table`` diffs the two).
* ``enforced_payoff`` — the same profiles after contract enforcement:
  a cheating payee's tranche is refunded to an appealing consumer, an
  under-funded order never pays anyone and the consumer forfeits what he
  sent.  ``token_flows`` isolates the monetary part of the enforced values
  so it can be compared 1:1 against simulated balance deltas.

``nash_equilibria`` and ``backward_induction`` operate on either mode.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from .actors import (
    CONSUMER_STRATEGIES,
    FEE,
    PRICE,
    PROVIDER_STRATEGIES,
    SELLER_STRATEGIES,
    RunTranscript,
    StrategyProfile,
    _validate_params,
    all_profiles,
    run_scenario,
)
from .errors import InvalidInput, Mismatch

UTILITY = 20  # value of recovered data to the consumer

SELLER_COST = {"a": -11, "b": -1, "c": -10, "d": 0}
PROVIDER_COST = {"i": -2, "j": -1, "k": -1, "l": 0}


class PayoffVector(NamedTuple):
    u_sl: float
    u_cm: float
    u_sp: float


# each role's strategy letters, in move order and in PayoffVector's order
ROLES = (SELLER_STRATEGIES, CONSUMER_STRATEGIES, PROVIDER_STRATEGIES)


PayoffFn = Callable[[StrategyProfile, float, float], PayoffVector]


def consumer_payment(cm: str, x: float, y: float) -> float:
    """Amount the consumer sends: full price+fee under e, partial otherwise."""
    return {"e": PRICE + FEE, "f": x + FEE, "g": y + PRICE, "h": x + y}[cm]


def raw_payoff(profile: StrategyProfile, x: float, y: float) -> PayoffVector:
    _validate_params(x, y)
    sl, cm, sp = profile.seller, profile.consumer, profile.provider
    u_sl = SELLER_COST[sl] + (PRICE if cm in "eg" else x)
    u_sp = PROVIDER_COST[sp] + (FEE if cm in "ef" else y)
    if sl == "a" and sp == "i":
        u_cm = -consumer_payment(cm, x, y) + (UTILITY if cm != "h" else 0)
    else:
        u_cm = -(PRICE + FEE)
    return PayoffVector(u_sl, u_cm, u_sp)


def enforced_payoff(profile: StrategyProfile, x: float, y: float) -> PayoffVector:
    """Payoffs after contract enforcement.

    The honest consumer nets UTILITY - (PRICE + FEE) = -4 under ``aei``; an
    unfunded order (any consumer strategy but e) pays nobody and costs the
    consumer what was sent, -(x+y) under h.  So ``backward_induction`` on this
    mode returns ``aei`` where x+y >= 4 (the tie at 4 breaks toward e) and
    ``ahi`` where x+y < 4.
    """
    _validate_params(x, y)
    sl, cm, sp = profile.seller, profile.consumer, profile.provider
    if cm != "e":
        # the order is never funded: nobody produces or earns, the
        # consumer forfeits what he sent
        return PayoffVector(0, -consumer_payment(cm, x, y), 0)
    flow_sl, flow_cm, flow_sp = token_flows(profile, x, y)
    u_sl = SELLER_COST[sl] + flow_sl
    u_sp = PROVIDER_COST[sp] + flow_sp
    u_cm = flow_cm + (UTILITY if (sl == "a" and sp == "i") else 0)
    return PayoffVector(u_sl, u_cm, u_sp)


def token_flows(profile: StrategyProfile, x: float, y: float) -> PayoffVector:
    """Net token movement per party under contract enforcement, in units.

    Excludes production costs and data utility: exactly the quantities a
    ledger balance delta can show.  A dishonest seller keeps his tranche
    when the provider layer is broken (the consumer never reaches the
    seller's layer to gather evidence).
    """
    _validate_params(x, y)
    sl, cm, sp = profile.seller, profile.consumer, profile.provider
    if cm != "e":
        return PayoffVector(0, -consumer_payment(cm, x, y), 0)
    flow_sl = PRICE if (sl == "a" or sp != "i") else 0
    flow_sp = FEE if sp == "i" else 0
    return PayoffVector(flow_sl, -(flow_sl + flow_sp), flow_sp)


# Literal transcription of the published 64-cell profit table, kept separate
# from the rule-based raw_payoff so the two can be diffed (verify_table).
# A handful of cells contain stray double commas in the source; they are
# read as single values.
RAW_TABLE: dict[str, Callable[[float, float], tuple]] = {
    "aei": lambda x, y: (9, -4, 2),
    "bei": lambda x, y: (19, -24, 2),
    "cei": lambda x, y: (10, -24, 2),
    "dei": lambda x, y: (20, -24, 2),
    "aej": lambda x, y: (9, -24, 3),
    "bej": lambda x, y: (19, -24, 3),
    "cej": lambda x, y: (10, -24, 3),
    "dej": lambda x, y: (20, -24, 3),
    "aek": lambda x, y: (9, -24, 3),
    "bek": lambda x, y: (19, -24, 3),
    "cek": lambda x, y: (10, -24, 3),
    "dek": lambda x, y: (20, -24, 3),
    "ael": lambda x, y: (9, -24, 4),
    "bel": lambda x, y: (19, -24, 4),
    "cel": lambda x, y: (10, -24, 4),
    "del": lambda x, y: (20, -24, 4),
    "afi": lambda x, y: (x - 11, 16 - x, 2),
    "bfi": lambda x, y: (x - 1, -24, 2),
    "cfi": lambda x, y: (x - 10, -24, 2),
    "dfi": lambda x, y: (x, -24, 2),
    "afj": lambda x, y: (x - 11, -24, 3),
    "bfj": lambda x, y: (x - 1, -24, 3),
    "cfj": lambda x, y: (x - 10, -24, 3),
    "dfj": lambda x, y: (x, -24, 3),
    "afk": lambda x, y: (x - 11, -24, 3),
    "bfk": lambda x, y: (x - 1, -24, 3),
    "cfk": lambda x, y: (x - 10, -24, 3),
    "dfk": lambda x, y: (x, -24, 3),
    "afl": lambda x, y: (x - 11, -24, 4),
    "bfl": lambda x, y: (x - 1, -24, 4),
    "cfl": lambda x, y: (x - 10, -24, 4),
    "dfl": lambda x, y: (x, -24, 4),
    "agi": lambda x, y: (9, -y, y - 2),
    "bgi": lambda x, y: (19, -24, y - 2),
    "cgi": lambda x, y: (10, -24, y - 2),
    "dgi": lambda x, y: (20, -24, y - 2),
    "agj": lambda x, y: (9, -24, y - 1),
    "bgj": lambda x, y: (19, -24, y - 1),
    "cgj": lambda x, y: (10, -24, y - 1),
    "dgj": lambda x, y: (20, -24, y - 1),
    "agk": lambda x, y: (9, -24, y - 1),
    "bgk": lambda x, y: (19, -24, y - 1),
    "cgk": lambda x, y: (10, -24, y - 1),
    "dgk": lambda x, y: (20, -24, y - 1),
    "agl": lambda x, y: (9, -24, y),
    "bgl": lambda x, y: (19, -24, y),
    "cgl": lambda x, y: (10, -24, y),
    "dgl": lambda x, y: (20, -24, y),
    "ahi": lambda x, y: (x - 11, -x - y, y - 2),
    "bhi": lambda x, y: (x - 1, -24, y - 2),
    "chi": lambda x, y: (x - 10, -24, y - 2),
    "dhi": lambda x, y: (x, -24, y - 2),
    "ahj": lambda x, y: (x - 11, -24, y - 1),
    "bhj": lambda x, y: (x - 1, -24, y - 1),
    "chj": lambda x, y: (x - 10, -24, y - 1),
    "dhj": lambda x, y: (x, -24, y - 1),
    "ahk": lambda x, y: (x - 11, -24, y - 1),
    "bhk": lambda x, y: (x - 1, -24, y - 1),
    "chk": lambda x, y: (x - 10, -24, y - 1),
    "dhk": lambda x, y: (x, -24, y - 1),
    "ahl": lambda x, y: (x - 11, -24, y),
    "bhl": lambda x, y: (x - 1, -24, y),
    "chl": lambda x, y: (x - 10, -24, y),
    "dhl": lambda x, y: (x, -24, y),
}


def verify_table(x: float, y: float) -> list[dict]:
    """Diff raw_payoff against the transcription; empty list = full agreement."""
    mismatches = []
    for profile in all_profiles():
        got = tuple(raw_payoff(profile, x, y))
        want = tuple(RAW_TABLE[str(profile)](x, y))
        if got != want:
            mismatches.append({"profile": str(profile), "expected": want, "got": got})
    return mismatches


def nash_equilibria(payoff_fn: PayoffFn, x: float, y: float) -> set[str]:
    """Profiles where no player's unilateral deviation strictly improves him."""
    table = {str(p): payoff_fn(p, x, y) for p in all_profiles()}
    return {
        name
        for name, payoff in table.items()
        if all(
            table[name[:role] + alt + name[role + 1 :]][role] <= payoff[role]
            for role, letters in enumerate(ROLES)
            for alt in letters
        )
    }


def backward_induction(payoff_fn: PayoffFn, x: float, y: float) -> StrategyProfile:
    """Solve the SL -> CM -> SP sequential game.

    Ties break toward the earlier-listed strategy (a < b < c < d, etc.), so
    the result is well-defined even where honest play only weakly dominates.

    With ``enforced_payoff`` the result is ``aei`` where x+y >= 4 (at x+y = 4
    the consumer is indifferent between e and h and the tie picks e) and
    ``ahi`` where x+y < 4: forfeiting less than honest play's net cost of 4
    beats paying, and the unfunded order ties seller and provider at 0.
    """

    def solve(prefix: str) -> tuple[str, PayoffVector]:
        # the profile and payoffs that play after the moves in ``prefix`` reaches
        if len(prefix) == len(ROLES):
            return prefix, payoff_fn(StrategyProfile.parse(prefix), x, y)
        role = len(prefix)
        # max keeps the first of equal payoffs, i.e. the earlier-listed letter
        return max((solve(prefix + s) for s in ROLES[role]), key=lambda out: out[1][role])

    return StrategyProfile.parse(solve("")[0])


def crosscheck_transcript(tr: RunTranscript) -> bool:
    """Compare a run's balance deltas with ``token_flows``, the providers'
    deltas summed into one (the model's provider is all of them).

    The run's ``price`` must be a multiple of 20 and its ``n * unit_price``
    must scale the 4-unit fee by the same factor, so unit amounts map to
    whole tokens.
    """
    if tr.price % PRICE:
        raise InvalidInput("price must be a multiple of 20 units")
    scale = tr.price // PRICE
    if tr.n * tr.unit_price != FEE * scale:
        raise InvalidInput("n * unit_price must equal 4 units at the same scale")
    want = token_flows(StrategyProfile.parse(tr.profile), tr.x, tr.y)
    got = PayoffVector(
        tr.deltas["seller"] / scale,
        tr.deltas["consumer"] / scale,
        sum(v for k, v in tr.deltas.items() if k.startswith("provider")) / scale,
    )
    if tuple(got) != tuple(want):
        raise Mismatch(
            f"{tr.profile}: model {tuple(want)} != simulated {tuple(got)} "
            f"(token deltas {tr.deltas}, scale {scale})"
        )
    return True


def crosscheck_simulation(
    profile: StrategyProfile | str,
    x: float = 10.0,
    y: float = 2.0,
    n: int = 8,
    price: int = 40,
    unit_price: int = 1,
    seed: int = 0,
    slot: int = 4096,
) -> bool:
    """Run the full pipeline and check the transcript."""
    tr = run_scenario(
        profile, x=x, y=y, n=n, price=price, unit_price=unit_price, seed=seed, slot=slot,
    )
    return crosscheck_transcript(tr)
