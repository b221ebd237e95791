"""Sequential trading game over the 64 strategy profiles.

Two payoff modes:

* ``raw_payoff`` — profit rules under the bookkeeping where every payee
  collects his tranche regardless of honesty; the tests diff it
  cell-for-cell against the paper's transcribed table
  (``tests/paper_table.py``).
* ``enforced_payoff`` — the same profiles after contract enforcement:
  a cheating payee's tranche is refunded to an appealing consumer, an
  under-funded order never pays anyone and the consumer forfeits what he
  sent.  ``token_flows`` isolates the monetary part of the enforced values
  so it can be compared 1:1 against simulated balance deltas.

``nash_equilibria`` and ``backward_induction`` operate on either mode.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .actors import (
    FEE,
    PRICE,
    ROLES,
    RunTranscript,
    _validate_params,
    all_profiles,
    check_profile,
    consumer_offer,
    run_scenario,
)
from .errors import InvalidInput, Mismatch

UTILITY = 20  # value of recovered data to the consumer

SELLER_COST = {"a": -11, "b": -1, "c": -10, "d": 0}
PROVIDER_COST = {"i": -2, "j": -1, "k": -1, "l": 0}


class PayoffVector(NamedTuple):  # one payoff per role, in ROLES order
    u_sl: float
    u_cm: float
    u_sp: float


PayoffFn = Callable[[str, float, float], PayoffVector]


def raw_payoff(profile: str, x: float, y: float) -> PayoffVector:
    check_profile(profile)
    _validate_params(x, y)
    sl, cm, sp = profile
    to_seller, to_providers = consumer_offer(cm, x, y)
    u_sl = SELLER_COST[sl] + to_seller
    u_sp = PROVIDER_COST[sp] + to_providers
    if sl == "a" and sp == "i":
        u_cm = -(to_seller + to_providers) + (UTILITY if cm != "h" else 0)
    else:
        u_cm = -(PRICE + FEE)
    return PayoffVector(u_sl, u_cm, u_sp)


def enforced_payoff(profile: str, x: float, y: float) -> PayoffVector:
    """Payoffs after contract enforcement.

    The honest consumer nets UTILITY - (PRICE + FEE) = -4 under ``aei``; an
    unfunded order (any consumer strategy but e) pays nobody and costs the
    consumer what was sent, -(x+y) under h.  So ``backward_induction`` on this
    mode returns ``aei`` where x+y >= 4 (the tie at 4 breaks toward e) and
    ``ahi`` where x+y < 4.
    """
    flow_sl, flow_cm, flow_sp = _flows(profile, x, y)
    sl, cm, sp = profile
    if cm != "e":
        # the order is never funded: nobody produces or earns, the
        # consumer forfeits what he sent
        return PayoffVector(flow_sl, flow_cm, flow_sp)
    u_cm = flow_cm + (UTILITY if (sl == "a" and sp == "i") else 0)
    return PayoffVector(SELLER_COST[sl] + flow_sl, u_cm, PROVIDER_COST[sp] + flow_sp)


def token_flows(profile: str, x: float, y: float) -> PayoffVector:
    """Net token movement per party under contract enforcement, in units.

    Excludes production costs and data utility: exactly the quantities a
    ledger balance delta can show.  A dishonest seller keeps his tranche
    when the provider layer is broken (the consumer never reaches the
    seller's layer to gather evidence).
    """
    return PayoffVector(*_flows(profile, x, y))


def _flows(profile: str, x: float, y: float) -> tuple[float, float, float]:
    """``token_flows`` as a plain tuple, for the payoffs built on it."""
    check_profile(profile)
    _validate_params(x, y)
    sl, cm, sp = profile
    if cm != "e":
        return 0, -sum(consumer_offer(cm, x, y)), 0
    flow_sl = PRICE if (sl == "a" or sp != "i") else 0
    flow_sp = FEE if sp == "i" else 0
    return flow_sl, -(flow_sl + flow_sp), flow_sp


_PROFILES = all_profiles()


def _deviation_groups(role: int) -> list[slice]:
    """The profiles grouped by every letter but ``role``'s, each group a
    slice of profile positions: within a group, only that role's unilateral
    deviations separate them.  ``_PROFILES`` lists the last role's letter
    innermost, so a group's positions lie one ``stride`` apart."""
    size = len(ROLES[role])
    stride = math.prod(len(letters) for letters in ROLES[role + 1 :])
    return [
        slice(first, first + size * stride, stride)
        for first in range(len(_PROFILES))
        if first // stride % size == 0  # the group's first letter of ``role``
    ]


_DEVIATION_GROUPS = [_deviation_groups(role) for role in range(len(ROLES))]


def nash_equilibria(payoff_fn: PayoffFn, x: float, y: float) -> set[str]:
    """Profiles where no player's unilateral deviation strictly improves him:
    each role's payoff is the best in that role's deviation group."""
    table = [payoff_fn(p, x, y) for p in _PROFILES]
    stable = [True] * len(table)
    for role, groups in enumerate(_DEVIATION_GROUPS):
        column = [u[role] for u in table]
        best = [None] * len(column)  # per position, its group's best payoff
        for group in groups:
            best[group] = [max(column[group])] * len(ROLES[role])
        stable = [s and u >= b for s, u, b in zip(stable, column, best)]
    return {p for p, s in zip(_PROFILES, stable) if s}


def backward_induction(payoff_fn: PayoffFn, x: float, y: float) -> str:
    """Solve the SL -> CM -> SP sequential game.

    Ties break toward the earlier-listed strategy (a < b < c < d, etc.), so
    the result is well-defined even where honest play only weakly dominates.

    With ``enforced_payoff`` the result is ``aei`` where x+y >= 4 (at x+y = 4
    the consumer is indifferent between e and h and the tie picks e) and
    ``ahi`` where x+y < 4: forfeiting less than honest play's net cost of 4
    beats paying, and the unfunded order ties seller and provider at 0.
    """
    # the profile and payoffs that play after each move prefix reaches, by
    # the prefix's position, folded from the last mover back to the first:
    # a decision node's children are consecutive, as the last letter is
    # innermost in profile order
    profiles = _PROFILES
    payoffs = [payoff_fn(p, x, y) for p in profiles]
    for role in reversed(range(len(ROLES))):
        column = [u[role] for u in payoffs]
        size = len(ROLES[role])
        # index finds the first of equal payoffs, i.e. the earlier-listed letter
        picks = [
            column.index(max(column[at : at + size]), at)
            for at in range(0, len(column), size)
        ]
        profiles = [profiles[i] for i in picks]
        payoffs = [payoffs[i] for i in picks]
    return profiles[0]


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
    want = token_flows(tr.profile, tr.x, tr.y)
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


def crosscheck_simulation(profile: str, x: float = 10.0, y: float = 2.0, seed: int = 0) -> bool:
    """Run one 8-shard scenario and check its transcript."""
    return crosscheck_transcript(run_scenario(profile, x=x, y=y, seed=seed))
