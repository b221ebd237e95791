"""The paper's 64-cell profit table, transcribed, and ``verify_table``,
which diffs ``game.raw_payoff`` against it."""
from typing import Callable

from bdts.actors import all_profiles
from bdts.game import raw_payoff

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
        want = tuple(RAW_TABLE[profile](x, y))
        if got != want:
            mismatches.append({"profile": profile, "expected": want, "got": got})
    return mismatches
