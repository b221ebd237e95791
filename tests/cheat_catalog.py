"""Expected outcomes of the ten cheat profiles, shared by the scenario tests."""


def cheat_catalog() -> list[tuple[str, dict]]:
    """The qualitative outcome classes used as the scenario test matrix.

    Each entry: (profile, expectations). ``cheater`` names the payee whose
    net token gain must be <= 0; ``verdict`` the appeal outcome against it.
    """
    return [
        ("aei", {"desc": "honest trade", "funded": True, "recovery": True,
                 "appeals": 0, "cheater": None}),
        ("bei", {"desc": "seller serves garbage, posts the real key",
                 "funded": True, "recovery": False, "appeals": 1,
                 "cheater": "seller", "verdict": "Upheld"}),
        ("cei", {"desc": "seller serves real data, posts a wrong key",
                 "funded": True, "recovery": False, "appeals": 1,
                 "cheater": "seller", "verdict": "Upheld"}),
        ("dei", {"desc": "seller serves garbage under a wrong posted key",
                 "funded": True, "recovery": False, "appeals": 1,
                 "cheater": "seller", "verdict": "Upheld"}),
        ("aej", {"desc": "provider serves real data, posts a wrong key",
                 "funded": True, "recovery": False, "appeals": 1,
                 "cheater": "provider", "verdict": "Upheld"}),
        ("aek", {"desc": "provider serves garbage, posts the real key",
                 "funded": True, "recovery": False, "appeals": 1,
                 "cheater": "provider", "verdict": "Upheld"}),
        ("ael", {"desc": "provider serves garbage under a wrong posted key",
                 "funded": True, "recovery": False, "appeals": 1,
                 "cheater": "provider", "verdict": "Upheld"}),
        ("afi", {"desc": "consumer shorts the seller", "funded": False,
                 "recovery": False, "appeals": 0, "cheater": "consumer"}),
        ("agi", {"desc": "consumer shorts the provider", "funded": False,
                 "recovery": False, "appeals": 0, "cheater": "consumer"}),
        ("ahi", {"desc": "consumer shorts both", "funded": False,
                 "recovery": False, "appeals": 0, "cheater": "consumer"}),
    ]
