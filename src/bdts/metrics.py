"""Operation counters for the crypto / Merkle primitives.

A collector is installed for the duration of a pipeline run and tags every
primitive invocation with the currently active phase label.  Counts depend
only on the operations performed, never on wall time, so two runs of the
same scenario produce identical counter sets.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

FIELDS = (
    "sym_encryptions",
    "asym_encryptions",
    "sym_decryptions",
    "asym_decryptions",
    "tree_builds",
    "proof_verifications",
)


@dataclass
class OpCounters:
    sym_encryptions: int = 0
    asym_encryptions: int = 0
    sym_decryptions: int = 0
    asym_decryptions: int = 0
    tree_builds: int = 0
    proof_verifications: int = 0

    def bump(self, name: str, amount: int = 1) -> None:
        setattr(self, name, getattr(self, name) + amount)

    def as_dict(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in FIELDS}


class OpCollector:
    """Per-phase operation counts for one pipeline run."""

    def __init__(self) -> None:
        self.phases: dict[str, OpCounters] = {}
        self._active: str | None = None

    @contextmanager
    def phase(self, label: str):
        previous = self._active
        self._active = label
        try:
            yield
        finally:
            self._active = previous

    def record(self, op: str, amount: int = 1) -> None:
        if self._active is None:
            return
        self.phases.setdefault(self._active, OpCounters()).bump(op, amount)


_state = threading.local()


def current_collector() -> OpCollector | None:
    return getattr(_state, "collector", None)


@contextmanager
def collect():
    """Install a fresh collector; yields it for phase labeling and readout."""
    previous = current_collector()
    collector = OpCollector()
    _state.collector = collector
    try:
        yield collector
    finally:
        _state.collector = previous


def record(op: str, amount: int = 1) -> None:
    collector = current_collector()
    if collector is not None:
        collector.record(op, amount)
