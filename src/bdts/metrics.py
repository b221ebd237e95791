"""Operation counters for the crypto / Merkle primitives.

A collector is installed for the duration of a pipeline run and tags every
primitive invocation with the currently active phase label.  Counts depend
only on the operations performed, never on wall time, so two runs of the
same scenario produce identical counter sets.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager

# the one list of op names
FIELDS = (
    "sym_encryptions", "asym_encryptions", "sym_decryptions", "asym_decryptions",
    "tree_builds", "proof_verifications",
)


class OpCounters(dict):
    """One phase's counts: every op name in ``FIELDS``, from zero."""

    def __init__(self) -> None:
        super().__init__(dict.fromkeys(FIELDS, 0))

    def as_dict(self) -> dict[str, int]:
        return dict(self)


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

    def record(self, op: str) -> None:
        if self._active is not None:
            counters = self.phases.get(self._active)
            if counters is None:  # the phase's first op
                counters = self.phases[self._active] = OpCounters()
            counters[op] += 1


_state = threading.local()


@contextmanager
def collect():
    """Install a fresh collector; yields it for phase labeling and readout."""
    previous = getattr(_state, "collector", None)
    collector = _state.collector = OpCollector()
    try:
        yield collector
    finally:
        _state.collector = previous


def record(op: str) -> None:
    collector = getattr(_state, "collector", None)
    if collector is not None:
        collector.record(op)
