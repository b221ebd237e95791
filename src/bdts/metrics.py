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


class _State(threading.local):
    collector: OpCollector | None = None


_state = _State()


@contextmanager
def collect():
    """Install a fresh collector; yields it for phase labeling and readout."""
    previous = _state.collector
    collector = _state.collector = OpCollector()
    try:
        yield collector
    finally:
        _state.collector = previous


def record(op: str) -> None:
    """Count ``op`` in the active phase of this thread's collector, if any."""
    collector = _state.collector
    if collector is None or collector._active is None:
        return
    counters = collector.phases.get(collector._active)
    if counters is None:  # the phase's first op
        counters = collector.phases[collector._active] = OpCounters()
    counters[op] += 1
