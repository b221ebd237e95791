"""Multi-provider parallel download benchmark and per-phase op accounting.

Each repetition is one honest trade through ``actors.run_trade``.
Providers serve the frames of disjoint shard ranges over loopback socket
pairs with a per-connection bandwidth cap (default 60 MB/s; 0 means no
cap), so adding providers shortens the transfer even on one machine.  Only
the transfer is timed.  Wall-time figures are medians over the configured repetitions;
operation counts are timing-independent.
"""
from __future__ import annotations

import functools
import hashlib
import io
import random
import socket
import statistics
import struct
import threading
import time
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .actors import Frame, Served, StrategyProfile, run_trade
from .errors import BdtsError, InvalidInput
from .merkle import DIGEST_SIZE, MerkleProof
from .sharding import DEFAULT_SLOT

DEFAULT_BANDWIDTH = 60 * 1000 * 1000  # bytes/s per connection
_HONEST = StrategyProfile("a", "e", "i")
# shard index, the index of its eed proof, the sibling counts of its eed and
# r_ed proofs, and the eed shard's length; the sibling digests follow, then
# the shard.  The r_ed proof's index is the shard index.
_HEADER = struct.Struct("!IIBBI")
_CHUNK = 64 * 1024


@dataclass
class BenchConfig:
    size_bytes: int = 10 * 1000 * 1000
    providers: int = 1
    slot: int = DEFAULT_SLOT
    reps: int = 5
    seed: int = 0
    bandwidth: int = DEFAULT_BANDWIDTH

    def __post_init__(self):
        if not 1 <= self.providers <= 6:
            raise InvalidInput("provider count must be in 1..6")
        if self.size_bytes < 1 or self.slot < 1 or self.reps < 1:
            raise InvalidInput("size, slot, and reps must be >= 1")
        if self.bandwidth < 0:
            raise InvalidInput("bandwidth must be >= 0 (0: no cap)")


@dataclass
class BenchReport:
    config: BenchConfig
    download_times: list[float] = field(default_factory=list)
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    recovery: bool = False

    @property
    def median_download(self) -> float:
        return statistics.median(self.download_times)

    def summary(self) -> dict:
        return {
            "size_bytes": self.config.size_bytes,
            "providers": self.config.providers,
            "reps": self.config.reps,
            "median_download_s": self.median_download,
            "mean_download_s": statistics.mean(self.download_times),
            "stdev_download_s": (
                statistics.stdev(self.download_times)
                if len(self.download_times) > 1
                else 0.0
            ),
            "mean_throughput_mb_s": statistics.mean(
                self.config.size_bytes / t for t in self.download_times
            ) / 1e6,
            "recovery": self.recovery,
            "counters": self.counters,
        }


def synthetic_data(size: int, seed: int) -> bytes:
    """Seeded incompressible bytes: an AES-256-CTR keystream under a key
    hashed from the arguments, several times faster than ``random.randbytes``."""
    key = hashlib.sha256(repr(("bench", size, seed)).encode()).digest()
    keystream = Cipher(algorithms.AES(key), modes.CTR(bytes(16))).encryptor()
    return keystream.update(bytes(size))


def _serve(sock: socket.socket, frames: dict[int, Frame], bandwidth: int) -> None:
    """Send each frame, header and sibling digests first, under a rate cap
    of ``bandwidth`` bytes/s; 0 means no cap."""
    start = time.perf_counter()
    sent = 0
    for index, (payload, eed_proof, ed_proof) in frames.items():
        counts = len(eed_proof.siblings), len(ed_proof.siblings)
        head = _HEADER.pack(index, eed_proof.index, *counts, len(payload))
        head += b"".join(eed_proof.siblings + ed_proof.siblings)
        sock.sendall(head)
        sent += len(head)
        view = memoryview(payload)  # chunks without copying the shard
        for off in range(0, len(view), _CHUNK):
            chunk = view[off : off + _CHUNK]
            sock.sendall(chunk)
            sent += len(chunk)
            if bandwidth:
                due = sent / bandwidth
                elapsed = time.perf_counter() - start
                if due > elapsed:
                    time.sleep(due - elapsed)


def _recv_exact(stream: io.BufferedReader, size: int) -> bytes:
    data = stream.read(size)
    if len(data) < size:
        raise ConnectionError("peer closed mid-frame")
    return data


def _fetch(sock: socket.socket, count: int, into: dict[int, Frame]) -> None:
    with sock.makefile("rb") as stream:
        for _ in range(count):
            i, j, eed_k, ed_k, length = _HEADER.unpack(_recv_exact(stream, _HEADER.size))
            digests = _recv_exact(stream, (eed_k + ed_k) * DIGEST_SIZE)
            sibs = [digests[at : at + DIGEST_SIZE] for at in range(0, len(digests), DIGEST_SIZE)]
            proofs = MerkleProof(j, tuple(sibs[:eed_k])), MerkleProof(i, tuple(sibs[eed_k:]))
            into[i] = (_recv_exact(stream, length), *proofs)


def _deliver(bandwidth: int, times: list[float], served: Served) -> Served:
    """Move each provider's frames over its own socket pair, all providers in
    parallel, and append the transfer's wall time to ``times``.

    An error in a sending or receiving thread is raised here."""
    errors: list[Exception] = []

    def run(target, sock, *args):
        try:
            target(sock, *args)
        except Exception as exc:
            errors.append(exc)  # before the close, so the cause comes first
        finally:
            sock.close()  # the peer sees end of stream and stops too

    received: Served = [{} for _ in served]
    threads = []
    t0 = time.perf_counter()
    for shards, into in zip(served, received):
        left, right = socket.socketpair()
        threads.append(threading.Thread(target=run, args=(_serve, left, shards, bandwidth)))
        threads.append(threading.Thread(target=run, args=(_fetch, right, len(shards), into)))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    times.append(time.perf_counter() - t0)
    if errors:
        raise errors[0]
    return received


def _ranges(n: int, parts: int) -> list[list[int]]:
    """Split [0, n) into ``parts`` near-equal contiguous index ranges."""
    base, extra = divmod(n, parts)
    out, cursor = [], 0
    for p in range(parts):
        width = base + (1 if p < extra else 0)
        out.append(list(range(cursor, cursor + width)))
        cursor += width
    return [r for r in out if r]


def bench_download(config: BenchConfig) -> BenchReport:
    """Run ``config.reps`` honest trades with the shards split across
    ``config.providers`` providers and delivered over the throttled wire."""
    data = synthetic_data(config.size_bytes, config.seed)
    report = BenchReport(config=config)
    assignment = _ranges(-(-config.size_bytes // config.slot), config.providers)
    deliver = functools.partial(_deliver, config.bandwidth, report.download_times)
    for rep in range(config.reps):
        tr = run_trade(
            _HONEST, data, config.slot, assignment, deliver, random.Random(config.seed),
            seed=config.seed,
        )
        report.recovery = tr.recovery if rep == 0 else (report.recovery and tr.recovery)
        if rep == 0:
            report.counters = tr.phase_ops
        elif report.counters != tr.phase_ops:
            raise BdtsError("operation counts varied between repetitions")
    return report
