"""Multi-provider parallel download benchmark and per-phase op accounting.

Each repetition is one honest trade through ``actors.run_trade``.
Providers serve the frames of disjoint shard ranges over loopback socket
pairs with a per-connection bandwidth cap (default 60 MB/s; 0 means no
cap), so adding providers shortens the transfer even on one machine.  Each
provider sends from a thread of its own; the caller's thread reads each
frame whole, with blocking reads, from whichever connection ``selectors``
reports has bytes waiting.  Only the transfer is timed.  Wall-time
figures are medians over the configured repetitions; operation counts are
timing-independent.
"""
from __future__ import annotations

import functools
import selectors
import socket
import statistics
import struct
import threading
import time
from dataclasses import dataclass, field, fields

from .actors import Frame, Served, run_trade
from .crypto import seeded_bytes
from .errors import BdtsError, InvalidInput
from .merkle import DIGEST_SIZE, MerkleProof
from .sharding import DEFAULT_SLOT

DEFAULT_BANDWIDTH = 60 * 1000 * 1000  # bytes/s per connection
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
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:  # a bool is refused too
                raise InvalidInput(f"{f.name} must be an int, got {value!r}")
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


def synthetic_data(size: int, seed: int) -> bytearray:
    """The benchmark's seeded input: ``size`` bytes of ``crypto.seeded_bytes``."""
    return seeded_bytes(size, "bench", size, seed)


def _serve(sock: socket.socket, frames: dict[int, Frame], bandwidth: int) -> None:
    """Send each frame, header and sibling digests first, under a rate cap
    of ``bandwidth`` bytes/s; 0 means no cap.  Each frame is taken out of
    ``frames`` as it goes, so its bytes are freed once they are sent."""
    start = time.perf_counter()
    sent = 0
    for index in list(frames):
        payload, eed_proof, ed_proof = frames.pop(index)
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


def _recv(sock: socket.socket, size: int) -> bytes:
    """The next ``size`` bytes from the blocking ``sock``."""
    data = sock.recv(size, socket.MSG_WAITALL)
    while len(data) < size:  # a signal cut the wait short, or end of stream
        more = sock.recv(size - len(data), socket.MSG_WAITALL)
        if not more:
            raise ConnectionError("peer closed mid-frame")
        data += more
    return data


def _receive(readers: list[tuple[socket.socket, int, dict[int, Frame]]]) -> None:
    """Read each connection's ``count`` frames (at least one) into its dict,
    one whole frame at a time from whichever connection has bytes waiting."""
    with selectors.DefaultSelector() as selector:
        for sock, count, into in readers:
            selector.register(sock, selectors.EVENT_READ, [count, into])
        while selector.get_map():
            for key, _ in selector.select():
                sock, (left, into) = key.fileobj, key.data
                i, j, eed_k, ed_k, length = _HEADER.unpack(_recv(sock, _HEADER.size))
                digests = _recv(sock, (eed_k + ed_k) * DIGEST_SIZE)
                sibs = [digests[at : at + DIGEST_SIZE] for at in range(0, len(digests), DIGEST_SIZE)]
                proofs = MerkleProof(j, tuple(sibs[:eed_k])), MerkleProof(i, tuple(sibs[eed_k:]))
                into[i] = (_recv(sock, length), *proofs)
                key.data[0] = left - 1
                if left == 1:
                    selector.unregister(sock)


def _deliver(bandwidth: int, times: list[float], served: Served) -> Served:
    """Move each provider's frames over its own socket pair, all providers in
    parallel, and append the transfer's wall time to ``times``.

    One thread per provider sends its frames, taking each out of its dict
    in ``served`` as it is sent; this thread reads each frame whole from
    whichever connection has bytes waiting, so the received frames are
    allocated where the sent ones were freed, interleaved across providers
    in arrival order.  A peer that closes mid-frame raises
    ``ConnectionError``.  The first error, in sending or in reading, is
    raised here once every sending thread has ended."""
    errors: list[Exception] = []

    def send(sock, frames):
        try:
            _serve(sock, frames, bandwidth)
        except Exception as exc:
            errors.append(exc)  # before the close, so the cause comes first
        finally:
            sock.close()  # the reader sees end of stream and stops too

    received: Served = [{} for _ in served]
    pairs = [socket.socketpair() for _ in served]
    # the frame counts are taken before the senders start emptying ``served``
    readers = [
        (right, len(frames), into) for (_, right), frames, into in zip(pairs, served, received)
    ]
    threads = [
        threading.Thread(target=send, args=(left, frames))
        for (left, _), frames in zip(pairs, served)
    ]
    t0 = time.perf_counter()
    try:
        for t in threads:
            t.start()
        _receive(readers)
    except Exception as exc:
        errors.append(exc)  # after any sender error that ended its stream
    finally:
        for _, right in pairs:
            right.close()  # a sender still writing stops too
        for t in threads:
            if t.ident is not None:  # started
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
        tr = run_trade("aei", data, config.slot, assignment, deliver, seed=config.seed)
        report.recovery = tr.recovery if rep == 0 else (report.recovery and tr.recovery)
        if rep == 0:
            report.counters = tr.phase_ops
        elif report.counters != tr.phase_ops:
            raise BdtsError("operation counts varied between repetitions")
    return report
