"""Multi-provider parallel download benchmark and per-phase op accounting.

Each repetition is one honest trade through ``actors.run_trade``.
Providers serve the frames of disjoint shard ranges over loopback socket
pairs with a per-connection bandwidth cap (default 60 MB/s; 0 means no
cap), so adding providers shortens the transfer even on one machine.  Each
provider sends from a thread of its own; the frames are read on the
caller's thread, which multiplexes the connections.  Only the transfer is
timed.  Wall-time figures are medians over the configured repetitions;
operation counts are timing-independent.
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
from typing import Generator

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


def _fill(sock: socket.socket, buf: bytearray):
    """Fill ``buf`` from the non-blocking ``sock``, yielding whenever no
    bytes are waiting, and return it."""
    view, got = memoryview(buf), 0
    while got < len(view):
        try:
            size = sock.recv_into(view[got:])
        except BlockingIOError:
            yield
            continue
        if not size:
            raise ConnectionError("peer closed mid-frame")
        got += size
    return buf


def _read_frames(sock: socket.socket, count: int, into: dict[int, Frame]):
    """Read ``count`` frames from the non-blocking ``sock`` into ``into``,
    each shard into a buffer of its own; yield whenever no bytes are
    waiting."""
    for _ in range(count):
        head = yield from _fill(sock, bytearray(_HEADER.size))
        i, j, eed_k, ed_k, length = _HEADER.unpack(head)
        digests = bytes((yield from _fill(sock, bytearray((eed_k + ed_k) * DIGEST_SIZE))))
        sibs = [digests[at : at + DIGEST_SIZE] for at in range(0, len(digests), DIGEST_SIZE)]
        proofs = MerkleProof(j, tuple(sibs[:eed_k])), MerkleProof(i, tuple(sibs[eed_k:]))
        into[i] = ((yield from _fill(sock, bytearray(length))), *proofs)


def _receive(readers: list[tuple[socket.socket, Generator]]) -> None:
    """Run each connection's reader whenever its socket has bytes waiting,
    until every reader is done."""
    with selectors.DefaultSelector() as selector:
        for sock, reader in readers:
            sock.setblocking(False)
            selector.register(sock, selectors.EVENT_READ, reader)
        while selector.get_map():
            for key, _ in selector.select():
                try:
                    next(key.data)
                except StopIteration:
                    selector.unregister(key.fileobj)


def _deliver(bandwidth: int, times: list[float], served: Served) -> Served:
    """Move each provider's frames over its own socket pair, all providers in
    parallel, and append the transfer's wall time to ``times``.

    One thread per provider sends its frames, taking each out of its dict
    in ``served`` as it is sent; this thread reads every connection, so the
    received frames are allocated where the sent ones were freed.  The
    first error, in sending or in reading, is raised here once every
    sending thread has ended."""
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
        (right, _read_frames(right, len(frames), into))
        for (_, right), frames, into in zip(pairs, served, received)
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
