import hashlib
import importlib.util
import os
import subprocess
import sys
import threading
import zlib

import pytest

from bdts import bench
from bdts.actors import run_scenario
from bdts.errors import InvalidInput
from bdts.merkle import DIGEST_SIZE, MerkleProof

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
SMALL = dict(size_bytes=200_000, slot=20_000, reps=2, bandwidth=200_000_000)


def test_config_validation():
    with pytest.raises(InvalidInput):
        bench.BenchConfig(providers=0)
    with pytest.raises(InvalidInput):
        bench.BenchConfig(providers=7)
    with pytest.raises(InvalidInput):
        bench.BenchConfig(bandwidth=-1)
    with pytest.raises(InvalidInput):
        bench.BenchConfig(reps=0)
    # each field is an int and not a bool: a float size or provider count
    # raised TypeError inside the trade, slot=True ran 1-byte shards, and
    # bandwidth=1.5 capped the wire at 1.5 B/s
    for field, value in [
        ("size_bytes", 1000.5), ("providers", 2.0), ("slot", True), ("reps", "2"),
        ("seed", None), ("bandwidth", 1.5),
    ]:
        with pytest.raises(InvalidInput, match=field):
            bench.BenchConfig(**{field: value})


def test_synthetic_data_size_and_seed():
    assert len(bench.synthetic_data(5000, seed=1)) == 5000
    assert bench.synthetic_data(100, 1) == bench.synthetic_data(100, 1)
    assert bench.synthetic_data(100, 1) != bench.synthetic_data(100, 2)


MIB = 1 << 20
# sha256 of synthetic_data(size, seed): the bytes every benchmark trade draws
SYNTHETIC_DIGESTS = {
    (1, 0): "27abdeddfe8503496adeb623466caa47da5f63abd2bc6fa19f6cfcb73ecfed70",
    (MIB - 1, 0): "00427140fc26ab710eb429227f501dc874bbedce67b99f83948242f35de9dbad",
    (MIB, 0): "bf9e4dbc1b0ceb74caba85fccbf7c4b3b066f9ce92d11580fa0ab8f607c68bce",
    (MIB + 1, 0): "6d32956e61f0c57647fa1bd4dcb0c3e9e6e12bc6ff84a75819c813402c84e0fa",
    (3 * MIB + 17, 0): "ff75196cf09ec86733da05e46ccb16fbbc6f18720c4534155cb65277cf1daebf",
    (1, 11): "62c66a7a5dd70c3146618063c344e531e6d4b59e379808443ce962b3abd63c5a",
    (MIB - 1, 11): "4b21d0cbdfa756ea988055f1485fb2b613d0bbdf77ee03158ef1e7901e480ffa",
    (MIB, 11): "d4c309d296d56a2f165d5b9bbbe8d6aa24c2a334aa712824a263b62079642719",
    (MIB + 1, 11): "3a6c3bb2eff3b758e51e833622a64bc68c93ec814a984f1143aec34658509f43",
    (3 * MIB + 17, 11): "b8db705bac397a612946ce3fd28a20e9ca329e2e9b8a8272a3c7ee6c04b20dab",
}


@pytest.mark.parametrize("size, seed", list(SYNTHETIC_DIGESTS))
def test_synthetic_data_bytes_are_pinned(size, seed):
    # one keystream across the whole output, whatever the sizes of the
    # pieces it is drawn in
    blob = bench.synthetic_data(size, seed)
    assert len(blob) == size
    assert hashlib.sha256(blob).hexdigest() == SYNTHETIC_DIGESTS[size, seed]


def test_synthetic_data_does_not_compress():
    blob = bench.synthetic_data(1_000_000, seed=3)
    assert len(zlib.compress(blob, 9)) >= 0.99 * len(blob)


def test_ranges_partition():
    rs = bench._ranges(10, 3)
    assert sum(rs, []) == list(range(10))
    assert max(map(len, rs)) - min(map(len, rs)) <= 1
    assert bench._ranges(2, 4) == [[0], [1]]  # never more parts than shards


def test_bench_small_run_recovers():
    report = bench.bench_download(bench.BenchConfig(providers=2, **SMALL))
    assert report.recovery
    assert len(report.download_times) == 2
    assert all(t > 0 for t in report.download_times)
    assert report.summary()["providers"] == 2


def test_bench_counters_deterministic():
    a = bench.bench_download(bench.BenchConfig(providers=2, seed=5, **SMALL))
    b = bench.bench_download(bench.BenchConfig(providers=2, seed=5, **SMALL))
    assert a.counters == b.counters


def test_more_providers_than_shards():
    cfg = bench.BenchConfig(size_bytes=30_000, slot=20_000, providers=4, reps=1,
                            bandwidth=200_000_000)
    assert bench.bench_download(cfg).recovery  # only 2 shards to serve


def test_bench_counters_match_scenario():
    n, slot = 8, 4096
    report = bench.bench_download(
        bench.BenchConfig(size_bytes=n * slot, slot=slot, providers=1, reps=1)
    )
    assert report.counters == run_scenario("aei", n=n, slot=slot).phase_ops


def test_bandwidth_zero_means_no_cap():
    report = bench.bench_download(bench.BenchConfig(providers=2, **{**SMALL, "bandwidth": 0}))
    assert report.recovery
    assert all(t > 0 for t in report.download_times)


def within(seconds, call):
    """Run ``call`` on a helper thread and raise what it raised; fail if it
    has not ended after ``seconds``, so a reader that blocks for good fails
    the test instead of hanging the run."""
    raised = []

    def run():
        try:
            call()
        except Exception as exc:
            raised.append(exc)

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"still running after {seconds} s"
    if raised:
        raise raised[0]


def test_serve_thread_error_reaches_caller(monkeypatch):
    def broken(sock, shards, bandwidth):
        raise RuntimeError("serve failed")

    monkeypatch.setattr(bench, "_serve", broken)
    with pytest.raises(RuntimeError, match="serve failed"):
        within(60, lambda: bench.bench_download(bench.BenchConfig(providers=2, **SMALL)))


def test_many_small_shards_are_still_funded():
    # 4000 shards cost more than the 100 x price every party starts with
    cfg = bench.BenchConfig(size_bytes=8000, slot=2, reps=1, bandwidth=0)
    assert bench.bench_download(cfg).recovery


CHUNK = bench._CHUNK
# each provider's shard lengths, keyed by the test id's suffix, which gives
# each provider's frame count; with unequal frame counts the reader goes on
# reading some connections after others have sent their last frame
WIRE_LENGTHS = {
    "": [[3 * CHUNK + 5, 0, 1], [CHUNK - 1, CHUNK + 1, 2 * CHUNK]],
    "-3+1": [[3 * CHUNK + 5, 0, 1], [CHUNK - 1]],
    "-1+4": [[CHUNK + 1], [0, 2 * CHUNK, CHUNK - 1, 5]],
    "-2+1+3": [[CHUNK - 1, 1], [3 * CHUNK + 5], [0, CHUNK + 1, 2 * CHUNK]],
}
WIRE_CASES = [
    pytest.param(bandwidth, lengths, id=f"{bandwidth}{suffix}")
    for suffix, lengths in WIRE_LENGTHS.items()
    for bandwidth in (2_000_000, 0)
]


@pytest.mark.parametrize("bandwidth, lengths", WIRE_CASES)
def test_wire_delivers_odd_length_shards_exactly(bandwidth, lengths):
    # shard lengths that are not multiples of the send chunk, including
    # empty, in frames whose proofs hold 0 to 6 sibling digests
    blob = bench.synthetic_data(sum(map(sum, lengths)), seed=9)
    digests = tuple(hashlib.sha256(bytes([d])).digest() for d in range(6))
    served, cursor = [], 0
    for p, sizes in enumerate(lengths):
        frames = {}
        for j, size in enumerate(sizes):
            k = (3 * p + j) % 7
            frames[10 * p + j] = (
                blob[cursor : cursor + size],
                MerkleProof(j, digests[:k]),
                MerkleProof(10 * p + j, digests[k:]),
            )
            cursor += size
        served.append(frames)
    sent = [dict(frames) for frames in served]
    times = []
    assert bench._deliver(bandwidth, times, served) == sent
    assert served == [{} for _ in lengths]  # each frame was taken out as it was sent
    if bandwidth:  # the cap paces each connection's framed bytes, proofs included
        framed = max(
            sum(
                bench._HEADER.size + len(eed) + DIGEST_SIZE * (len(a.siblings) + len(b.siblings))
                for eed, a, b in frames.values()
            )
            for frames in sent
        )
        assert times[0] >= framed / bandwidth


def test_peer_closed_mid_frame_is_raised_and_no_thread_outlives_it(monkeypatch):
    # one sender stops half way through a payload; the other never stops
    # writing, so it is blocked on a full socket when the reader gives up
    def serve(sock, frames, bandwidth):
        if 0 in frames:
            sock.sendall(bench._HEADER.pack(0, 0, 0, 0, 1000) + bytes(500))
        else:
            while True:
                sock.sendall(bytes(bench._CHUNK))

    monkeypatch.setattr(bench, "_serve", serve)
    frame = (bytes(1000), MerkleProof(0, ()), MerkleProof(0, ()))
    before = threading.enumerate()
    with pytest.raises(ConnectionError, match="peer closed mid-frame"):
        within(60, lambda: bench._deliver(0, [], [{0: frame}, {1: frame}]))
    assert threading.enumerate() == before


def test_dev_mode_run_is_clean():
    # a warning (an unclosed socket's is only printed, from its finalizer)
    # or a thread that hangs at exit fails the run
    code = (
        "from bdts.bench import BenchConfig, bench_download\n"
        "assert bench_download(BenchConfig(size_bytes=20_000_000, bandwidth=0, reps=1)).recovery\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (run.returncode, run.stderr) == (0, "")


def test_tracer_specs_resolve():
    """Every function the benchmark's tracer wraps still exists under its
    name, so a refactor of ``src`` cannot silently break ``--trace 1``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, cls, fn, *_ in tracer.SPECS:
        owner = importlib.import_module(f"bdts.{mod}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, fn, None)), ".".join(filter(None, (mod, cls, fn)))
