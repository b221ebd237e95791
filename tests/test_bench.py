import os
import subprocess
import sys
import zlib

import pytest

from bdts import bench
from bdts.actors import run_scenario
from bdts.errors import InvalidInput

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
SMALL = dict(size_bytes=200_000, slot=20_000, reps=2, bandwidth=200_000_000)


def test_config_validation():
    with pytest.raises(InvalidInput):
        bench.BenchConfig(providers=0)
    with pytest.raises(InvalidInput):
        bench.BenchConfig(providers=7)
    with pytest.raises(InvalidInput):
        bench.BenchConfig(bandwidth=-1)


def test_synthetic_data_size_and_seed():
    assert len(bench.synthetic_data(5000, seed=1)) == 5000
    assert bench.synthetic_data(100, 1) == bench.synthetic_data(100, 1)
    assert bench.synthetic_data(100, 1) != bench.synthetic_data(100, 2)


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


def test_serve_thread_error_reaches_caller(monkeypatch):
    def broken(sock, shards, bandwidth):
        raise RuntimeError("serve failed")

    monkeypatch.setattr(bench, "_serve", broken)
    with pytest.raises(RuntimeError, match="serve failed"):
        bench.bench_download(bench.BenchConfig(providers=2, **SMALL))


def test_many_small_shards_are_still_funded():
    # 4000 shards cost more than the 100 x price every party starts with
    cfg = bench.BenchConfig(size_bytes=8000, slot=2, reps=1, bandwidth=0)
    assert bench.bench_download(cfg).recovery


@pytest.mark.parametrize("bandwidth", [2_000_000, 0])
def test_wire_delivers_odd_length_shards_exactly(bandwidth):
    # lengths that are not multiples of the send chunk, including empty
    chunk = bench._CHUNK
    lengths = [[3 * chunk + 5, 0, 1], [chunk - 1, chunk + 1, 2 * chunk]]
    blob = bench.synthetic_data(sum(map(sum, lengths)), seed=9)
    served, cursor = [], 0
    for p, sizes in enumerate(lengths):
        shards = {}
        for j, size in enumerate(sizes):
            shards[10 * p + j] = blob[cursor : cursor + size]
            cursor += size
        served.append(shards)
    times = []
    assert bench._deliver(bandwidth, times, served) == served
    if bandwidth:  # the cap paces each connection's framed bytes
        framed = max(sum(sizes) + len(sizes) * bench._HEADER.size for sizes in lengths)
        assert times[0] >= framed / bandwidth


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
