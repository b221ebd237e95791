import pytest

from bdts import bench
from bdts.actors import run_scenario
from bdts.errors import InvalidInput

SMALL = dict(size_bytes=200_000, slot=20_000, reps=2, bandwidth=200_000_000)


def test_config_validation():
    with pytest.raises(InvalidInput):
        bench.BenchConfig(providers=0)
    with pytest.raises(InvalidInput):
        bench.BenchConfig(providers=7)
    with pytest.raises(InvalidInput):
        bench.BenchConfig(data_type="audio")
    with pytest.raises(InvalidInput):
        bench.BenchConfig(bandwidth=-1)


def test_synthetic_data_magic_and_size():
    for tag, magic in (("text", b""), ("image", b"\x89PNG"), ("video", b"\x00\x00\x00\x18")):
        blob = bench.synthetic_data(tag, 5000, seed=1)
        assert len(blob) == 5000
        assert blob.startswith(magic)
    assert bench.synthetic_data("text", 100, 1) == bench.synthetic_data("text", 100, 1)
    assert bench.synthetic_data("text", 100, 1) != bench.synthetic_data("text", 100, 2)


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


def test_count_phase_ops_from_transcript():
    tr = run_scenario("aei", n=4, slot=512)
    ops = bench.count_phase_ops(tr)
    assert ops["upload"].as_tuple() == (4, 0, 0, 0, 2, 2 * 2)
    assert ops["decrypt"].sym_decryptions == 4
    assert ops["decrypt"].asym_decryptions == 1


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
