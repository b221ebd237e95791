"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q perfbench
"""
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from bdts import crypto  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "trade-bulk": {"size_bytes": 300_000, "slot": 1 << 16},
    "matrix": {},
    "market": {"listings": 40},
}
FAKE_HOST = {"loop_ms": (1.0, "ms"), "sha256_mib_s": (1.0, "MiB/s"),
             "aesgcm_mib_s": (1.0, "MiB/s"), "nproc": (1, "count")}


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_metrics(name):
    wl, reference = run.set_up(name, 3, **TINY[name])
    try:
        m = run.measure(wl, reference, 0.05)
    finally:
        wl.close()
    assert m.failed == 0, m.errors
    metrics = run.end_to_end(m, [0.5])
    assert {k: unit for k, (_, unit) in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_per_layer_metrics(name):
    sym_encrypt = inspect.unwrap(crypto.sym_encrypt)
    wl, reference = run.set_up(name, 3, **TINY[name])
    tracer = Tracer()
    try:
        m = run.measure(wl, reference, 0.05, tracer)
    finally:
        wl.close()
    assert m.failed == 0, m.errors
    assert crypto.sym_encrypt is sym_encrypt  # wrappers are gone after the run
    assert m.traced_times and m.times and m.spans
    metrics = run.per_layer(m, tracer, reference, FAKE_HOST)
    assert {k: unit for k, (_, unit) in metrics.items()} == _units(SPEC["per_layer"])
    assert metrics["trace.ops"][0] == len(m.traced_times)
    assert 0 <= metrics["trace.unwrapped_pct"][0] < 100


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["end_to_end"])


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
