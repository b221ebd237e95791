"""bdts benchmark: run one workload as a closed loop and report its metrics.

    python3 perfbench/run.py --workload trade-bulk --seed 1 --seconds 50 --trace 0

Run from the root of a bdts checkout; the program is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run (see README.md).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full record of a run (host calibration, versions, op counts, the span tree
of one traced op) goes to ``perfbench/out/``.
"""
import time

_START = time.perf_counter()  # the workload's start: set-up time counts from here

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("trade-bulk", "matrix", "market")
SETUPS = 3  # set-ups per run: this process and two fresh ones
CALIBRATION_BYTES = 32 << 20
MIB = 1 << 20


def set_up(name: str, seed: int, **sizes):
    """Build the workload's inputs and run one untimed warm-up op.

    Returns the workload and the op counts of the warm-up op, which every
    later op must repeat exactly."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, **sizes)
    reference = wl.op()
    wl.new_pass()
    return wl, reference


@dataclass
class Measurement:
    times: list[float] = field(default_factory=list)  # seconds per untraced op
    traced_times: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wall: float = 0.0
    spans: list[tuple] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.traced_times)


def measure(wl, reference, seconds: float, tracer=None) -> Measurement:
    """Run whole passes of ``wl`` until ``seconds`` have gone by.

    With a tracer, every other op runs traced, so traced and untraced ops
    see the same machine state and the same point of each pass."""
    m = Measurement()
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.spans = [] if not m.spans else None
            tracer.install(i)
        error = None
        t0 = time.perf_counter()
        try:
            counts = wl.op()
        except Exception as exc:  # a failed op is counted; the run goes on
            counts, error = None, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            if tracer.spans is not None:
                m.spans, tracer.spans = tracer.spans, None
        (m.traced_times if traced else m.times).append(took)
        if error is None and counts != reference:
            error = "op counts differ from the warm-up op's"
        if error is not None:
            m.failed += 1
            if len(m.errors) < 10:
                m.errors.append(f"op {i}: {error}")
        i += 1
        if i % wl.ops_per_pass == 0:
            # a traced run needs at least one traced and one untraced op
            if time.perf_counter() >= deadline and (tracer is None or m.traced_times):
                break
            wl.new_pass()
    m.wall = time.perf_counter() - start
    return m


def _p90(times: list[float]) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def end_to_end(m: Measurement, setups: list[float]) -> dict[str, tuple[float, str]]:
    # Only these two are gated.  The median op time and the op rate are
    # printed and recorded but not gated: on a host whose speed flips with
    # its neighbours' load, op times fall into a fast and a slow mode, and
    # both follow the share of the run spent in each (see README.md,
    # Steadiness).
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p90": (_p90(m.times) * 1e3, "ms"),
    }


def ungated(m: Measurement) -> dict[str, tuple[float, str]]:
    return {
        "op_ms_p50": (statistics.median(m.times) * 1e3, "ms"),
        "ops_per_s": ((m.attempted - m.failed) / m.wall, "1/s"),
    }


def op_totals(reference) -> dict[str, int]:
    """The six OpCounters fields of one op, summed over its phases."""
    totals: dict[str, int] = {}
    for ops in reference.values():
        for name, count in ops.items():
            totals[name] = totals.get(name, 0) + count
    return totals


def per_layer(m: Measurement, tracer, reference, host) -> dict[str, tuple[float, str]]:
    ops = len(m.traced_times)
    out = tracer.per_op(ops)
    out.update(
        {f"metrics.ops.{k}": (v, "count") for k, v in op_totals(reference).items()}
    )
    traced = statistics.median(m.traced_times)
    untraced = statistics.median(m.times)
    out["trace.ops"] = (ops, "count")
    out["trace.op_ms_p50"] = (traced * 1e3, "ms")
    out["trace.untraced_op_ms_p50"] = (untraced * 1e3, "ms")
    out["trace.overhead_pct"] = ((traced / untraced - 1) * 100, "%")
    out["trace.unwrapped_pct"] = (
        (1 - tracer.top_ns / 1e9 / sum(m.traced_times)) * 100, "%"
    )
    out.update({f"host.{k}": v for k, v in host.items()})
    return out


def calibrate() -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Host speed on fixed work, so machine drift can be told from program change."""
    import platform

    import cryptography
    from cryptography.hazmat.backends.openssl.backend import backend
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    def timed(fn) -> float:
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    def spin():
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        return acc

    buf = bytes(CALIBRATION_BYTES)
    aes = AESGCM(bytes(32))
    sha256_s = timed(lambda: hashlib.sha256(buf).digest())
    aesgcm_s = timed(lambda: aes.encrypt(bytes(12), buf, None))
    host = {
        "loop_ms": (timed(spin) * 1e3, "ms"),
        "sha256_mib_s": (CALIBRATION_BYTES / MIB / sha256_s, "MiB/s"),
        "aesgcm_mib_s": (CALIBRATION_BYTES / MIB / aesgcm_s, "MiB/s"),
        "nproc": (len(os.sched_getaffinity(0)), "count"),
    }
    versions = {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
    }
    return host, versions


def probe_setups(name: str, seed: int, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def _fmt(metrics: dict[str, tuple[float, str]]) -> dict[str, dict]:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)

    if not (SRC / "bdts" / "__init__.py").is_file():
        print(f"perfbench: no bdts sources under {SRC}; run from a bdts checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bdts

    if Path(bdts.__file__).resolve().parent != SRC / "bdts":
        print(f"perfbench: imported bdts from {bdts.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl, reference = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        m = measure(wl, reference, args.seconds, tracer)
    finally:
        wl.close()
    setups = [setup_s] + probe_setups(args.workload, args.seed, SETUPS - 1)
    host, versions = calibrate()

    correct = m.failed == 0
    if args.trace:
        metrics = per_layer(m, tracer, reference, host)
    else:
        metrics = end_to_end(m, setups)
    extra = ungated(m)
    digest = hashlib.sha256(json.dumps(reference, sort_keys=True).encode()).hexdigest()[:16]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit}")
    print(f"  not gated: op_ms_p50 {extra['op_ms_p50'][0]:.4f} ms (median of {len(m.times)}"
          f" untraced ops), ops_per_s {extra['ops_per_s'][0]:.4f} 1/s")
    print(f"  failed_ratio {m.failed / m.attempted:g} ({m.failed} of {m.attempted} ops;"
          f" {len(m.times)} untraced, {len(m.traced_times)} traced)")
    print(f"  set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"  op counts per op: {op_totals(reference)} digest {digest}")
    print("  host: " + " ".join(f"{k}={v:.4g} {u}" for k, (v, u) in host.items())
          + " " + " ".join(f"{k}={v}" for k, v in versions.items()))
    for line in m.errors:
        print(f"  FAILED {line}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": m.attempted,
        "failed": m.failed, "errors": m.errors, "metrics": _fmt(metrics),
        "ungated": _fmt(extra),
        "setup_samples_s": setups, "op_samples_s": m.times,
        "traced_op_samples_s": m.traced_times, "host": _fmt(host), "versions": versions,
        "op_counts": reference, "op_counts_digest": digest,
        "spans": [dict(zip(("op", "id", "parent", "name", "start_ns", "end_ns"), s))
                  for s in m.spans],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": _fmt(metrics)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
