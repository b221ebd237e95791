"""Run the gated benchmark in alternating parent/change pairs and summarise it.

    python3 tools/bench_pairs.py --parent ../parent [--change .] --label LABEL

Each run is ``BENCHMARK.json``'s command (``python3 perfbench/run.py``) with
``--workload W --seed 1 --seconds T --trace 0``, in a fresh child whose
working directory is the checkout, where ``T`` is ``BENCHMARK.json``'s
``run_seconds``.  A pair runs the parent and the change once each; the side
that runs first alternates from pair to pair.  Every workload that
``BENCHMARK.json`` gates runs its ten pairs, one workload after another.
Each run's result is the last line of its standard output; its peak RSS,
minor faults and user and system CPU time come from ``os.wait4``, so they
cover the run and the set-up probes it waits for.  Right after each run the
record that ``run.py`` wrote to its checkout's ``perfbench/out/`` gives the
op-count digest, the host calibration and the versions.  After its pairs,
each workload runs once per side with ``--trace 1``, for the per-layer
metrics, which no bound gates.

Writes ``BENCH_<label>.json`` in the current directory: per workload and
side, the min, quartiles and median of each end-to-end metric, of the
resource figures and of the host calibration, the op-count digest and
versions, the pairs the change won, the failed ops and every run; the
per-layer metrics beside the tracer's known misreports; and each side's
commit.  Prints each metric's change/parent median ratio beside its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
SEED = 1
# what the ``--trace 1`` rows get wrong, until the tracer is mended
MISREPORTS = [
    "merkle.mvrfy_digest and merkle.leaf_digests have no tracer row, so the"
    " consumer's proof checks and leaf hashing are in no merkle row",
    "calibrate() runs after the op loop, so the host.* rows move with the heap"
    " the workload left",
    "ledger.transfer.rejected is always 0: the row counts a False return, and"
    " Ledger.transfer returns nothing and raises on an overdraw",
]


def run_once(command: list[str], checkout: Path, workload: str, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run in a fresh child: its metrics, failed and attempted
    ops, the child's peak RSS, minor faults and CPU time, and the op-count
    digest, host calibration and versions from the record it wrote."""
    argv = [*command, "--workload", workload, "--seed", str(SEED),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    with tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen(argv, cwd=checkout, stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr.seek(0)
        errors = stderr.read()
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} exited {proc.returncode} with no result:\n"
            f"{errors[-2000:]}"
        ) from None
    out_file = checkout / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    written = json.loads(out_file.read_text())
    return {
        "returncode": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "peak_rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "minor_faults": usage.ru_minflt,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "op_counts_digest": written["op_counts_digest"],
        "host": {k: v["value"] for k, v in written["host"].items()},
        "versions": written["versions"],
    }


def spread(values: list[float]) -> dict[str, float]:
    """Min, quartiles and median of ``values``."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"min": min(values), "q1": q1, "median": median, "q3": q3}


def the_one(values: list, what: str):
    """The value every run gave for ``what``; a run that gave another is an error."""
    if any(v != values[0] for v in values):
        raise ValueError(f"the runs of one side gave different {what}")
    return values[0]


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's summary from its runs, each a ``run_once`` record
    with its ``side`` and ``pair``.

    A pair counts as won by the change, for a metric, when the change's
    value is better than the parent's in that pair; a tie counts for
    neither side.  The runs of a side must agree on their op-count digest
    and versions."""
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
               for side in SIDES}
    if [r["pair"] for r in by_side["parent"]] != [r["pair"] for r in by_side["change"]]:
        raise ValueError("every pair needs one parent run and one change run")
    summary: dict = {"pairs": len(by_side["parent"])}
    for side, side_runs in by_side.items():
        summary[side] = {
            **{m["name"]: spread([r["metrics"][m["name"]] for r in side_runs])
               for m in end_to_end},
            **{k: spread([r[k] for r in side_runs])
               for k in ("peak_rss_mib", "minor_faults", "user_s", "sys_s")},
            "failed": sum(r["failed"] for r in side_runs),
            "attempted": sum(r["attempted"] for r in side_runs),
            "op_counts_digest": the_one([r["op_counts_digest"] for r in side_runs],
                                        "op-count digests"),
            "versions": the_one([r["versions"] for r in side_runs], "versions"),
            "host": {k: spread([r["host"][k] for r in side_runs])
                     for k in side_runs[0]["host"]},
        }
    summary["change_won"] = {}
    summary["ratio"] = {}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        summary["change_won"][name] = sum(
            sign * c["metrics"][name] < sign * p["metrics"][name]
            for p, c in zip(by_side["parent"], by_side["change"])
        )
        summary["ratio"][name] = (summary["change"][name]["median"]
                                  / summary["parent"][name]["median"])
    return summary


def report(workload: str, summary: dict, end_to_end: list[dict]) -> list[str]:
    """Printable lines: per metric, both medians, their ratio beside the
    bound, and the pairs the change won.  A metric within its bound whose
    parent runs spread wider than the bound (quartile distance over median)
    is reported as unresolved, not as unchanged."""
    lines = [f"{workload}: {summary['pairs']} pairs, failed ops parent"
             f" {summary['parent']['failed']} change {summary['change']['failed']}"]
    for m in end_to_end:
        name, bound = m["name"], m["bound"]
        ratio = summary["ratio"][name]
        worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
        parent = summary["parent"][name]
        iqr = (parent["q3"] - parent["q1"]) / parent["median"]
        verdict = ("WORSE than bound" if worse > bound
                   else f"unresolved, parent spread {iqr:.2f}" if iqr > bound
                   else "within bound")
        lines.append(
            f"  {name:10s} parent {parent['median']:10.4f}"
            f"  change {summary['change'][name]['median']:10.4f} {m['unit']:3s}"
            f"  change/parent {ratio:.3f}  bound {bound:g} ({verdict})"
            f"  change won {summary['change_won'][name]}/{summary['pairs']}"
        )
    return lines


def commit_of(checkout: Path) -> dict:
    """The checkout's commit, its ``src`` tree and whether tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "modified": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the change's checkout (default: this one)")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    if json.loads((checkouts["parent"] / "BENCHMARK.json").read_text()) != spec:
        print("bench_pairs: the two checkouts' BENCHMARK.json differ", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]

    results: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(spec["command"], checkouts[side], workload, seconds)
                runs.append({"side": side, "pair": pair, **run})
                print(f"{workload} pair {pair} {side}: {run['metrics']}", flush=True)
        results[workload] = {**summarise(runs, spec["end_to_end"]), "runs": runs}
        print("\n".join(report(workload, results[workload], spec["end_to_end"])), flush=True)
        traced = {side: run_once(spec["command"], checkouts[side], workload, seconds, trace=1)
                  for side in SIDES}
        results[workload]["per_layer"] = {"misreports": MISREPORTS, **traced}
        print(f"{workload} per-layer runs done", flush=True)

    record = {
        "label": args.label,
        "seed": SEED,
        "run_seconds": seconds,
        "end_to_end": spec["end_to_end"],
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": len(os.sched_getaffinity(0))},
        **{side: commit_of(path) for side, path in checkouts.items()},
        "workloads": results,
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
