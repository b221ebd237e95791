"""Golden transcripts: refactors must leave every run byte-identical.

``golden_transcripts.json`` maps each case name to the sha256 of its
``RunTranscript.to_json()``.  Regenerate it only for a change that is meant
to alter transcripts, and say why in the change log:

    PYTHONPATH=src python tests/test_golden.py

which rewrites the file and prints the name and the count of every case
whose digest changed.  The op-count digests that ``perfbench/run.py``
prints for ``trade-bulk`` and ``matrix`` are pinned here too, under the
same rule.
"""
import hashlib
import json
import os
import random

from bdts import bench
from bdts.actors import all_profiles, deliver_in_memory, run_scenario, run_trade

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_transcripts.json")
SLOT = 1024  # a transcript holds no shard bytes, so small shards suffice


def cases():
    """Yield (name, thunk returning the transcript JSON), in a fixed order."""
    for seed in (0, 7):
        for p in all_profiles():
            yield f"{p}/seed{seed}", lambda p=p, seed=seed: run_scenario(
                p, seed=seed, slot=SLOT
            ).to_json()
    for p in ("aei", "cei"):
        yield f"{p}/default-slot", lambda p=p: run_scenario(p).to_json()
    for providers in (2, 3):
        # the honest multi-provider trade of test_actors, in memory
        def trade(providers=providers):
            n = 7
            data = random.Random(providers).randbytes(n * SLOT - 100)
            return run_trade(
                "aei", data, SLOT, bench._ranges(n, providers), deliver_in_memory
            ).to_json()

        yield f"aei/{providers}-providers", trade


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_transcripts_match_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    names = [name for name, _ in cases()]
    assert names == list(want), "the case list and the golden file disagree"
    for name, thunk in cases():
        assert digest(thunk()) == want[name], f"first differing transcript: {name}"


def op_counts_digest(counts) -> str:
    """``perfbench/run.py``'s op-count digest of a workload's counts."""
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]


def test_op_count_digests_match_the_benchmark():
    # op counts depend only on the shard count and its split, so a 96-shard
    # trade of 1 KiB shards counts what trade-bulk's 100 MB one does
    report = bench.bench_download(
        bench.BenchConfig(size_bytes=96 * 1024, slot=1024, providers=2, reps=1, bandwidth=0)
    )
    assert op_counts_digest(report.counters) == "801ecbe3f62efc83"
    matrix = {
        f"{p}/{phase}": ops
        for p in all_profiles()
        for phase, ops in run_scenario(p).phase_ops.items()
    }
    assert op_counts_digest(matrix) == "02372d30d516b091"


if __name__ == "__main__":
    with open(GOLDEN) as fh:
        old = json.load(fh)
    new = {name: digest(thunk()) for name, thunk in cases()}
    with open(GOLDEN, "w") as fh:
        json.dump(new, fh, indent=1)
        fh.write("\n")
    changed = [name for name in new if old.get(name) != new[name]]
    for name in changed:
        print(name)
    print(f"{len(changed)} of {len(new)} digests changed")
