"""The paired-benchmark runner's summary, on hand-made run records; no
benchmark process is started."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.24},
]


def run(side, pair, setup_s, op_ms_p90, failed=0, rss=300.0, faults=80_000):
    return {"side": side, "pair": pair, "returncode": 1 if failed else 0,
            "attempted": 100, "failed": failed,
            "metrics": {"setup_s": setup_s, "op_ms_p90": op_ms_p90},
            "peak_rss_mib": rss, "minor_faults": faults}


def runs(parent, change, change_run=None):
    """Alternating records, as the runner appends them, from per-pair
    (setup_s, op_ms_p90) values of each side; ``change_run`` sets the
    change's other fields."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p, {}), ("change", c, change_run or {})]
        for side, values, fields in sides if pair % 2 == 0 else sides[::-1]:
            out.append(run(side, pair, *values, **fields))
    return out


def test_spread_gives_min_quartiles_and_median():
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.spread([7.0]) == {"min": 7.0, "q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_counts_pairs_won_with_ties_for_neither_side():
    summary = bench_pairs.summarise(
        runs([(1.0, 10.0), (1.0, 12.0), (1.0, 14.0)], [(0.9, 9.0), (1.0, 12.0), (1.2, 15.0)]),
        END_TO_END,
    )
    assert summary["pairs"] == 3
    assert summary["change_won"] == {"setup_s": 1, "op_ms_p90": 1}
    assert summary["parent"]["op_ms_p90"] == {"min": 10.0, "q1": 11.0, "median": 12.0,
                                              "q3": 13.0}
    assert summary["change"]["setup_s"]["median"] == 1.0
    assert summary["ratio"] == {"setup_s": 1.0, "op_ms_p90": 1.0}


def test_summary_adds_failed_and_attempted_ops_per_side():
    summary = bench_pairs.summarise(
        runs([(1.0, 10.0)] * 2, [(1.0, 10.0)] * 2, change_run={"failed": 3}), END_TO_END)
    assert (summary["parent"]["failed"], summary["change"]["failed"]) == (0, 6)
    assert summary["parent"]["attempted"] == summary["change"]["attempted"] == 200


def test_summary_keeps_peak_rss_and_minor_faults():
    summary = bench_pairs.summarise(
        runs([(1.0, 10.0)], [(1.0, 10.0)], change_run={"rss": 250.0, "faults": 60_000}),
        END_TO_END)
    assert summary["parent"]["peak_rss_mib"]["median"] == 300.0
    assert summary["change"]["minor_faults"]["median"] == 60_000


def test_a_higher_is_better_metric_is_won_by_the_higher_value():
    higher = [{"name": "op_ms_p90", "unit": "1/s", "better": "higher", "bound": 0.1}]
    summary = bench_pairs.summarise(runs([(1.0, 10.0)], [(1.0, 11.0)]), higher)
    assert summary["change_won"] == {"op_ms_p90": 1}
    assert "within bound" in bench_pairs.report("w", summary, higher)[1]


def test_summary_refuses_an_unpaired_run():
    records = runs([(1.0, 10.0)] * 2, [(1.0, 10.0)] * 2)
    with pytest.raises(ValueError):
        bench_pairs.summarise(records[:-1], END_TO_END)


def test_report_flags_a_median_worse_than_its_bound():
    summary = bench_pairs.summarise(
        runs([(1.0, 100.0)] * 3, [(1.0, 125.0)] * 3), END_TO_END)
    setup, p90 = bench_pairs.report("trade-bulk", summary, END_TO_END)[1:]
    assert "change/parent 1.000  bound 0.25 (within bound)" in setup
    assert "change/parent 1.250  bound 0.24 (WORSE than bound)" in p90
    assert "change won 0/3" in p90


def test_report_calls_a_metric_unresolved_when_the_parent_spreads_wider_than_its_bound():
    summary = bench_pairs.summarise(
        runs([(1.0, 60.0), (1.0, 100.0), (1.0, 140.0)], [(1.0, 100.0)] * 3), END_TO_END)
    p90 = bench_pairs.report("matrix", summary, END_TO_END)[2]
    assert "bound 0.24 (unresolved, parent spread 0.40)" in p90
