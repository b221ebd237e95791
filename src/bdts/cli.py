"""Command-line entry point.

Verbs: demo, scenario, matrix, game, bench, report.  ``BDTS_SEED`` in the
environment overrides the default seed for every verb.  Exit codes:
0 success, 1 scenario/model assertion failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import actors, bench, game
from .errors import BdtsError, Mismatch


def _default_seed() -> int:
    return int(os.environ.get("BDTS_SEED", "0"))


def _write_report(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)


def _cmd_demo(args) -> int:
    tr = actors.run_scenario(
        "aei", n=args.n, slot=args.slot, seed=args.seed, strict_forfeit=True
    )
    print(json.dumps({"profile": "aei", "recovery": tr.recovery,
                      "deltas": tr.deltas, "verdicts": tr.verdicts}, sort_keys=True))
    _write_report(args.out, json.loads(tr.to_json()))
    return 0 if tr.recovery else 1


def _cmd_scenario(args) -> int:
    tr = actors.run_scenario(
        args.profile, x=args.x, y=args.y, n=args.n, price=args.price,
        unit_price=args.unit_price, seed=args.seed, slot=args.slot,
        strict_forfeit=not args.no_strict_forfeit,
    )
    print(tr.to_json())
    _write_report(args.out, json.loads(tr.to_json()))
    try:
        game.crosscheck_transcript(tr)
    except Mismatch as exc:
        print(f"model mismatch: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_matrix(args) -> int:
    rows = []
    for profile in actors.all_profiles():
        tr = actors.run_scenario(
            profile, x=args.x, y=args.y, seed=args.seed, slot=args.slot,
            strict_forfeit=True,
        )
        row = {"profile": str(profile), "funded": tr.funded, "recovery": tr.recovery,
               "deltas": tr.deltas, "verdicts": tr.verdicts}
        rows.append(row)
        print(json.dumps(row, sort_keys=True))
    _write_report(args.out, {"matrix": rows})
    return 0


def _cmd_game(args) -> int:
    fn = game.raw_payoff if args.mode == "raw" else game.enforced_payoff
    points = (
        [(x, y) for x in (0, 5, 10, 19) for y in (0, 1, 2, 3)]
        if args.sweep
        else [(args.x, args.y)]
    )
    out = []
    for x, y in points:
        table = {
            str(p): list(fn(p, x, y)) for p in actors.all_profiles()
        }
        spne = str(game.backward_induction(fn, x, y))
        out.append({"x": x, "y": y, "mode": args.mode, "spne": spne, "payoffs": table})
        print(f"x={x} y={y} mode={args.mode} spne={spne}")
        for name in sorted(table):
            u = table[name]
            print(f"  {name}  SL={u[0]:>7.2f}  CM={u[1]:>7.2f}  SP={u[2]:>7.2f}")
    print(json.dumps(out, sort_keys=True))
    _write_report(args.out, {"game": out})
    return 0


def _cmd_bench(args) -> int:
    config = bench.BenchConfig(
        size_bytes=args.size, providers=args.providers, slot=args.slot,
        reps=args.reps, seed=args.seed, bandwidth=args.bandwidth,
    )
    report = bench.bench_download(config)
    print(json.dumps(report.summary(), sort_keys=True))
    _write_report(args.out, report.summary())
    return 0 if report.recovery else 1


def _cmd_report(args) -> int:
    with open(args.input) as fh:
        payload = json.load(fh)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        rows = payload.get("matrix") or payload.get("game") or [payload]
        flat = [_flatten(r) for r in rows]
        fields = sorted({k for r in flat for k in r})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(flat)
        print(buf.getvalue(), end="")
    else:
        for key, value in sorted(_flatten(payload).items()):
            print(f"{key}: {value}")
    return 0


def _flatten(obj, prefix="") -> dict:
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        out[prefix.rstrip(".")] = json.dumps(obj, sort_keys=True)
    else:
        out[prefix.rstrip(".")] = obj
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bdts", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, slot=4096):
        p.add_argument("--seed", type=int, default=_default_seed())
        p.add_argument("--slot", type=int, default=slot)
        p.add_argument("--out", help="write a JSON report to this path")

    p = sub.add_parser("demo", help="honest end-to-end trade")
    p.add_argument("--n", type=int, default=8)
    common(p)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("scenario", help="one strategy profile end-to-end")
    p.add_argument("--profile", required=True)
    p.add_argument("--x", type=float, default=10.0)
    p.add_argument("--y", type=float, default=2.0)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--price", type=int, default=40)
    p.add_argument("--unit-price", type=int, default=1)
    p.add_argument("--no-strict-forfeit", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("matrix", help="all 64 profiles")
    p.add_argument("--x", type=float, default=10.0)
    p.add_argument("--y", type=float, default=2.0)
    common(p, slot=1024)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("game", help="payoff tables and the SPNE")
    p.add_argument("--x", type=float, default=10.0)
    p.add_argument("--y", type=float, default=2.0)
    p.add_argument("--mode", choices=("raw", "enforced"), default="enforced")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("bench", help="parallel download benchmark")
    p.add_argument("--size", type=int, default=10 * 1000 * 1000)
    p.add_argument("--providers", type=int, default=1)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--bandwidth", type=int, default=bench.DEFAULT_BANDWIDTH)
    common(p, slot=1 << 20)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("report", help="reformat a saved JSON report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BdtsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
