"""Command-line entry point.

Verbs: scenario, matrix, game, bench.  Each prints its result as JSON on
stdout (game prints its payoff tables as text first).  Exit codes: 0
success, 1 scenario/model assertion failure or a reader that closed stdout
early, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import actors, bench, game
from .errors import BdtsError, InvalidInput, Mismatch
from .sharding import DEFAULT_SLOT


def _cmd_scenario(args) -> int:
    tr = actors.run_scenario(args.profile, x=args.x, y=args.y, seed=args.seed)
    print(tr.to_json())
    try:
        game.crosscheck_transcript(tr)
    except Mismatch as exc:
        print(f"model mismatch: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_matrix(args) -> int:
    # every run before the first row, so a refused x or y prints nothing
    runs = [actors.run_scenario(profile, x=args.x, y=args.y, seed=args.seed)
            for profile in actors.all_profiles()]
    for tr in runs:
        row = {"profile": tr.profile, "funded": tr.funded, "recovery": tr.recovery,
               "deltas": tr.deltas, "verdicts": tr.verdicts}
        print(json.dumps(row, sort_keys=True))
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
        table = {p: list(fn(p, x, y)) for p in actors.all_profiles()}
        spne = game.backward_induction(fn, x, y)
        out.append({"x": x, "y": y, "mode": args.mode, "spne": spne, "payoffs": table})
        print(f"x={x} y={y} mode={args.mode} spne={spne}")
        for name in sorted(table):
            u = table[name]
            print(f"  {name}  SL={u[0]:>7.2f}  CM={u[1]:>7.2f}  SP={u[2]:>7.2f}")
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    config = bench.BenchConfig(
        size_bytes=args.size, providers=args.providers, slot=args.slot,
        reps=args.reps, seed=args.seed, bandwidth=args.bandwidth,
    )
    result = bench.bench_download(config)
    print(json.dumps(result.summary(), sort_keys=True))
    return 0 if result.recovery else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bdts", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("scenario", help="one strategy profile end-to-end")
    p.add_argument("--profile", required=True)
    p.add_argument("--x", type=float, default=10.0)
    p.add_argument("--y", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("matrix", help="all 64 profiles")
    p.add_argument("--x", type=float, default=10.0)
    p.add_argument("--y", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("game", help="payoff tables and the SPNE")
    p.add_argument("--x", type=float, default=10.0)
    p.add_argument("--y", type=float, default=2.0)
    p.add_argument("--mode", choices=("raw", "enforced"), default="enforced")
    p.add_argument("--sweep", action="store_true")
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("bench", help="parallel download benchmark")
    p.add_argument("--size", type=int, default=10 * 1000 * 1000)
    p.add_argument("--providers", type=int, default=1)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--bandwidth", type=int, default=bench.DEFAULT_BANDWIDTH)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slot", type=int, default=DEFAULT_SLOT)
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``bdts matrix | head -1``); point
        # stdout at devnull so the interpreter's last flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BdtsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidInput) else 1


if __name__ == "__main__":
    sys.exit(main())
