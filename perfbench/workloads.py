"""The three bdts benchmark workloads.

Each workload is a closed loop with one operation in flight: the harness
calls ``op`` again only after the previous call returned.  The constructor
builds every input from the seed; ``op`` returns the per-phase operation
counts the program recorded for the work it did (the deterministic op-count
gate), and raises :class:`OpFailed` when an output is wrong.  A pass is
``ops_per_pass`` consecutive ops; the harness stops only between passes and
calls ``new_pass`` there, outside any op's timing.
"""
from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass

from bdts import bench, contracts, game, ledger, merkle, metrics, sharding
from bdts.actors import all_profiles

Counts = dict[str, dict[str, int]]


class OpFailed(Exception):
    """An op ran to the end but produced a wrong result."""


class Workload:
    """Defaults for workloads whose pass is a single op and that hold nothing to release."""

    ops_per_pass = 1

    def new_pass(self) -> None:
        pass

    def close(self) -> None:
        pass


class TradeBulk(Workload):
    """One 100 MB two-provider trade through ``bench.bench_download``.

    ``bandwidth=0`` would mean "no cap" but raises ZeroDivisionError in
    ``bench._serve``, so the cap is set far above anything loopback reaches:
    the wire then moves at the program's own speed.
    """

    name = "trade-bulk"
    NO_CAP = 10**12  # bytes/s per connection; never binds

    def __init__(self, seed: int, size_bytes: int = 100_000_000, slot: int = 1 << 20):
        self.size_bytes = size_bytes
        self.slot = slot
        self.rng = random.Random(f"trade-bulk:{seed}")

    def op(self) -> Counts:
        # bench_download takes no input bytes: it draws them with
        # synthetic_data inside the op, from this per-op seed.
        report = bench.bench_download(
            bench.BenchConfig(
                size_bytes=self.size_bytes, providers=2, slot=self.slot, reps=1,
                bandwidth=self.NO_CAP, seed=self.rng.randrange(2**32),
            )
        )
        if not report.recovery:
            raise OpFailed("trade did not recover the seller's data")
        return report.counters


MATRIX_GRID = [(x, y) for x in (0, 5, 10, 19) for y in (0, 1, 2, 3)]
PAYOFF_MODES = {"raw": game.raw_payoff, "enforced": game.enforced_payoff}


class Matrix(Workload):
    """All 64 profiles simulated and checked against the game model, then
    the equilibrium sweep over the 16-point (x, y) grid in both modes."""

    name = "matrix"

    def __init__(self, seed: int):
        self.rng = random.Random(f"matrix:{seed}")
        self.profiles = [str(p) for p in all_profiles()]
        self.equilibria = None  # set by the first op, compared by the rest
        # crosscheck_simulation keeps the transcript to itself; capture it
        # on the way out to read the program's per-phase op counts.
        self.transcripts = []
        self._run_scenario = game.run_scenario

        @functools.wraps(self._run_scenario)
        def capture(*args, **kwargs):
            tr = self._run_scenario(*args, **kwargs)
            self.transcripts.append(tr)
            return tr

        game.run_scenario = capture

    def op(self) -> Counts:
        self.transcripts.clear()
        for profile in self.profiles:
            if game.crosscheck_simulation(profile, seed=self.rng.randrange(2**32)) is not True:
                raise OpFailed(f"{profile}: crosscheck did not return True")
        found = {
            (mode, x, y): (
                str(game.backward_induction(fn, x, y)),
                sorted(game.nash_equilibria(fn, x, y)),
            )
            for mode, fn in PAYOFF_MODES.items()
            for x, y in MATRIX_GRID
        }
        if self.equilibria is None:
            self.equilibria = found
        elif found != self.equilibria:
            diff = sorted(k for k in found if found[k] != self.equilibria[k])
            raise OpFailed(f"equilibria changed between passes at {diff[:4]}")
        return {
            f"{tr.profile}/{phase}": ops
            for tr in self.transcripts
            for phase, ops in tr.phase_ops.items()
        }

    def close(self) -> None:
        game.run_scenario = self._run_scenario


# Search keywords.  None is a substring of another or of "lot", so substring
# search (the program's) and whole-word matching (the benchmark's expected
# count) agree on every description built from them.
VOCAB = (
    "weather", "traffic", "genome", "retail", "satellite", "lidar", "energy",
    "clinical", "seismic", "payments", "shipping", "audio", "forest", "ocean",
    "crop", "vehicle", "sensor", "census", "market", "river",
)


@dataclass(frozen=True)
class Listing:
    master: bytes
    data: bytes
    description: str
    price: int
    keyword: str
    expected_hits: int  # listings 0..j whose description holds ``keyword``
    order_target: int  # a listing index in 0..j to order


class Market(Workload):
    """One growing ContractSystem: each op lists one data set end to end,
    then runs one keyword search (read) and places and selects one order
    against a random live listing (write).  A pass grows the market from
    empty to ``listings``; the next pass starts a fresh ledger."""

    name = "market"
    SHARDS = 8
    SHARD_BYTES = 256
    ENDOWMENT = 10**12

    def __init__(self, seed: int, listings: int = 3000):
        assert all(a not in b for a in VOCAB for b in VOCAB + ("lot",) if a != b)
        rng = random.Random(f"market:{seed}")
        self.ops_per_pass = listings
        holding = {w: 0 for w in VOCAB}
        self.listings = []
        for j in range(listings):
            words = rng.sample(VOCAB, 3)
            for w in words:
                holding[w] += 1
            keyword = rng.choice(VOCAB)
            self.listings.append(
                Listing(
                    master=hashlib.sha256(f"market:{seed}:{j}".encode()).digest(),
                    data=rng.randbytes(self.SHARDS * self.SHARD_BYTES),
                    description=f"{' '.join(words).capitalize()} lot {j}",
                    price=rng.randrange(20, 200, 2),
                    keyword=keyword.upper() if j % 2 else keyword,
                    expected_hits=holding[keyword],
                    order_target=rng.randrange(j + 1),
                )
            )
        self.seller = ledger.address_for("market:seller")
        self.provider = ledger.address_for("market:provider")
        self.consumer = ledger.address_for("market:consumer")
        self.new_pass()

    def new_pass(self) -> None:
        self.ledger = ledger.Ledger(
            {self.seller: self.ENDOWMENT, self.consumer: self.ENDOWMENT}
        )
        self.system = contracts.ContractSystem(self.ledger)
        self.supply = self.ledger.total_supply()
        self.data_ids: list[str] = []

    def op(self) -> Counts:
        item = self.listings[len(self.data_ids)]
        system, chain = self.system, self.ledger
        with metrics.collect() as col, col.phase("listing"):
            shards = sharding.shard_encrypt(item.master, item.data, self.SHARD_BYTES)
            data_id = system.ssmc_register_seller(
                self.seller, "tcp://seller", item.description, len(item.data),
                shards.n, shards.root_plain, shards.root_enc, item.price, 1,
                deposit=system.min_deposit(item.price),
            )
            self.data_ids.append(data_id)
            chain.mine_block()  # seals the registration
            chain.mine_block()  # supplies the exposure randomness
            pieces = [
                (i, shards.plain_shards[i], merkle.mproof(shards.tree_plain, i),
                 merkle.mproof(shards.tree_enc, i), shards.enc_shards[i])
                for i in system.expected_exposure_indices(data_id)
            ]
            system.ssmc_expose(data_id, pieces)
            system.ssmc_register_provider(self.provider, "tcp://provider", data_id)
            system.ssmc_confirm_provider(self.seller, self.provider, data_id)
            chain.mine_block()
            if system.records[data_id].status != contracts.LIVE:
                raise OpFailed(f"{data_id} is {system.records[data_id].status}, not Live")

            hits = system.match_products(item.keyword)
            if len(hits) != item.expected_hits:
                raise OpFailed(
                    f"search {item.keyword!r} found {len(hits)}, expected {item.expected_hits}"
                )

            target = system.records[self.data_ids[item.order_target]]
            tokens = target.price + target.n * target.unit_price
            order_id = system.scmc_place_order(self.consumer, target.data_id, tokens)
            system.scmc_select(order_id, [(self.provider, list(range(target.n)))])
            chain.mine_block()
            if (
                system.orders[order_id].status != contracts.DOWNLOADING
                or system.escrow_flows[order_id]["in"] != tokens
            ):
                raise OpFailed(f"order {order_id} on {target.data_id} is not funded")
        if chain.total_supply() != self.supply:
            raise OpFailed(f"token supply moved from {self.supply} to {chain.total_supply()}")
        return {label: c.as_dict() for label, c in col.phases.items()}


WORKLOADS = {w.name: w for w in (TradeBulk, Matrix, Market)}
