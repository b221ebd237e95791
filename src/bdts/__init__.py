"""Deterministic desk-scale simulator of a blockchain data-trading protocol
with escrowed fair exchange, Merkle-verified appeals, and a strategy game
over seller / consumer / provider behaviors."""

from .actors import RunTranscript, StrategyProfile, all_profiles, run_scenario
from .bench import BenchConfig, BenchReport, bench_download
from .contracts import AppealEvidence, ContractConfig, ContractSystem
from .game import (
    PayoffVector,
    backward_induction,
    crosscheck_simulation,
    enforced_payoff,
    nash_equilibria,
    raw_payoff,
    token_flows,
    verify_table,
)
from .ledger import Ledger, rand_indices
from .merkle import MerkleProof, MerkleTree, mproof, mtree, mvrfy
from .sharding import ProviderPackage, ShardSet, shard_encrypt

__version__ = "0.1.0"

__all__ = [
    "AppealEvidence",
    "BenchConfig",
    "BenchReport",
    "ContractConfig",
    "ContractSystem",
    "Ledger",
    "MerkleProof",
    "MerkleTree",
    "PayoffVector",
    "ProviderPackage",
    "RunTranscript",
    "ShardSet",
    "StrategyProfile",
    "all_profiles",
    "backward_induction",
    "bench_download",
    "crosscheck_simulation",
    "enforced_payoff",
    "mproof",
    "mtree",
    "mvrfy",
    "nash_equilibria",
    "rand_indices",
    "raw_payoff",
    "run_scenario",
    "shard_encrypt",
    "token_flows",
    "verify_table",
]
