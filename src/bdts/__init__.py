"""Deterministic desk-scale simulator of a blockchain data-trading protocol
with escrowed fair exchange, Merkle-verified appeals, and a strategy game
over seller / consumer / provider behaviors."""

__version__ = "0.1.0"
