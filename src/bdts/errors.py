"""Exception hierarchy shared by all bdts modules.

A contract refuses a call before any of its state changes, with one of
seven rules, one class each (what it refuses; the calls that raise it):

* ``InvalidInput``: an argument wrong in any state; ``ssmc_register_seller``
  (a malformed listing, a deposit below ``min_deposit``),
  ``ssmc_register_provider`` (an endpoint not a ``str``), ``ssmc_expose``
  (a piece that is not an ``int`` index, a bytes-like plaintext, two
  ``MerkleProof``s and a bytes-like ciphertext; other indices than drawn),
  ``scmc_place_order`` (tokens not a non-negative ``int``), ``scmc_select``
  (a shard index not an ``int``, a shard left uncovered),
  ``match_products`` (a keyword not a ``str``), ``cpc_post_pubkey``,
  ``cpc_post_key`` and ``cpc_appeal`` (a malformed key, malformed evidence,
  evidence at a shard the payee is not paid for), and any other module's
  malformed argument, such as a ``bench.BenchConfig`` field that is not an
  ``int`` (a ``bool`` included).
* ``NotFound``: an id that names nothing; every call given an unknown data
  or order id, ``ssmc_confirm_provider`` (an unregistered provider),
  ``scmc_record_provider_root``, ``cpc_post_key`` and ``cpc_appeal`` (a
  payee the order does not pay), and ``Ledger.seed_at`` (no such block).
* ``BadState``: a well-formed call not allowed now; every listing or order
  call outside its statuses (Rejected and Delisted are final),
  ``ssmc_delist`` (open orders), ``scmc_select``
  (an unconfirmed provider), ``scmc_record_provider_root``,
  ``cpc_post_pubkey`` and ``cpc_post_key`` (a second post, a reused public
  key, no public key yet, a closed window), ``cpc_open`` (a root missing),
  ``cpc_appeal`` (no public key or posted key, decided, window closed) and
  ``cpc_settle`` (a window open, an escrow short of its tokens).
* ``WrongSender``: a caller other than the call's party;
  ``ssmc_confirm_provider``, ``ssmc_delist``, ``cpc_post_pubkey``,
  ``cpc_post_key``, and ``cpc_appeal`` (a private key that does not match
  the posted public key).
* ``InsufficientTokens``: tokens short of what the call moves;
  ``ssmc_register_seller`` (the deposit) and ``scmc_place_order`` (the
  order, or an order below price plus shards, which is forfeited if the
  consumer holds what it offered).  ``Ledger.transfer`` raises it on an
  overdraw, before any balance changes or event is logged, and the
  contracts let it through.
* ``ProofFailure``: exposed pieces that fail their proofs or repeat another
  seller's, forfeiting the deposit; ``ssmc_expose``, and the consumer in
  ``actors`` for a delivered shard off its committed root.
* ``DuplicateRoot``: a plaintext root whose latest listing has not ended
  Rejected or Delisted; ``ssmc_register_seller``.

``DecryptError`` (authenticated decryption failed), ``Mismatch`` (the game
model disagrees with a run) and their base ``BdtsError`` come from outside
the contracts.
"""


class BdtsError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(BdtsError):
    """A caller-supplied argument violates a precondition."""


class DecryptError(BdtsError):
    """Authenticated decryption failed (wrong key or tampered ciphertext)."""


class NotFound(BdtsError):
    """A referenced entity (block, record, order, tranche) does not exist."""


class Mismatch(BdtsError):
    """Game-model prediction disagrees with a simulated run; carries a diff."""


class BadState(BdtsError):
    """A well-formed call made when the contract's state does not allow it."""


class WrongSender(BdtsError):
    """A contract method was called by someone other than the party it is for."""


class InsufficientTokens(BdtsError):
    """A balance or an order does not cover the tokens a call moves."""


class ProofFailure(BdtsError):
    """A Merkle proof check failed: an exposed piece, which forfeits the
    deposit, or a delivered frame missing or off its committed root."""


class DuplicateRoot(BdtsError):
    """A listing with the same plaintext Merkle root already exists."""
