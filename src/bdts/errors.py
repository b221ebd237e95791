"""Exception hierarchy shared by all bdts modules."""


class BdtsError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(BdtsError):
    """A caller-supplied argument violates a precondition."""


class DecryptError(BdtsError):
    """Authenticated decryption failed (wrong key or tampered ciphertext)."""


class NotFound(BdtsError):
    """A referenced entity (block, record, order) does not exist."""


class Mismatch(BdtsError):
    """Game-model prediction disagrees with a simulated run; carries a diff."""


class ContractError(BdtsError):
    """Base class for contract state machine violations."""


class DuplicateRoot(ContractError):
    """A listing with the same plaintext Merkle root already exists."""


class InsufficientDeposit(ContractError):
    pass


class WrongIndices(ContractError):
    """Exposed piece indices differ from the chain-derived random indices."""


class ProofFailure(ContractError):
    """A Merkle proof check failed during exposure; deposit is forfeited."""


class UnknownData(ContractError):
    pass


class WrongSender(ContractError):
    """A contract method was called by someone other than the party it is for."""


class InsufficientTokens(ContractError):
    pass


class UnconfirmedProvider(ContractError):
    pass


class IncompleteCover(ContractError):
    """Shard assignments do not cover every shard index."""


class DoublePost(ContractError):
    pass


class NoPubKey(ContractError):
    pass


class PrivKeyMismatch(ContractError):
    pass


class LateAppeal(ContractError):
    pass


class AlreadyClosed(ContractError):
    pass


class BadState(ContractError):
    """Operation invoked outside its declared status precondition."""
