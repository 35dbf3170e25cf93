"""Exception types shared across the simulator and the risk toolkit."""


class CrocodaiError(Exception):
    """Base class for all package errors."""


class ProtocolError(CrocodaiError):
    """An operation violated a protocol rule (rejected, state unchanged)."""


class UnknownChainError(ProtocolError):
    pass


class DuplicateChainError(ProtocolError):
    pass


class InsufficientBalanceError(ProtocolError):
    pass


class NotCompromisedError(ProtocolError):
    """fork_revert requires the chain to be marked compromised first."""


class RatioViolationError(ProtocolError):
    """Accepting the operation would leave a CDP at or below the liquidation ratio."""


class CeilingViolationError(ProtocolError):
    """Accepting the mint would breach a per-token fractional debt ceiling."""


class AuctionError(ProtocolError):
    pass


class StalePriceError(ProtocolError):
    """No oracle reports available; the vault keeps its last medianized value."""


class QuorumError(ProtocolError):
    """Relay quorum arithmetic violated (needs n >= 3f+1, corrupt minority, ...)."""


class StaleNonceError(ProtocolError):
    """Governance certificate replayed with an already-consumed nonce."""


class InvalidParameterError(ProtocolError):
    """A governance parameter update failed SystemParams validation; `param`
    names the one parameter at fault, when there is one."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class PreconditionError(CrocodaiError):
    """A scenario's stated starting conditions do not hold."""


class DataError(CrocodaiError):
    """Malformed or inconsistent input data (price files, configs)."""


class ScenarioFormatError(DataError):
    """Scenario JSON does not match the documented schema; message carries the path."""


class ModelError(CrocodaiError):
    """A statistical model cannot be built or used (non-PSD covariance, nu <= 2, ...)."""


class InfeasibleProblemError(CrocodaiError):
    """Optimization constraints admit no feasible point."""
