"""Exception types shared across the package, and the reader of text input files."""


class SparsenseError(Exception):
    """Base class for all domain errors raised by this package."""


class RankDeficient(SparsenseError):
    """Selected column subset is numerically rank deficient."""


class InfeasibleParams(SparsenseError):
    """A bound was evaluated outside its domain; the message names the violated precondition."""


class InfeasibleTarget(SparsenseError):
    """Requested probability target exceeds the achievable ceiling."""

    def __init__(self, target: float, ceiling: float):
        self.target = target
        self.ceiling = ceiling
        super().__init__(
            f"target probability {target} is not below the achievable ceiling {ceiling}"
        )


class ZeroSignal(SparsenseError):
    """Cannot calibrate noise to a finite SNR for an all-zero signal."""


class InvalidParams(SparsenseError):
    """Algorithm parameters violate their invariants."""


class MatrixFormatError(SparsenseError):
    """Matrix file is malformed; the message names the offending byte offset."""


class ConfigError(SparsenseError):
    """Experiment configuration file or overrides are invalid."""


def read_text(path, error: type[SparsenseError]) -> str:
    """The text of an input file; one that does not decode as text raises ``error``."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not text: {exc}") from None
