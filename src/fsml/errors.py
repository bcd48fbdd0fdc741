"""Shared exception types."""


class FsmlError(Exception):
    """Base class for all package errors."""


class ContractError(FsmlError):
    """A caller violated a documented precondition."""


def require_counts(minimum=1, **counts):
    """Reject each count below ``minimum``.  The message starts with the
    count's name, so a config reader files it under that key."""
    for name, value in counts.items():
        if value < minimum:
            raise ContractError(f"{name}: must be an integer >= {minimum}")


class ShapeError(ContractError):
    """Operand shapes do not conform; message names both shapes."""


class SequenceLengthError(ContractError):
    """A token/observation sequence exceeds the configured maximum length."""


class DomainError(FsmlError):
    """Numeric input outside the mathematical domain of an operation."""


class DegenerateInputError(FsmlError):
    """Input is structurally valid but degenerate (e.g. empty after filtering)."""


class ParseError(FsmlError):
    """A record could not be decoded; message carries the line number."""


class ValidationError(FsmlError):
    """Dataset invariant breaches; carries every breach found."""

    def __init__(self, breaches):
        self.breaches = list(breaches)
        super().__init__("; ".join(self.breaches))


class EpisodeError(FsmlError):
    """Episode construction is unsatisfiable for the given corpus/config."""


class DivergedError(FsmlError):
    """Training produced a non-finite loss; carries the step index."""

    def __init__(self, message, step=None):
        self.step = step
        super().__init__(message if step is None else f"{message} (step {step})")
