"""Exception types shared across the package, and the integer check that raises one."""
import operator


class SdsbmError(Exception):
    """Base class for all package-specific errors."""


class ContractError(SdsbmError, ValueError):
    """A caller violated a documented precondition (bad shapes, ranges, config)."""


class IngestError(SdsbmError, ValueError):
    """An event file could not be turned into a dataset.

    Carries ``line_number`` when the failure is tied to a specific input line.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DegenerateParameterError(SdsbmError, RuntimeError):
    """An observed triplet received exactly zero probability mass.

    Carries the offending ``(node, label, epoch)`` triplet so callers can
    report which observation broke the E-step.
    """

    def __init__(self, node, label, epoch):
        super().__init__(
            f"observation (node={node}, label={label}, epoch={epoch}) has zero "
            f"mixture probability; parameters are degenerate"
        )
        self.triplet = (node, label, epoch)


def _integer(name, value, minimum):
    """``value`` as an int if it is an integer (numpy's too) >= ``minimum``; else ContractError."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ContractError(f"{name} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ContractError(f"{name} must be >= {minimum}, got {number}")
    return number
