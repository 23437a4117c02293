"""Exception types shared across the package.

Every failure mode that a caller might want to catch gets its own class;
all of them derive from QfoxError so CLI code can catch one thing.
"""

from __future__ import annotations


class QfoxError(Exception):
    """Base class for all errors raised by this package."""


class PdSyntaxError(QfoxError):
    """Malformed PD-code text.  Carries the offset where parsing failed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class DiagramError(QfoxError):
    """A PD code that parses but does not describe a valid oriented diagram."""


class RegistryError(QfoxError):
    """Unknown diagram name, or a registry file that cannot be read."""


class InexactDivisionError(QfoxError):
    """Polynomial division left a non-zero remainder.  Carries the remainder."""

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NormalizationError(QfoxError):
    """A determinant that cannot be normalized to a reduced polynomial.

    Raised when the palindromy / parity checks fail, which almost always
    signals a wrongly computed minor rather than bad input.
    """


class ColoringError(QfoxError):
    """Invalid quandle parameters, non-prime modulus where one is required,
    or a coloring request that cannot be satisfied."""


class CompositeValueError(QfoxError):
    """An evaluation that must be an odd prime is not.  Carries the value
    and the witness factor, or None when the factor search gave up."""

    def __init__(self, value: int, factor: int | None = None):
        msg = f"{value} is not an odd prime"
        if factor is not None:
            msg += f" ({value} = {factor} * {value // factor})"
        else:
            msg += " (no factor found within the rho budget)"
        super().__init__(msg)
        self.value = value
        self.factor = factor


class BoundsError(QfoxError):
    """A bound request whose hypotheses are not met."""
