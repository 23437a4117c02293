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


def _decimal(n: int) -> str:
    """n in decimal, or its number of digits past Python's limit on
    int-to-str conversion (4300 digits by default)."""
    try:
        return str(n)
    except ValueError:
        n = abs(n)
        k = int(n.bit_length() * 0.30103)
        while 10**k <= n:
            k += 1
        while k > 1 and 10 ** (k - 1) > n:
            k -= 1
        return f"a {k}-digit integer"


class CompositeValueError(QfoxError):
    """An evaluation that must be an odd prime is not.  Carries the value
    and the witness factor, or None when the factor search gave up."""

    def __init__(self, value: int, factor: int | None = None):
        shown = _decimal(value)
        msg = f"{shown} is not an odd prime"
        if factor is not None:
            msg += f" ({shown} = {_decimal(factor)} * {_decimal(value // factor)})"
        else:
            msg += " (no factor found within the rho budget)"
        super().__init__(msg)
        self.value = value
        self.factor = factor


class BoundsError(QfoxError):
    """A bound request whose hypotheses are not met."""
