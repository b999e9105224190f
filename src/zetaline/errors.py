"""Exception types shared across the package.

Everything numerical raises out of this hierarchy so callers (and the CLI)
can map failures onto a small set of outcomes: bad input, a genuine pole,
or a quadrature that could not certify its tolerance.  finite_s is the one
check that every entry point taking s makes first; check_box owns the box.
"""

from __future__ import annotations

import cmath

__all__ = [
    "ZetalineError",
    "DomainError",
    "ContractViolation",
    "PoleError",
    "PoleAtOne",
    "NonFiniteIntegrand",
    "TruncationFailure",
]


class ZetalineError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ZetalineError, ValueError):
    """Input lies outside an operation's documented domain."""


class ContractViolation(DomainError):
    """Input is inside the mathematical domain but outside the supported box."""


class PoleError(DomainError):
    """Evaluation was requested at (or too close to) a pole of the function."""


class PoleAtOne(PoleError):
    """zeta(s) requested inside the guard disk around the pole at s = 1."""


class NonFiniteIntegrand(ZetalineError):
    """An integrand returned NaN or infinity at a quadrature node."""


class TruncationFailure(ZetalineError):
    """No admissible truncation point satisfies the tail bound."""


def finite_s(s: complex) -> complex:
    """complex(s), or DomainError unless both its parts are finite."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    return s


IM_BOX = 60.0  # the box |Im s| <= 60 that the committed references cover


def check_box(s: complex, what: str) -> None:
    """ContractViolation unless |Im s| <= IM_BOX (a NaN Im s fails too)."""
    if not abs(s.imag) <= IM_BOX:
        raise ContractViolation(f"{what} contract box is |Im s| <= {IM_BOX}, got {s.imag}")
