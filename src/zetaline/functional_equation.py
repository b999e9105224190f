"""Reflection identity zeta(s) = chi(s) zeta(1-s) and its multiplier.

The multiplier has two algebraically equal expressions:

    sine form     chi(s) = 2 (2 pi)^{s-1} sin(pi s/2) Gamma(1-s)
    cosine form   chi(s) = (2 pi)^s / (2 Gamma(s) cos(pi s/2))

The second follows from the first by Euler's reflection formula
Gamma(s) Gamma(1-s) = pi / sin(pi s) and the double angle
sin(pi s) = 2 sin(pi s/2) cos(pi s/2):

    2 (2 pi)^{s-1} sin(pi s/2) Gamma(1-s)
        = 2 (2 pi)^{s-1} sin(pi s/2) pi / (Gamma(s) sin(pi s))
        = (2 pi)^{s-1} pi / (Gamma(s) cos(pi s/2))
        = (2 pi)^s / (2 Gamma(s) cos(pi s/2)).

Each form is 0*inf or 1/(0*inf) somewhere the other is perfectly tame: the
sine form degenerates at the positive even integers (zero of sin against a
pole of Gamma(1-s), the removable case, e.g. chi(2) = -2 pi^2), the cosine
form at the nonpositive even integers.  chi() therefore picks whichever
form sits farther from its own degenerate set.  At the odd integers
s = 1, 3, 5, ... nothing can help: chi(s) = zeta(s)/zeta(1-s) lands on a
zero of zeta(1-s) (or the pole of zeta at s = 1), so the multiplier itself
has genuine poles there and chi() refuses.  feq_check() still verifies the
identity arbitrarily close to those points by checking it in the reflected
arrangement zeta(1-s) = chi(1-s) zeta(s), whose multiplier is regular (in
fact zero) at 1-s = -2, -4, ...
"""

from __future__ import annotations

import math

from .complex_core import cos_pi_z, cpow_principal, gamma, sin_pi_z
from .contour import zeta
from .errors import DomainError, PoleError, finite_s
from .record import Record

__all__ = [
    "FeqReport",
    "chi",
    "feq_check",
]

_TWO_PI = 2.0 * math.pi
_POLE_GUARD = 1e-6   # chi's guard around its poles at the positive odd integers
_CHECK_GUARD = 1e-3  # feq_check guard disks at s = 0 and s = 1
PASS_REL = 1e-8      # bound on rel_residual: the CLI's feq and selftest criterion 4


class FeqReport(Record):
    """rel_residual is abs_residual / (1 + |lhs|); form is "sine" or "cosine";
    direction is "reflected" when checked as zeta(1-s) = chi(1-s) zeta(s)."""

    __slots__ = ()

    def __new__(cls, s: complex, lhs: complex, rhs: complex, abs_residual: float,
                rel_residual: float, form: str, direction: str = "direct") -> FeqReport:
        return tuple.__new__(cls, (s, lhs, rhs, abs_residual, rel_residual, form, direction))

    @property
    def passes(self) -> bool:
        """rel_residual is at most PASS_REL."""
        return self.rel_residual <= PASS_REL


def _dist_even_positive(s: complex) -> float:
    """Distance from s to {2, 4, 6, ...}."""
    n = 2.0 * max(1.0, round(0.5 * s.real))
    return abs(s - n)


def _dist_odd(s: complex) -> float:
    """Distance from s to the odd integers (either sign)."""
    n = 2.0 * round(0.5 * (s.real - 1.0)) + 1.0
    return abs(s - n)


def select_form(s: complex) -> str:
    """Multiplier form evaluable at s: the one farther from its degenerate set."""
    s = finite_s(s)
    return "sine" if _dist_even_positive(s) > _dist_odd(s) else "cosine"


def _chi_sine(s: complex) -> complex:
    """chi(s) in the sine form."""
    return 2.0 * cpow_principal(_TWO_PI, s - 1.0) * sin_pi_z(0.5 * s) * gamma(1.0 - s)


def _chi_cosine(s: complex) -> complex:
    """chi(s) in the cosine form."""
    return cpow_principal(_TWO_PI, s) / (2.0 * gamma(s) * cos_pi_z(0.5 * s))


def chi(s: complex) -> complex:
    """The multiplier chi(s) with zeta(s) = chi(s) zeta(1-s), in the form
    select_form picks; PoleError at the positive odd integers.

    OverflowError where a factor leaves double range, though chi itself
    may not: sin(pi s/2) or cos(pi s/2) past |Im s| ~ 452.3, and Gamma far
    right, where its argument (s in the cosine form, 1 - s in the sine
    form) has real part past ~171.6.
    """
    s = finite_s(s)
    d_odd = _dist_odd(s)
    if d_odd < _POLE_GUARD and s.real > 0.0:
        # zeta(1-s) = 0 (or s = 1): a genuine pole of the multiplier itself
        raise PoleError(f"chi has a pole at the positive odd integers; |s - odd| = {d_odd:.2e}")
    return _chi_sine(s) if select_form(s) == "sine" else _chi_cosine(s)


def feq_check(s: complex, tol: float = 1e-12) -> FeqReport:
    """Verify zeta(s) = chi(s) zeta(1-s) with both sides from the line
    contour at tolerance tol, chi in the form select_form picks.

    Within 1e-3 of an odd integer >= 3 the multiplier has a genuine pole, so
    the identity is checked in the equivalent reflected arrangement
    zeta(1-s) = chi(1-s) zeta(s) (multiplier regular there); the report
    carries direction="reflected" and keeps the requested s.
    """
    s = finite_s(s)
    if abs(s) < _CHECK_GUARD or abs(s - 1.0) < _CHECK_GUARD:
        raise DomainError(
            f"feq_check excludes guard disks of radius {_CHECK_GUARD} around "
            f"s = 0 (0 * inf on the rhs) and s = 1 (pole on both sides)"
        )
    reflected = _dist_odd(s) < _CHECK_GUARD and s.real > 2.0
    base = 1.0 - s if reflected else s
    form = select_form(base)
    lhs = zeta(base, tol).value
    rhs = chi(base) * zeta(1.0 - base, tol).value
    abs_residual = abs(lhs - rhs)
    return FeqReport(
        s=s,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_residual,
        rel_residual=abs_residual / (1.0 + abs(lhs)),
        form=form,
        direction="reflected" if reflected else "direct",
    )
