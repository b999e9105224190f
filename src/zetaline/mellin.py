"""The Mellin integral chain for Gamma(s) zeta(s), each link verifiable.

For Re s > 1, expanding 1/(e^t - 1) = sum_n e^{-nt} and integrating
termwise gives the first identity; integrating by parts and then applying
e^t/(e^t - 1)^2 = 1/(4 sinh^2(t/2)) gives the other two:

    Gamma(s) zeta(s) = Integral_0..inf t^{s-1} / (e^t - 1) dt
                     = (1/s)   Integral_0..inf e^t t^s / (e^t - 1)^2 dt
                     = (1/4s)  Integral_0..inf t^s / sinh^2(t/2) dt.

Each integral is evaluated independently here and compared against
Gamma(s) zeta(s) built from log_gamma and the Euler-Maclaurin zeta, which
share no code with the quadrature path.

The last integral, J(s) = 4s Gamma(s) zeta(s), is also the axis form of E
at 1 - s, i.e. the functional equation (contour.entire_e_axis), and
_sinh_sq_integral evaluates J for both.

All three integrands behave like t^{Re s - 2} at the origin, so the guard
Re s > 1.05 keeps the Mellin substitution's left tail affordable.  Above
t = 1 the kernels are rewritten in e^{-t} so nothing overflows; below, the
factorizations (t/expm1(t))^2 e^t and ((t/2)/sinh(t/2))^2 stay finite
however deep the origin tail is cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complex_core import cpow_principal, gamma, sinhc_half
from .errors import DomainError, finite_s
from .oracle import zeta_euler_maclaurin
from .quadrature import EvalResult, integrate_mellin

__all__ = [
    "MellinReport",
    "bose_integral",
    "exp_sq_integral",
    "sinh_integral",
    "mellin_check",
]

_RE_MIN = 1.05  # origin exponent Re s - 2 must stay above -1 with margin
PASS_REAL = 1e-9      # selftest criterion 5's bounds on max_abs_deviation
PASS_COMPLEX = 1e-8


@dataclass(frozen=True)
class MellinReport:
    s: complex
    bose: complex
    exp_sq: complex
    sinh_form: complex
    reference: complex       # Gamma(s) zeta(s), oracle path
    max_abs_deviation: float
    extended: bool = False   # True when Im s != 0 (continuation beyond real s > 1)

    @property
    def passes(self) -> bool:
        """max_abs_deviation is below PASS_COMPLEX if extended, else PASS_REAL."""
        return self.max_abs_deviation < (PASS_COMPLEX if self.extended else PASS_REAL)


def _require_domain(s: complex, name: str) -> complex:
    s = finite_s(s)
    if not s.real > _RE_MIN:
        raise DomainError(f"{name} needs Re s > {_RE_MIN}, got Re s = {s.real}")
    return s


def bose_integral(s: complex, tol: float = 1e-12) -> complex:
    """Integral of t^{s-1}/(e^t - 1) over (0, inf); equals Gamma(s) zeta(s)."""
    s = _require_domain(s, "bose_integral")
    w = s - 1.0

    def f(t: float) -> complex:
        if t >= 1.0:
            return cpow_principal(t, w) * (math.exp(-t) / -math.expm1(-t))
        return cpow_principal(t, w) / math.expm1(t)

    # 1/(e^t - 1) <= e^{-t}/(1 - e^{-1}) for t >= 1
    return integrate_mellin(f, s - 2.0, tol, growth=s.real - 1.0, bound_const=1.6).value


def exp_sq_integral(s: complex, tol: float = 1e-12) -> complex:
    """(1/s) Integral of e^t t^s/(e^t - 1)^2 over (0, inf); equals Gamma(s) zeta(s)."""
    s = _require_domain(s, "exp_sq_integral")
    w = s - 2.0

    def f(t: float) -> complex:
        if t >= 1.0:
            em = -math.expm1(-t)  # 1 - e^{-t}
            return cpow_principal(t, s) * (math.exp(-t) / (em * em))
        r = t / math.expm1(t)  # -> 1 at the origin; no underflowing t^2
        return cpow_principal(t, w) * (r * r * math.exp(t))

    # e^t/(e^t - 1)^2 <= e^{-t}/(1 - e^{-1})^2 for t >= 1
    return integrate_mellin(f, w, tol, growth=s.real, bound_const=2.6).value / s


def _sinh_sq_integral(sigma: complex, tol: float) -> EvalResult:
    """J(sigma) = Integral of t^sigma/sinh^2(t/2) over (0, inf), for sinh_integral
    and the axis form; the callers guard Re sigma against _RE_MIN."""
    w = sigma - 2.0

    def f(t: float) -> complex:
        sc = sinhc_half(t)
        return cpow_principal(t, w) * (4.0 / (sc * sc))

    # t^sigma/sinh^2(t/2) ~ 4 t^{sigma-2} at 0, <= 4 e^{-t}/(1 - e^{-1})^2 t^sigma at t >= 1
    return integrate_mellin(f, w, tol, growth=sigma.real, origin_coeff=4.0, bound_const=10.5)


def sinh_integral(s: complex, tol: float = 1e-12) -> complex:
    """(1/4s) Integral of t^s/sinh^2(t/2) over (0, inf); equals Gamma(s) zeta(s)."""
    s = _require_domain(s, "sinh_integral")
    return _sinh_sq_integral(s, tol).value / (4.0 * s)


def mellin_check(s: complex, tol: float = 1e-12) -> MellinReport:
    """Evaluate all three integrals and compare each against Gamma(s) zeta(s)."""
    s = _require_domain(s, "mellin_check")
    bose = bose_integral(s, tol)
    exp_sq = exp_sq_integral(s, tol)
    sinh_form = sinh_integral(s, tol)
    reference = gamma(s) * zeta_euler_maclaurin(s)[0]
    deviation = max(
        abs(bose - reference), abs(exp_sq - reference), abs(sinh_form - reference)
    )
    return MellinReport(
        s=s,
        bose=bose,
        exp_sq=exp_sq,
        sinh_form=sinh_form,
        reference=reference,
        max_abs_deviation=deviation,
        extended=s.imag != 0.0,
    )
