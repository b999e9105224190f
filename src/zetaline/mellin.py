"""The Mellin integral chain for Gamma(s) zeta(s), each link verifiable.

For Re s > 1, expanding 1/(e^t - 1) = sum_n e^{-nt} and integrating
termwise gives the first identity; integrating by parts and then applying
e^t/(e^t - 1)^2 = 1/(4 sinh^2(t/2)) gives the other two:

    Gamma(s) zeta(s) = Integral_0..inf t^{s-1} / (e^t - 1) dt
                     = (1/s)   Integral_0..inf e^t t^s / (e^t - 1)^2 dt
                     = (1/4s)  Integral_0..inf t^s / sinh^2(t/2) dt.

The last two integrands are the same function, so one integral,
J(s) = Integral_0..inf t^s / sinh^2(t/2) dt = 4s Gamma(s) zeta(s), gives
both, and what the chain checks numerically is the integration by parts
between the first form and the second.  bose and J are evaluated
independently here and compared against Gamma(s) zeta(s) built from
log_gamma and the Euler-Maclaurin zeta, which share no code with the
quadrature path.

J is also the axis form of E at 1 - s, i.e. the functional equation
(contour.entire_e_axis), and _sinh_sq_integral evaluates J for both.

Each integral is t^{s-2} kernel(t) (t^{sigma-2} for J) with a real
kernel, t/(e^t - 1) or t^2/sinh^2(t/2), which quadrature.integrate_mellin
integrates a level at a time in u = ln t.  Both integrands behave like
t^{Re s - 2} at the origin, so the guard Re s > 1.05 keeps the Mellin
substitution's left tail affordable.  Above t = 1 the bose kernel is
rewritten in e^{-t} so nothing overflows; the factorization
((t/2)/sinh(t/2))^2 stays finite however deep the origin tail is cut.

Each level is certified by the trapezoid rule's strip bound (Trefethen &
Weideman, SIAM Rev. 56 (2014), Thm 5.1).  In u the kernels' poles, at
t = 2 pi i k, lie at u = ln(2 pi k) +- i pi/2, and on |Im w| <= d < pi/2
|e^{e^w} - 1| >= e^{Re e^w} - 1 and |sinh(e^w/2)|^2 >= sinh^2(Re e^w/2),
with Re e^w >= e^{Re w} cos d.  Substituting t = e^{Re w} cos d bounds the
integral of the integrand's modulus along Im w = b, |b| <= d, in closed
form, for s = sigma + i tau:

    bose:  M(d) = e^{|tau| d} cos(d)^{-sigma} Gamma(sigma) zeta(sigma),
    J:     M(d) = 4 e^{|tau| d} cos(d)^{-(sigma+1)} Gamma(sigma+1) zeta(sigma),

with zeta(sigma) <= 1 + 1/(sigma - 1).  The bound B(h) = 2M(d) /
(e^{2 pi d/h} - 1) is taken at the one strip d = 1 (_STRIP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .complex_core import gamma, sinhc_half
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
_STRIP = 1.0         # half-width d of the strip |Im u| < d of the trapezoid bound:
                     # the kernels' poles lie at |Im u| = pi/2


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


def _strip_bound(log_m0: float, power: float, tau: float) -> Callable[[float], float]:
    """The trapezoid bound B(h) = 2 M / (e^{2 pi d/h} - 1) with d = _STRIP, where
    M = e^{log_m0 + |tau| d} / cos(d)^power bounds the integral of |g(u + ib)|
    over u for every |b| <= d (Trefethen & Weideman, SIAM Rev. 56 (2014),
    Thm 5.1); in log space, so neither M nor e^{2 pi d/h} overflows."""
    log_2m = math.log(2.0) + log_m0 + abs(tau) * _STRIP - power * math.log(math.cos(_STRIP))

    def bound(h: float) -> float:
        x = 2.0 * math.pi * _STRIP / h  # log(e^x - 1) = x + log(1 - e^{-x})
        return math.exp(log_2m - x - math.log(-math.expm1(-x)))

    return bound


def _log_gamma_zeta_bound(sigma: float, shift: float) -> float:
    """log of Gamma(sigma + shift) (1 + 1/(sigma - 1)), which bounds
    Gamma(sigma + shift) zeta(sigma) for real sigma > 1."""
    return math.lgamma(sigma + shift) + math.log(sigma / (sigma - 1.0))


def _bose_kernel(t: float) -> float:
    """t / (e^t - 1), in e^{-t} from t = 1 on."""
    if t >= 1.0:
        return t * math.exp(-t) / -math.expm1(-t)
    return t / math.expm1(t)


def _sinh_kernel(t: float) -> float:
    """t^2 / sinh^2(t/2) = 4 / sinhc_half(t)^2."""
    sc = sinhc_half(t)
    return 4.0 / (sc * sc)


def _bose(s: complex, tol: float) -> EvalResult:
    """Integral of t^{s-1}/(e^t - 1) over (0, inf), for bose_integral."""
    # with w = u + ib, |b| <= d: |e^{e^w} - 1| >= e^{e^u cos d} - 1, so
    # M(d) = e^{|Im s| d} cos(d)^{-Re s} Gamma(Re s) zeta(Re s)
    bound = _strip_bound(_log_gamma_zeta_bound(s.real, 0.0), s.real, s.imag)
    # 1/(e^t - 1) <= e^{-t}/(1 - e^{-1}) for t >= 1
    return integrate_mellin(_bose_kernel, s - 2.0, tol, growth=s.real - 1.0, bound_const=1.6,
                            bound=bound)


def _exp_sq(s: complex, tol: float) -> EvalResult:
    """Integral of e^t t^s/(e^t - 1)^2 over (0, inf), for exp_sq_integral:
    the integrand is t^s/(4 sinh^2(t/2)), so this is J(s)/4, J run at tol."""
    j = _sinh_sq_integral(s, tol)
    return EvalResult(j.value / 4.0, j.err_est / 4.0, j.n_evals, j.converged,
                      j.truncation_height)


def bose_integral(s: complex, tol: float = 1e-12) -> complex:
    """Integral of t^{s-1}/(e^t - 1) over (0, inf); equals Gamma(s) zeta(s)."""
    return _bose(_require_domain(s, "bose_integral"), tol).value


def exp_sq_integral(s: complex, tol: float = 1e-12) -> complex:
    """(1/s) Integral of e^t t^s/(e^t - 1)^2 over (0, inf); equals Gamma(s) zeta(s).
    The integrand is t^s/(4 sinh^2(t/2)), so this is sinh_integral(s, tol)."""
    s = _require_domain(s, "exp_sq_integral")
    return _exp_sq(s, tol).value / s


def _sinh_sq_integral(sigma: complex, tol: float) -> EvalResult:
    """J(sigma) = Integral of t^sigma/sinh^2(t/2) over (0, inf), for sinh_integral
    and the axis form; the callers guard Re sigma against _RE_MIN."""
    # |sinh(w/2)|^2 >= sinh^2(Re w/2), so M(d) = 4 e^{|Im s| d} cos(d)^{-(Re s+1)}
    # Gamma(Re s+1) zeta(Re s)
    bound = _strip_bound(math.log(4.0) + _log_gamma_zeta_bound(sigma.real, 1.0),
                         sigma.real + 1.0, sigma.imag)
    # t^sigma/sinh^2(t/2) ~ 4 t^{sigma-2} at 0, <= 4 e^{-t}/(1 - e^{-1})^2 t^sigma at t >= 1
    return integrate_mellin(_sinh_kernel, sigma - 2.0, tol, growth=sigma.real, origin_coeff=4.0,
                            bound_const=10.5, bound=bound)


def sinh_integral(s: complex, tol: float = 1e-12) -> complex:
    """(1/4s) Integral of t^s/sinh^2(t/2) over (0, inf); equals Gamma(s) zeta(s)."""
    s = _require_domain(s, "sinh_integral")
    return _sinh_sq_integral(s, tol).value / (4.0 * s)


def mellin_check(s: complex, tol: float = 1e-12) -> MellinReport:
    """Evaluate bose and J and compare each against Gamma(s) zeta(s); J
    fills both exp_sq and sinh_form, one integral (see the module)."""
    s = _require_domain(s, "mellin_check")
    bose = bose_integral(s, tol)
    sinh_form = sinh_integral(s, tol)
    reference = gamma(s) * zeta_euler_maclaurin(s)[0]
    deviation = max(abs(bose - reference), abs(sinh_form - reference))
    return MellinReport(
        s=s,
        bose=bose,
        exp_sq=sinh_form,
        sinh_form=sinh_form,
        reference=reference,
        max_abs_deviation=deviation,
        extended=s.imag != 0.0,
    )
