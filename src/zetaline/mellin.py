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
gamma(s) and the Euler-Maclaurin zeta; the heads below use gamma at s + 1,
whose rounding err_est covers, and nothing else of the reference path.

J is also the axis form of E at 1 - s, i.e. the functional equation
(contour.entire_e_axis), and _sinh_sq_integral evaluates J for both.

Each integral is t^{s-2} kernel(t) (t^{sigma-2} for J) with a real kernel,
t/(e^t - 1) = e^{-t} q or t^2/sinh^2(t/2) = 4 e^{-t} q^2, where
q = t/(1 - e^{-t}) = sum d_j t^j, d_j = B_j^+/j! (d_3 = d_5 = ... = 0).
As Riemann continued Gamma(s) zeta(s) (Titchmarsh, The Theory of the
Riemann Zeta-Function, ch. II), the code subtracts the kernel's expansion
at the origin and integrates that part in closed form: the heads
e^{-t}(1 + t/2 + t^2/12) and 4 e^{-t}(1 + t + 5t^2/12 + t^3/12) integrate
term by term to Gamma functions (_head), and the remainders r(t),
O(t^4) at the origin, go to quadrature.integrate_mellin as
t^{s+2} r(t)/t^4, a level at a time in u = ln t.  The origin exponent
Re s + 2 > 3 cuts the left tail a few units below u = 0, where without the
heads the exponent Re s - 2 put it near ln(tol/10) / (Re s - 1), hundreds
of units out for Re s near 1; the guard Re s > 1.05 (_RE_MIN) now only
keeps s off the pole at 1 of the chain and of the heads' Gamma(s-1).
Every s reads the same values r(e^u)/e^{4u}, on a lattice of u fixed by
the step, from one quadrature.KernelTable per kernel.

With x = t/2 and C = x coth x, so that q = x + C, the alternating bounds
1 + x^2/3 - x^4/45 <= C <= 1 + x^2/3 - x^4/45 + 2x^6/945, C <= 1 + x^2/3
and C >= max(1, x) give, for every t > 0:

    bose:  r e^t = C - 1 - x^2/3, so 0 >= r >= -min(t^4/720, t^2/12) e^{-t};
    J:     r e^t / 4 = x^4/9 - 2 (1 + x + x^2/3) D + D^2, D = 1 + x^2/3 - C,
           which lies in [0, x^4/15] for t <= 1 and within 2x^3/3 for all
           t, so |r| <= t^4 e^{-t}/60 on (0, 1] and |r| <= t^3 e^{-t}/3.

So |r/t^4| is at most 1/720 (bose) and 1/60 (J) on (0, 1], and
|t^{s-2} r| is at most t^sigma e^{-t}/12 and t^{sigma+1} e^{-t}/3 beyond,
the origin and decay constants integrate_mellin cuts the tails by.

Each level is certified by the trapezoid rule's strip bound (Trefethen &
Weideman, SIAM Rev. 56 (2014), Thm 5.1).  In u the kernels' poles, at
t = 2 pi i k, lie at u = ln(2 pi k) +- i pi/2, and on |Im w| <= d < pi/2
|e^{e^w} - 1| >= e^{Re e^w} - 1 and |sinh(e^w/2)|^2 >= sinh^2(Re e^w/2),
with Re e^w >= e^{Re w} cos d.  Substituting t = e^{Re w} cos d bounds the
integral of the kernel part's modulus along Im w = b, |b| <= d, in closed
form, for s = sigma + i tau:

    bose:  e^{|tau| d} cos(d)^{-sigma} Gamma(sigma) zeta(sigma),
    J:     4 e^{|tau| d} cos(d)^{-(sigma+1)} Gamma(sigma+1) zeta(sigma),

with zeta(sigma) <= 1 + 1/(sigma - 1), and each head term a_j e^{-t} t^j
adds exactly |a_j| e^{|tau| d} Gamma(sigma-1+j) cos(d)^{-(sigma-1+j)}, so
M(d) for the remainder is that short sum (_log_ms).  The bound
B(h) = 2M(d) / (e^{2 pi d/h} - 1) is taken at the one strip d = 1
(_STRIP).  err_est adds the head's rounding and the remainder kernels'
cancellation to the quadrature's (_remainder).

Each quantity of a check is formed once.  A head's Gamma and the bound on
its rounding come from one Lanczos sum (complex_core._lanczos); one
pass over the strip terms gives M(0), which sizes the cancellation, and
M(d); the s-free part of B(h), 2 pi d/h and log(1 - e^{-2 pi d/h}), is
formed once per step in the process, on first use (_strip_factors).
Each is the same floating-point operations in the same order as when it
was formed where it is used, so every value and err_est keeps its bits.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from functools import lru_cache

from .complex_core import _lanczos, gamma
from .errors import DomainError, TruncationFailure, finite_s
from .oracle import zeta_euler_maclaurin
from .quadrature import TOL_MIN, EvalResult, KernelTable, check_tol, integrate_mellin
from .record import Record

__all__ = [
    "MellinReport",
    "bose_integral",
    "exp_sq_integral",
    "sinh_integral",
    "mellin_check",
]

_RE_MIN = 1.05  # the chain converges for Re s > 1; a margin off the pole at 1
PASS_REAL = 1e-9      # selftest criterion 5's bounds on max_abs_deviation
PASS_COMPLEX = 1e-8
_EPS = math.ulp(1.0)
_STRIP = 1.0         # half-width d of the strip |Im u| < d of the trapezoid bound:
                     # the kernels' poles lie at |Im u| = pi/2
_LOG_COS_STRIP = math.log(math.cos(_STRIP))


class MellinReport(Record):
    """reference is Gamma(s) zeta(s) on the oracle path; extended is True when
    Im s != 0 (continuation beyond real s > 1)."""

    __slots__ = ()

    def __new__(cls, s: complex, bose: complex, exp_sq: complex, sinh_form: complex,
                reference: complex, max_abs_deviation: float,
                extended: bool = False) -> MellinReport:
        return tuple.__new__(cls, (s, bose, exp_sq, sinh_form, reference,
                                   max_abs_deviation, extended))

    @property
    def passes(self) -> bool:
        """max_abs_deviation is below PASS_COMPLEX if extended, else PASS_REAL."""
        return self.max_abs_deviation < (PASS_COMPLEX if self.extended else PASS_REAL)


def _require_domain(s: complex, name: str) -> complex:
    s = finite_s(s)
    if not s.real > _RE_MIN:
        raise DomainError(f"{name} needs Re s > {_RE_MIN}, got Re s = {s.real}")
    return s


# d_j = B_j^+ / j!, the Taylor coefficients of t/(1 - e^{-t}) = sum d_j t^j
# (B_1^+ = +1/2), correctly rounded: bose's remainder kernel below t = 1/2 is
# e^{-t} sum d_{4+2k} t^{2k}, k = 0 .. 8 (d_j vanishes at odd j >= 3)
_BOSE_SERIES = (
    -0.001388888888888889, 3.306878306878307e-05, -8.267195767195768e-07,
    2.08767569878681e-08, -5.284190138687493e-10, 1.3382536530684679e-11,
    -3.3896802963225827e-13, 8.586062056277845e-15, -2.174868698558062e-16,
)
# c_j, the coefficients of (sum d_j t^j)^2 = 1 + t + 5t^2/12 + t^3/12 + ...,
# j = 4 .. 21: J's remainder kernel below t = 1/2 is 4 e^{-t} sum c_j t^{j-4}
_SINH_SERIES = (
    0.004166666666666667, -0.001388888888888889, -0.00016534391534391533,
    3.306878306878307e-05, 5.787037037037037e-06, -8.267195767195768e-07,
    -1.8789081289081288e-07, 2.08767569878681e-08, 5.812609152556243e-09,
    -5.284190138687493e-10, -1.7397297489890083e-10, 1.3382536530684679e-11,
    5.084520444483875e-12, -3.3896802963225827e-13, -1.4596305495672335e-13,
    8.586062056277845e-15, 4.1322505272603176e-15, -2.174868698558062e-16,
)
_SERIES_BELOW = 0.5  # the remainder kernels sum their series below this t
# the head coefficients: bose's d_0 .. d_2, J's 4 c_0 .. 4 c_3
_BOSE_HEAD = (1.0, 0.5, 1.0 / 12.0)
_SINH_HEAD = (4.0, 4.0, 5.0 / 3.0, 1.0 / 3.0)
# the rounding of the remainder kernels' direct branch, in eps, against the
# sizes of the two parts it subtracts (_bose_rem, _sinh_rem)
_BOSE_CANCEL = 6.0
_SINH_CANCEL = 8.0


def _bose_rem(t: float) -> float:
    """(t/(e^t - 1) - e^{-t}(1 + t/2 + t^2/12)) / t^4, the bose kernel less
    its head: below t = 1/2 its series, from there on the subtraction
    e^{-t}(q - (1 + t/2 + t^2/12)) / t^4, q = t/(1 - e^{-t}), one exp a node.

    Rounding, in u = eps/2: q carries 3.6u (e^{-t} <= 0.61 makes 1 - e^{-t}
    lose at most 1.6u), the polynomial 4u, the difference u, and t^4, the
    quotient and e^{-t} 6u of the result, so the direct branch is off by at
    most 11u (q + 1 + t/2 + t^2/12) e^{-t} / t^4, _BOSE_CANCEL eps times the
    sizes of the kernel and the head.  The series, whose terms left out
    come to below 1e-18 of its value, is off by a few ulps of a value
    below 1/720."""
    e = math.exp(-t)
    if t < _SERIES_BELOW:
        x = t * t
        acc = 0.0
        for c in reversed(_BOSE_SERIES):
            acc = acc * x + c
        return e * acc
    return e * ((t / (1.0 - e) - (1.0 + t * (0.5 + t / 12.0))) / (t * t * t * t))


def _sinh_rem(t: float) -> float:
    """(t^2/sinh^2(t/2) - 4 e^{-t}(1 + t + 5t^2/12 + t^3/12)) / t^4, J's
    kernel less its head, with t^2/sinh^2(t/2) = 4 e^{-t} q^2 and q as in
    _bose_rem.  q^2 carries 8.2u, the polynomial 7u, and the rest as for
    bose, so the direct branch is off by at most 15.2u (q^2 + 1 + t + ...)
    times 4 e^{-t} / t^4: _SINH_CANCEL eps of the kernel's and the head's
    sizes."""
    e = math.exp(-t)
    if t < _SERIES_BELOW:
        acc = 0.0
        for c in reversed(_SINH_SERIES):
            acc = acc * t + c
        return 4.0 * e * acc
    q = t / (1.0 - e)
    return 4.0 * e * ((q * q - (1.0 + t * (1.0 + t * (5.0 / 12.0 + t / 12.0))))
                      / (t * t * t * t))


_BOSE_TABLE = KernelTable(lambda u: _bose_rem(math.exp(u)))
_SINH_TABLE = KernelTable(lambda u: _sinh_rem(math.exp(u)))


def _log_ms(sigma: float, tau: float, shift: float, log_c: float,
            head: tuple[float, ...]) -> tuple[float, float]:
    """(log M(0), log M(d)), d = _STRIP, for a remainder g(w) = e^{(sigma-1+i tau) w}
    (kernel(e^w) - e^{-e^w} sum_j a_j e^{jw}), from one pass over its terms:

        M(d) = e^{|tau| d} sum_i e^{log_m_i} / cos(d)^{power_i},

    summed in log space so that no term overflows, over the kernel's own
    term, whose M(d) is e^{log_c} e^{|tau| d} cos(d)^{-(sigma+shift)}
    Gamma(sigma+shift) zeta(sigma) with zeta(sigma) <= sigma/(sigma-1) (see
    the module), and, for each head term, (log |a_j| + log Gamma(sigma-1+j),
    sigma-1+j), since along Im w = b, |b| < pi/2, the integral over u of
    |e^{(s-1)w} e^{-e^w} e^{jw}| is e^{-tau b} Gamma(sigma-1+j) /
    cos(b)^{sigma-1+j} exactly.  At d = 0 every cos(d)^{power_i} is 1, so
    each term enters M(0) as log_m_i."""
    log_kernel_m = log_c + (math.lgamma(sigma + shift) + math.log(sigma / (sigma - 1.0)))
    at_0 = [log_kernel_m]
    at_d = [log_kernel_m - (sigma + shift) * _LOG_COS_STRIP]
    for j, a in enumerate(head):
        power = sigma - 1.0 + j
        log_m = math.log(a) + math.lgamma(power)
        at_0.append(log_m)
        at_d.append(log_m - power * _LOG_COS_STRIP)
    exp, top_0, top_d = math.exp, max(at_0), max(at_d)
    return (top_0 + math.log(math.fsum([exp(x - top_0) for x in at_0])),
            abs(tau) * _STRIP + top_d + math.log(math.fsum([exp(x - top_d) for x in at_d])))


def _exp(x: float) -> float:
    """e^x, inf past double range: a bound that certifies nothing."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@lru_cache(maxsize=None)
def _strip_factors(h: float) -> tuple[float, float]:
    """x = 2 pi d/h and log(1 - e^{-x}), d = _STRIP: log(e^x - 1) is their sum."""
    x = 2.0 * math.pi * _STRIP / h
    return x, math.log(-math.expm1(-x))


def _strip_bound(log_m: float) -> Callable[[float], float]:
    """The trapezoid bound B(h) = 2 M(d) / (e^{2 pi d/h} - 1) with d = _STRIP,
    log_m = log M(d) (_log_ms), M(d) bounding the integral of |g(u + ib)|
    over u for every |b| <= d (Trefethen & Weideman, SIAM Rev. 56 (2014),
    Thm 5.1); inf where it leaves double range, as far left on the axis
    form at coarse h.  The denominator's factors come from _strip_factors."""
    log_2m = math.log(2.0) + log_m

    def bound(h: float) -> float:
        x, log_q = _strip_factors(h)
        return _exp(log_2m - x - log_q)

    return bound


def _remainder(table: KernelTable, s: complex, tol: float, head: complex, head_err: float,
               log_ms: tuple[float, float], cancel: float, **kwargs) -> EvalResult:
    """head plus the integral of t^{s+2} k(t) over (0, inf), table holding
    the values k(e^u) of _bose_rem or _sinh_rem.

    err_est adds to the quadrature's the head's rounding head_err, the
    final sum's u (|head| + |integral|), and the rounding of the kernel's
    direct branch: at most cancel eps times the sizes of the kernel part
    and the head part at each node, whose integrals against |t^{s-2}| make
    up M(0), the d = 0 value of the strip bound's M (log_ms holds log M(0)
    and log M(d), _log_ms); h times the nodes' sum exceeds that integral by
    at most the level's B(h), whose cancel eps share is negligible.  None
    of these is a trapezoid error, so
    none goes into the bound the levels are judged by: the quadrature runs
    at the tol that leaves them room in the budget 1.2 tol, but never below
    the kernel's rounding, which would only reach the round-off floor, and
    `converged` is err_est <= 1.2 tol.  TruncationFailure where M(0) leaves
    double range, as on J from Re s = 169.82 on.
    """
    check_tol(tol)  # before the floor below can hide a bad value
    log_m0, log_md = log_ms
    rounding = cancel * _EPS * _exp(log_m0)
    if rounding == math.inf:
        raise TruncationFailure(
            f"the kernel's M(0) at Re s = {s.real} overflows double range")
    extra = head_err + rounding
    quad_tol = max(TOL_MIN, tol - extra / 1.2, rounding)
    base = integrate_mellin(table, s + 2.0, quad_tol, bound=_strip_bound(log_md), **kwargs)
    value = head + base.value
    err = base.err_est + extra + 0.5 * _EPS * (abs(head) + abs(base.value))
    return EvalResult(value, err, base.n_evals, err <= 1.2 * tol, base.truncation_height)


def _head(z: complex, den: complex) -> tuple[complex, float]:
    """A head Gamma(z+1)(z+2)(z+3) / den, from Gamma(z+1) so that the
    Lanczos sum stays off log_gamma's reflection branch, and a bound on its
    rounding: Gamma's own relative err (complex_core._lanczos) and that of
    the factors, at most eight roundings of u per real part, sqrt(5) u per
    complex product and 8u for the quotient, 20u = 10 eps in all.
    TruncationFailure where Gamma(z+1) leaves double range, as far left on
    the axis form, where the integral does too."""
    try:
        log_g, err = _lanczos(z + 1.0)
        g = cmath.exp(log_g)
    except OverflowError:
        raise TruncationFailure(
            f"Gamma({z + 1.0}) in the integral's head overflows double range") from None
    head = g * ((z + 2.0) * (z + 3.0)) / den
    return head, abs(head) * (err + 10.0 * _EPS)


def _bose(s: complex, tol: float) -> EvalResult:
    """Integral of t^{s-1}/(e^t - 1) over (0, inf), for bose_integral: the
    head plus the remainder, O(t^4) at the origin, run as t^{s+2} _bose_rem(t)."""
    # the integral of t^{s-2} e^{-t}(1 + t/2 + t^2/12) is
    # Gamma(s-1)(1 + (s-1)/2 + (s-1)s/12) = Gamma(s+1)(s+2)(s+3) / (12 s (s-1))
    head, head_err = _head(s, 12.0 * (s * (s - 1.0)))
    # with w = u + ib, |b| <= d: |e^{e^w} - 1| >= e^{e^u cos d} - 1, so the
    # kernel's M(d) = e^{|Im s| d} cos(d)^{-Re s} Gamma(Re s) zeta(Re s)
    log_ms = _log_ms(s.real, s.imag, 0.0, 0.0, _BOSE_HEAD)
    # |remainder| <= t^4/720 and <= t^2 e^{-t}/12 (see the module)
    return _remainder(_BOSE_TABLE, s, tol, head, head_err, log_ms, _BOSE_CANCEL,
                      growth=s.real, origin_coeff=1.0 / 720.0, bound_const=1.0 / 12.0)


def bose_integral(s: complex, tol: float = 1e-12) -> complex:
    """Integral of t^{s-1}/(e^t - 1) over (0, inf); equals Gamma(s) zeta(s)."""
    return _bose(_require_domain(s, "bose_integral"), tol).value


def exp_sq_integral(s: complex, tol: float = 1e-12) -> complex:
    """(1/s) Integral of e^t t^s/(e^t - 1)^2 over (0, inf); equals Gamma(s) zeta(s).
    The integrand is t^s/(4 sinh^2(t/2)), so this is sinh_integral(s, tol)."""
    s = _require_domain(s, "exp_sq_integral")
    return _sinh_sq_integral(s, tol).value / (4.0 * s)


def _sinh_sq_integral(sigma: complex, tol: float) -> EvalResult:
    """J(sigma) = Integral of t^sigma/sinh^2(t/2) over (0, inf), for the two
    integrals that equal J(s)/4s and the axis form, as the head plus the
    remainder, run as t^{sigma+2} _sinh_rem(t); the callers guard Re sigma
    against _RE_MIN."""
    # the integral of t^{sigma-2} 4 e^{-t}(1 + t + 5t^2/12 + t^3/12) is
    # 4 Gamma(sigma-1)(1 + (sigma-1) + 5(sigma-1)sigma/12 + (sigma-1)sigma(sigma+1)/12)
    # = Gamma(sigma+1)(sigma+2)(sigma+3) / (3 (sigma-1))
    head, head_err = _head(sigma, 3.0 * (sigma - 1.0))
    # |sinh(w/2)|^2 >= sinh^2(Re w/2), so the kernel's M(d) = 4 e^{|Im s| d}
    # cos(d)^{-(Re s+1)} Gamma(Re s+1) zeta(Re s)
    log_ms = _log_ms(sigma.real, sigma.imag, 1.0, math.log(4.0), _SINH_HEAD)
    # |remainder| <= t^4/60 and <= t^3 e^{-t}/3 (see the module)
    return _remainder(_SINH_TABLE, sigma, tol, head, head_err, log_ms, _SINH_CANCEL,
                      growth=sigma.real + 1.0, origin_coeff=1.0 / 60.0, bound_const=1.0 / 3.0)


def sinh_integral(s: complex, tol: float = 1e-12) -> complex:
    """(1/4s) Integral of t^s/sinh^2(t/2) over (0, inf); equals Gamma(s) zeta(s)."""
    s = _require_domain(s, "sinh_integral")
    return _sinh_sq_integral(s, tol).value / (4.0 * s)


def mellin_check(s: complex, tol: float = 1e-12) -> MellinReport:
    """Evaluate bose and J and compare each against Gamma(s) zeta(s); J
    fills both exp_sq and sinh_form, one integral (see the module).  The
    oracle comes first, so a point it refuses (|Im s| > 60) raises its
    ContractViolation before Gamma(s) or any integral runs."""
    s = _require_domain(s, "mellin_check")
    zeta_ref = zeta_euler_maclaurin(s)[0]
    reference = gamma(s) * zeta_ref
    bose = bose_integral(s, tol)
    sinh_form = sinh_integral(s, tol)
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
