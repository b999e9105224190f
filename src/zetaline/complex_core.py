"""Scalar double-precision kernels: restricted powers, sin(pi z), sech^2,
sinh(t/2)/(t/2), and log-gamma.

Everything here is branch-audited for three properties the rest of the
package leans on:

* conjugation symmetry is bitwise (f(conj z) == conj(f(z))) so contour
  evaluations inherit Schwarz reflection exactly,
* zeros that are exact in exact arithmetic stay exact in floats
  (sin(pi n) == 0 for integer n, cos(pi/2) == 0, ...),
* large arguments never overflow when the true value is representable
  (a scaled form for 1/cosh^2; sinh(t/2)/(t/2), whose reciprocal square
  replaces 1/sinh^2(t/2)).

The Mellin heads need Gamma(z) together with a bound on its rounding;
_lanczos forms that bound from the terms and partial sums of the one
Lanczos sum and pair of logs that log_gamma runs on Re z >= 1/2
(_lanczos_sum), so exp of its log is gamma(z) bitwise, and log_gamma
itself forms no bound.

Only `math`, `cmath` and `itertools` are used; no state, no configuration.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate

from .errors import DomainError, PoleError, finite_s

__all__: list[str] = []  # the kernels serve the package; none is the paper's object

_TWO_PI = 2.0 * math.pi
_HALF_LOG_TWO_PI = 0.5 * math.log(_TWO_PI)
_U = 2.0 ** -53  # unit roundoff

# Lanczos approximation, g = 607/128, 15 terms.  Good to ~1e-15 relative on
# the half-plane Re z >= 1/2 in doubles.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS_C[1:]))  # (k - 1, c_k), k = 1 .. 14


def cpow_principal(z: complex, w: complex) -> complex:
    """z**w on the closed right half-plane, arg z restricted to [-pi/2, pi/2].

    Defined as exp(w * (ln|z| + i*arg z)).  With Re z >= 0 the atan2 argument
    already lies in [-pi/2, pi/2], so no branch folding is needed.  0**w is 0
    when Re w > 0 and undefined otherwise.

    Raises DomainError off the half-plane and lets OverflowError propagate
    when exp(Re(w log z)) leaves double range.  Unchecked per node: z = nan
    gives nan+nanj, inf the limit for real w and ValueError for complex w.
    """
    z = complex(z)
    w = complex(w)
    if z.real == 0.0 and z.imag == 0.0:
        if w.real > 0.0:
            return complex(0.0, 0.0)
        raise DomainError(f"0**w undefined for Re w <= 0 (w={w})")
    if z.real < 0.0:
        raise DomainError(f"cpow_principal needs Re z >= 0, got z={z}")
    if w.real == 0.0 and w.imag == 0.0:
        return complex(1.0, 0.0)
    if z.imag == 0.0 and w.imag == 0.0 and z.real > 0.0:
        # exact on positive reals (pow(4.0, 0.5) == 2.0 bitwise)
        return complex(math.pow(z.real, w.real), 0.0)
    lr = math.log(math.hypot(z.real, z.imag))
    th = math.atan2(z.imag, z.real)
    a = w.real * lr - w.imag * th
    b = w.real * th + w.imag * lr
    m = math.exp(a)
    return complex(m * math.cos(b), m * math.sin(b))


def _sin_pi(x: float) -> float:
    """sin(pi*x) with exact zeros at integer x."""
    r = math.fmod(x, 2.0)  # (-2, 2), exact
    if r > 1.0:
        r -= 2.0  # Sterbenz-exact
    elif r < -1.0:
        r += 2.0
    if r == 0.0 or r == 1.0 or r == -1.0:
        return 0.0
    # fold into [-1/2, 1/2] where sin(pi*r) is well conditioned
    if r > 0.5:
        r = 1.0 - r
    elif r < -0.5:
        r = -1.0 - r
    return math.sin(math.pi * r)


def _cos_pi(x: float) -> float:
    """cos(pi*x) with exact zeros at half-integer x."""
    r = math.fmod(abs(x), 2.0)
    if r > 1.0:
        r = 2.0 - r  # cos(pi r) even around r = 1, fold is exact
    return math.sin(math.pi * (0.5 - r))


def sin_pi_z(z: complex) -> complex:
    """sin(pi z) via the split form sin(pi x)cosh(pi y) + i cos(pi x)sinh(pi y).

    Exactly zero at real integers.  Supports |Im z| <= 300; cosh raises
    OverflowError before the cap (|Im z| > ~225.9) since the true value
    itself leaves double range there.
    """
    z = finite_s(z)
    if abs(z.imag) > 300.0:
        raise DomainError(f"sin_pi_z supports |Im z| <= 300, got {z.imag}")
    py = math.pi * z.imag
    return complex(_sin_pi(z.real) * math.cosh(py), _cos_pi(z.real) * math.sinh(py))


def cos_pi_z(z: complex) -> complex:
    """cos(pi z) in the same split style; exactly zero at real half-integers."""
    z = finite_s(z)
    if abs(z.imag) > 300.0:
        raise DomainError(f"cos_pi_z supports |Im z| <= 300, got {z.imag}")
    py = math.pi * z.imag
    return complex(_cos_pi(z.real) * math.cosh(py), -_sin_pi(z.real) * math.sinh(py))


def sech_sq_pi(y: float) -> float:
    """1/cosh(pi y)^2 without overflow, even in y bitwise, never above 1.

    Scaled form 4 q / (1 + q)^2 with q = e^{-2 pi |y|}; underflows cleanly
    to 0.0 once q does (|y| >~ 118.6).  For q > 1/2 it returns
    1 - tanh(pi |y|)^2 instead, because 4q/(1+q)^2 rounds above 1 when q is
    just below 1 (e.g. y = 2.88e-14).  Unchecked: +-inf give 0.0, nan nan.
    """
    ay = abs(y)
    q = math.exp(-_TWO_PI * ay)
    if q > 0.5:
        t = math.tanh(math.pi * ay)
        return 1.0 - t * t
    return 4.0 * q / ((1.0 + q) * (1.0 + q))


def sinhc_half(t: float) -> float:
    """sinh(t/2)/(t/2), even in t, >= 1 everywhere, exactly 1 at t = 0.

    The reciprocal square (t/2)^2/sinh^2(t/2) is the overflow-free way to
    write t^2/sinh^2(t/2): safe however small t gets, where 1/sinh^2(t/2)
    alone overflows.  Valid for |t| <= 1400 (sinh overflows beyond);
    unchecked, +-inf and nan give nan (inf/inf, not the limit inf).
    """
    x = 0.5 * abs(t)
    if x < 5e-5:
        return 1.0 + x * x / 6.0  # next term x^4/120 is below 1 ulp here
    return math.sinh(x) / x


def log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z): exp(log_gamma(z)) == Gamma(z), real on (0, inf).

    Lanczos sum on Re z >= 1/2, reflection via ln(pi / sin(pi z)) - log_gamma(1 - z)
    on the left half-plane (principal logs; the imaginary part may fold by
    2 pi there, which callers using exp() never see).

    Raises PoleError within 1e-12 of the poles 0, -1, -2, ..., DomainError at
    a non-finite z.
    """
    z = finite_s(z)
    if z.real < 0.5:
        n = round(z.real)
        if n <= 0 and math.hypot(z.real - n, z.imag) <= 1e-12:
            raise PoleError(f"log_gamma pole at z={z}")
        s = sin_pi_z(z)
        return cmath.log(math.pi) - cmath.log(s) - log_gamma(1.0 - z)
    return _lanczos_sum(z)[0]


def _lanczos_sum(z: complex) -> tuple:
    """log Gamma(z) = (z - 1/2) ln b - b + ln sqrt(2 pi) + ln ser on
    Re z >= 1/2, b = z + g - 1/2 and ser = c_0 + sum_{k=1}^{14} c_k / (z + k - 1)
    added from c_0 in order, with what _lanczos bounds its rounding by:
    (log Gamma(z), the terms, the partial sums from c_0 on, b, ln b,
    ln ser, q = (z - 1/2) ln b - b and r = q + ln sqrt(2 pi))."""
    terms = [c / (z + k) for k, c in _LANCZOS_TERMS]
    partials = list(accumulate(terms, initial=_LANCZOS_C[0]))
    b = z + (_LANCZOS_G - 0.5)
    lb, ls = cmath.log(b), cmath.log(partials[-1])
    q = (z - 0.5) * lb - b
    r = q + _HALF_LOG_TWO_PI
    return r + ls, terms, partials, b, lb, ls, q, r


def _lanczos(z: complex) -> tuple[complex, float]:
    """(log_gamma(z), a bound to first order in u = 2^-53 on the relative
    error of gamma(z) = exp of it) for Re z >= 1/2, from _lanczos_sum.

    gamma(z) = exp(L), L = (z - 1/2) ln b - b + ln sqrt(2 pi) + ln ser with
    b = z + g - 1/2 and ser the Lanczos sum, so the relative error is L's
    absolute error, plus 3u for exp, plus the approximation's own 1e-15
    (above).  Each rounding is counted against the size of what it rounds:
    u per real part, sqrt(5) u for a complex product, 6u for Smith's
    quotient of a real by a complex number.  In L:
      ser: each term c_k / (z + k - 1) carries 7u of its size (u from
        z + k - 1) and each addition u of its partial sum, so ln ser is off
        by u (7 sum |terms| + sum |partial sums|) / |ser|, plus u (1 + |ln ser|)
        for the log;
      ln b: u from b and u (3 + |ln b|) from cmath.log, so u (4 + |ln b|);
      P = (z - 1/2) ln b: |z - 1/2| times ln b's error, u |z - 1/2| |ln b|
        from z - 1/2 and sqrt(5) u |z - 1/2| |ln b| from the product;
      the sums P - b, + ln sqrt(2 pi), + ln ser: u |b| from b, u for the
        constant, and u times each partial sum's size.
    Against 30-digit Gamma values at 600 points with Re z in [2, 9],
    |Im z| <= 61, the bound is at least 3.4 times the error, 16 in the median.
    """
    log_value, terms, partials, b, lb, ls, q, r = _lanczos_sum(z)
    err_ser = 0.0
    for term, partial in zip(terms, partials[1:]):
        err_ser += 7.0 * abs(term) + abs(partial)
    zm = z - 0.5
    err_l = (abs(zm) * (4.0 + (2.0 + math.sqrt(5.0)) * abs(lb)) + abs(b) + abs(q) + abs(r)
             + abs(log_value) + err_ser / abs(partials[-1]) + 2.0 + abs(ls))
    return log_value, _U * (err_l + 3.0) + 1e-15


def gamma(z: complex) -> complex:
    """Gamma(z) = exp(log_gamma(z)); OverflowError when the value leaves doubles."""
    return cmath.exp(log_gamma(z))
