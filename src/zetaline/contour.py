"""Contour-integral evaluation of the Riemann zeta function.

The entire function E(s) = (s-1) zeta(s) is represented by a single
absolutely convergent integral over a vertical line Re z = sigma,
0 < sigma < 1:

    E(s) = (1/2 pi) Integral_{-inf..inf} pi^2 (sigma+iy)^{1-s}
                                         / sin^2(pi (sigma+iy)) dy.

For Re s > 1 the line closes to the right: 1/sin^2(pi z) has double poles
at the positive integers, the residue of the kernel at z = n is
(1-s) n^{-s}, and the integral equals sum_n (s-1) n^{-s} = (s-1) zeta(s).
The integral itself converges for every s, which is what makes it a
continuation device: zeta(s) = E(s)/(s-1) everywhere except the simple
pole at s = 1.

For Re s < 0 the line can instead be pushed onto the imaginary axis, where
the upper and lower half-axes combine into the real integral

    E(s) = -pi sin(pi s/2) Integral_0..inf y^{1-s} / sinh^2(pi y) dy,

implemented separately as an independent consistency check on the line
form (the integrand's origin behavior y^{-1-Re s} is integrable exactly
when Re s < 0).

The default line is sigma = 1/2, where sin(pi(1/2+iy)) = cosh(pi y): the
denominator is real, even, and zero-free, so the kernel is a complex power
times a real sech^2, with no complex division and no overflow.

The line integral runs on the nested trapezoid rule of
quadrature.integrate_line_decaying, whose nodes y = k h (h = 2^-2 .. 2^-8)
do not depend on s.  A per-process table keeps ln z and pi^2 / sin^2(pi z)
at each node y >= 0 of each line, so a node costs one complex multiply and
one complex exp; the node at -y is the conjugate.  The axis form runs on
the same trapezoid rule through quadrature.integrate_mellin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .complex_core import cpow_principal, sech_sq_pi, sin_pi_z, sinhc_half
from .errors import ContractViolation, DomainError, PoleAtOne
from .quadrature import check_tol, integrate_line_decaying, integrate_mellin

__all__ = [
    "ContourSpec",
    "EvalResult",
    "DEFAULT_CONTOUR",
    "line_integrand",
    "entire_e_line",
    "entire_e_axis",
    "residue_partial_sum",
    "pole_guard",
    "zeta_from_e",
    "zeta",
]

_TWO_PI = 2.0 * math.pi
_PI_SQ = math.pi * math.pi
_IM_BOX = 60.0        # keeps e^{pi|Im s|/2} in the truncation constant representable
_POLE_RADIUS = 1e-6   # below this, 1/(s-1) amplification swamps double precision
_AXIS_RE_MAX = -0.05  # keeps the origin exponent -1-Re s away from the -1 boundary
_Y_MAX = 300.0        # the line kernel is specified for |y| <= 300


@dataclass(frozen=True)
class ContourSpec:
    """Vertical integration line Re z = sigma plus the absolute tolerance
    on E(s) evaluated along it."""

    sigma: float = 0.5
    tol: float = 1e-12

    def __post_init__(self) -> None:
        # the line must separate z = 0 from the kernel poles at 1, 2, 3, ...
        if not 0.0 < self.sigma < 1.0:
            raise DomainError(f"sigma must lie strictly in (0, 1), got {self.sigma}")
        check_tol(self.tol)


@dataclass(frozen=True)
class EvalResult:
    value: complex
    err_est: float
    method: str  # "line" | "axis" | "residue_sum" | "oracle"
    truncation_height: float
    n_evals: int
    converged: bool = True


DEFAULT_CONTOUR = ContourSpec()


def line_integrand(y: float, s: complex, sigma: float = 0.5) -> complex:
    """Kernel pi^2 z^{1-s} / sin^2(pi z) at z = sigma + iy.

    On the default line sigma = 1/2 the denominator is cosh^2(pi y), so the
    quotient is computed as cpow * sech_sq_pi without complex division.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"sigma must be in (0, 1), got {sigma}")
    if abs(y) > _Y_MAX:
        raise DomainError(f"line kernel is specified for |y| <= {_Y_MAX:g}, got y = {y}")
    s = complex(s)
    if sigma == 0.5:
        return _PI_SQ * cpow_principal(complex(0.5, y), 1.0 - s) * sech_sq_pi(y)
    sn = sin_pi_z(complex(sigma, y))
    return _PI_SQ * cpow_principal(complex(sigma, y), 1.0 - s) / (sn * sn)


@lru_cache(maxsize=4)
def _node_table(sigma: float) -> dict[float, tuple[complex, complex | float]]:
    """The nodes y >= 0 of the line Re z = sigma computed so far in this
    process: y -> (ln z, pi^2 / sin^2(pi z)) at z = sigma + iy.

    Filled lazily by _cached_integrand.  An entry depends on (sigma, y)
    alone, so threads that race to fill the same y store equal values and
    no result depends on the order of filling.
    """
    return {}


def _line_node(sigma: float, y: float) -> tuple[complex, complex | float]:
    """(ln z, pi^2 / sin^2(pi z)) at z = sigma + iy, y >= 0.

    ln z = ln|z| + i arg z is formed as cpow_principal forms it; on
    sigma = 1/2 the weight is the real pi^2 sech^2(pi y).
    """
    if y > _Y_MAX:
        raise DomainError(f"line kernel is specified for |y| <= {_Y_MAX:g}, got y = {y}")
    lz = complex(math.log(math.hypot(sigma, y)), math.atan2(y, sigma))
    if sigma == 0.5:
        return lz, _PI_SQ * sech_sq_pi(y)
    sn = sin_pi_z(complex(sigma, y))
    return lz, _PI_SQ / (sn * sn)


def _cached_integrand(s: complex, sigma: float) -> Callable[[float], complex]:
    """The fold g(y) = f(y) + f(-y), y >= 0, of f = line_integrand(., s, sigma),
    read from the node table once per pair: f(-y) is formed as
    conj(exp(conj(1-s) ln z) w), which equals exp((1-s) conj(ln z)) conj(w)
    bitwise, so E(conj s) stays conj E(s) exactly."""
    table = _node_table(sigma)
    w = 1.0 - complex(s)
    wc = w.conjugate()
    exp = cmath.exp

    def g(y: float) -> complex:
        node = table.get(y)
        if node is None:
            node = table[y] = _line_node(sigma, y)
        lz, weight = node
        v = exp(w * lz) * weight
        if y == 0.0:
            return v + v
        return v + (exp(wc * lz) * weight).conjugate()

    return g


def entire_e_line(s: complex, spec: ContourSpec = DEFAULT_CONTOUR) -> EvalResult:
    """E(s) = (s-1) zeta(s) by quadrature along the vertical line of `spec`.

    Valid for every s with |Im s| <= 60.  The integrand obeys
    |f(y)| <= C (1+|y|)^g e^{-2 pi |y|} with g = max(0, 1-Re s) and
    C = 4 pi^2 e^{pi|Im s|/2} max(1, sigma^{1-Re s}), from
    |z^{1-s}| = |z|^{1-Re s} e^{Im s * arg z}, |arg z| < pi/2, and
    |sin pi z|^2 >= e^{2 pi |y|}/4 in the tail region |y| >= 1.

    spec.tol bounds the error of E(s) itself: the integral of 2 pi E runs
    at 2 pi tol / 1.2, so that err_est = (quadrature error + both tails)/2 pi
    is <= tol exactly when the quadrature met its tolerance, and `converged`
    is err_est <= tol.
    """
    s = complex(s)
    if abs(s.imag) > _IM_BOX:
        raise ContractViolation(f"line evaluator contract box is |Im s| <= {_IM_BOX}, got {s.imag}")
    sigma = spec.sigma
    quad_tol = _TWO_PI * spec.tol / 1.2
    growth = max(0.0, 1.0 - s.real)
    bound_const = (
        4.0 * _PI_SQ
        * math.exp(0.5 * math.pi * abs(s.imag))
        * max(1.0, sigma ** (1.0 - s.real))
    )
    base = integrate_line_decaying(
        _cached_integrand(s, sigma),
        _TWO_PI,
        growth,
        quad_tol,
        bound_const=bound_const,
    )
    # both truncated tails are below quad_tol/10 by construction
    err = (base.err_est + 0.2 * quad_tol) / _TWO_PI
    return EvalResult(base.value / _TWO_PI, err, "line",
                      base.truncation_height, base.n_evals, err <= spec.tol)


def entire_e_axis(s: complex, tol: float = 1e-12) -> EvalResult:
    """E(s) for Re s <= -0.05 via the imaginary-axis form.

    The prefactor -pi sin(pi s/2) can be exponentially large in |Im s|, so
    the quadrature runs at tol / |prefactor| (floored at 1e-14) and the
    reported err_est is scaled back up; at the negative even integers the
    prefactor vanishes identically and E(s) = 0 is returned exactly.
    """
    check_tol(tol)  # before the floor below can hide a bad value
    s = complex(s)
    if s.real > _AXIS_RE_MAX:
        raise DomainError(
            f"axis form needs Re s <= {_AXIS_RE_MAX} "
            f"(origin exponent -1-Re s must stay above -1), got Re s = {s.real}"
        )
    if abs(s.imag) > _IM_BOX:
        raise ContractViolation(f"axis evaluator contract box is |Im s| <= {_IM_BOX}, got {s.imag}")
    pref = -math.pi * sin_pi_z(0.5 * s)
    if pref == 0:
        return EvalResult(complex(0.0, 0.0), 0.0, "axis", 0.0, 0, True)
    amp = abs(pref)
    eff_tol = max(1e-14, tol / max(1.0, amp))
    w = -1.0 - s

    def f(y: float) -> complex:
        # y^{1-s}/sinh^2(pi y) factored as y^{-1-s}/pi^2 * (pi y/sinh(pi y))^2:
        # the second factor is bounded by 1, so nothing overflows even at the
        # deep end of the origin tail where y^2 alone would underflow
        sc = sinhc_half(_TWO_PI * y)
        return cpow_principal(y, w) * (1.0 / (_PI_SQ * sc * sc))

    base = integrate_mellin(
        f,
        w,
        _TWO_PI,
        eff_tol,
        growth=1.0 - s.real,
        origin_coeff=1.0 / _PI_SQ,
        bound_const=4.5,  # 1/sinh^2(pi y) <= 4.5 e^{-2 pi y} for y >= 1
    )
    err = amp * (base.err_est + 0.2 * eff_tol)
    return EvalResult(pref * base.value, err, "axis",
                      base.truncation_height, base.n_evals, base.converged)


def residue_partial_sum(s: complex, n_terms: int) -> tuple[complex, float]:
    """Minus the sum of the first n_terms residues: sum (s-1) n^{-s} -> E(s).

    Returns (value, tail_bound) with the integral-comparison bound
    |s-1| N^{1-Re s} / (Re s - 1) on the omitted tail; requires Re s > 1.
    The terms are added with math.fsum: a plain running sum can be off by
    more than the tail bound (4.2e-13 against 3.3e-14 at s = 4.75+1.5i,
    N = 4000).
    """
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError(f"residue sum converges only for Re s > 1, got Re s = {s.real}")
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    terms = [cpow_principal(float(n), -s) for n in range(1, n_terms + 1)]
    acc = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    tail = abs(s - 1.0) * float(n_terms) ** (1.0 - s.real) / (s.real - 1.0)
    return (s - 1.0) * acc, tail


def pole_guard(s: complex) -> None:
    """Raise PoleAtOne inside the guard disk |s - 1| < 1e-6 around the pole of zeta."""
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleAtOne(
            f"zeta has a simple pole at s = 1 and |s-1| = {abs(s - 1.0):.3e} is "
            f"inside the {_POLE_RADIUS} guard disk; evaluate entire_e_line instead"
        )


def zeta_from_e(s: complex, e: EvalResult) -> EvalResult:
    """zeta(s) = E(s)/(s-1) from an evaluation e of E at s, err_est scaled alike."""
    s = complex(s)
    pole_guard(s)
    sm1 = s - 1.0
    return EvalResult(e.value / sm1, e.err_est / abs(sm1), e.method,
                      e.truncation_height, e.n_evals, e.converged)


def zeta(s: complex, spec: ContourSpec = DEFAULT_CONTOUR, method: str = "line") -> EvalResult:
    """zeta(s) from E(s) by the line contour of `spec` (method "line") or by
    the imaginary-axis form at spec.tol (method "axis", Re s <= -0.05);
    PoleAtOne inside the guard disk around s = 1."""
    s = complex(s)
    if method == "line":
        e = entire_e_line(s, spec)
    elif method == "axis":
        e = entire_e_axis(s, spec.tol)
    else:
        raise DomainError(f"method must be line or axis, got {method!r}")
    return zeta_from_e(s, e)
