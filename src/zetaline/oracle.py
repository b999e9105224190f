"""Reference evaluators for zeta, independent of the contour machinery.

Euler-Maclaurin continuation of the Dirichlet series:

    zeta(s) = sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2
            + sum_{k=1}^{M} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}

with the classical remainder bound |first omitted term| * |s+2M+1|/(Re s+2M+1).
The Bernoulli numbers come from the defining recurrence in exact rational
arithmetic, rounded to float once.  Nothing in this module touches the
quadrature or contour code; it exists to cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .complex_core import cpow_principal
from .errors import DomainError, PoleAtOne, check_box, finite_s

__all__ = [
    "EulerMaclaurinParams",
    "zeta_euler_maclaurin",
    "default_params",
]

_EPS = 2.0 ** -52

# M is at most 15 (B_30); the table holds one more entry because the error
# term of an M = 15 evaluation needs B_32
_MAX_K = 16


@lru_cache(maxsize=1)
def _bernoulli_floats() -> tuple[float, ...]:
    """(B_0, B_2, B_4, ..., B_32) via sum_{j=0}^{m} C(m+1, j) B_j = 0,
    each correctly rounded from the exact rational."""
    top = 2 * _MAX_K
    b: list[Fraction] = [Fraction(0)] * (top + 1)
    b[0] = Fraction(1)
    for m in range(1, top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b[m] = -acc / (m + 1)
    return tuple(float(b[2 * k]) for k in range(_MAX_K + 1))


@dataclass(frozen=True)
class EulerMaclaurinParams:
    N: int = 25
    M: int = 12

    def __post_init__(self) -> None:
        if self.N < 2:
            raise DomainError(f"N must be >= 2, got {self.N}")
        if not 1 <= self.M <= 15:
            raise DomainError(f"M must be in [1, 15], got {self.M}")


def default_params(s: complex) -> EulerMaclaurinParams:
    return EulerMaclaurinParams(N=25 + math.ceil(abs(finite_s(s).imag)), M=12)


def zeta_euler_maclaurin(
    s: complex, params: EulerMaclaurinParams | None = None
) -> tuple[complex, float]:
    """(zeta(s), error bound).  Valid for Re s > -2M, |Im s| <= 60, s != 1.

    The reported bound is the classical truncation envelope plus a
    round-off allowance: one part proportional to the number of accumulated
    terms and the largest magnitude the sum passes through, and one for the
    error of each power n^{-s} = exp(-s ln n), whose exponent carries up to
    eps (|Re s| + |Im s|) ln n (some 270 ulps at |Im s| = 60) on top of a few
    ulps, weighted by |n^{-s}|.  Without the allowance the truncation part
    alone (often ~1e-30) would understate the achievable double-precision
    error.
    """
    s = finite_s(s)
    if abs(s - 1.0) < 1e-9:
        raise PoleAtOne(f"zeta has a pole at s = 1 (got s={s})")
    check_box(s, "oracle")
    if params is None:
        params = default_params(s)
    n_cut, m_terms = params.N, params.M
    if not s.real > -2.0 * m_terms:
        raise DomainError(f"need Re s > -2M = {-2 * m_terms}, got {s.real}")

    size = abs(s.real) + abs(s.imag)
    total = complex(0.0, 0.0)
    scale = 1.0  # largest magnitude passing through the accumulator
    spread = 0.0  # sum of |n^{-s}| (3 + size ln n): the powers' own error / eps
    for n in range(1, n_cut):
        term = cpow_principal(n, -s)
        total += term
        scale = max(scale, abs(total))
        spread += abs(term) * (3.0 + size * math.log(n))
    n_minus_s = cpow_principal(n_cut, -s)
    total += n_minus_s * n_cut / (s - 1.0)  # N^{1-s}/(s-1)
    scale = max(scale, abs(n_minus_s) * n_cut / abs(s - 1.0))
    total += 0.5 * n_minus_s
    from_n_cut = abs(n_minus_s) * (n_cut / abs(s - 1.0) + 0.5)  # terms built on N^{-s}

    table = _bernoulli_floats()
    rising = s  # s(s+1)...(s+2k-2), here k = 1
    power = n_minus_s / n_cut  # N^{-s-2k+1}, here k = 1
    inv_n_sq = 1.0 / (n_cut * n_cut)
    for k in range(1, m_terms + 1):
        term = (table[k] / math.factorial(2 * k)) * rising * power
        total += term
        scale = max(scale, abs(term))
        from_n_cut += abs(term)
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        power *= inv_n_sq
    # first omitted term (k = M+1) with the alternating-envelope factor
    omitted = (
        abs(table[m_terms + 1])
        / math.factorial(2 * m_terms + 2)
        * abs(rising)
        * abs(power)
    )
    envelope = abs(s + (2 * m_terms + 1)) / (s.real + 2 * m_terms + 1)
    # round-off: ~count rounded accumulations, each <= eps * magnitude;
    # the deep-left half-plane loses digits to cancellation of huge terms,
    # which is exactly what `scale` records
    rounding = 2.5 * _EPS * (n_cut + 2 * m_terms) * (1.0 + scale)
    spread += from_n_cut * (3.0 + size * math.log(n_cut))
    return total, omitted * envelope + rounding + _EPS * spread
