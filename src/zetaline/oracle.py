"""Reference evaluators for zeta, independent of the contour machinery.

Euler-Maclaurin continuation of the Dirichlet series:

    zeta(s) = sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2
            + sum_{k=1}^{M} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}

with the classical remainder bound |first omitted term| * |s+2M+1|/(Re s+2M+1),
at N = 25 + ceil(|Im s|) and M = 12, so valid for Re s > -2M = -24.
The Bernoulli numbers are literals, each the exact rational correctly
rounded (tests recompute them in rational arithmetic).

One pass over n forms each n^{-s} and takes ln n once, for the power and
for the bound's share of its rounding; the coefficients B_{2k}/(2k)! and
|B_{2k}|/(2k)! are formed once, at import.  The power is built as
complex_core.cpow_principal(n, -s) builds it, operation for operation
(math.pow for real s, else exp and cos/sin of the exponent with its
signed-zero terms), so every value and bound is bitwise what a call of
cpow_principal per term gives.  Nothing in this module touches the
quadrature or contour code; it exists to cross-check them.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleAtOne, check_box, finite_s

__all__ = ["zeta_euler_maclaurin"]

_EPS = 2.0 ** -52


def _bernoulli_floats() -> tuple[float, ...]:
    """(B_0, B_2, B_4, ..., B_26), each the exact rational correctly rounded:
    the M = 12 terms read B_2 .. B_24, and the error term B_26."""
    return (
        1.0,                   # 1
        0.16666666666666666,   # 1/6
        -0.03333333333333333,  # -1/30
        0.023809523809523808,  # 1/42
        -0.03333333333333333,  # -1/30
        0.07575757575757576,   # 5/66
        -0.2531135531135531,   # -691/2730
        1.1666666666666667,    # 7/6
        -7.092156862745098,    # -3617/510
        54.971177944862156,    # 43867/798
        -529.1242424242424,    # -174611/330
        6192.123188405797,     # 854513/138
        -86580.25311355312,    # -236364091/2730
        1425517.1666666667,    # 8553103/6
    )


# (B_2k/(2k)!, |B_2k|/(2k)!), k = 0 .. 13: the series' coefficients and the
# omitted term's, each one rounded division of a float by (2k)! as a float
_COEFFS = tuple((b / math.factorial(2 * k), abs(b) / math.factorial(2 * k))
                for k, b in enumerate(_bernoulli_floats()))


def zeta_euler_maclaurin(s: complex) -> tuple[complex, float]:
    """(zeta(s), error bound).  Valid for Re s > -24, |Im s| <= 60, s != 1.

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
    if not s.real > -24.0:
        raise DomainError(f"need Re s > -24, got {s.real}")
    n_cut, m_terms = 25 + math.ceil(abs(s.imag)), 12

    # capped where every n^{-s}, n >= 2, is 0, so that 0 * size ln n stays 0
    size = min(abs(s.real) + abs(s.imag), 1e300)
    wr, wi = -s.real, -s.imag  # n^{-s}, as cpow_principal(n, -s) forms it
    log, exp, cos, sin = math.log, math.exp, math.cos, math.sin
    total = complex(0.0, 0.0)
    scale = 1.0  # largest magnitude passing through the accumulator
    spread = 0.0  # sum of |n^{-s}| (3 + size ln n): the powers' own error / eps
    for n in range(1, n_cut + 1):
        log_n = log(n)
        if wi == 0.0:  # 1.0 at s = 0, and exact on positive reals
            term = complex(math.pow(n, wr), 0.0)
        else:  # exp(-s (ln n + i 0)), arg n = 0.0 kept for its signed zeros
            m = exp(wr * log_n - wi * 0.0)
            b = wr * 0.0 + wi * log_n
            term = complex(m * cos(b), m * sin(b))
        if n == n_cut:  # N^{-s}, on which the terms below build
            break
        total += term
        mag = abs(total)
        if mag > scale:
            scale = mag
        spread += abs(term) * (3.0 + size * log_n)
    n_minus_s = term
    total += n_minus_s * n_cut / (s - 1.0)  # N^{1-s}/(s-1)
    scale = max(scale, abs(n_minus_s) * n_cut / abs(s - 1.0))
    total += 0.5 * n_minus_s
    from_n_cut = abs(n_minus_s) * (n_cut / abs(s - 1.0) + 0.5)  # terms built on N^{-s}

    rising = s  # s(s+1)...(s+2k-2), here k = 1
    power = n_minus_s / n_cut  # N^{-s-2k+1}, here k = 1
    inv_n_sq = 1.0 / (n_cut * n_cut)
    for k in range(1, m_terms + 1):
        if not power:  # the terms left are 0, and rising may overflow (Re s > 2e12)
            break
        term = _COEFFS[k][0] * rising * power
        total += term
        scale = max(scale, abs(term))
        from_n_cut += abs(term)
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        power *= inv_n_sq
    # first omitted term (k = M+1) with the alternating-envelope factor
    omitted = _COEFFS[m_terms + 1][1] * abs(rising) * abs(power)
    envelope = abs(s + (2 * m_terms + 1)) / (s.real + 2 * m_terms + 1)
    # round-off: ~count rounded accumulations, each <= eps * magnitude;
    # the deep-left half-plane loses digits to cancellation of huge terms,
    # which is exactly what `scale` records
    rounding = 2.5 * _EPS * (n_cut + 2 * m_terms) * (1.0 + scale)
    spread += from_n_cut * (3.0 + size * log_n)
    return total, omitted * envelope + rounding + _EPS * spread
