"""Contour-integral evaluation of the Riemann zeta function.

The entire function E(s) = (s-1) zeta(s) is represented by a single
absolutely convergent integral over a vertical line Re z = 1/2:

    E(s) = (1/2 pi) Integral_{-inf..inf} pi^2 z^{1-s} / sin^2(pi z) dy,
                                                        z = 1/2 + iy.

For Re s > 1 the line closes to the right: 1/sin^2(pi z) has double poles
at the positive integers, the residue of the kernel at z = n is
(1-s) n^{-s}, and the integral equals sum_n (s-1) n^{-s} = (s-1) zeta(s).
The integral itself converges for every s, which is what makes it a
continuation device: zeta(s) = E(s)/(s-1) everywhere except the simple
pole at s = 1.

The evaluator moves the line to Re z = N + 1/2, N = floor(|Im s| / 2 pi)
(at least 1 for Re s > -10, see entire_e_line), past the first N of those
poles, and adds their residues back:

    E(s) = (1/2 pi) Integral pi^2 z^{1-s} / sin^2(pi z) dy
           + (s-1) sum_{n<=N} n^{-s},                z = N + 1/2 + iy.

On the line Re z = 1/2 the integrand, whose exponent is
Im s arg z - 2 pi |y|, peaks near e^{0.8|Im s|} and the integral cancels
down to E; once N + 1/2 > |Im s| / 2 pi the exponent falls from y = 0 and
nothing cancels.
This is the contour form of the approximate functional equation (Borwein,
Bradley & Crandall, J. Comput. Appl. Math. 121 (2000)).  N = 0, the line
Re z = 1/2, would serve |Im s| < 2 pi; the evaluator keeps it only left of
Re s = -10 and otherwise takes N = 1, whose trapezoid rule is cheaper.

For Re s < 0 the line can instead be pushed onto the imaginary axis, where
the upper and lower half-axes combine into the real integral

    E(s) = -pi sin(pi s/2) Integral_0..inf y^{1-s} / sinh^2(pi y) dy
         = -pi sin(pi s/2) (2 pi)^{s-2} J(1 - s)          (t = 2 pi y),

the functional equation: J(sigma) = Integral_0..inf t^sigma / sinh^2(t/2) dt is
4 sigma Gamma(sigma) zeta(sigma), the lemma's integral, which mellin.sinh_integral
evaluates through the same function.  It converges at the origin when Re s < 0.

On every half-integer line sin(pi(N+1/2+iy)) = +-cosh(pi y): the
denominator is real, even, and zero-free, so the kernel is a complex power
times a real sech^2, with no complex division and no overflow.

The line integral runs on the nested trapezoid rule of
quadrature.integrate_line_decaying, whose nodes y = k h (h = 2^-1 .. 2^-8
on N >= 1, 2^-2 .. 2^-8 on N = 0) do not depend on s, cut where the log
envelope of the integrand bounds each tail.  The rule asks for a whole
trapezoid level at a time, as the lattice of its nodes.  Each line keeps
one record per process (_line): a quadrature.KernelTable of ln z and
pi^2 sech^2(pi y) at the nodes y >= 0, read on the lattice the rule asks
for, and the constants of its bound's envelopes (below), so a level is
one pass of two complex exps per node, one for y and one, conjugated,
for -y.
J runs on the same trapezoid rule through quadrature.integrate_mellin, a
level at a time in u = ln t, its kernel's values read from a KernelTable
too, certified by mellin's strip bound.
Both forms and zeta return quadrature.EvalResult, as the integrals do.

The poles at z = N and N + 1 lie at Im y = +-1/2 from the line and cap
the trapezoid rule's error near e^{-pi/h}.  Their residues are the ones
the line sums, (1-s) N^{-s} and (1-s) (N+1)^{-s}, so on N >= 1 the rule
subtracts their exact contribution C(h) from each level
(_pole_correction), and the contour proof of Trefethen & Weideman's
Thm 5.1, with these poles kept, then runs out to |Im y| = 1: it bounds
the corrected level's error by (M_- + M_+) / (e^{2 pi/h} - 1), M_- and M_+
the integrals of the kernel's modulus on the neighbouring half-integer
lines Re z = N - 1/2 and N + 3/2 (_strip_m, from an upper envelope).  On
N = 0 the line Re z = -1/2 would cross the branch cut of z^{1-s}, so the
kernel's strip |Im y| < a = 0.45 gives the bound 2M / (e^{2 pi a/h} - 1)
instead.  The envelope behind M reaches out as far as its tail needs, so
every line has its bound for every s (inf far left, where the envelope
overflows), and that bound is the rule's one stopping criterion (see
_entire_e_line).

What a point pays for besides its nodes is set-up, kept to one pass each:
the residues, their rounding and the correction's N^{-s} and (N+1)^{-s}
come from one loop over k^{-s} (_neg_powers, which residue_partial_sums
runs too, a chunk of k at a time into packed arrays), M_- and M_+ from
one call (_strip_m), and the factors of the bound and the correction that depend
on h alone, e^{2 pi a/h} - 1 and phi(h), once per step in the process, on
first use (_level_factors), so a level's bound is one division.  None of
it changes a bit of the result.
"""

from __future__ import annotations

import cmath
import math
from array import array
from collections.abc import Callable, Iterable
from functools import lru_cache
from itertools import islice

from .complex_core import cpow_principal, sech_sq_pi, sin_pi_z
from .errors import DomainError, PoleAtOne, TruncationFailure, check_box, finite_s
from .quadrature import TOL_MIN, EvalResult, KernelTable, check_tol, integrate_line_decaying

__all__ = [
    "line_integrand",
    "entire_e_line",
    "entire_e_axis",
    "residue_partial_sums",
    "zeta_from_e",
    "zeta",
]

_TWO_PI = 2.0 * math.pi
_PI_SQ = math.pi * math.pi
_LOG_4PI_SQ = math.log(4.0 * _PI_SQ)
_EPS = math.ulp(1.0)
_POLE_RADIUS = 1e-6   # below this, 1/(s-1) amplification swamps double precision
_Y_MAX = 300.0        # the line kernel is specified for |y| <= 300
_RE_FAR = 6.5         # above this Re s the line crosses at least 2 poles
_RE_LEFT = -10.0      # above this Re s the line crosses at least 1 pole
_STRIP = 0.45         # half-width a of the strip |Im y| < a of the line N = 0's
                      # trapezoid bound; the kernel's poles lie at |Im y| = 1/2
_ENV_CELL = 0.5       # M is an upper sum over cells of this width on [0, X], X the first
_ENV_FIRST = 8        # cell edge from the 8th on beyond which the envelope decays: the 8th,
                      # X = 4, on every line N <= 9 for Re s >= -5, further out further left
_ENV_CELLS_MAX = 200  # no X past 100: there cosh^2(pi x) nears overflow, and M is inf
_CHUNK = 1 << 14      # residue_partial_sums forms its terms this many at a time


def line_integrand(y: float, s: complex, n: int = 0) -> complex:
    """Kernel pi^2 z^{1-s} / sin^2(pi z) at z = n + 1/2 + iy.

    On every half-integer line sin^2(pi z) = cosh^2(pi y), so the quotient
    is computed as cpow * sech_sq_pi without complex division.
    """
    if not (type(n) is int and n >= 0):  # bool is not a line
        raise DomainError(f"the line Re z = n + 1/2 needs an integer n >= 0, got {n!r}")
    if not abs(y) <= _Y_MAX:
        raise DomainError(f"line kernel is specified for |y| <= {_Y_MAX:g}, got y = {y}")
    s = finite_s(s)
    return _PI_SQ * cpow_principal(complex(n + 0.5, y), 1.0 - s) * sech_sq_pi(y)


_Node = tuple[complex, float]  # (ln z, pi^2 sech^2(pi y)) at one node
# the strip (sigma, a), per cell for 1 - Re s >= 0 and for 1 - Re s < 0 (log of the |z|
# bound, |arg z| bound, log of pi^2 / the |sin^2| bound), and per cell edge from X = 4 on
# the constants of the envelope beyond it (_strip_m)
_Table = tuple[float, float, list[tuple[float, ...]], list[tuple[float, ...]],
               list[tuple[float, ...]]]


@lru_cache(maxsize=None)
def _line(n: int) -> tuple[KernelTable, list[_Table]]:
    """The record of the line Re z = n + 1/2 (n = 0 .. 9 in the box), built
    when the line is first used: the quadrature.KernelTable of
    (ln z, pi^2 sech^2(pi y)) at the nodes y >= 0 (_line_node); and the
    envelopes of _strip_m for the line's trapezoid bound (_line_bound): the
    strip |Im y| < _STRIP about the line for n = 0, the neighbouring lines
    Re z = n - 1/2 and n + 3/2 for n >= 1.  Nothing in it is shared with
    another line.  An envelope's table grows as the node table's lists do,
    replaced whole by a longer one.
    """
    table = KernelTable(lambda y: _line_node(n + 0.5, y))
    if n == 0:
        return table, [_line_envelope(0.5, _STRIP)]
    return table, [_line_envelope(n - 0.5, 0.0), _line_envelope(n + 1.5, 0.0)]


def _line_node(sigma: float, y: float) -> _Node:
    """(ln z, pi^2 sech^2(pi y)) at z = sigma + iy, y >= 0, ln z formed as
    cpow_principal forms it; TruncationFailure past the kernel's range,
    which only a truncation height above _Y_MAX reaches."""
    if y > _Y_MAX:
        raise TruncationFailure(
            f"truncation height passes the line kernel's range |y| <= {_Y_MAX:g} at y = {y}")
    return complex(math.log(math.hypot(sigma, y)), math.atan2(y, sigma)), _PI_SQ * sech_sq_pi(y)


def _cached_level(s: complex, n: int) -> Callable[[float, float, int], list[complex]]:
    """The level evaluator of the fold g(y) = f(y) + f(-y), y >= 0, of
    f = line_integrand(., s, n): level(first, spacing, count) returns g on
    the lattice's nodes, read from the line's node table _line(n) as
    (exp((1-s) ln z) + conj(exp(conj(1-s) ln z))) pi^2 sech^2(pi y): the
    second term equals exp((1-s) conj(ln z)) bitwise, so E(conj s) stays
    conj E(s) exactly, and at y = 0, where ln z is real, it equals the
    first.  Where a power overflows, which only far left happens before
    the weight can scale it, the level raises TruncationFailure."""
    values = _line(n)[0].values
    w = 1.0 - complex(s)
    wc = w.conjugate()
    exp = cmath.exp

    def level(first: float, spacing: float, count: int) -> list[complex]:
        try:
            return [(exp(w * lz) + exp(wc * lz).conjugate()) * weight
                    for lz, weight in values(first, spacing, count)]
        except OverflowError:
            y = _overflow_node(w, values(first, spacing, count), first, spacing)
            raise TruncationFailure(
                f"z^(1-s) overflows double range on the line Re z = {n + 0.5} at "
                f"y = {y} for s = {s}") from None

    return level


def _overflow_node(w: complex, nodes: Iterable[_Node], first: float, spacing: float) -> float:
    """The first node y where exp(w ln z) or exp(conj(w) ln z) overflows."""
    for i, (lz, _) in enumerate(nodes):
        try:
            cmath.exp(w * lz), cmath.exp(w.conjugate() * lz)
        except OverflowError:
            return first + i * spacing
    raise AssertionError("no node overflows")


def _line_log_tail(s: complex, sigma: float) -> Callable[[float], float]:
    """Bound on the log of the integral of |f| beyond |y| = Y on the line
    Re z = sigma, for integrate_line_decaying.

    |f(y)| <= e^{L(y)} with L(y) = log(4 pi^2) + (1 - Re s) log|z|
    + |Im s| atan(|y|/sigma) - 2 pi |y|, from |z^{1-s}| = |z|^{1-Re s}
    e^{Im s arg z} and sech^2(pi y) <= 4 e^{-2 pi |y|}.  For y >= Y,
    -L'(y) >= c = 2 pi - max(0, 1 - Re s) / max(Y, 2 sigma)
    - |Im s| sigma / (sigma^2 + Y^2), so a tail is at most e^{L(Y)} / c.
    """
    a = 1.0 - s.real
    a_pos, half_a = max(0.0, a), 0.5 * a
    b, b_sigma, two_sigma = abs(s.imag), abs(s.imag) * sigma, 2.0 * sigma
    sig2 = sigma * sigma
    log, atan = math.log, math.atan

    def log_tail(y: float) -> float:
        r2 = sig2 + y * y
        c = _TWO_PI - a_pos / (y if y > two_sigma else two_sigma) - b_sigma / r2
        if c <= 0.0:
            return math.inf
        return _LOG_4PI_SQ + half_a * log(r2) + b * atan(y / sigma) - _TWO_PI * y - log(c)

    return log_tail


def _line_envelope(sigma: float, a: float, cells: int = _ENV_FIRST) -> _Table:
    """_strip_m's envelope of |f| in the strip |Im y| < a about the line
    Re z = sigma on [0, cells _ENV_CELL]: each factor of |f(x + ib)| taken
    at the end of its cell where it is largest for every |b| < a (for
    a = 0, b = 0 on the line itself, where |sin^2(pi z)| is cosh^2(pi x)
    exactly).  Each entry depends on its own x alone, so a longer table
    repeats a shorter one's bits."""
    hi, lo = sigma + a, sigma - a
    sin2 = math.sin(math.pi * a) ** 2
    xs = [_ENV_CELL * j for j in range(cells + 1)]
    log_hi = [0.5 * math.log(hi * hi + x * x) for x in xs]
    log_lo = [0.5 * math.log(lo * lo + x * x) for x in xs]
    arg = [math.atan(x / lo) for x in xs]
    den = [math.log(_PI_SQ / (math.cosh(math.pi * x) ** 2 - sin2)) for x in xs[:-1]]
    # beyond x: 1/(cosh^2(pi x') - sin2) <= 4 e^{-2 pi x'} / (1 - 4 sin2 e^{-2 pi x})
    edges = [(lh, ll, ar,
              _LOG_4PI_SQ - math.log1p(-4.0 * sin2 * math.exp(-_TWO_PI * x)) - _TWO_PI * x,
              1.0 / max(x, 2.0 * hi), lo / (lo * lo + x * x))
             for x, lh, ll, ar in islice(zip(xs, log_hi, log_lo, arg), _ENV_FIRST, None)]
    return (sigma, a, list(zip(log_hi[1:], arg[1:], den)), list(zip(log_lo, arg[1:], den)),
            edges)


def _strip_m(s: complex, envelopes: list[_Table]) -> list[float]:
    """M for each envelope = _line_envelope(sigma, a) of the list, in one
    pass: an upper bound on the integral of |f(x + ib)| over x for every
    |b| < a, f = pi^2 z^{1-s} / sin^2(pi z) on the line Re z = sigma; inf
    where the envelope overflows.  An envelope too short for s is replaced
    in the list, with one assignment, by a longer one.

    On Re z = sigma - b, |f| = pi^2 |z|^{1 - Re s} e^{Im s arg z} /
    (cosh^2(pi x) - sin^2(pi b)), and each factor has a bound for every
    |b| < a that is monotone in |x|: |z|^{1 - Re s} on the line
    Re z = sigma +- a where it is larger, e^{|Im s| atan(|x| / (sigma - a))},
    and 1 / (cosh^2(pi x) - sin^2(pi a)).  M is twice their upper Riemann
    sum on [0, X] plus twice the integral beyond X of the envelope of
    _line_log_tail, taken with the same bounds, X the first cell edge from
    4 on where that tail's decay constant c is positive.  c grows with X;
    X = 100 has it for every Re s > -600, and further left M is inf.
    """
    power, t = 1.0 - s.real, abs(s.imag)
    slope_power = max(power, 0.0)
    cells_at = 3 if power < 0.0 else 2
    exp = math.exp
    ms = []
    for i, table in enumerate(envelopes):
        while True:  # the first edge past which the tail decays; none: grow, or give up
            for j, (log_hi, log_lo, arg_x, const, log_slope, arg_slope) in enumerate(
                    table[4], _ENV_FIRST):
                c = _TWO_PI - slope_power * log_slope - t * arg_slope
                if c > 0.0:
                    break
            if c > 0.0 or j == _ENV_CELLS_MAX:
                break
            envelopes[i] = table = _line_envelope(table[0], table[1], min(2 * j, _ENV_CELLS_MAX))
        if c <= 0.0:
            ms.append(math.inf)
            continue
        log_x = log_lo if power < 0.0 else log_hi
        try:
            ms.append(sum([exp(power * log_z + t * arg + den)
                           for log_z, arg, den in table[cells_at][:j]])
                      + 2.0 * exp(power * log_x + t * arg_x + const) / c)
        except OverflowError:
            ms.append(math.inf)
    return ms


@lru_cache(maxsize=None)
def _level_factors(h: float) -> tuple[float, float, float, float]:
    """The factors of the line's bound and correction at step h that do not
    depend on s: e^{2 pi a/h} - 1 for a = _STRIP and a = 1, its exponent
    capped at 700, which only enlarges the bound, so that it stays finite;
    and (2 pi/h) e^{pi/h} phi(h)^2 = phi'(h) and phi(h) = 1/(e^{pi/h} - 1)
    (_pole_correction)."""
    q = math.exp(-math.pi / h)  # e^{-pi/h}, so phi = q / (1 - q)
    phi = q / (1.0 - q)
    return (math.expm1(min(_TWO_PI * _STRIP / h, 700.0)), math.expm1(min(_TWO_PI / h, 700.0)),
            (_TWO_PI / h) * phi / (1.0 - q), phi)


def _line_bound(s: complex, n: int) -> Callable[[float], float]:
    """Trefethen & Weideman's bound on the error of the line's trapezoid
    sum h sum_k f(k h), f = line_integrand(., s, n), less _pole_correction
    for n >= 1, at every step of the rule (quadrature._step_schedule).

    Their proof bounds the error by the integrals of |f| along Im y = +-a,
    each over e^{2 pi a/h} - 1, plus the contributions of the poles of f
    between.  On n = 0 the strip |Im y| < a = _STRIP is pole-free and the
    bound is 2M / (e^{2 pi a/h} - 1).  On n >= 1 _pole_correction takes out
    the two poles at Im y = +-1/2, and a = 1 puts the lines on
    Re z = n - 1/2 and n + 3/2, so the bound is (M_- + M_+) / (e^{2 pi/h} - 1),
    M_- and M_+ the integrals of |f| there.  The denominators come from
    _level_factors, so a level's bound is one division.
    """
    ms = _strip_m(s, _line(n)[1])
    m, col = (2.0 * ms[0], 0) if n == 0 else (ms[0] + ms[1], 1)
    return lambda h: m / _level_factors(h)[col]


def _pole_correction(s: complex, n: int, near: complex, far: complex
                     ) -> Callable[[float], complex]:
    """C(h), the part of the trapezoid sum's error h sum_k f(k h) - I that
    the double poles of f = line_integrand(., s, n) at z = n and n + 1
    (y = i/2 and -i/2) contribute, n >= 1, for _line_bound to bound the rest:

        C(h) = 2 pi [phi'(h) (n^{1-s} + (n+1)^{1-s})
                     + phi(h) (1-s) (n^{-s} - (n+1)^{-s})],
        phi(h) = 1/(e^{pi/h} - 1),   phi'(h) = (2 pi/h) e^{pi/h} phi(h)^2,

    the poles' terms in the contour proof of Trefethen & Weideman's
    Thm 5.1, from f's Laurent terms k^{1-s} / (z-k)^2 + (1-s) k^{-s} / (z-k)
    at z = k, where the proof's factor 1/(e^{-+2 pi i y/h} - 1) and its
    derivative give phi(h) and phi'(h) at y = +-i/2.  phi and phi' are
    real, read from _level_factors, so C(conj s) is conj C(s) bitwise;
    near and far are n^{-s} and (n+1)^{-s} as _line_residues gives them.
    """
    double = n * near + (n + 1) * far
    single = (1.0 - s) * (near - far)

    def correction(h: float) -> complex:
        _, _, dphi, phi = _level_factors(h)
        return _TWO_PI * (dphi * double + phi * single)

    return correction


def _neg_powers(s: complex, ks: range) -> tuple[list[float], list[float]]:
    """The real and the imaginary parts of k^{-s}, k in ks (k >= 1), the
    terms of every residue sum, each formed as cpow_principal(float(k), -s)
    forms it, bitwise: math.pow for real s, else exp(-s ln k) split into
    its modulus and angle, the terms of arg k = 0 kept for their signed
    zeros.  Each term depends on its own k alone."""
    wr, wi = -s.real, -s.imag
    if wi == 0.0:  # 1.0 at w = 0, and exact on positive reals
        return [math.pow(k, wr) for k in ks], [0.0] * len(ks)
    a0, b0 = wi * 0.0, wr * 0.0  # w.imag arg k and w.real arg k
    log, exp, cos, sin = math.log, math.exp, math.cos, math.sin
    re, im = [], []
    for k in ks:
        lk = log(k)
        m, b = exp(wr * lk - a0), b0 + wi * lk
        re.append(m * cos(b))
        im.append(m * sin(b))
    return re, im


def _line_residues(s: complex, n: int) -> tuple[complex, float, complex, complex]:
    """(s-1) sum_{k<=n} k^{-s}, the terms added with math.fsum, a bound on
    its rounding, and n^{-s} and (n+1)^{-s} for _pole_correction, from one
    pass over k = 1 .. n + 1 (_neg_powers).

    Each k^{-s} carries the error of its exponent, up to
    eps (|Re s| + |Im s|) ln k, on top of a few ulps, so the bound is
    eps |s-1| sum |k^{-s}| (4 + (|Re s| + |Im s|) ln k).  TruncationFailure
    where a power leaves double range, as 10^{-s} does below Re s = -308.25.
    """
    try:
        re, im = _neg_powers(s, range(1, n + 2))
        size = abs(s.real) + abs(s.imag)
        # complex abs, not math.hypot, which can differ in the last bit
        spread = [abs(complex(x, y)) * (4.0 + size * math.log(k))
                  for k, x, y in zip(range(1, n + 1), re, im)]
        far = complex(re.pop(), im.pop())
        return ((s - 1.0) * complex(math.fsum(re), math.fsum(im)),
                _EPS * abs(s - 1.0) * math.fsum(spread), complex(re[-1], im[-1]), far)
    except OverflowError:
        raise TruncationFailure(f"the residue power k^(-s), k <= {n + 1}, overflows double "
                                f"range for the line Re z = {n + 0.5} at s = {s}") from None


def entire_e_line(s: complex, tol: float = 1e-12) -> EvalResult:
    """E(s) = (s-1) zeta(s) by quadrature along the line Re z = N + 1/2,
    plus the residues of the N poles it crossed: N = floor(|Im s| / 2 pi),
    at least 1 where Re s > -10 and at least 2 where Re s > 6.5.

    Valid for every s with |Im s| <= 60.  On that line the integrand's
    exponent Im s atan(y/sigma) - 2 pi |y| falls from y = 0, so the
    e^{0.8|Im s|} cancellation of the line Re z = 1/2 is gone; N = 0 is
    that line.  N >= 1 lets the trapezoid rule subtract the poles at z = N
    and N + 1 and certify its levels past them (_line_bound), at about half
    the evaluations of N = 0.  Far left, |z|^{1 - Re s} grows along
    Re z = 3/2 and with it the sum's rounding, so for Re s <= -10 and
    |Im s| < 2 pi the line stays N = 0: on Re s in [-20, -10] at tol 1e-12,
    34 of 100 points converged on N = 1 against 64 on N = 0.  For large
    Re s the kernel's modulus |z|^{1 - Re s} peaks near 2^{Re s - 1} on
    Re z = 1/2 (and stays large half a unit off Re z = 3/2, at the pole
    z = 1), so the integral would cancel down to E; half a unit around
    Re z = 5/2 it is at most 2^{1 - Re s}, and the residues
    (s-1)(1 + 2^{-s}) carry the value.

    tol is absolute on E(s) itself: err_est covers the quadrature error,
    both truncated tails and the rounding of the sum and of the residues,
    and `converged` is err_est <= tol (see _entire_e_line for when the
    quadrature's part is proven).
    """
    s = finite_s(s)
    check_box(s, "line evaluator")
    check_tol(tol)
    n = int(abs(s.imag) / _TWO_PI)
    if s.real > _RE_LEFT:
        n = max(n, 2 if s.real > _RE_FAR else 1)
    return _entire_e_line(s, tol, n)


def _entire_e_line(s: complex, tol: float, n: int) -> EvalResult:
    """E(s) on the line Re z = n + 1/2, n the integer >= 0 that entire_e_line
    picks from s.

    The residue of the kernel at z = k is (1-s) k^{-s}, so moving the line
    from Re z = 1/2 to n + 1/2 subtracts (s-1) sum_{k<=n} k^{-s} from the
    integral; adding it back gives E(s) on every line.  For n >= 1 the
    trapezoid rule starts at h = 1/2 and subtracts _pole_correction from
    each level, so that h = 1/4 can already be certified; the residues and
    the correction share one pass over k^{-s}, k = 1 .. n + 1
    (_line_residues).  s, tol and n are the caller's to check, as
    entire_e_line does.

    err_est, on the scale of the integral of 2 pi E, adds the rounding of
    the residues, which comes off the top of the budget 2 pi tol, to the
    quadrature's err_est; the quadrature runs at the rest over 1.2, which
    leaves room for its tails and the rounding of its sum.  _line_bound
    judges every level: at the level it certifies the quadrature's err_est
    is that proven bound, and at the round-off floor or the end of the
    budget the larger of it and the last halving difference, plus the
    rounding of the sum.  Where the residues' rounding alone exceeds tol
    the point cannot converge, and the quadrature runs at that rounding
    instead.
    """
    budget = _TWO_PI * tol
    if n:
        residues, rounding, near, far = _line_residues(s, n)
        rounding *= _TWO_PI
        correction = _pole_correction(s, n, near, far)
    else:
        residues, rounding, correction = 0j, 0.0, None
    quad_tol = max(TOL_MIN, (budget - rounding) / 1.2) if rounding < budget else rounding
    base = integrate_line_decaying(_cached_level(s, n), _line_log_tail(s, n + 0.5), quad_tol,
                                   bound=_line_bound(s, n), correction=correction)
    value = base.value / _TWO_PI
    if n:
        value += residues
    err = (base.err_est + rounding) / _TWO_PI
    return EvalResult(value, err, base.n_evals, err <= tol, base.truncation_height)


def entire_e_axis(s: complex, tol: float = 1e-12) -> EvalResult:
    """E(s) = -pi sin(pi s/2) (2 pi)^{s-2} J(1 - s) for Re s <= -0.05, the
    imaginary-axis form on the scale t = 2 pi y.

    The prefactor -pi sin(pi s/2) can be exponentially large in |Im s|, so
    J runs at max(1e-14, tol / max(1, |prefactor|)) / (2 pi)^{Re s - 2}:
    at tol itself, so scaled, where |prefactor| < 1 (0.55 at s = -2.1+0.05i);
    err_est is J's err_est times |pi sin(pi s/2) (2 pi)^{s-2}|.
    truncation_height is J's over 2 pi, on the y scale.  At the negative
    even integers the prefactor vanishes identically and E(s) = 0 is
    returned exactly.  Far left, where J or (2 pi)^{s-2} leaves double
    range, TruncationFailure.

    `converged` is J's flag, that J met its own target above, and not
    err_est <= tol, so it can be True with err_est above tol: at
    -3.53-7.82i err_est is 6.9e-10 at tol 1e-12, and at -2.8+57.5i the
    value is about -5.4e23 with err_est 5.4e24, where the prefactor puts E
    below double precision, and both say converged=True.
    """
    # J and the bound on its exponent are mellin's, imported here so that a
    # process that never takes the axis form never loads mellin
    from .mellin import _RE_MIN, _sinh_sq_integral

    check_tol(tol)  # before the floor below can hide a bad value
    s = finite_s(s)
    if not 1.0 - s.real >= _RE_MIN:
        raise DomainError(
            f"axis form needs 1 - Re s >= {_RE_MIN} "
            f"(origin exponent -1-Re s must stay above -1), got Re s = {s.real}"
        )
    check_box(s, "axis evaluator")
    pref = -math.pi * sin_pi_z(0.5 * s)
    if pref == 0:
        return EvalResult(complex(0.0, 0.0), 0.0, 0, True, 0.0)
    amp = abs(pref)
    scale = _TWO_PI ** (s.real - 2.0)  # |(2 pi)^{s-2}|
    if not scale:
        raise TruncationFailure(f"(2 pi)^(s-2) underflows double range at s = {s}")
    j = _sinh_sq_integral(1.0 - s, max(TOL_MIN, tol / max(1.0, amp)) / scale)
    return EvalResult(pref * cpow_principal(_TWO_PI, s - 2.0) * j.value,
                      amp * scale * j.err_est, j.n_evals, j.converged,
                      j.truncation_height / _TWO_PI)


def residue_partial_sums(s: complex, sizes: list[int]) -> list[tuple[complex, float]]:
    """Minus the sum of the first N residues, sum_{n<=N} (s-1) n^{-s} -> E(s),
    with the integral-comparison bound |s-1| N^{1-Re s} / (Re s - 1) on the
    omitted tail, as (value, tail_bound) for each N of the increasing sizes;
    requires Re s > 1.  Each term n^{-s} is built once and each prefix added
    with math.fsum: a plain running sum can be off by more than the tail
    bound (4.2e-13 against 3.3e-14 at s = 4.75+1.5i, N = 4000)."""
    s = finite_s(s)
    if not s.real > 1.0:
        raise DomainError(f"residue sum converges only for Re s > 1, got Re s = {s.real}")
    if not (sizes and all(type(n) is int for n in sizes)  # bool is not a size
            and sizes[0] >= 1 and all(a < b for a, b in zip(sizes, sizes[1:]))):
        raise DomainError(f"sizes must be increasing integers >= 1, got {sizes}")
    # packed, a chunk of terms at a time: 16 bytes a term where two lists of
    # floats take 64, so the CLI's table to N = 10^6 peaks near 33 MB, not 92
    re, im = array("d"), array("d")
    for start in range(1, sizes[-1] + 1, _CHUNK):
        chunk_re, chunk_im = _neg_powers(s, range(start, min(start + _CHUNK, sizes[-1] + 1)))
        re.extend(chunk_re)
        im.extend(chunk_im)
    return [((s - 1.0) * complex(math.fsum(islice(re, n)), math.fsum(islice(im, n))),
             abs(s - 1.0) * float(n) ** (1.0 - s.real) / (s.real - 1.0)) for n in sizes]


def zeta_from_e(s: complex, e: EvalResult) -> EvalResult:
    """zeta(s) = E(s)/(s-1) from an evaluation e of E at s, err_est scaled alike."""
    s = finite_s(s)
    return EvalResult(_zeta_value(s, e.value), e.err_est / abs(s - 1.0), e.n_evals,
                      e.converged, e.truncation_height)


def _zeta_value(s: complex, e: complex) -> complex:
    """zeta(s) = e/(s-1) from the value e of E at a finite s; PoleAtOne
    inside the guard disk |s - 1| < 1e-6.  The one place E turns into zeta."""
    sm1 = s - 1.0
    if abs(sm1) < _POLE_RADIUS:
        raise PoleAtOne(
            f"zeta has a simple pole at s = 1 and |s-1| = {abs(sm1):.3e} is "
            f"inside the {_POLE_RADIUS} guard disk; evaluate entire_e_line instead"
        )
    return e / sm1


def zeta(s: complex, tol: float = 1e-12) -> EvalResult:
    """zeta(s) from the line contour's E(s) at tolerance tol; PoleAtOne
    inside the guard disk around s = 1."""
    return zeta_from_e(s, entire_e_line(s, tol))
