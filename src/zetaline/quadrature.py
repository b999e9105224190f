"""Deterministic quadrature on one rule: a nested trapezoid rule.

Three integral shapes are supported, matching what the contour evaluators
need: an integral over [a, inf) whose integrand is negligible beyond a
finite b, a whole-line integral whose tails the caller bounds in log space
(folded onto y >= 0), and a Mellin-type
integral on (0, inf) of t^alpha kernel(t), a real kernel times an
algebraic factor, decaying exponentially at infinity (handled by the
substitution t = e^u, which turns both ends into plain exponential tails
and a level into one pass of e^{(alpha+1) u} kernel(e^u), the kernel's
values read from a KernelTable: the nodes lie on a lattice of u that does
not depend on alpha, so a table serves every integral of one kernel).

All three run on integrate_interval: the trapezoid rule on a + k h, which
converges like e^{-2 pi d / h} for an integrand analytic in the strip
|Im u| < d and negligible at both ends (Trefethen & Weideman, SIAM Rev. 56
(2014), Thm 5.1).  h starts at a power of two no larger than 1/2 (1/4 by
default; the line contour starts its corrected lines at 1/2) and halves 6
times, or down to 2^-8 if that is further (_step_schedule), and each
halving reuses every earlier node.  The integrand comes as a level
evaluator, level(h, ks) -> the values at a + k h for k in the range ks, in
ascending order, so a caller can evaluate a whole level in one pass; the
first level's ks starts at 0, the node at a, and each halving's at 1.

Both front ends that cut a decay tail, integrate_line_decaying and
integrate_mellin, place the cut with one search (_truncation_height): the
first point of a 1/8 or 1/4 grid where the caller's bound on the log of
the tail meets its target, found by secant steps in a few calls of the
bound, at the point an exhaustive scan of the grid would find.

A caller that knows the poles nearest the real axis can pass their exact
contribution C(h) to the error T(h) - I, and each level becomes
T(h) - C(h) (the line contour subtracts the kernel's two nearest double
poles, whose residues it already sums).  Every caller passes a bound
on the trapezoid error, the theorem's 2M / (e^{2 pi d/h} - 1) for a
strip |Im u| < d free of the remaining poles, M bounding the integral of
|g(u + ib)| over u for every |b| < d, and a front end passes the tails it
cut as a number, which integrate_interval adds to that bound and to tol:
their sum B(h) >= |I - T(h) + C(h)| is the one stopping rule.  A level
whose T(h) lies within B(h) + B(2h) plus the sum's rounding of T(2h), as
the theorem implies, is certified when B(h) plus that rounding meets tol,
and is the round-off floor when B(h) is below the rounding; otherwise the
budget runs out.  converged is err_est <= tol at every exit (see
integrate_interval).
Every integrator returns an EvalResult, the package's one result type.

Everything is sequential-deterministic: nodes are summed level by level in
ascending coordinate order, so identical inputs give bitwise-identical
outputs.  The only state is a KernelTable's stored values, each the one
value its node always has, so what a table holds never changes a result.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from functools import lru_cache

from .errors import DomainError, NonFiniteIntegrand, TruncationFailure
from .record import Record

__all__ = [
    "EvalResult",
    "check_tol",
    "integrate_interval",
    "integrate_line_decaying",
    "integrate_mellin",
]

Level = Callable[[float, range], list[complex]]
Bound = Callable[[float], float]
Correction = Callable[[float], complex]

# exp() underflows to 0.0 below ~-745; keep the substitution variable above
# that so f is never handed an argument that collapsed to t = 0.0 exactly
_MELLIN_U_MIN = -740.0

_EPS = math.ulp(1.0)

_FIRST_STEP = 0.25   # default first trapezoid step
_MAX_STEP = 0.5      # largest first step; powers of two keep every node
_HALVINGS = 6        # a + k h exact and shared across levels; at least
_H_MIN = 2.0 ** -8   # 6 halvings, and down to this step

_MAX_HEIGHT = 500.0  # largest truncation height
TOL_MIN = 1e-14      # smallest tol any integrator takes


class EvalResult(Record):
    """truncation_height is None only on a bare integrate_interval result."""

    __slots__ = ()

    def __new__(cls, value: complex, err_est: float, n_evals: int, converged: bool,
                truncation_height: float | None = None) -> EvalResult:
        return tuple.__new__(cls, (value, err_est, n_evals, converged, truncation_height))


def check_tol(tol: float) -> None:
    """Raise DomainError unless the absolute tolerance tol is finite and at
    least TOL_MIN; every public integrator checks its tol here."""
    if not TOL_MIN <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= {TOL_MIN:g}, got {tol}")


@lru_cache(maxsize=None)
def _step_schedule(step: float) -> tuple[float, ...]:
    """The steps integrate_interval takes from a first step `step`: step and
    6 halvings, or down to _H_MIN if that is further."""
    return tuple(step * 0.5 ** k
                 for k in range(max(_HALVINGS, round(math.log2(step / _H_MIN))) + 1))


def integrate_interval(
    level: Level, a: float, b: float, tol: float = 1e-12, *, bound: Bound,
    step: float = _FIRST_STEP, correction: Correction | None = None, tails: float = 0.0,
) -> EvalResult:
    """Nested trapezoid rule T(h) = h (g(a)/2 + sum_{k >= 1, k h <= b - a} g(a + k h))
    for an integral over [a, inf) whose integrand g is negligible beyond b,
    read a level at a time: level(h, ks) returns [g(a + k h) for k in ks].

    The weight 1/2 at a suits an integrand negligible at a as well, or a
    whole-line integrand folded onto a.  h starts at `step`, a power of two
    no larger than 1/2, and halves 6 times or down to 2^-8 if that is
    further; a halving adds only the odd nodes of the finer grid.  With
    `correction`, each level T(h) below is T(h) - correction(h).
    B(h) = bound(h) + tails, tails >= 0 the part of the error that the
    caller's cuts leave out, must bound |I - T(h)| for every h, the nodes
    left out past b included, and the rule runs at tol + tails.  From the
    first halving on, a level with |T(h) - T(2h)| <= B(h) + B(2h) + noise,
    noise being the sum's rounding, stops the rule when
    B(h) + noise <= tol + tails (certified, err_est B(h) + noise) or when
    B(h) <= noise (round-off floor); the floor and a spent budget return
    err_est max(|T(h) - T(2h)|, B(h)) + noise.  `converged` is
    err_est <= tol + tails.
    """
    check_tol(tol)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got a={a}, b={b}")
    if not (0.0 < step <= _MAX_STEP and math.frexp(step)[0] == 0.5):
        raise DomainError(f"step must be a power of two <= {_MAX_STEP}, got {step}")
    if not 0.0 <= tails < math.inf:
        raise DomainError(f"tails must be finite and >= 0, got {tails}")
    tol += tails
    bound_h = bound(step) + tails
    # level 0 takes the node at a and every node k >= 1, each halving only the new odd k
    values = level(step, range(int((b - a) / step) + 1))
    acc = complex(0.5 * values[0])
    l1 = 0.5 * abs(values[0])  # ~ integral of |g| / h: sets the round-off floor
    values = values[1:]
    n_evals = 1
    for halving, h in enumerate(_step_schedule(step)):
        if halving:
            values = level(h, range(1, int((b - a) / h) + 1, 2))
        for v in values:  # ascending coordinate order
            acc += v
            l1 += abs(v)
        n_evals += len(values)
        if not cmath.isfinite(acc):
            raise NonFiniteIntegrand(f"integrand is not finite on the nodes of step {h}")
        refined = h * acc - correction(h) if correction else h * acc
        noise = 4.0 * _EPS * h * l1  # rounding of the sum
        if halving:
            diff = abs(refined - value)
            bound_prev, bound_h = bound_h, bound(h) + tails
            # T(h) and T(2h) lie within their bounds of I, unless the bound is wrong
            if diff <= bound_h + bound_prev + noise:
                if bound_h + noise <= tol:
                    return EvalResult(refined, bound_h + noise, n_evals, True)
                if bound_h <= noise:  # round-off floor: the noise, not the bound, limits err_est
                    break
        value = refined
    # the round-off floor, or the end of the budget
    est = max(diff, bound_h) + noise
    return EvalResult(refined, est, n_evals, est <= tol)


def _truncation_height(
    log_tail: Callable[[float], float], tail: float, start: float = 1.0,
    grid: float = 0.125,
) -> float:
    """Smallest height Y = start + k grid, k >= 0, with log_tail(Y) <= log(tail),
    where log_tail(Y) bounds the log of the integral of |f| beyond Y; grid
    is 1/8 or 1/4.

    log_tail may return inf where it has no bound; once it meets the target
    it must keep meeting it further out, so Y is where the grid crosses the
    target and the search only has to find a point that meets it with the
    point one step below failing.  Outward from start, each probe is the
    secant through the last two finite values, rounded up onto the grid,
    or a step of 2 where there is no such pair; once a probe meets the
    target, the secant through the bracket's ends, strictly inside it,
    shrinks it, with a bisection after two secant probes in a row that did
    not halve it.  A log_tail close to linear, as the line's and the Mellin
    tail are, takes about four calls.  The search looks no further than
    the last point start + 2j <= _MAX_HEIGHT, j an integer, and gives up if
    that point fails.  Evaluated in log space so extreme bound constants
    cannot overflow.
    """
    target = math.log(tail)
    lo, f_lo = start, log_tail(start)  # lo fails the target; hi, once found, meets it
    if f_lo <= target:
        return start
    last = start + 2.0 * ((_MAX_HEIGHT - start) // 2.0) if start < _MAX_HEIGHT else start
    inf, ceil = math.inf, math.ceil
    x = start + 2.0 if start + 2.0 < last else last
    f = log_tail(x)
    while f > target:  # out from start until a point meets the target
        if x >= last:
            raise TruncationFailure(
                f"no truncation height <= {_MAX_HEIGHT} puts the tail below {tail}")
        if f < f_lo < inf:  # the secant through lo and x, at least one step on
            ahead = x + grid * ceil((f - target) * (x - lo) / ((f_lo - f) * grid))
        else:
            ahead = x + 2.0
        lo, f_lo = x, f
        x = ahead if ahead < last else last
        f = log_tail(x)
    hi, f_hi = x, f
    slow = 0  # secant probes in a row that did not halve the bracket
    while True:  # shrink the bracket (lo, hi] to one step
        steps = (hi - lo) / grid
        if steps <= 1.0:
            return hi
        bisect = slow == 2 or not (f_lo < inf and -inf < f_hi)
        if bisect:
            k = ceil(0.5 * steps)
        else:  # the secant through lo and hi, strictly inside
            k = ceil((f_lo - target) / (f_lo - f_hi) * steps)
            if k >= steps:
                k = steps - 1.0
        x = lo + grid * k
        f = log_tail(x)
        if f <= target:
            hi, f_hi = x, f
        else:
            lo, f_lo, k = x, f, steps - k  # k: the steps left in the bracket
        slow = 0 if bisect or 2 * k <= steps else slow + 1


def integrate_line_decaying(
    level: Level, log_tail: Callable[[float], float], tol: float = 1e-12, *,
    bound: Bound, correction: Correction | None = None,
) -> EvalResult:
    """Integral over the whole real line of f, given the level evaluator of
    its fold g(y) = f(y) + f(-y) on y >= 0 (level(h, ks) returns
    [g(k h) for k in ks]) and the caller's bound log_tail(Y) on the log of
    the integral of |f| over each tail |y| >= Y (Y >= 1).

    The truncation height Y is the first point of the 1/8 grid from 1 where
    each tail is below tol/20, and integrate_interval runs on g over [0, Y]
    from h = 1/4.  n_evals counts values of f, two per node.  With a
    correction, which takes out the poles nearest the real axis, each level
    is h sum_k f(k h) - correction(h), the rule starts from h = 1/2, too
    coarse without it, and Y is the first such point of the 1/4 grid, the
    first one of the 1/8 grid rounded up to a multiple of 1/4.

    bound(h) bounds |I - h sum_k f(k h) + correction(h)|, the error of the
    (corrected) trapezoid sum over all integers k.  The levels that can
    stop the rule, h <= 1/8, or 1/4 with a correction, divide Y, so the
    nodes left out lie at |y| = Y + h, Y + 2h, ...; log_tail(Y) must then
    also bound h times the sum of |f| there, as it does when it bounds the
    integral of an envelope of |f| that decreases beyond Y.  Both tails, a
    tenth of tol, are integrate_interval's tails, added to the bound it
    judges each level by and to its tol: err_est covers them, and
    `converged` is err_est <= 1.1 tol.
    """
    check_tol(tol)
    step = _MAX_STEP if correction else _FIRST_STEP
    height = _truncation_height(log_tail, 0.05 * tol, grid=0.5 * step)
    base = integrate_interval(level, 0.0, height, tol, step=step, bound=bound,
                              correction=correction, tails=0.1 * tol)
    return EvalResult(base.value, base.err_est, 2 * base.n_evals, base.converged, height)


class KernelTable:
    """The values kernel(e^u) of a real kernel on the lattices that
    integrate_mellin's levels read, kept for the life of the table.

    A level's nodes u_left + k h are exact multiples of h, since u_left
    lies on the grid of the first step, so a level asks for
    kernel(e^u) at u = first + i spacing, i = 0 .. n - 1, and those values
    depend on u alone, whatever alpha and the cuts are.  The table keeps
    one list per lattice (offset, spacing), offset = first mod spacing
    (0 for a first level, h for the odd nodes a halving adds), covering
    the indices lo, lo + 1, ... seen so far; a request outside it extends
    the list to cover both, and publishes it with one assignment, so a
    thread only ever reads a complete list.  Threads that race store equal
    values, each entry computed from its own u, so no result depends on
    the order of filling.  The package keeps one table per kernel it
    integrates (mellin).
    """

    __slots__ = ("kernel", "_lattices")

    def __init__(self, kernel: Callable[[float], float]) -> None:
        self.kernel = kernel
        self._lattices: dict[tuple[float, float], tuple[int, list[float]]] = {}

    def values(self, first: float, spacing: float, n: int) -> list[float]:
        """[kernel(e^u) for u = first + i spacing, i in range(n)], first an
        exact multiple of spacing / 2."""
        offset = first % spacing
        start = int((first - offset) / spacing)
        lattices = self._lattices
        lo, vals = lattices.get((offset, spacing), (start, []))
        hi = lo + len(vals)
        if start < lo or start + n > hi:
            f, exp = self.kernel, math.exp
            new_lo, new_hi = min(lo, start), max(hi, start + n)
            vals = ([f(exp(offset + i * spacing)) for i in range(new_lo, lo)] + vals
                    + [f(exp(offset + i * spacing)) for i in range(hi, new_hi)])
            lo = new_lo
            lattices[offset, spacing] = (lo, vals)
        return vals[start - lo:start - lo + n]


def integrate_mellin(
    table: KernelTable,
    alpha: complex,
    tol: float = 1e-12,
    *,
    growth: float = 0.0,
    origin_coeff: float = 1.0,
    bound_const: float = 1.0,
    bound: Bound,
) -> EvalResult:
    """Integral of t^alpha kernel(t) over (0, inf), for the real kernel of a
    KernelTable with |kernel(t)| <= origin_coeff on (0, 1] and
    |t^alpha kernel(t)| <= bound_const t^growth e^{-t} on [1, inf)
    (alpha complex, Re alpha > -1); DomainError unless alpha, growth and
    the two constants are finite and the constants positive.

    Substitutes t = e^u and integrates g(u) = e^{(alpha+1)u} kernel(e^u)
    with integrate_interval, a level at a time.  The level reads
    kernel(e^u) from the table, which keeps the values for every later
    call; each value is kernel(math.exp(u)) at the node's own u, so a
    result does not depend on what the table held before.  A kernel whose
    expansion at the origin the caller has subtracted (as mellin does) has
    a large Re alpha and a short origin tail.

    The origin side is cut where the nodes left out, h |g(u_left)|/2 plus
    h sum_{k >= 1} |g(u_left - k h)| <= origin_coeff e^{(Re alpha+1) u_left}
    (h/2) coth((Re alpha+1) h/2), are below tol/10 at every level; the
    decay side at a T = e^{u_right} >= growth + 1 where the tail bound
    bound_const T^growth e^{-T} T/(T - growth), which bounds the integral
    of the envelope beyond T and so the nodes left out past u_right, is
    below tol/10.  Both cuts are rounded outward onto the grid of the first
    step, so every level's nodes stop exactly at them and are exact
    multiples of h; off it, the nodes past the last one could exceed the
    tail bound.  T is reported as the truncation height.  Where
    e^{(alpha+1) u} overflows at a node the level raises TruncationFailure.

    bound(h) bounds |I - h sum_k g(u_left + k h)| over all integers k, the
    trapezoid error on the whole line.  Both tails, a fifth of tol, are
    integrate_interval's tails, added to it and to tol, so err_est covers
    them and `converged` is err_est <= 1.2 tol.  g oscillates like
    e^{i Im(alpha) u}, which shrinks the strip where the trapezoid rule
    converges fast, so the first step is the largest h = 2^-k <= 1/4 with
    h (|Im alpha| + 4) <= pi.
    """
    check_tol(tol)
    alpha = complex(alpha)
    if not (alpha.real > -1.0 and cmath.isfinite(alpha)):
        raise DomainError(f"integrate_mellin needs a finite alpha with Re alpha > -1, got {alpha}")
    if not (0.0 < origin_coeff < math.inf and 0.0 < bound_const < math.inf
            and math.isfinite(growth)):
        raise DomainError(f"integrate_mellin needs finite origin_coeff, bound_const > 0 and "
                          f"growth, got {origin_coeff}, {bound_const}, {growth}")
    step = _FIRST_STEP
    while step * (abs(alpha.imag) + 4.0) > math.pi:
        step *= 0.5
    ap1 = alpha.real + 1.0
    target = 0.1 * tol
    # h (1/2 + 1/(e^{ap1 h} - 1)) grows with h: the first step is the worst
    log_left = math.log(origin_coeff * step * (0.5 + 1.0 / math.expm1(ap1 * step)))
    u_left = min(-2.0, (math.log(target) - log_left) / ap1)
    if u_left < _MELLIN_U_MIN:
        # the nodes left out at the representable floor
        if log_left + ap1 * _MELLIN_U_MIN > math.log(target):
            raise TruncationFailure(
                f"origin tail with alpha={alpha} cannot reach tol {tol} "
                f"within the representable range"
            )
        u_left = _MELLIN_U_MIN
    u_left = math.floor(u_left / step) * step
    growth = max(0.0, growth)
    log_c = math.log(bound_const)
    # the integral of C t^g e^{-t} beyond T > g is below C T^g e^{-T} T/(T - g);
    # from T = g + 1 on the envelope decreases in u, so h times the sum of
    # its nodes past u_right is below that integral too
    height = _truncation_height(
        lambda t: log_c + growth * math.log(t) - t - math.log1p(-growth / t),
        target, math.ceil((growth + 1.0) * 8.0) / 8.0)
    u_right = math.ceil(max(1.0, math.log(height)) / step) * step
    ap1c = alpha + 1.0
    exp = cmath.exp

    def level(h: float, ks: range) -> list[complex]:
        first, spacing = u_left + ks.start * h, ks.step * h
        try:
            return [exp(ap1c * (first + i * spacing)) * v
                    for i, v in enumerate(table.values(first, spacing, len(ks)))]
        except OverflowError:
            raise TruncationFailure(
                f"t^(alpha+1) overflows double range on (0, {math.exp(u_right):.6g}] "
                f"for alpha = {alpha}") from None

    base = integrate_interval(level, u_left, u_right, tol, step=step, bound=bound,
                              tails=0.2 * tol)
    return EvalResult(base.value, base.err_est, base.n_evals, base.converged, math.exp(u_right))
