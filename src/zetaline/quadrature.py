"""Deterministic quadrature: a nested trapezoid rule for the whole line,
composite Gauss-Legendre for intervals and Mellin integrals.

Three integral shapes are supported, matching what the contour evaluators
need: a finite interval, a whole-line integral with exponential decay
|f(y)| <= C (1+|y|)^g e^{-a|y|}, and a Mellin-type integral on (0, inf)
with algebraic behavior t^alpha at the origin and exponential decay at
infinity (handled by the substitution t = e^u, which turns both features
into plain exponential tails).

The whole-line integral uses the trapezoid rule on y = k h, which converges
like e^{-2 pi d / h} for an integrand analytic in the strip |Im y| < d
(Trefethen & Weideman, SIAM Rev. 56 (2014), Thm 5.1).  It starts at
h = 1/4 and halves h, and each halving reuses every earlier node.  The
finite-interval and Mellin integrals use composite Gauss-Legendre panels
with panel halving.

Error estimates come from one halving: err = |value(h) - value(h/2)|,
repeated until the target tolerance is met, the estimate stops improving
(round-off floor), or the refinement budget is exhausted.

Everything is pure and sequential-deterministic: nodes are summed in
ascending coordinate order (panel by panel for Gauss-Legendre, level by
level for the trapezoid rule), so identical inputs give bitwise-identical
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import DomainError, NonFiniteIntegrand, TruncationFailure

__all__ = [
    "QuadratureResult",
    "check_tol",
    "gauss_legendre_rule",
    "integrate_interval",
    "integrate_line_decaying",
    "integrate_mellin",
]

Integrand = Callable[[float], complex]

# exp() underflows to 0.0 below ~-745; keep the substitution variable above
# that so f is never handed an argument that collapsed to t = 0.0 exactly
_MELLIN_U_MIN = -740.0

_EPS = math.ulp(1.0)

_NODES_PER_PANEL = 16
_PANEL_WIDTH = 0.5
_MAX_REFINEMENTS = 8

_LINE_STEP = 0.25      # first trapezoid step on the line; a power of two,
_LINE_HALVINGS = 6     # so every node k h is exact and shared across levels


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    err_est: float
    n_evals: int
    converged: bool
    truncation_height: float | None = None


def check_tol(tol: float) -> None:
    """Raise DomainError if the absolute tolerance tol is below 1e-14 or NaN;
    every public integrator checks its tol here."""
    if not tol >= 1e-14:
        raise DomainError(f"tol must be >= 1e-14, got {tol}")


@lru_cache(maxsize=None)
def gauss_legendre_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], nodes ascending.

    Roots of P_n found by Newton iteration from the Chebyshev initial guess,
    polished to 1e-15; weights w = 2 / ((1 - x^2) P_n'(x)^2).  Cached, so the
    tuples are computed once per process and shared read-only.
    """
    if not 1 <= n <= 64:
        raise DomainError(f"gauss_legendre_rule supports 1 <= n <= 64, got {n}")
    nodes = [0.0] * n
    weights = [0.0] * n
    m = (n + 1) // 2
    for k in range(1, m + 1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        if n % 2 == 1 and k == m:
            x = 0.0  # middle root is exact
        dp = 0.0
        for _ in range(100):
            p, pm1 = 1.0, 0.0
            for j in range(1, n + 1):
                p, pm1 = ((2 * j - 1) * x * p - (j - 1) * pm1) / j, p
            if x == 0.0:
                dp = n * pm1  # limit of n(x P_n - P_{n-1})/(x^2 - 1) at 0
                break
            dp = n * (x * p - pm1) / (x * x - 1.0)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-15:
                # one more recurrence pass below refreshes dp at the final x
                p, pm1 = 1.0, 0.0
                for j in range(1, n + 1):
                    p, pm1 = ((2 * j - 1) * x * p - (j - 1) * pm1) / j, p
                dp = n * (x * p - pm1) / (x * x - 1.0)
                break
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes[k - 1] = -x
        weights[k - 1] = w
        nodes[n - k] = x  # second write wins for the odd middle slot: +0.0
        weights[n - k] = w
    return tuple(nodes), tuple(weights)


def _sum_panels(f: Integrand, a: float, b: float, n_panels: int) -> tuple[complex, float]:
    """Composite sum over n_panels equal panels, plus the L1 norm of the
    weighted node values (~ integral of |f|), which sets the round-off floor
    of the sum: accumulated noise is a few eps times that norm."""
    nodes, weights = gauss_legendre_rule(_NODES_PER_PANEL)
    h = (b - a) / n_panels
    half = 0.5 * h
    total = complex(0.0, 0.0)
    l1 = 0.0
    for p in range(n_panels):  # ascending coordinate order
        center = a + h * p + half
        acc = complex(0.0, 0.0)
        acc_abs = 0.0
        for x, w in zip(nodes, weights):
            fv = complex(f(center + half * x))
            if not (math.isfinite(fv.real) and math.isfinite(fv.imag)):
                raise NonFiniteIntegrand(
                    f"integrand returned {fv} at {center + half * x!r}"
                )
            acc += w * fv
            acc_abs += w * abs(fv)
        total += half * acc
        l1 += half * acc_abs
    return total, l1


def integrate_interval(f: Integrand, a: float, b: float, tol: float = 1e-12) -> QuadratureResult:
    """Composite Gauss-Legendre on [a, b] with panel-halving error estimates."""
    check_tol(tol)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got a={a}, b={b}")
    n_panels = max(1, math.ceil((b - a) / _PANEL_WIDTH))
    value, _ = _sum_panels(f, a, b, n_panels)
    n_evals = n_panels * _NODES_PER_PANEL
    err = math.inf
    for _ in range(_MAX_REFINEMENTS):
        n_panels *= 2
        refined, l1 = _sum_panels(f, a, b, n_panels)
        n_evals += n_panels * _NODES_PER_PANEL
        err_new = abs(refined - value)
        value = refined
        if err_new <= tol:
            return QuadratureResult(value, err_new, n_evals, True)
        if err_new >= err or err_new <= 4.0 * _EPS * l1:
            # halving stopped helping, or the difference is below the
            # accumulation noise of the sum itself: round-off floor reached
            return QuadratureResult(value, err_new, n_evals, False)
        err = err_new
    return QuadratureResult(value, err, n_evals, False)


def _truncation_height(
    decay_rate: float,
    growth_bound: float,
    bound_const: float,
    tol: float,
    cap: float = 500.0,
) -> float:
    """Smallest height Y (on a 1/8 grid) with C(1+Y)^g e^{-aY}/a <= tol/10.

    Evaluated in log space so extreme bound constants cannot overflow.  The
    grid start max(1, g/a) keeps the scan past the envelope's maximum, where
    the bound is decreasing and "smallest satisfying Y" is well defined.
    """
    log_target = math.log(0.1 * tol)
    log_c = math.log(bound_const) - math.log(decay_rate)
    y = max(1.0, growth_bound / decay_rate)
    y = math.ceil(y * 8.0) / 8.0
    while y <= cap:
        if log_c + growth_bound * math.log1p(y) - decay_rate * y <= log_target:
            return y
        y += 0.125
    raise TruncationFailure(
        f"no truncation height <= {cap} meets tol {tol} "
        f"(decay={decay_rate}, growth={growth_bound}, C={bound_const})"
    )


def integrate_line_decaying(
    f: Integrand,
    decay_rate: float,
    growth_bound: float,
    tol: float = 1e-12,
    *,
    bound_const: float = 1.0,
) -> QuadratureResult:
    """Integral of f over the whole real line, truncated by the caller's bound
    |f(y)| <= bound_const * (1+|y|)^growth_bound * e^{-decay_rate*|y|}.

    The tail beyond the chosen Y is below tol/10 on each side.  The trapezoid
    rule runs on the folded integrand g(y) = f(y) + f(-y) over the nodes
    y = k h in [0, Y], with weight 1/2 at y = 0: T(h) = h (g(0)/2 + sum g(kh)).
    h starts at 1/4 and halves at most 6 times; a halving adds only the odd
    nodes of the finer grid.  Mirror-symmetric inputs keep conjugation
    symmetry bitwise because complex addition commutes.
    """
    check_tol(tol)
    if not decay_rate > 0.0:
        raise DomainError(f"decay_rate must be positive, got {decay_rate}")
    if growth_bound < 0.0:
        raise DomainError(f"growth_bound must be >= 0, got {growth_bound}")
    if not bound_const > 0.0:
        raise DomainError(f"bound_const must be positive, got {bound_const}")
    height = _truncation_height(decay_rate, growth_bound, bound_const, tol)
    h = _LINE_STEP
    g0 = f(0.0) + f(-0.0)
    acc = 0.5 * g0
    l1 = 0.5 * abs(g0)  # ~ integral of |g| / h: sets the round-off floor
    n_pairs = 1
    err = math.inf
    for halving in range(_LINE_HALVINGS + 1):
        # level 0 takes every node k >= 1, each halving only the new odd k
        ks = range(1, int(height / h) + 1, 2 if halving else 1)
        for k in ks:  # ascending coordinate order
            y = k * h
            g = f(y) + f(-y)
            acc += g
            l1 += abs(g)
        n_pairs += len(ks)
        if not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
            raise NonFiniteIntegrand(f"integrand is not finite on the nodes of step {h}")
        refined = h * acc
        if halving:
            err_new = abs(refined - value)
            if err_new <= tol:
                return QuadratureResult(refined, err_new, 2 * n_pairs, True, height)
            if err_new >= err or err_new <= 4.0 * _EPS * h * l1:
                # halving stopped helping, or the difference is below the
                # accumulation noise of the sum itself: round-off floor reached
                return QuadratureResult(refined, err_new, 2 * n_pairs, False, height)
            err = err_new
        value = refined
        h *= 0.5
    return QuadratureResult(value, err, 2 * n_pairs, False, height)


def integrate_mellin(
    f: Integrand,
    alpha: float,
    decay_rate: float,
    tol: float = 1e-12,
    *,
    growth: float = 0.0,
    origin_coeff: float = 1.0,
    bound_const: float = 1.0,
) -> QuadratureResult:
    """Integral of f over (0, inf) with f ~ origin_coeff * t^alpha at 0 and
    |f(t)| <= bound_const * t^growth * e^{-decay_rate*t} at infinity.

    Substitutes t = e^u and integrates g(u) = f(e^u) e^u.  The origin becomes
    a pure exponential tail ~ origin_coeff * e^{(alpha+1)u}, cut where it is
    below tol/10; the decay side reuses the line truncation rule and
    reports its cutoff T = e^{u_right} as the truncation height.
    """
    check_tol(tol)
    if not alpha > -1.0:
        raise DomainError(f"integrate_mellin needs alpha > -1, got {alpha}")
    if not decay_rate > 0.0:
        raise DomainError(f"decay_rate must be positive, got {decay_rate}")
    ap1 = alpha + 1.0
    target = 0.1 * tol
    u_left = min(-2.0, math.log(target * ap1 / origin_coeff) / ap1)
    if u_left < _MELLIN_U_MIN:
        # tail bound at the representable floor, origin_coeff*e^{ap1*u}/ap1
        if math.log(origin_coeff / ap1) + ap1 * _MELLIN_U_MIN > math.log(target):
            raise TruncationFailure(
                f"origin tail with alpha={alpha} cannot reach tol {tol} "
                f"within the representable range"
            )
        u_left = _MELLIN_U_MIN
    height = _truncation_height(decay_rate, max(0.0, growth), bound_const, tol)
    u_right = max(1.0, math.log(height))
    base = integrate_interval(lambda u: f(math.exp(u)) * math.exp(u), u_left, u_right, tol)
    return QuadratureResult(base.value, base.err_est, base.n_evals, base.converged, math.exp(u_right))
