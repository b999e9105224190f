import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline import contour, mellin, quadrature
from zetaline.contour import entire_e_line
from zetaline.errors import DomainError, NonFiniteIntegrand, TruncationFailure
from zetaline.quadrature import (
    KernelTable,
    integrate_interval,
    integrate_line_decaying,
    integrate_mellin,
)

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


def _level(g, a=0.0):
    """The level evaluator of the per-node integrand g on the grid a + k h."""
    return lambda h, ks: [g(a + k * h) for k in ks]


def _strip(m, d, tails=0.0):
    """Trefethen & Weideman's bound 2M / (e^{2 pi d/h} - 1) on the error of
    the trapezoid sum of an integrand analytic in the strip |Im x| < d, M
    bounding the integral of its modulus along every line Im x = b there,
    plus `tails` for the nodes and the integral past the cuts."""
    return lambda h: 2.0 * m / math.expm1(2.0 * math.pi * d / h) + tails


def _no_bound(h):
    """A bound that holds for every integrand and so certifies no level."""
    return math.inf


# |sech(x + ib)| <= sech(x) / cos(b): M = pi / cos(d) for d < pi/2; past |x| = 40
# the nodes and the integral of sech <= 2 e^{-|x|} are below 8 e^{-40}
_SECH = _strip(math.pi / math.cos(1.0), 1.0, 8.0 * math.exp(-40.0))
# |e^{-(x + ib)^2}| = e^{-x^2 + b^2}: M = sqrt(pi) e^{d^2}, with e^{-b} more for
# e^{-x^2 + ix}; past |x| = 10 everything is below 1e-40
_GAUSS = _strip(math.sqrt(math.pi) * math.e, 1.0, 1e-40)
_GAUSS_OSC = _strip(math.sqrt(math.pi) * math.e ** 2, 1.0, 1e-40)


def _mellin_bound(alpha):
    """The strip bound, at d = 1, of the Mellin integrand e^{(alpha+1) u}
    e^{-e^u}, alpha real: along Im u = b its modulus integrates to
    Gamma(alpha+1) / cos(b)^{alpha+1}."""
    return _strip(math.gamma(alpha + 1.0) / math.cos(1.0) ** (alpha + 1.0), 1.0)


def test_interval_known_integrals():
    # integral over R of sech(x) = pi; of e^{-x^2} = sqrt(pi)
    r = integrate_interval(_level(lambda x: 1.0 / math.cosh(x), -40.0), -40.0, 40.0,
                           bound=_SECH)
    assert r.converged
    assert r.value.real == pytest.approx(math.pi, rel=1e-14)
    r = integrate_interval(_level(lambda x: math.exp(-x * x), -10.0), -10.0, 10.0,
                           bound=_GAUSS)
    assert r.converged
    assert r.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_interval_complex_integrand():
    # integral over R of e^{-x^2 + ix} = sqrt(pi) e^{-1/4}
    r = integrate_interval(_level(lambda x: math.exp(-x * x) * complex(math.cos(x), math.sin(x)),
                                  -10.0), -10.0, 10.0, bound=_GAUSS_OSC)
    assert r.converged
    assert r.value == pytest.approx(math.sqrt(math.pi) * math.exp(-0.25), abs=1e-13)


def test_interval_rejects_bad_bounds():
    for a, b in ((1.0, 0.0), (0.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            integrate_interval(_level(math.exp, a), a, b, bound=_no_bound)


def test_interval_rejects_bad_step():
    """The first step must be a power of two no larger than 1/2, so every
    node a + k h is exact and shared by the finer levels."""
    for step in (1.0, 0.3, 0.0, -0.25, math.nan):
        with pytest.raises(DomainError):
            integrate_interval(_level(math.exp), 0.0, 1.0, step=step, bound=_no_bound)


def test_interval_halves_down_to_the_finest_step():
    """From h = 1/2 the rule halves 7 times, down to 2^-8, the finest step
    from 1/4; from 1/8 it still halves 6 times: the constant cut at b = 1
    never settles, so each start spends its whole budget.  The bound h/2 is
    the exact error of T(h) = 1 + h/2 against 1, the integral of 1 over
    [0, 1]."""
    seen = []

    def level(h, ks):
        seen.append(h)
        return [1.0] * len(ks)

    for step, finest in ((0.5, 2.0 ** -8), (0.25, 2.0 ** -8), (0.125, 2.0 ** -9)):
        seen.clear()
        r = integrate_interval(level, 0.0, 1.0, 1e-14, step=step, bound=lambda h: 0.5 * h)
        assert seen[0] == step and seen[-1] == finest and not r.converged
        assert tuple(seen) == quadrature._step_schedule(step)  # the schedule others read


def test_interval_nonfinite_integrand():
    with pytest.raises(NonFiniteIntegrand):
        integrate_interval(_level(lambda x: complex(math.nan, 0.0)), 0.0, 1.0, bound=_no_bound)
    with pytest.raises(NonFiniteIntegrand):
        integrate_interval(_level(lambda x: complex(0.0, math.inf)), 0.0, 1.0, bound=_no_bound)


@given(
    a=st.floats(min_value=-3.0, max_value=0.0),
    c1=st.floats(min_value=-5.0, max_value=5.0),
    c2=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_interval_linearity(a, c1, c2):
    def f1(x: float) -> float:
        return 1.0 / math.cosh(x - a)

    def f2(x: float) -> complex:
        return math.exp(-x * x) * complex(math.cos(x), math.sin(x))

    lo, hi = a - 40.0, a + 40.0
    combined = integrate_interval(_level(lambda x: c1 * f1(x) + c2 * f2(x), lo), lo, hi,
                                  bound=lambda h: abs(c1) * _SECH(h) + abs(c2) * _GAUSS_OSC(h))
    separate = (c1 * integrate_interval(_level(f1, lo), lo, hi, bound=_SECH).value
                + c2 * integrate_interval(_level(f2, lo), lo, hi, bound=_GAUSS_OSC).value)
    assert combined.value == pytest.approx(separate, abs=1e-12)


def test_interval_conjugation_bitwise():
    def f(x: float) -> complex:
        return math.exp(-x * x) * complex(1.0, math.sin(x) * x)

    # |1 + i z sin z| <= 1 + (|x| + d) cosh d at z = x + ib, |b| <= d = 1
    bound = _strip(math.e * (math.sqrt(math.pi) + (1.0 + math.sqrt(math.pi)) * math.cosh(1.0)),
                   1.0, 1e-40)
    r1 = integrate_interval(_level(lambda x: f(x).conjugate(), -10.0), -10.0, 10.0, bound=bound)
    r2 = integrate_interval(_level(f, -10.0), -10.0, 10.0, bound=bound)
    assert r1.value == r2.value.conjugate()


def test_line_gaussian():
    # integral over R of e^{-y^2} = sqrt(pi), from the fold 2 e^{-y^2};
    # the bound |f| <= 1 * e^{-|y|} fails for small |y| but
    # e^{-y^2} <= e * e^{-|y|} everywhere, so a tail is at most e^{1-Y}
    r = integrate_line_decaying(
        _level(lambda y: complex(2.0 * math.exp(-y * y))),
        log_tail=lambda y: 1.0 - y,
        bound=_strip(math.sqrt(math.pi) * math.e, 1.0),
    )
    assert r.converged
    assert r.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert r.truncation_height is not None and r.truncation_height > 0


def test_line_truncation_error_within_estimate():
    # sech integral: integral over R of 1/cosh(y) = pi
    r = integrate_line_decaying(
        _level(lambda y: complex(2.0 / math.cosh(y))), lambda y: math.log(2.0) - y,
        bound=_strip(math.pi / math.cos(1.0), 1.0)
    )
    assert abs(r.value.real - math.pi) <= max(r.err_est * 10.0, 1e-12)


def test_line_unreachable_tolerance_raises():
    # decay so slow the height bound cannot reach tol/10 under the cap
    with pytest.raises(TruncationFailure):
        integrate_line_decaying(
            _level(lambda y: complex(math.exp(-1e-4 * abs(y)))),
            lambda y: math.log(1e4) - 1e-4 * y,
            tol=1e-12,
            bound=_no_bound,
        )


def test_line_halvings_reuse_every_node():
    """Each halving evaluates only new nodes: no y is seen twice, the nodes
    form one nested grid on [0, Y], and n_evals counts two values of the
    unfolded integrand per node."""
    seen = []

    def g(y: float) -> complex:
        seen.append(y)
        return complex(2.0 / math.cosh(y), 0.0)

    r = integrate_line_decaying(_level(g), lambda y: math.log(2.0) - y,
                                bound=_strip(math.pi / math.cos(1.0), 1.0))
    assert r.converged
    assert r.value == pytest.approx(math.pi, rel=1e-12)
    assert 2 * len(seen) == r.n_evals
    assert len(set(seen)) == len(seen)
    # the nodes seen are exactly the finest grid k h on [0, Y]
    ys = sorted(seen)
    assert ys == [k * ys[1] for k in range(len(ys))]
    assert ys[-1] <= r.truncation_height < ys[-1] + ys[1]


def test_line_nonfinite_integrand():
    with pytest.raises(NonFiniteIntegrand):
        integrate_line_decaying(_level(lambda y: complex(math.nan, 0.0)), lambda y: -y,
                                bound=_no_bound)
    with pytest.raises(NonFiniteIntegrand):
        integrate_line_decaying(_level(lambda y: complex(0.0, math.inf if y > 2.0 else 0.0)),
                                lambda y: -y, bound=_no_bound)


@pytest.mark.parametrize("w", [10.25, 10.5, 11.0, 11.5, 11.75])
def test_line_err_est_covers_cancellation(w):
    """f(y) = 1e4 cos(w y) e^{-y^2} integrates to 1e4 sqrt(pi) e^{-w^2/4},
    about 1e-7, from terms near 1e4: the sum's rounding, not the halving
    difference, dominates the error, and err_est must include it.  Along
    Im y = b, |cos(w y)| <= cosh(w b), so M = 1e4 sqrt(pi) e^{d^2} cosh(w d)."""
    m = 1e4 * math.sqrt(math.pi) * math.e * math.cosh(w)  # at d = 1
    r = integrate_line_decaying(_level(lambda y: 2e4 * math.cos(w * y) * math.exp(-y * y)),
                                lambda y: math.log(1e4) + 1.0 - y, bound=_strip(m, 1.0))
    exact = 1e4 * math.sqrt(math.pi) * math.exp(-w * w / 4.0)
    assert abs(r.value - exact) <= r.err_est


def test_err_est_includes_cut_tails():
    """Both front ends cut tails worth a share of tol and report it."""
    tol = 1e-10
    r = integrate_line_decaying(_level(lambda y: complex(2.0 / math.cosh(y))),
                                lambda y: math.log(2.0) - y, tol,
                                bound=_strip(math.pi / math.cos(1.0), 1.0))
    assert r.err_est >= 0.1 * tol
    r = integrate_mellin(KernelTable(lambda t: complex(math.exp(-t))), 0.0, tol,
                         bound=_mellin_bound(0.0))
    assert r.err_est >= 0.2 * tol


def _sech(x):
    q = math.exp(-x)
    return 2.0 * q / (1.0 + q * q)


def _corrected_sech_bound(h):
    """B(h) of the sech rule with the poles at +-i pi/2 taken out (see
    test_line_correction_takes_out_the_nearest_poles)."""
    return 4.0 * math.pi * math.exp(-2.0 * math.pi ** 2 / h) / (1.0 - math.exp(-math.pi ** 2 / h))


@pytest.mark.parametrize("level, b, bound, kwargs", [
    (_level(lambda y: complex(2.0 * _sech(y))), 40.0,
     _strip(math.pi / math.cos(1.5), 1.5), {}),
    (_level(lambda y: complex(2.0 * _sech(y))), 40.0, _corrected_sech_bound,
     {"step": 0.5, "correction": lambda h: 2.0 * math.pi * _sech(math.pi ** 2 / h)}),
    (_level(lambda y: complex(2e6 * _sech(y))), 40.0,
     _strip(1e6 * math.pi / math.cos(0.25), 0.25), {}),
    (lambda h, ks: [1.0] * len(ks), 1.0, lambda h: 0.5 * h, {}),
], ids=["plain", "corrected", "round-off-floor", "budget"])
def test_tails_fold_into_bound_and_tol(level, b, bound, kwargs):
    """integrate_interval with tails=t returns, bit for bit, what it returns
    for the bound bound(h) + t at tol + t, with t = 0 and tails far below,
    near and above the bound: on 2 sech(y) over [0, 40], without and with
    the correction of its nearest poles, on 1e6 times it, where tol lies
    below the sum's rounding, and on a constant cut at 1, which no level
    meets.  A negative or non-finite tails is a DomainError."""
    for tol in (1e-14, 1e-12, 1e-8):
        for t in (0.0, 1e-30, 1e-16, 1e-13, 0.1 * tol, 3e-9, 1e-3):
            folded = integrate_interval(level, 0.0, b, tol, bound=bound, tails=t, **kwargs)
            wrapped = integrate_interval(level, 0.0, b, tol + t,
                                         bound=lambda h: bound(h) + t, **kwargs)
            assert repr(folded) == repr(wrapped), (tol, t)
    for t in (-1e-12, math.nan, math.inf):
        with pytest.raises(DomainError):
            integrate_interval(level, 0.0, b, bound=bound, tails=t, **kwargs)


def test_line_certified_by_strip_bound():
    """sech(8y) is analytic for |Im y| < pi/16, and |sech(8(x + ib))| <=
    sech(8x) / cos(8b), so M = pi / (8 cos(8d)) and B(h) = 2M / (e^{2 pi d/h}
    - 1) bound the trapezoid error for d < pi/16.  With B the rule stops at
    the first level it certifies, within err_est; a bound the levels
    contradict certifies nothing, and the rule runs to the end of its
    budget, h = 2^-8, where err_est is the larger of the difference and the
    bound."""
    d = 0.15
    m = math.pi / (8.0 * math.cos(8.0 * d))
    level = _level(lambda y: complex(2.0 / math.cosh(8.0 * y)))
    log_tail = lambda y: math.log(0.25) - 8.0 * y  # noqa: E731
    r = integrate_line_decaying(level, log_tail, bound=_strip(m, d))
    assert r.converged and r.n_evals == 242
    assert abs(r.value - math.pi / 8.0) <= r.err_est <= 1e-12
    lying = integrate_line_decaying(level, log_tail, bound=lambda h: 1e-13 if h > 0.05 else 1.0)
    assert lying.n_evals == 2 * (int(lying.truncation_height * 256.0) + 1) == 1922
    assert lying.err_est > 1.0 and not lying.converged


def test_line_correction_takes_out_the_nearest_poles():
    """sech(y) has simple poles at y = +-i pi/2, and by Poisson summation
    h sum_k sech(k h) - pi = 2 pi sum_{m >= 1} sech(pi^2 m/h): the term
    m = 1 is C(h), what those poles contribute, and the rest is at most
    B(h) = 4 pi e^{-2 pi^2/h} / (1 - e^{-pi^2/h}).  With C subtracted from
    each level the rule certifies h = 1/4, the first halving from 1/2,
    within err_est of pi, where the rule without C, bounded on the strip
    |Im y| < 3/2 short of the poles, needs more levels."""
    level = _level(lambda y: complex(2.0 * _sech(y)))
    log_tail = lambda y: math.log(2.0) - y  # noqa: E731
    plain = integrate_line_decaying(level, log_tail, bound=_strip(math.pi / math.cos(1.5), 1.5))
    r = integrate_line_decaying(
        level, log_tail, correction=lambda h: 2.0 * math.pi * _sech(math.pi ** 2 / h),
        bound=_corrected_sech_bound)
    h = 0.25
    assert r.converged and r.n_evals == 2 * (int(r.truncation_height / h) + 1)
    assert r.n_evals < plain.n_evals
    assert abs(r.value - math.pi) <= r.err_est <= 1e-12


def _spy_levels(monkeypatch) -> list:
    """Record each integrate_interval call as (its levels' (h, values) in
    order, the tol and the bound it judges them by, tails included, its
    correction, its result)."""
    calls = []
    real = quadrature.integrate_interval

    def spy(level, *args, bound, tails=0.0, **kwargs):
        levels = []

        def recorded(h: float, ks: range) -> list[complex]:
            levels.append((h, level(h, ks)))
            return levels[-1][1]

        r = real(recorded, *args, bound=bound, tails=tails, **kwargs)
        calls.append((levels, args[2] + tails, lambda h: bound(h) + tails,
                      kwargs.get("correction"), r))
        return r

    monkeypatch.setattr(quadrature, "integrate_interval", spy)
    return calls


def _halvings(levels, correction=None) -> list[tuple[float, float]]:
    """(|T(h) - T(2h)|, noise) at each halving, summed as integrate_interval
    sums: the node at a, then each level's new nodes in order, each level
    less correction(h)."""
    (h0, (g0, *first)), *rest = levels
    acc, l1 = complex(0.5 * g0), 0.5 * abs(g0)
    out, prev = [], None
    for h, values in [(h0, first), *rest]:
        for v in values:
            acc += v
            l1 += abs(v)
        refined = h * acc - correction(h) if correction else h * acc
        if prev is not None:
            out.append((abs(refined - prev), 4.0 * math.ulp(1.0) * h * l1))
        prev = refined
    return out


def _floor_exit(calls) -> None:
    """Check that the one spied integrate_interval call stopped on the
    round-off floor: its last level agrees with the one before within their
    bounds and the noise, its bound is below the noise but, with the noise,
    above tol, and err_est is the larger of the difference and the bound,
    plus the noise, above tol."""
    (levels, tol, bound, correction, base), = calls
    diff, noise = _halvings(levels, correction)[-1]
    h = levels[-1][0]
    assert diff <= bound(h) + bound(2.0 * h) + noise
    assert bound(h) <= noise and bound(h) + noise > tol
    assert base.err_est == max(diff, bound(h)) + noise and not base.converged


def _gamma_integral(alpha: float, tol: float):
    """integrate_mellin on t^alpha e^{-t}, whose integral is Gamma(alpha + 1)."""
    return integrate_mellin(KernelTable(lambda t: math.exp(-t)), alpha, tol, growth=alpha,
                            bound=_mellin_bound(alpha))


@pytest.mark.parametrize("run, n_evals, err_est", [
    (lambda: entire_e_line(-20.0, 1e-14), 474, 3.58081052160454e-10),
    (lambda: _gamma_integral(10.0, 1e-14), 61, 0.009971235376497134),
], ids=["line-at-minus-20", "gamma-at-11"])
def test_interval_round_off_floor_exit(monkeypatch, run, n_evals, err_est):
    """Where tol lies below the sum's rounding the loop stops on the
    round-off floor, the first level whose bound is below the noise, with
    converged=False: halving further cannot lower err_est below the noise."""
    calls = _spy_levels(monkeypatch)
    r = run()
    _floor_exit(calls)
    assert not r.converged and r.n_evals == n_evals
    assert r.err_est == pytest.approx(err_est, rel=1e-9)


def test_interval_floor_exit_far_left(monkeypatch):
    """At Re s = -60, a trivial zero, the line's sum cancels far above tol:
    the loop stops on the round-off floor, converged=False, and the value,
    whose exact counterpart is 0, lies within err_est."""
    calls = _spy_levels(monkeypatch)
    r = entire_e_line(-60.0, 1e-14)
    _floor_exit(calls)
    assert not r.converged and r.n_evals == 1346
    assert abs(r.value) <= r.err_est


def _exit(levels, tol, bound, correction) -> str:
    """Which exit one integrate_interval call took, read off its levels."""
    diff, noise = _halvings(levels, correction)[-1]
    h = levels[-1][0]
    if diff <= bound(h) + bound(2.0 * h) + noise:
        if bound(h) + noise <= tol:
            return "certified"
        if bound(h) <= noise:
            return "floor"
    return "budget"


@pytest.mark.parametrize("run, exit", [
    (lambda: entire_e_line(2.0 + 3.0j), "certified"),
    (lambda: mellin._sinh_sq_integral(3.0, 1e-12), "certified"),
    (lambda: _gamma_integral(9.0, 1e-12), "floor"),
    (lambda: quadrature.integrate_interval(lambda h, ks: [1.0] * len(ks), 0.0, 1.0, 1e-14,
                                           bound=lambda h: 0.5 * h), "budget"),
    (lambda: integrate_line_decaying(_level(lambda y: complex(2.0 / math.cosh(8.0 * y))),
                                     lambda y: math.log(0.25) - 8.0 * y,
                                     bound=lambda h: 1e-13 if h > 0.05 else 1.0), "budget"),
], ids=["line", "sinh-at-3", "gamma-at-10", "constant", "lying-bound"])
def test_converged_is_err_est_within_tol(monkeypatch, run, exit):
    """At every exit converged is err_est <= tol, the tol integrate_interval
    was given.  Gamma(10) = 362880 as a Mellin integral at tol 1e-12 stops
    on the floor, where a rule that judged the halving difference without
    the noise would say converged=True (as J(6) did before its head was
    subtracted: err_est 3.26e-12 after 165 evaluations)."""
    calls = _spy_levels(monkeypatch)
    r = run()
    (levels, tol, bound, correction, base), = calls
    assert _exit(levels, tol, bound, correction) == exit
    assert base.converged == (base.err_est <= tol)
    assert r.converged == base.converged


def test_interval_budget_exit():
    """A constant cut at b = 1 is not negligible there, so T(h) = 1 + h/2
    and every halving differs by h/2, shrinking yet above tol: the loop
    runs out of halvings and returns the finest level, converged=False,
    with err_est its last difference, equal to the bound h/2, plus the
    noise."""
    r = integrate_interval(lambda h, ks: [1.0] * len(ks), 0.0, 1.0, 1e-14,
                           bound=lambda h: 0.5 * h)
    h = 2.0 ** -8
    assert r.value == 1.0 + h / 2.0
    assert r.n_evals == 1 + 4 + 252
    assert not r.converged
    assert r.err_est == h / 2.0 + 4.0 * math.ulp(1.0) * h * (0.5 + 256.0)


def test_mellin_gamma_integral():
    # integral of t^{s-1} e^{-t} = Gamma(s): kernel e^{-t}, alpha = s - 1
    for s, want in ((2.0, 1.0), (3.5, 3.32335097044784255)):
        r = integrate_mellin(
            KernelTable(lambda t: math.exp(-t)),
            alpha=s - 1.0,
            growth=s - 1.0,
            bound=_mellin_bound(s - 1.0),
        )
        assert r.converged
        assert r.value.real == pytest.approx(want, rel=1e-12)


def test_mellin_origin_singularity_integrable():
    # integral of t^{-1/2} e^{-t} = Gamma(1/2) = sqrt(pi): kernel e^{-t}
    r = integrate_mellin(
        KernelTable(lambda t: math.exp(-t)),
        alpha=-0.5,
        bound=_mellin_bound(-0.5),
    )
    assert r.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_mellin_decay_cut_covers_the_exact_tail():
    """The decay side is cut at a T where the integral beyond it of the
    bound t^g e^{-t} (kernel e^{-t}, alpha = g), Gamma(g + 1, T) =
    g! e^{-T} sum_{k <= g} T^k/k! for integer g, is at most tol/10."""
    for g in range(2, 7):
        for k in range(2, 29):
            tol = 10.0 ** (-k / 2)
            t = integrate_mellin(KernelTable(lambda t: math.exp(-t)), float(g), tol,
                                 growth=float(g), bound=_mellin_bound(float(g))).truncation_height
            tail = math.factorial(g) * math.exp(-t) * sum(
                t ** j / math.factorial(j) for j in range(g + 1))
            assert tail <= 0.1 * tol, (g, tol, t)


def test_mellin_rejects_nonintegrable_origin():
    """Re alpha <= -1, a non-finite alpha, and constants that are not
    finite and positive are DomainErrors, not a ZeroDivisionError, a plain
    ValueError or a cut placed from a NaN."""
    with pytest.raises(DomainError):
        integrate_mellin(KernelTable(lambda t: complex(1.0 / t)), alpha=-1.0, bound=_no_bound)
    kernel = KernelTable(lambda t: math.exp(-t))
    for alpha in (complex(0.5, math.inf), complex(0.5, math.nan), complex(math.nan, 0.0)):
        with pytest.raises(DomainError):
            integrate_mellin(kernel, alpha, bound=_mellin_bound(0.5))
    bad = [{name: v} for name in ("origin_coeff", "bound_const")
           for v in (0.0, -1.0, math.nan, math.inf)]
    for kwargs in bad + [{"growth": math.nan}, {"growth": math.inf}]:
        with pytest.raises(DomainError):
            integrate_mellin(kernel, 0.5, bound=_mellin_bound(0.5), **kwargs)


def test_plan_validation():
    """Every integrator rejects a tolerance below 1e-14, infinite or NaN."""
    for tol in (0.0, 1e-15, math.inf, math.nan):
        with pytest.raises(DomainError):
            integrate_interval(_level(math.exp), 0.0, 1.0, tol, bound=_no_bound)
        with pytest.raises(DomainError):
            integrate_line_decaying(_level(lambda y: complex(math.exp(-y * y))), lambda y: -y,
                                    tol, bound=_no_bound)
        with pytest.raises(DomainError):
            integrate_mellin(KernelTable(lambda t: complex(math.exp(-t))), 0.0, tol,
                             bound=_no_bound)


def _grid_scan_height(log_tail, tail, start=1.0, grid=0.125):
    """_truncation_height by brute force: the first point start + k grid
    where log_tail meets log(tail), looking no further than the last point
    start + 2j <= 500, and TruncationFailure past it."""
    target, last = math.log(tail), start
    while last + 2.0 <= 500.0:
        last += 2.0
    k = 0
    while start + k * grid <= last:
        if log_tail(start + k * grid) <= target:
            return start + k * grid
        k += 1
    raise TruncationFailure("past the last step")


def _same_height(log_tail, tail, start=1.0, grid=0.125) -> None:
    try:
        expected = _grid_scan_height(log_tail, tail, start, grid)
    except TruncationFailure:
        with pytest.raises(TruncationFailure):
            quadrature._truncation_height(log_tail, tail, start, grid)
        return
    assert quadrature._truncation_height(log_tail, tail, start, grid) == expected, (
        tail, start, grid)


def _mellin_log_tail(growth: float, bound_const: float):
    """integrate_mellin's bound on the log of its decay tail beyond T."""
    return lambda t: (math.log(bound_const) + growth * math.log(t) - t
                      - math.log1p(-growth / t))


def test_truncation_height_is_the_first_grid_point():
    """The secant search finds the first point of the 1/8 or 1/4 grid where
    the tail meets its target, as a scan of the whole grid does: on linear
    tails, on the line's tail at 200 seeded (s, tol), on the Mellin decay
    tail at growth 0 .. 10, and on tails with no bound (inf) below some y."""
    rng = random.Random(23)
    for slope in (0.01, 0.3, 1.0, 2.0 * math.pi, 40.0):
        for c in (-5.0, 0.0, 3.0, 50.0):
            for grid in (0.125, 0.25):
                for tail in (1e-16, 1e-9, 1e-3, 10.0):
                    _same_height(lambda y: c - slope * y, tail, 1.0, grid)
    for _ in range(200):
        s = complex(rng.uniform(-25.0, 25.0), rng.uniform(-60.0, 60.0))
        tol = 10.0 ** rng.uniform(-14.0, -2.0)
        for n in (0, 1, max(1, int(abs(s.imag) / (2.0 * math.pi)))):
            log_tail = contour._line_log_tail(s, n + 0.5)
            for grid in (0.125, 0.25):
                _same_height(log_tail, 0.05 * tol, 1.0, grid)
    for growth in range(11):
        start = math.ceil((growth + 1.0) * 8.0) / 8.0
        for bound_const in (1e-3, 1.0, 1e6):
            for tol in (1e-14, 1e-10, 1e-6, 1e-2):
                _same_height(_mellin_log_tail(float(growth), bound_const), 0.1 * tol, start)
    for edge in (1.0, 1.5, 2.9, 3.0, 7.125, 40.0):
        for grid in (0.125, 0.25):
            for tail in (1e-12, 1e-3):
                _same_height(lambda y: math.inf if y < edge else 2.0 - 3.0 * (y - edge),
                             tail, 1.0, grid)
                _same_height(lambda y: math.inf if y < edge else 5.0 - 0.05 * y, tail, 1.0, grid)


def test_truncation_height_gives_up_past_its_last_point():
    """A tail that never meets the target, or meets it only past the last
    point start + 2j <= 500, raises TruncationFailure; one that meets it
    there does not."""
    for start in (1.0, 1.125, 3.5, 498.5, 499.0, 600.0):
        for grid in (0.125, 0.25):
            _same_height(lambda y: 1.0, 1e-3, start, grid)
            _same_height(lambda y: math.inf, 1e-3, start, grid)
    last = 499.0  # from start 1
    for crossing in (last - 0.25, last - 0.125, last, last + 0.125, last + 0.5, last + 1.0):
        for grid in (0.125, 0.25):
            _same_height(lambda y: crossing - y, 1.0, 1.0, grid)
    with pytest.raises(TruncationFailure):
        quadrature._truncation_height(lambda y: last + 0.125 - y, 1.0)
    assert quadrature._truncation_height(lambda y: last - y, 1.0) == last


def test_truncation_height_searches_in_a_few_tail_calls(monkeypatch):
    """entire_e_line at tol 1e-8 on scan-grid's seed-1 points calls its
    log_tail 4.37 times per search on average."""
    calls = 0
    real = quadrature._truncation_height

    def counted(log_tail, *args, **kwargs):
        def tail(y):
            nonlocal calls
            calls += 1
            return log_tail(y)
        return real(tail, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_truncation_height", counted)
    data = json.loads((REFS / "scan-grid-seed1.json").read_text())
    points = [complex(float(a), float(b)) for a, b in data["points"]["E"]]
    for s in points:
        entire_e_line(s, 1e-8)
    assert calls / len(points) <= 4.4
