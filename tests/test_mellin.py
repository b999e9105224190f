import cmath
import math

import pytest

from zetaline import mellin
from zetaline.contour import entire_e_axis
from zetaline.errors import DomainError
from zetaline.mellin import bose_integral, exp_sq_integral, mellin_check, sinh_integral
from zetaline.oracle import zeta_euler_maclaurin
from zetaline.quadrature import integrate_mellin

# Gamma(s) zeta(s) carried to 20 digits and rounded here once
GZ_15 = 2.3151573733941170004
GZ_45 = 12.268071302996975793
GZ_2_1I = complex(0.90124447679797811083, 0.10895518636055365653)
GZ_3_2I = complex(-0.2824806901370491924, 0.910733517109945777)
GZ_2_2I = complex(0.18643333618746225199, 0.24979102350311461805)

# Gamma(2) zeta(2) = pi^2/6, Gamma(4) zeta(4) = 6 * pi^4/90 = pi^4/15,
# Gamma(3) zeta(3) = 2 zeta(3)
GZ_2 = math.pi**2 / 6.0
GZ_4 = math.pi**4 / 15.0
GZ_3 = 2.0 * 1.2020569031595942854


@pytest.mark.parametrize("integral", [bose_integral, exp_sq_integral, sinh_integral])
def test_each_form_reproduces_reference(integral):
    assert abs(integral(2.0) - GZ_2) <= 1e-11
    assert abs(integral(3.0) - GZ_3) <= 1e-11
    assert abs(integral(4.0) - GZ_4) <= 1e-10
    assert abs(integral(1.5) - GZ_15) <= 1e-11
    assert abs(integral(4.5) - GZ_45) <= 1e-10


@pytest.mark.parametrize("integral", [bose_integral, exp_sq_integral, sinh_integral])
def test_each_form_at_complex_points(integral):
    assert abs(integral(2.0 + 1.0j) - GZ_2_1I) <= 1e-10
    assert abs(integral(3.0 + 2.0j) - GZ_3_2I) <= 1e-10
    assert abs(integral(2.0 + 2.0j) - GZ_2_2I) <= 1e-10


def test_chain_equality_grid():
    """All three forms agree with each other across a grid, which is the
    integration-by-parts chain verified numerically."""
    for re in (1.5, 2.0, 3.0, 4.5):
        for im in (0.0, 1.0, 2.0):
            s = complex(re, im)
            a, b, c = bose_integral(s), exp_sq_integral(s), sinh_integral(s)
            assert abs(a - b) <= 1e-10
            assert abs(b - c) <= 1e-10


def test_report_fields():
    rep = mellin_check(2.0)
    assert rep.s == 2.0
    assert rep.extended is False
    assert rep.max_abs_deviation <= 1e-10
    assert abs(rep.reference - GZ_2) <= 1e-12
    for v in (rep.bose, rep.exp_sq, rep.sinh_form):
        assert abs(v - rep.reference) <= rep.max_abs_deviation + 1e-15

    rep = mellin_check(3.0 + 2.0j)
    assert rep.extended is True
    assert rep.max_abs_deviation <= 1e-9


def test_domain_guard():
    for fn in (bose_integral, exp_sq_integral, sinh_integral, mellin_check):
        with pytest.raises(DomainError):
            fn(1.05)
        with pytest.raises(DomainError):
            fn(0.5 + 10.0j)


def test_termwise_mellin_factors():
    """Expanding 1/(e^t - 1) = sum e^{-nt} termwise: each piece at s = 2 is
    integral of t e^{-nt} = 1/n^2 (kernel e^{-nt}, alpha = 1), and the first
    50 already track zeta(2).  In u = ln t the integrand e^{2w} e^{-n e^w}
    integrates along Im w = b to 1 / (n cos b)^2 in modulus, the M(d) of
    its strip bound, here at d = 1."""
    total = 0.0
    for n in range(1, 51):
        m = 1.0 / (n * math.cos(1.0)) ** 2
        r = integrate_mellin(
            lambda t, n=n: math.exp(-n * t),
            alpha=1.0,
            growth=1.0,
            bound=lambda h, m=m: 2.0 * m / math.expm1(2.0 * math.pi / h),
        )
        assert r.converged
        assert abs(r.value.real - 1.0 / (n * n)) <= 1e-12
        total += r.value.real
    want, _ = zeta_euler_maclaurin(2.0)
    # the omitted tail of the n-sum is below 1/50
    assert abs(total - want.real) <= 1.0 / 50.0


def _strip_bounds(monkeypatch) -> list:
    """Record the strip bound B(h) that each integrate_mellin call from
    mellin receives."""
    bounds = []
    real = mellin.integrate_mellin

    def spy(*args, bound, **kwargs):
        bounds.append(bound)
        return real(*args, bound=bound, **kwargs)

    monkeypatch.setattr(mellin, "integrate_mellin", spy)
    return bounds


def _expm1(t: complex) -> complex:
    """e^t - 1 at complex t, without cancellation for small |t|."""
    if abs(t) > 1e-2:
        return cmath.exp(t) - 1.0
    return t * (1.0 + t / 2.0 * (1.0 + t / 3.0 * (1.0 + t / 4.0 * (1.0 + t / 5.0))))


# per form: the integral it runs, its origin coefficient, and its integrand
# g(w) = e^{(alpha+1) w} kernel(e^w) at complex w, with t = e^w
_STRIP_FORMS = {
    "bose": (mellin._bose, 1.0,
             lambda s, w, t: cmath.exp((s - 1.0) * w) * (t / _expm1(t))),
    "sinh": (mellin._sinh_sq_integral, 4.0,
             lambda s, w, t: cmath.exp((s + 1.0) * w) / cmath.sinh(0.5 * t) ** 2),
}


@pytest.mark.parametrize("form", sorted(_STRIP_FORMS))
def test_strip_m_bounds_the_integrand_off_the_axis(monkeypatch, form):
    """M(d) bounds the integral over u of |g(u + ib)| for |b| <= d: a dense
    sum of |g| with complex arithmetic on the lines b = 0, +-d/2, +-0.99d,
    plus a bound on the part left of u = -30, stays below it, for Re s from
    1.06 to 8 and |Im s| <= 10."""
    run, coeff, g = _STRIP_FORMS[form]
    d, h, u0 = mellin._STRIP, 0.01, -30.0
    bounds = _strip_bounds(monkeypatch)
    for s in (1.06, 1.06 - 10j, 2.5 + 4j, 4.0 - 7j, 8.0, 8.0 + 10j):
        run(s, 1e-12)
        m = bounds[-1](1.0) * math.expm1(2.0 * math.pi * d) / 2.0  # B(1) = 2M / (e^{2 pi d} - 1)
        for b in (0.0, 0.5 * d, -0.5 * d, 0.99 * d, -0.99 * d):
            # left of u0, |kernel| <= 1.001 coeff and |e^{(s-1) w}| = e^{(Re s-1) u - Im s b}
            total = 1.001 * coeff * math.exp((s.real - 1.0) * u0 - s.imag * b) / (s.real - 1.0)
            for k in range(int((6.0 - u0) / h) + 1):
                w = complex(u0 + k * h, b)
                total += h * abs(g(s, w, cmath.exp(w)))
            assert total <= m, (s, b, total, m)


def test_conjugation_bitwise():
    """I(conj s) == conj I(s) exactly for the three integrals, and
    E(conj s) == conj E(s) for the axis form: the level's e^{(alpha+1) u}
    times a real kernel is symmetric, and the strip bound reads |Im s|."""
    for s in (1.5 + 2.0j, 3.25 - 4.5j, 6.0 + 0.1j):
        for integral in (bose_integral, exp_sq_integral, sinh_integral):
            assert integral(s.conjugate()) == integral(s).conjugate(), s
    for s in (-1.5 + 3.0j, -4.2 - 7.9j, -0.3 + 0.5j):
        up, down = entire_e_axis(s), entire_e_axis(s.conjugate())
        assert down.value == up.value.conjugate(), s
        assert (down.err_est, down.n_evals) == (up.err_est, up.n_evals), s
