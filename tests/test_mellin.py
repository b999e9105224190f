import math

import pytest

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
    integral of t e^{-nt} = 1/n^2, and the first 50 already track zeta(2)."""
    total = 0.0
    for n in range(1, 51):
        r = integrate_mellin(
            lambda t, n=n: complex(t * math.exp(-n * t)),
            alpha=1.0,
            growth=1.0,
        )
        assert r.converged
        assert abs(r.value.real - 1.0 / (n * n)) <= 1e-12
        total += r.value.real
    want, _ = zeta_euler_maclaurin(2.0)
    # the omitted tail of the n-sum is below 1/50
    assert abs(total - want.real) <= 1.0 / 50.0
