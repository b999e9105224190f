import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaline.contour import residue_partial_sum
from zetaline.errors import DomainError, PoleAtOne
from zetaline.oracle import (
    EulerMaclaurinParams,
    _bernoulli_floats,
    default_params,
    zeta_euler_maclaurin,
)


def test_bernoulli_small_values_exact():
    b = _bernoulli_floats()
    assert b[0] == 1.0
    assert b[1] == float(Fraction(1, 6))
    assert b[2] == float(Fraction(-1, 30))
    assert b[3] == float(Fraction(1, 42))
    assert b[4] == float(Fraction(-1, 30))
    assert b[5] == float(Fraction(5, 66))


def test_bernoulli_large_value():
    b = _bernoulli_floats()
    # B_30 = 8615841276005/14322 = 601580873.90064236838...
    assert b[15] == float(Fraction(8615841276005, 14322))
    # B_32 = -7709321041217/510, needed by the error term at M = 15
    assert len(b) == 17 and b[16] == float(Fraction(-7709321041217, 510))


def test_bernoulli_satisfy_recurrence():
    """sum_{j=0}^{m} C(m+1, j) B_j == 0 with B_odd = 0 except B_1 = -1/2."""
    b = {0: 1.0, 1: -0.5}
    for k in range(1, 17):
        b[2 * k] = _bernoulli_floats()[k]
        b[2 * k + 1] = 0.0
    for m in (4, 10, 20, 30, 32):
        acc = math.fsum(math.comb(m + 1, j) * b[j] for j in range(m + 1))
        # the exact sum is 0; each float B_j carries up to 1/2 ulp, so the
        # residual is bounded by eps times the sum of term magnitudes
        l1 = math.fsum(abs(math.comb(m + 1, j) * b[j]) for j in range(m + 1))
        assert abs(acc) <= 2.0 ** -52 * l1


def test_known_zeta_values():
    v, err = zeta_euler_maclaurin(2.0)
    assert abs(v - math.pi**2 / 6.0) <= max(err, 1e-13)
    assert err <= 1e-13
    v, err = zeta_euler_maclaurin(3.0)
    assert abs(v - 1.2020569031595942854) <= max(err, 1e-13)
    v, err = zeta_euler_maclaurin(0.5)
    assert abs(v - (-1.4603545088095868129)) <= max(err, 1e-12)
    v, err = zeta_euler_maclaurin(-1.0)
    assert abs(v - (-1.0 / 12.0)) <= max(err, 1e-13)


def test_known_complex_values():
    v, err = zeta_euler_maclaurin(2.0 + 1.0j)
    want = complex(1.1503557032549026717, -0.43753086591960788112)
    assert abs(v - want) <= max(err, 1e-12)
    v, err = zeta_euler_maclaurin(0.25 + 7.0j)
    want = complex(1.015765407350706348, 0.45085655083706612102)
    assert abs(v - want) <= max(err, 1e-11)


def test_trivial_zeros():
    for s in (-2.0, -4.0, -6.0, -8.0):
        v, err = zeta_euler_maclaurin(s)
        assert abs(v) <= max(err, 1e-12)


def test_pole_and_box_guards():
    with pytest.raises(PoleAtOne):
        zeta_euler_maclaurin(1.0)
    with pytest.raises(PoleAtOne):
        zeta_euler_maclaurin(1.0 + 1e-10j)
    with pytest.raises(DomainError):
        zeta_euler_maclaurin(2.0 + 61.0j)
    with pytest.raises(DomainError):
        # Re s deeper than -2M is outside the continuation's validity
        zeta_euler_maclaurin(-9.0, EulerMaclaurinParams(N=20, M=4))


def test_params_validation():
    with pytest.raises(DomainError):
        EulerMaclaurinParams(N=1)
    with pytest.raises(DomainError):
        EulerMaclaurinParams(M=0)
    with pytest.raises(DomainError):
        EulerMaclaurinParams(M=16)


def test_default_params_scale_with_height():
    assert default_params(2.0).N == 25
    assert default_params(2.0 + 40.0j).N == 65


@given(
    x=st.floats(min_value=-5.0, max_value=8.0),
    y=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=100, deadline=None)
def test_self_consistency_across_params(x, y):
    """Doubling N must move the value by at most the sum of both bounds."""
    s = complex(x, y)
    if abs(s - 1.0) < 1e-2:
        return
    v1, e1 = zeta_euler_maclaurin(s, EulerMaclaurinParams(N=30 + math.ceil(abs(y)), M=12))
    v2, e2 = zeta_euler_maclaurin(s, EulerMaclaurinParams(N=60 + math.ceil(abs(y)), M=12))
    assert abs(v1 - v2) <= e1 + e2


@given(x=st.floats(min_value=1.3, max_value=10.0), y=st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=100, deadline=None)
@example(x=4.75, y=1.5)
def test_agrees_with_residue_partial_sum(x, y):
    """(s-1) zeta(s) from the oracle matches the residue sum within both bounds."""
    s = complex(x, y)
    em, em_err = zeta_euler_maclaurin(s)
    rs, tail = residue_partial_sum(s, 4000)
    assert abs((s - 1.0) * em - rs) <= abs(s - 1.0) * em_err + tail


def test_dirichlet_partial_guards():
    """The partial Dirichlet sum behind the cross-check refuses Re s <= 1 and no terms."""
    with pytest.raises(DomainError):
        residue_partial_sum(1.0, 100)
    with pytest.raises(DomainError):
        residue_partial_sum(2.0, 0)


def test_conjugation_symmetry():
    for s in (2.0 + 5.0j, 0.3 + 11.0j, -1.5 + 2.0j):
        v1, _ = zeta_euler_maclaurin(s.conjugate())
        v2, _ = zeta_euler_maclaurin(s)
        assert v1 == v2.conjugate()  # bitwise via cpow conjugation symmetry
