import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaline.complex_core import (
    _LANCZOS_C,
    _LANCZOS_G,
    _lanczos,
    cos_pi_z,
    cpow_principal,
    gamma,
    log_gamma,
    sech_sq_pi,
    sin_pi_z,
    sinhc_half,
)

# strategies kept away from overflow edges so properties test algebra, not caps
_MOD = st.floats(min_value=1e-3, max_value=1e3)
_ARG = st.floats(min_value=-1.5, max_value=1.5)
_W_PART = st.floats(min_value=-3.0, max_value=3.0)


def _right_half(r: float, th: float) -> complex:
    th *= 0.5 * math.pi / 1.5  # map into (-pi/2, pi/2)
    return complex(r * math.cos(th), r * math.sin(th))


def test_cpow_known_value():
    got = cpow_principal(1 + 1j, 1 - 2j)
    want = 6.774115102589517 + 0.6266975685505328j
    assert abs(got - want) <= 1e-12 * abs(want)


def test_cpow_positive_real_is_exact():
    assert cpow_principal(4.0, 0.5) == 2.0
    assert cpow_principal(2.0, 10.0) == 1024.0
    assert cpow_principal(9.0, -0.5) == complex(1.0 / 3.0, 0.0)


@given(r=_MOD, th=_ARG, a=_W_PART, b=_W_PART, c=_W_PART, d=_W_PART)
@settings(max_examples=200)
def test_cpow_exponent_homomorphism(r, th, a, b, c, d):
    """z^w1 * z^w2 == z^(w1+w2) up to rounding."""
    z = _right_half(r, th)
    w1, w2 = complex(a, b), complex(c, d)
    lhs = cpow_principal(z, w1) * cpow_principal(z, w2)
    rhs = cpow_principal(z, w1 + w2)
    assert abs(lhs - rhs) <= 1e-12 * (abs(rhs) + 1e-300)


@given(r=_MOD, th=_ARG, a=_W_PART, b=_W_PART)
@settings(max_examples=200)
def test_cpow_conjugation_bitwise(r, th, a, b):
    z, w = _right_half(r, th), complex(a, b)
    left = cpow_principal(z.conjugate(), w.conjugate())
    right = cpow_principal(z, w).conjugate()
    assert left == right  # bitwise, not approximate


@given(n=st.integers(min_value=-80, max_value=80))
def test_sin_pi_exact_integer_zeros(n):
    v = sin_pi_z(complex(n, 0.0))
    assert v.real == 0.0 and v.imag == 0.0


@given(n=st.integers(min_value=-80, max_value=80))
def test_cos_pi_exact_half_integer_zeros(n):
    v = cos_pi_z(complex(n + 0.5, 0.0))
    assert v.real == 0.0 and v.imag == 0.0


@given(
    x=st.floats(min_value=-50.0, max_value=50.0),
    y=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=200)
def test_sin_pi_z_modulus_identity(x, y):
    """|sin(pi z)|^2 = sin^2(pi x) + sinh^2(pi y)."""
    v = sin_pi_z(complex(x, y))
    want = math.sin(math.pi * x) ** 2 + math.sinh(math.pi * y) ** 2
    got = v.real * v.real + v.imag * v.imag
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


@given(
    x=st.floats(min_value=-50.0, max_value=50.0),
    y=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=200)
def test_sin_cos_conjugation_bitwise(x, y):
    z = complex(x, y)
    assert sin_pi_z(z.conjugate()) == sin_pi_z(z).conjugate()
    assert cos_pi_z(z.conjugate()) == cos_pi_z(z).conjugate()


def test_sin_pi_z_matches_cmath_off_axis():
    for z in (0.3 + 0.7j, -1.2 + 2j, 4.5 - 1.5j):
        assert sin_pi_z(z) == pytest.approx(cmath.sin(math.pi * z), rel=1e-13)
        assert cos_pi_z(z) == pytest.approx(cmath.cos(math.pi * z), rel=1e-13)


def test_sin_pi_z_imag_cap():
    with pytest.raises(OverflowError):
        sin_pi_z(301j)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=repr)
def test_node_kernels_nonfinite_argument(x):
    """The kernels run once per quadrature node check nothing; a non-finite
    argument gives what their docstrings state."""
    if math.isnan(x):
        assert math.isnan(sech_sq_pi(x))
        assert cmath.isnan(cpow_principal(x, 2.0))
        assert cmath.isnan(cpow_principal(x, 1.5 + 2.0j))
    else:
        assert sech_sq_pi(x) == 0.0
    assert math.isnan(sinhc_half(x))
    if x == math.inf:
        assert cpow_principal(x, 2.0) == complex(math.inf, 0.0)
        assert cpow_principal(x, -0.5) == 0.0
        with pytest.raises(ValueError):
            cpow_principal(x, 1.5 + 2.0j)
    elif x == -math.inf:
        got = cpow_principal(x, 2.0)
        assert math.isnan(got.real) and math.isnan(got.imag)


def test_sech_sq_pi_known_value():
    # 1/cosh(pi)^2 with cosh(pi) = 11.591953275521520627
    assert sech_sq_pi(1.0) == pytest.approx(0.007441950142796216, rel=1e-14)
    assert sech_sq_pi(0.0) == 1.0


@given(y=st.floats(min_value=0.0, max_value=500.0))
@example(y=2.8812800183923904e-14)
@example(y=6.162560324325467e-17)
def test_sech_sq_pi_even_bitwise_and_bounded(y):
    assert sech_sq_pi(-y) == sech_sq_pi(y)
    assert 0.0 <= sech_sq_pi(y) <= 1.0


def test_sech_sq_pi_no_overflow_far_out():
    assert sech_sq_pi(1e6) == 0.0


def test_sinhc_half_values():
    assert sinhc_half(0.0) == 1.0
    assert sinhc_half(2.0) == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert sinhc_half(-2.0) == sinhc_half(2.0)


@given(t=st.floats(min_value=-1400.0, max_value=1400.0))
def test_sinhc_half_at_least_one(t):
    assert sinhc_half(t) >= 1.0


@given(t=st.floats(min_value=1e-3, max_value=600.0))
@settings(max_examples=200)
def test_sinhc_half_consistent_with_csch(t):
    """(t/2)^2 csch^2(t/2) == 1/sinhc_half(t)^2 within rounding, with
    csch^2(t/2) in the scaled form 4 e^{-t}/(1 - e^{-t})^2."""
    lhs = 0.25 * t * t * (4.0 * math.exp(-t) / math.expm1(-t) ** 2)
    rhs = 1.0 / sinhc_half(t) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_known_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma(7.5) == pytest.approx(1871.254305797788, rel=1e-13)


@given(
    x=st.floats(min_value=0.1, max_value=20.0),
    y=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=200)
def test_gamma_recurrence(x, y):
    z = complex(x, y)
    assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-11)


@given(
    x=st.floats(min_value=-5.0, max_value=5.0),
    y=st.floats(min_value=0.05, max_value=10.0),
)
@settings(max_examples=200)
def test_gamma_reflection(x, y):
    """Gamma(z) Gamma(1-z) = pi / sin(pi z), off the real axis."""
    z = complex(x, y)
    lhs = gamma(z) * gamma(1.0 - z)
    rhs = math.pi / sin_pi_z(z)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_log_gamma_real_on_positive_axis():
    for x in (0.5, 1.0, 3.7, 15.0):
        assert log_gamma(complex(x, 0.0)).imag == 0.0


def _gamma_rel_err(z: complex) -> float:
    """The bound of _lanczos as it was built on its own, with a
    second Lanczos sum and a second pair of logs."""
    zm = z - 0.5
    b = z + (_LANCZOS_G - 0.5)
    ser = complex(_LANCZOS_C[0])
    err_ser = 0.0
    for k in range(1, 15):
        term = _LANCZOS_C[k] / (z + (k - 1))
        ser += term
        err_ser += 7.0 * abs(term) + abs(ser)
    ls, lb = cmath.log(ser), cmath.log(b)
    q = zm * lb - b
    r = q + 0.5 * math.log(2.0 * math.pi)
    err_l = (abs(zm) * (4.0 + (2.0 + math.sqrt(5.0)) * abs(lb)) + abs(b) + abs(q) + abs(r)
             + abs(r + ls) + err_ser / abs(ser) + 2.0 + abs(ls))
    return 2.0 ** -53 * (err_l + 3.0) + 1e-15


def test_log_gamma_is_the_lanczos_log_bitwise():
    """log_gamma forms no rounding bound, yet returns _lanczos's log bit
    for bit and zero sign for zero sign, on seeded z with Re z in [0.5, 12]
    and |Im z| <= 65, their conjugates, real z and Im z = -0.0."""
    rng = random.Random(30)
    zs = [complex(rng.uniform(0.5, 12.0), rng.uniform(-65.0, 65.0)) for _ in range(4000)]
    zs += [z.conjugate() for z in zs]
    zs += [complex(x, 0.0) for x in (0.5, 1.0, 2.0, 3.5, 7.0, 12.0)]
    zs += [complex(x, -0.0) for x in (0.5, 2.5, 11.0)]
    for z in zs:
        assert repr(log_gamma(z)) == repr(_lanczos(z)[0]), z


def test_gamma_with_err_is_gamma_and_its_bound_bitwise():
    """One Lanczos sum (_lanczos) gives log_gamma(z), whose exp is gamma(z),
    and the bound bit for bit, on seeded z with Re z in [0.5, 12] and
    |Im z| <= 61, their conjugates, real z and Im z = -0.0; its exp raises
    gamma's OverflowError where Gamma(z) leaves doubles."""
    rng = random.Random(24)
    zs = [complex(rng.uniform(0.5, 12.0), rng.uniform(-61.0, 61.0)) for _ in range(1500)]
    zs += [z.conjugate() for z in zs]
    zs += [complex(x, 0.0) for x in (0.5, 1.0, 2.0, 3.5, 7.0, 12.0)]
    zs += [complex(x, -0.0) for x in (0.5, 2.5, 11.0)] + [complex(171.5, 0.0), 50.0 - 61.0j]
    for z in zs:
        log_value, err = _lanczos(z)
        assert repr(cmath.exp(log_value)) == repr(gamma(z)), z
        assert err == _gamma_rel_err(z), z
    for z in (172.0, 302.0 - 10.0j):
        with pytest.raises(OverflowError):
            gamma(z)
        with pytest.raises(OverflowError):
            cmath.exp(_lanczos(complex(z))[0])
