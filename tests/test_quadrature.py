import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline.errors import DomainError, NonFiniteIntegrand, TruncationFailure
from zetaline.quadrature import (
    gauss_legendre_rule,
    integrate_interval,
    integrate_line_decaying,
    integrate_mellin,
)


def test_rule_nodes_ascending_and_symmetric():
    for n in (2, 5, 16, 31):
        nodes, weights = gauss_legendre_rule(n)
        assert len(nodes) == len(weights) == n
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        for i in range(n // 2):
            assert nodes[i] == -nodes[n - 1 - i]
            assert weights[i] == weights[n - 1 - i]


def test_rule_weights_sum_to_two():
    for n in (1, 2, 7, 16, 40):
        _, weights = gauss_legendre_rule(n)
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-14)


def test_rule_degree_of_exactness():
    """n points integrate x^k exactly for k <= 2n-1; the first failure is 2n."""
    n = 5
    nodes, weights = gauss_legendre_rule(n)
    for k in range(2 * n):
        got = math.fsum(w * x**k for x, w in zip(nodes, weights))
        want = 0.0 if k % 2 else 2.0 / (k + 1)
        assert got == pytest.approx(want, abs=5e-15)
    got = math.fsum(w * x ** (2 * n) for x, w in zip(nodes, weights))
    assert abs(got - 2.0 / (2 * n + 1)) > 1e-8


def test_interval_known_integrals():
    r = integrate_interval(math.exp, 0.0, 1.0)
    assert r.converged
    assert r.value.real == pytest.approx(math.e - 1.0, rel=1e-14)
    r = integrate_interval(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
    assert r.value.real == pytest.approx(math.pi / 4.0, rel=1e-14)


def test_interval_complex_integrand():
    # integral of e^{ix} over [0, pi] = 2i
    r = integrate_interval(lambda x: complex(math.cos(x), math.sin(x)), 0.0, math.pi)
    assert r.value == pytest.approx(2j, abs=1e-13)


def test_interval_rejects_bad_bounds():
    for a, b in ((1.0, 0.0), (0.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            integrate_interval(math.exp, a, b)


def test_interval_nonfinite_integrand():
    with pytest.raises(NonFiniteIntegrand):
        integrate_interval(lambda x: complex(math.nan, 0.0), 0.0, 1.0)
    with pytest.raises(NonFiniteIntegrand):
        integrate_interval(lambda x: complex(0.0, math.inf), 0.0, 1.0)


@given(
    a=st.floats(min_value=-3.0, max_value=0.0),
    c1=st.floats(min_value=-5.0, max_value=5.0),
    c2=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_interval_linearity(a, c1, c2):
    b = a + 2.0
    f1 = math.sin
    f2 = math.cos
    combined = integrate_interval(lambda x: c1 * f1(x) + c2 * f2(x), a, b)
    separate = c1 * integrate_interval(f1, a, b).value + c2 * integrate_interval(f2, a, b).value
    assert combined.value == pytest.approx(separate, abs=1e-12)


def test_interval_conjugation_bitwise():
    def f(x: float) -> complex:
        return complex(math.exp(-x * x), math.sin(x) * x)

    r1 = integrate_interval(lambda x: f(x).conjugate(), -2.0, 2.0)
    r2 = integrate_interval(f, -2.0, 2.0)
    assert r1.value == r2.value.conjugate()


def test_line_gaussian():
    # integral over R of e^{-y^2} = sqrt(pi); bound |f| <= 1 * e^{-|y|} fails
    # for small |y| but e^{-y^2} <= e * e^{-|y|} everywhere
    r = integrate_line_decaying(
        lambda y: complex(math.exp(-y * y)),
        decay_rate=1.0,
        growth_bound=0.0,
        bound_const=math.e,
    )
    assert r.converged
    assert r.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert r.truncation_height is not None and r.truncation_height > 0


def test_line_truncation_error_within_estimate():
    # sech integral: integral over R of 1/cosh(y) = pi
    r = integrate_line_decaying(
        lambda y: complex(1.0 / math.cosh(y)), 1.0, 0.0, bound_const=2.0
    )
    assert abs(r.value.real - math.pi) <= max(r.err_est * 10.0, 1e-12)


def test_line_unreachable_tolerance_raises():
    # decay so slow the height bound cannot reach tol/10 under the cap
    with pytest.raises(TruncationFailure):
        integrate_line_decaying(
            lambda y: complex(math.exp(-1e-4 * abs(y))),
            1e-4,
            0.0,
            tol=1e-12,
        )


def test_line_halvings_reuse_every_node():
    """Each halving evaluates only new nodes: no y is seen twice, the nodes
    form one nested grid, and every evaluation is counted in n_evals."""
    seen = []

    def f(y: float) -> complex:
        seen.append(y)
        return complex(1.0 / math.cosh(y), math.sin(y) / math.cosh(y))

    r = integrate_line_decaying(f, 1.0, 0.0, bound_const=2.0)
    assert r.converged
    assert r.value == pytest.approx(math.pi, rel=1e-12)
    assert len(seen) == r.n_evals
    assert len({(y, math.copysign(1.0, y)) for y in seen}) == len(seen)
    # the nodes seen are exactly the finest grid k h on [0, Y], each with +-y
    ys = sorted({abs(y) for y in seen})
    assert ys == [k * ys[1] for k in range(len(ys))]
    assert len(seen) == 2 * len(ys)


def test_line_nonfinite_integrand():
    with pytest.raises(NonFiniteIntegrand):
        integrate_line_decaying(lambda y: complex(math.nan, 0.0), 1.0, 0.0)
    with pytest.raises(NonFiniteIntegrand):
        integrate_line_decaying(lambda y: complex(0.0, math.inf if y > 2.0 else 0.0), 1.0, 0.0)


def test_mellin_gamma_integral():
    # integral of t^{s-1} e^{-t} = Gamma(s); alpha = Re s - 1
    for s, want in ((2.0, 1.0), (3.5, 3.32335097044784255)):
        r = integrate_mellin(
            lambda t, s=s: complex(t ** (s - 1.0) * math.exp(-t)),
            alpha=s - 1.0,
            decay_rate=1.0,
            growth=s - 1.0,
        )
        assert r.converged
        assert r.value.real == pytest.approx(want, rel=1e-12)


def test_mellin_origin_singularity_integrable():
    # integral of t^{-1/2} e^{-t} = Gamma(1/2) = sqrt(pi)
    r = integrate_mellin(
        lambda t: complex(math.exp(-t) / math.sqrt(t)),
        alpha=-0.5,
        decay_rate=1.0,
    )
    assert r.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_mellin_rejects_nonintegrable_origin():
    with pytest.raises(DomainError):
        integrate_mellin(lambda t: complex(1.0 / t), alpha=-1.0, decay_rate=1.0)


def test_plan_validation():
    """Every integrator rejects a tolerance below 1e-14, or NaN."""
    for tol in (0.0, 1e-15, math.nan):
        with pytest.raises(DomainError):
            integrate_interval(math.exp, 0.0, 1.0, tol)
        with pytest.raises(DomainError):
            integrate_line_decaying(lambda y: complex(math.exp(-y * y)), 1.0, 0.0, tol)
        with pytest.raises(DomainError):
            integrate_mellin(lambda t: complex(math.exp(-t)), 0.0, 1.0, tol)
