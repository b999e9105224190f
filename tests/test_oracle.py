import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaline.complex_core import cpow_principal
from zetaline.contour import residue_partial_sum
from zetaline.errors import ContractViolation, DomainError, PoleAtOne, check_box, finite_s
from zetaline.oracle import (
    EulerMaclaurinParams,
    _bernoulli_floats,
    default_params,
    zeta_euler_maclaurin,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_bernoulli_literals_are_the_rounded_rationals():
    """All 17 literals, B_0, B_2, ..., B_32, are the exact rationals from the
    recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0, correctly rounded."""
    b = [Fraction(1)]
    for m in range(1, 33):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    assert _bernoulli_floats() == tuple(float(b[2 * k]) for k in range(17))


def test_import_leaves_out_fractions_and_decimal():
    """Importing the package loads neither fractions nor decimal: the
    Bernoulli numbers are literals, so no interpreter pays for the two."""
    code = "import sys, zetaline; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def _em_per_term(s: complex, params: EulerMaclaurinParams | None = None) -> tuple[complex, float]:
    """zeta_euler_maclaurin as it was built term by term: each power a call
    of cpow_principal, ln n taken where each use needs it, each Bernoulli
    coefficient divided by math.factorial on the spot."""
    s = finite_s(s)
    if abs(s - 1.0) < 1e-9:
        raise PoleAtOne(f"zeta has a pole at s = 1 (got s={s})")
    check_box(s, "oracle")
    if params is None:
        params = default_params(s)
    n_cut, m_terms = params.N, params.M
    if not s.real > -2.0 * m_terms:
        raise DomainError(f"need Re s > -2M = {-2 * m_terms}, got {s.real}")
    size = abs(s.real) + abs(s.imag)
    total = complex(0.0, 0.0)
    scale = 1.0
    spread = 0.0
    for n in range(1, n_cut):
        term = cpow_principal(n, -s)
        total += term
        scale = max(scale, abs(total))
        spread += abs(term) * (3.0 + size * math.log(n))
    n_minus_s = cpow_principal(n_cut, -s)
    total += n_minus_s * n_cut / (s - 1.0)
    scale = max(scale, abs(n_minus_s) * n_cut / abs(s - 1.0))
    total += 0.5 * n_minus_s
    from_n_cut = abs(n_minus_s) * (n_cut / abs(s - 1.0) + 0.5)
    table = _bernoulli_floats()
    rising = s
    power = n_minus_s / n_cut
    inv_n_sq = 1.0 / (n_cut * n_cut)
    for k in range(1, m_terms + 1):
        term = (table[k] / math.factorial(2 * k)) * rising * power
        total += term
        scale = max(scale, abs(term))
        from_n_cut += abs(term)
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        power *= inv_n_sq
    omitted = abs(table[m_terms + 1]) / math.factorial(2 * m_terms + 2) * abs(rising) * abs(power)
    envelope = abs(s + (2 * m_terms + 1)) / (s.real + 2 * m_terms + 1)
    rounding = 2.5 * 2.0 ** -52 * (n_cut + 2 * m_terms) * (1.0 + scale)
    spread += from_n_cut * (3.0 + size * math.log(n_cut))
    return total, omitted * envelope + rounding + 2.0 ** -52 * spread


def _outcome(f, *args) -> str:
    """repr of the value and bound, which tells -0.0 from 0.0, or the
    exception's type and message."""
    try:
        return repr(f(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"


def _one_pass_cases() -> list[tuple[complex, EulerMaclaurinParams | None]]:
    rng = random.Random(24)
    cases: list[tuple[complex, EulerMaclaurinParams | None]] = [
        (s, None) for s in (0.0, -0.0, complex(0.0, -0.0), 2.0, -1.0, -23.5, 0.5 - 0.0j,
                            complex(-3.0, 0.0), complex(-3.0, -0.0), 1e-300j, 60j, -60j,
                            2.0 + 60j, -5.0 - 60j, 1.0 + 1e-10j, 1.0, 1.0 + 2e-9j,
                            2.0 + 60.000001j, 0.5 - 61j, -24.0, -24.0 + 3j)]
    for i in range(400):
        re = rng.uniform(-23.0, 12.0)
        im = rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0), rng.uniform(-60.0, 60.0)))
        params = None
        if i % 3 == 0:
            params = EulerMaclaurinParams(N=rng.randint(2, 90), M=rng.randint(1, 15))
        cases += [(complex(re, im), params), (complex(re, -im), params)]
    cases += [(-9.0, EulerMaclaurinParams(N=20, M=4)), (-7.99, EulerMaclaurinParams(N=2, M=4)),
              (3.0 + 4j, EulerMaclaurinParams(N=2, M=1)), (-29.9, EulerMaclaurinParams(N=40, M=15))]
    return cases


def test_one_pass_matches_the_per_term_build_bitwise():
    """Every value, bound and exception equals the per-term cpow_principal
    build: real s, Im s = +-0.0, conjugate pairs, custom params, |Im s| up
    to 60, s at the pole, past the box and at Re s <= -2M."""
    cases = _one_pass_cases()
    outcomes = [(_outcome(zeta_euler_maclaurin, s, p), _outcome(_em_per_term, s, p)) for s, p in cases]
    for (s, p), (got, want) in zip(cases, outcomes):
        assert got == want, (s, p)
    raised = [got.split(":")[0] for got, _ in outcomes if not got.startswith("(")]
    assert {"PoleAtOne", "ContractViolation", "DomainError"} <= set(raised)
    assert len(raised) < len(cases) // 4


def test_one_pass_raises_as_before():
    with pytest.raises(PoleAtOne, match="pole at s = 1"):
        zeta_euler_maclaurin(1.0 + 5e-10j)
    with pytest.raises(ContractViolation):
        zeta_euler_maclaurin(0.5 + 60.5j)
    with pytest.raises(DomainError, match=r"need Re s > -2M = -30, got -30.0"):
        zeta_euler_maclaurin(-30.0, EulerMaclaurinParams(N=30, M=15))


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
