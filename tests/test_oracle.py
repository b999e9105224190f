import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_err_est_honesty import _abs_error

from zetaline.complex_core import cpow_principal
from zetaline.contour import residue_partial_sums
from zetaline.errors import ContractViolation, DomainError, PoleAtOne, check_box, finite_s
from zetaline.oracle import _bernoulli_floats, zeta_euler_maclaurin


SRC = Path(__file__).resolve().parent.parent / "src"


def test_bernoulli_literals_are_the_rounded_rationals():
    """All 14 literals, B_0, B_2, ..., B_26, are the exact rationals from the
    recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0, correctly rounded."""
    b = [Fraction(1)]
    for m in range(1, 27):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    assert _bernoulli_floats() == tuple(float(b[2 * k]) for k in range(14))


# (code run by a fresh `python -S`, modules it must not have loaded): the
# Bernoulli numbers are literals, so no process pays for fractions or
# decimal, and one that evaluates zeta, from the library or the command
# line, loads the line evaluator alone
_COLD_RUNS = [
    ("import zetaline", {"fractions", "decimal"}),
    ("import zetaline; zetaline.zeta(2)",
     {"dataclasses", "inspect", "typing", "zetaline.mellin", "zetaline.oracle",
      "zetaline.functional_equation", "zetaline.acceptance"}),
    # what `python -S -m zetaline eval --re 2` runs
    ("import runpy; sys.argv = ['zetaline', 'eval', '--re', '2']\n"
     "try: runpy.run_module('zetaline', run_name='__main__', alter_sys=True)\n"
     "except SystemExit as e: assert e.code == 0",
     {"dataclasses", "zetaline.acceptance", "zetaline.mellin"}),
]


def test_import_leaves_out_fractions_and_decimal():
    """Each code of _COLD_RUNS leaves out its modules."""
    for code, absent in _COLD_RUNS:
        r = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys\n{code}\nprint(sorted({absent!r} & set(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "[]", (code, r.stdout)


def _em_per_term(s: complex) -> tuple[complex, float]:
    """zeta_euler_maclaurin as it was built term by term: each power a call
    of cpow_principal, ln n taken where each use needs it, each Bernoulli
    coefficient divided by math.factorial on the spot."""
    s = finite_s(s)
    if abs(s - 1.0) < 1e-9:
        raise PoleAtOne(f"zeta has a pole at s = 1 (got s={s})")
    check_box(s, "oracle")
    n_cut, m_terms = 25 + math.ceil(abs(s.imag)), 12
    if not s.real > -2.0 * m_terms:
        raise DomainError(f"need Re s > -24, got {s.real}")
    size = min(abs(s.real) + abs(s.imag), 1e300)
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
        if not power:
            break
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


def _one_pass_cases() -> list[complex]:
    rng = random.Random(24)
    cases = [0.0, -0.0, complex(0.0, -0.0), 2.0, -1.0, -23.5, 0.5 - 0.0j, complex(-3.0, 0.0),
             complex(-3.0, -0.0), 1e-300j, 60j, -60j, 2.0 + 60j, -5.0 - 60j, 1.0 + 1e-10j, 1.0,
             1.0 + 2e-9j, 2.0 + 60.000001j, 0.5 - 61j, -24.0, -24.0 + 3j, -29.9, 210.0 + 3j,
             1e13, 1e300 + 60j]
    for _ in range(400):
        re = rng.uniform(-23.0, 12.0)
        im = rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0), rng.uniform(-60.0, 60.0)))
        cases += [complex(re, im), complex(re, -im)]
    return cases


def test_one_pass_matches_the_per_term_build_bitwise():
    """Every value, bound and exception equals the per-term cpow_principal
    build: real s, Im s = +-0.0, conjugate pairs, |Im s| up to 60, s at the
    pole, past the box, at Re s <= -2M and far right, where N^{-s} underflows."""
    cases = _one_pass_cases()
    outcomes = [(_outcome(zeta_euler_maclaurin, s), _outcome(_em_per_term, s)) for s in cases]
    for s, (got, want) in zip(cases, outcomes):
        assert got == want, s
    raised = [got.split(":")[0] for got, _ in outcomes if not got.startswith("(")]
    assert {"PoleAtOne", "ContractViolation", "DomainError"} <= set(raised)
    assert len(raised) < len(cases) // 4


def test_one_pass_raises_as_before():
    with pytest.raises(PoleAtOne, match="pole at s = 1"):
        zeta_euler_maclaurin(1.0 + 5e-10j)
    with pytest.raises(ContractViolation):
        zeta_euler_maclaurin(0.5 + 60.5j)
    with pytest.raises(DomainError, match=r"need Re s > -24, got -24.0"):
        zeta_euler_maclaurin(-24.0 + 3j)


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
    # B_24 = -236364091/2730 = -86580.253113553113...
    assert b[12] == float(Fraction(-236364091, 2730))
    # B_26 = 8553103/6, needed by the error term at M = 12
    assert len(b) == 14 and b[13] == float(Fraction(8553103, 6))


def test_bernoulli_satisfy_recurrence():
    """sum_{j=0}^{m} C(m+1, j) B_j == 0 with B_odd = 0 except B_1 = -1/2."""
    b = {0: 1.0, 1: -0.5}
    for k in range(1, 14):
        b[2 * k] = _bernoulli_floats()[k]
        b[2 * k + 1] = 0.0
    for m in (4, 10, 20, 24, 26):
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
    for s in (-24.0, -24.5 + 2j, -30.0):
        with pytest.raises(DomainError):
            # Re s at or below -2M = -24 is outside the continuation's validity
            zeta_euler_maclaurin(s)


def test_bound_is_finite_far_right():
    """Where N^{-s} underflows to 0 and s(s+1)...(s+2M) overflows, from
    Re s about 2.14e12 on, the value is 1 and the bound finite, not NaN."""
    for s in (2.2e12, 1e13, 1e13 + 60j, 1e300, 1e300 + 60j, 1.7e308 - 60j):
        value, bound = zeta_euler_maclaurin(s)
        assert value == 1.0 and 0.0 < bound < 1e-12, s


def test_bound_covers_the_frozen_references():
    """The bound holds against (s-1) zeta(s) at 34 digits at every point of
    tests/honesty_refs.json's four samples (critical line, far left, axis
    form, box) that the oracle takes; it refuses only Re s <= -24."""
    samples = json.loads((Path(__file__).resolve().parent / "honesty_refs.json").read_text())
    evaluated = refused = 0
    for sample in samples["samples"].values():
        for (re, im), (ref_re, ref_im) in zip(sample["points"], sample["E"]):
            s = complex(float(re), float(im))
            try:
                value, bound = zeta_euler_maclaurin(s)
            except DomainError:
                assert s.real <= -24.0, s
                refused += 1
                continue
            assert _abs_error(value, (Decimal(ref_re), Decimal(ref_im)), s - 1.0) <= Decimal(bound), s
            evaluated += 1
    assert (evaluated, refused) == (2851, 30)


@given(x=st.floats(min_value=1.3, max_value=10.0), y=st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=100, deadline=None)
@example(x=4.75, y=1.5)
def test_agrees_with_residue_partial_sum(x, y):
    """(s-1) zeta(s) from the oracle matches the residue sum within both bounds."""
    s = complex(x, y)
    em, em_err = zeta_euler_maclaurin(s)
    rs, tail = residue_partial_sums(s, [4000])[0]
    assert abs((s - 1.0) * em - rs) <= abs(s - 1.0) * em_err + tail


def test_dirichlet_partial_guards():
    """The partial Dirichlet sum behind the cross-check refuses Re s <= 1 and no terms."""
    with pytest.raises(DomainError):
        residue_partial_sums(1.0, [100])
    with pytest.raises(DomainError):
        residue_partial_sums(2.0, [0])


def test_conjugation_symmetry():
    for s in (2.0 + 5.0j, 0.3 + 11.0j, -1.5 + 2.0j):
        v1, _ = zeta_euler_maclaurin(s.conjugate())
        v2, _ = zeta_euler_maclaurin(s)
        assert v1 == v2.conjugate()  # bitwise via cpow conjugation symmetry
