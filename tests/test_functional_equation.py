import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline.errors import DomainError, PoleError
from zetaline.functional_equation import PASS_REL, FeqReport, chi, feq_check, select_form
from zetaline.oracle import zeta_euler_maclaurin

CHI_HALF_5I = complex(0.80444518280051772243, 0.59402689153694180677)
CHI_4_1I = complex(50.17262302424900875, 32.068617117575933822)


def test_chi_at_half_is_one():
    assert abs(chi(0.5) - 1.0) <= 1e-12
    assert abs(chi(0.5, "sine") - 1.0) <= 1e-12
    assert abs(chi(0.5, "cosine") - 1.0) <= 1e-12


def test_chi_closed_forms():
    # zeta(2) = chi(2) zeta(-1) and zeta(-1) = chi(-1) zeta(2) give
    # chi(2) = -2 pi^2 and chi(-1) = -1/(2 pi^2)
    assert chi(2.0) == pytest.approx(-2.0 * math.pi**2, rel=1e-13)
    assert chi(-1.0) == pytest.approx(-1.0 / (2.0 * math.pi**2), rel=1e-13)
    # zeta(-3) = chi(-3) zeta(4): chi(-3) = (1/120)/(pi^4/90) = 3/(4 pi^4)
    assert chi(-3.0) == pytest.approx(0.75 / math.pi**4, rel=1e-13)


def test_chi_reference_points():
    assert abs(chi(0.5 + 5.0j) - CHI_HALF_5I) <= 1e-13 * abs(CHI_HALF_5I)
    assert abs(chi(4.0 + 1.0j) - CHI_4_1I) <= 1e-13 * abs(CHI_4_1I)


def test_form_selection():
    assert select_form(2.0) == "cosine"   # sine form hits Gamma(-1)
    assert select_form(-1.0) == "sine"    # cosine form hits Gamma(-1)
    assert select_form(4.0 + 0.1j) == "cosine"
    assert select_form(3.0 + 0.1j) == "sine"


@given(
    x=st.floats(min_value=-6.0, max_value=7.0),
    y=st.floats(min_value=0.3, max_value=20.0),
)
@settings(max_examples=150, deadline=None)
def test_forms_agree_off_the_real_axis(x, y):
    s = complex(x, y)
    a = chi(s, "sine")
    b = chi(s, "cosine")
    assert abs(a - b) <= 1e-10 * (abs(a) + abs(b))


@given(
    x=st.floats(min_value=-4.0, max_value=5.0),
    y=st.floats(min_value=0.2, max_value=25.0),
)
@settings(max_examples=150, deadline=None)
def test_reciprocity(x, y):
    """chi(s) chi(1-s) = 1 wherever both factors are regular."""
    s = complex(x, y)
    assert abs(chi(s) * chi(1.0 - s) - 1.0) <= 1e-10


def test_unit_modulus_on_critical_line():
    for t in (1.0, 5.0, 14.0, 25.0):
        assert abs(abs(chi(complex(0.5, t))) - 1.0) <= 1e-12


def test_chi_pole_at_positive_odd_integers():
    for s in (1.0, 3.0, 5.0, 3.0 + 1e-9j):
        with pytest.raises(PoleError):
            chi(s)
    # negative odd integers are regular (zero of sin against pole of Gamma)
    assert math.isfinite(chi(-3.0).real)


def test_chi_form_argument_validation():
    with pytest.raises(DomainError):
        chi(2.0, "tangent")


def test_chi_against_oracle():
    # with Re s < 0 the reflected argument has Re(1-s) > 1 where the oracle
    # is fast; chi(s) zeta(1-s) must reproduce zeta(s)
    for s in (-1.5 + 0.0j, -2.5 + 1.0j, -0.5 + 3.0j):
        rhs = chi(s) * zeta_euler_maclaurin(1.0 - s)[0]
        want, err = zeta_euler_maclaurin(s)
        assert abs(rhs - want) <= 1e-10 + 10.0 * err


def test_feq_check_spot_points():
    r = feq_check(-3.0)
    assert r.rel_residual <= 1e-10
    assert r.direction == "direct"
    r = feq_check(0.5 + 5.0j)
    assert r.rel_residual <= 1e-10
    assert r.form == "sine"
    r = feq_check(4.0)
    assert r.rel_residual <= 1e-10
    assert r.form == "cosine"


def test_feq_check_reflects_near_odd_poles():
    r = feq_check(3.0)
    assert r.direction == "reflected"
    assert r.rel_residual <= 1e-10
    r = feq_check(5.0 + 1e-5j)
    assert r.direction == "reflected"
    assert r.rel_residual <= 1e-10
    # s = 1 is inside the guard disk, not reflected
    with pytest.raises(DomainError):
        feq_check(1.0)


def test_feq_check_guard_disks():
    for s in (0.0, 1.0, 0.0005, 1.0 + 0.0005j):
        with pytest.raises(DomainError):
            feq_check(s)


def test_feq_residual_symmetric_in_conjugation():
    up = feq_check(0.3 + 7.0j)
    down = feq_check(0.3 - 7.0j)
    assert up.lhs == down.lhs.conjugate()  # contour side is bitwise symmetric
    assert up.abs_residual == pytest.approx(down.abs_residual, rel=1e-9, abs=1e-13)


def test_feq_report_passes_at_the_bound():
    """passes is rel_residual <= PASS_REL, the one bound the CLI and selftest use."""
    def report(rel):
        return FeqReport(2.0, 1.0, 1.0, rel, rel, "sine")

    assert PASS_REL == 1e-8
    assert report(PASS_REL).passes
    assert not report(math.nextafter(PASS_REL, 1.0)).passes
    assert not report(math.nan).passes
