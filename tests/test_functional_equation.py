import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline import acceptance, complex_core, contour, functional_equation
from zetaline.acceptance import FEQ_GRID, STRIP_POINTS
from zetaline.contour import entire_e_axis
from zetaline.errors import DomainError, PoleError
from zetaline.functional_equation import (
    PASS_REL,
    FeqReport,
    _chi_cosine,
    _chi_sine,
    chi,
    feq_check,
    select_form,
)
from zetaline.mellin import mellin_check
from zetaline.oracle import zeta_euler_maclaurin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHI_HALF_5I = complex(0.80444518280051772243, 0.59402689153694180677)
CHI_4_1I = complex(50.17262302424900875, 32.068617117575933822)


def test_chi_at_half_is_one():
    assert abs(chi(0.5) - 1.0) <= 1e-12
    assert abs(_chi_sine(0.5) - 1.0) <= 1e-12
    assert abs(_chi_cosine(0.5) - 1.0) <= 1e-12


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
    a = _chi_sine(s)
    b = _chi_cosine(s)
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


def test_chi_is_the_selected_form_bitwise():
    """chi(s) is, bit for bit, the form select_form(s) names, on the
    reflection grid and the strip points, the positive odd integers (poles
    of chi) left out."""
    forms = {"sine": _chi_sine, "cosine": _chi_cosine}
    checked = 0
    for s in FEQ_GRID + STRIP_POINTS:
        if s.imag == 0.0 and s.real > 0.0 and s.real % 2.0 == 1.0:
            continue
        want = forms[select_form(s)](s)
        got = chi(s)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), s
        checked += 1
    assert checked == len(FEQ_GRID) + len(STRIP_POINTS) - 1


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


def test_chi_leaves_double_range_with_overflow():
    """Past |Im s| ~ 452.3 sin(pi s/2) leaves double range: chi raises
    OverflowError there, however far out."""
    for s in (0.3 + 460j, 0.3 + 700j):
        with pytest.raises(OverflowError):
            chi(s)


def test_kernels_receive_only_their_domain(monkeypatch):
    """cpow_principal and log_gamma refuse nothing, so the package must not
    send them what they once refused: every cpow_principal base has
    Re z > 0 and every log_gamma argument lies at least 1e-6 from a pole
    0, -1, -2, ....  Driven through verify seed 1's feq, axis and Mellin
    points, feq_check and chi over FEQ_GRID and at k + d for k in -9 .. 9
    and d in {0, +-1.1e-6, +-2e-6, 1e-3} (where chi's forms and its 1e-6
    pole guard switch) at Im s 0, 1e-7 and -3, and run_criteria()."""
    bases, args = [], []
    cpow, log_gamma = complex_core.cpow_principal, complex_core.log_gamma

    def cpow_spy(z, w):
        bases.append(complex(z))
        return cpow(z, w)

    def log_gamma_spy(z):
        args.append(complex(z))
        return log_gamma(z)

    for module in (contour, functional_equation):
        monkeypatch.setattr(module, "cpow_principal", cpow_spy)
    for module in (complex_core, acceptance):
        monkeypatch.setattr(module, "log_gamma", log_gamma_spy)
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    points = workloads.verify_points(1)
    for s in points["feq"]:
        feq_check(s)
    for s in points["axis"]:
        entire_e_axis(s)
    for s in points["mellin"]:
        mellin_check(s)
    near = [complex(k + d, im) for k in range(-9, 10)
            for d in (0.0, 1.1e-6, -1.1e-6, 2e-6, -2e-6, 1e-3) for im in (0.0, 1e-7, -3.0)]
    for s in (*FEQ_GRID, *near):
        for check in (feq_check, chi):
            try:
                check(s)
            except (DomainError, PoleError):
                pass
    acceptance.run_criteria()
    assert bases and args
    assert all(z.real > 0.0 for z in bases), min(bases, key=lambda z: z.real)
    gaps = [abs(z - min(0, round(z.real))) for z in args]
    assert min(gaps) >= 1e-6, min(gaps)
