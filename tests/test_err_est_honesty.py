"""err_est is an upper bound on the true error at the benchmark's points.

The references are the 34-digit values of (s-1) zeta(s) committed under
perfbench/refs/ (plain JSON), plus two literals frozen with mpmath.  Errors are computed in Decimal, where a double
converts exactly, so each is measured against the reference itself and not
against its rounding to a double.
"""

import json
from decimal import Decimal, localcontext
from pathlib import Path

from zetaline import mellin
from zetaline.cli import ScanGrid
from zetaline.contour import entire_e_axis, entire_e_line, zeta
from zetaline.oracle import zeta_euler_maclaurin

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


def _load(name: str) -> tuple[list[complex], list[tuple[Decimal, Decimal]]]:
    data = json.loads((REFS / name).read_text())
    pts = [complex(float(a), float(b)) for a, b in data["points"]["E"]]
    refs = [(Decimal(a), Decimal(b)) for a, b in data["values"]["E"]]
    return pts, refs


def _abs_error(value: complex, ref: tuple[Decimal, Decimal], s_minus_1: complex = 1.0) -> Decimal:
    """|value - ref / s_minus_1| in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = ref
        c, d = Decimal(s_minus_1.real), Decimal(s_minus_1.imag)
        den = c * c + d * d
        dr = Decimal(value.real) - (a * c + b * d) / den
        di = Decimal(value.imag) - (b * c - a * d) / den
        return (dr * dr + di * di).sqrt()


def test_eval_strip_zeta_within_err_est():
    """400 points, Re s in [-5, 6], |Im s| <= 6.5: zeta at tol 1e-12."""
    pts, refs = _load("eval-strip-seed1.json")
    assert len(pts) == 400
    for s, ref in zip(pts, refs):
        r = zeta(s)
        assert r.converged, s
        assert _abs_error(r.value, ref, s - 1.0) <= Decimal(r.err_est), s


def test_scan_grid_e_within_err_est():
    """The 40 x 25 scan grid, rebuilt with the CLI's own grid arithmetic:
    E at tol 1e-8."""
    pts, refs = _load("scan-grid-seed1.json")
    grid = ScanGrid(pts[0].real, pts[-1].real, pts[0].imag, pts[-1].imag, 40, 25)
    assert grid.points() == pts
    for s, ref in zip(pts, refs):
        r = entire_e_line(s, tol=1e-8)
        assert r.converged, s
        assert _abs_error(r.value, ref) <= Decimal(r.err_est), s


def test_axis_e_within_err_est():
    """The axis form of E at tol 1e-12: the 24 eval-tall points with
    Re s <= -0.6 (|Im s| from 12 to 60, where the integrand oscillates
    fastest) and the verify workload's 48 points."""
    tall_pts, tall_refs = _load("eval-tall.json")
    tall = [(s, ref) for s, ref in zip(tall_pts, tall_refs) if s.real <= -0.6]
    assert len(tall) == 24
    verify = list(zip(*_load("verify-seed1.json")))
    assert len(verify) == 48
    for s, ref in tall + verify:
        r = entire_e_axis(s)
        assert r.converged, s
        assert _abs_error(r.value, ref) <= Decimal(r.err_est), s


def test_axis_err_est_near_the_domain_edge():
    """Just inside Re s <= -0.05 the origin tail t^{-1-s} is barely
    integrable; the error there must stay within err_est.  Reference:
    (s-1) zeta(s) at 40 digits (mpmath), rounded to 34."""
    s = complex(-0.09561558738438447, 5.31476695632287)
    ref = (Decimal("-2.585246326334617336155587230751312"),
           Decimal("3.129824990511296303602928248244004"))
    r = entire_e_axis(s)
    assert r.converged
    assert _abs_error(r.value, ref) <= Decimal(r.err_est)


def test_eval_tall_e_within_err_est():
    """The 48 eval-tall points, 12 <= |Im s| <= 60, at tol 1e-12: every
    value lies within its err_est, and all 24 with Re s >= 1.6 converge.
    (At Re s <= -0.6 |E| reaches 1e2 to 1e7, and an absolute 1e-12 can lie
    below double round-off; such points say converged=False.)"""
    pts, refs = _load("eval-tall.json")
    assert len(pts) == 48
    for s, ref in zip(pts, refs):
        r = entire_e_line(s)
        assert r.converged or s.real < 1.6, s
        assert _abs_error(r.value, ref) <= Decimal(r.err_est), s


def test_first_zero_within_err_est():
    """E and zeta at the first zero 0.5+14.1347i converge at tol 1e-12 and
    lie within err_est.  Reference: (s-1) zeta(s) at 50 digits (mpmath),
    rounded to 34."""
    s = complex(0.5, 14.134725141734693)
    ref = (Decimal("1.030083565857936616335383530543982e-14"),
           Decimal("2.015611558377423463097203328387911e-15"))
    e = entire_e_line(s)
    assert e.converged
    assert _abs_error(e.value, ref) <= Decimal(e.err_est)
    z = zeta(s)
    assert z.converged
    assert _abs_error(z.value, ref, s - 1.0) <= Decimal(z.err_est)


def test_oracle_bound_covers_eval_tall():
    """zeta_euler_maclaurin's error bound holds at the 48 eval-tall points,
    where the exponent of each n^{-s} is large (|Im s| ln n up to 270)."""
    pts, refs = _load("eval-tall.json")
    for s, ref in zip(pts, refs):
        value, bound = zeta_euler_maclaurin(s)
        assert _abs_error(value, ref, s - 1.0) <= Decimal(bound), s


def test_mellin_integrals_within_err_est():
    """The two Mellin integrals at the verify workload's 48 points (Re s
    in [1.1, 6], |Im s| <= 5) at tol 1e-12, each within its err_est:
    bose = Gamma(s) zeta(s) and J = 4 s Gamma(s) zeta(s), against the
    committed Gamma(s) zeta(s); exp_sq_integral and sinh_integral are
    both J(s)/4s."""
    data = json.loads((REFS / "verify-seed1.json").read_text())
    pts = [complex(float(a), float(b)) for a, b in data["points"]["gamma_zeta"]]
    refs = [(Decimal(a), Decimal(b)) for a, b in data["values"]["gamma_zeta"]]
    assert len(pts) == 48
    for s, (a, b) in zip(pts, refs):
        for run, factor in ((mellin._bose, 1.0), (mellin._sinh_sq_integral, 4.0 * s)):
            r = run(s, 1e-12)  # J near 2665 may not converge: its rounding is above tol
            with localcontext() as ctx:
                ctx.prec = 60
                c, d = Decimal(factor.real), Decimal(factor.imag)
                dr = Decimal(r.value.real) - (a * c - b * d)
                di = Decimal(r.value.imag) - (a * d + b * c)
                assert (dr * dr + di * di).sqrt() <= Decimal(r.err_est), (s, run)


def test_err_est_with_the_decay_cut_on_the_grid():
    """The decay-side cut of a Mellin integral lies on the grid of the
    trapezoid nodes, so the nodes left out past it sum to less than the
    tail bound.  With the cut off the grid they can sum to more: the bose
    integral at this verify point was then off by 2.8e-13 against an
    err_est of 2.0e-13.  The axis point below, whose J cut also falls
    between nodes when off the grid, is checked too.  References:
    Gamma(s) zeta(s) and (s-1) zeta(s) at 45 digits (mpmath), rounded to 34."""
    s = complex(2.8864583333333336, -0.34054990832450915)
    ref = (Decimal("2.077181006391567397236866394489266"),
           Decimal("-0.5042575130810485471905700806264175"))
    r = mellin._bose(s, 1e-12)
    assert r.converged
    assert _abs_error(r.value, ref) <= Decimal(r.err_est)
    s = complex(-3.14370445144863, -1.1106075174305836)
    ref = (Decimal("-0.06595082761640670893360919710715674"),
           Decimal("0.04402740078718228291472737752716823"))
    r = entire_e_axis(s)
    assert r.converged
    assert _abs_error(r.value, ref) <= Decimal(r.err_est)
