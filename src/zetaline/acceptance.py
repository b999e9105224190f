"""Self-contained acceptance checks tying the whole construction together.

Each check pits independent paths against each other (line contour vs
residue sums, vs the shifted-axis form, vs the Euler-Maclaurin oracle, the
reflection identity against itself) at fixed tolerances, and returns one
CriterionResult per check.  The CLI selftest prints these; the test suite
asserts them.  Every detail string is a pure function of the computed
values, so repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import math
import time

from .complex_core import log_gamma
from .contour import entire_e_axis, entire_e_line, residue_partial_sums, zeta
from .functional_equation import PASS_REL, chi, feq_check
from .mellin import PASS_COMPLEX, PASS_REAL, mellin_check
from .oracle import zeta_euler_maclaurin
from .record import Record

__all__ = ["CriterionResult", "run_criteria", "FEQ_GRID"]


class CriterionResult(Record):
    __slots__ = ()

    def __new__(cls, number: int, name: str, passed: bool, detail: str) -> CriterionResult:
        return tuple.__new__(cls, (number, name, passed, detail))


# reflection-identity grid; guard disks at 0 and 1 have radius 1e-3 and
# exclude nothing here
FEQ_GRID = tuple(
    complex(re, im)
    for im in (0.0, 1.0, 5.0, 10.0, 20.0)
    for re in (-5.0, -3.0, -1.5, -0.5, 0.5, 2.0, 3.0, 4.0, 6.0)
)

# critical-strip comparison points for the oracle cross-check, |Im s| <= 15;
# the line evaluator crosses one residue up to Im s = 12 and two at 15
# (N = max(floor(|Im s| / 2 pi), 1)), so the check covers the residue stage
# and the corrected trapezoid rule on two lines
STRIP_POINTS = tuple(
    complex(re, im)
    for re in (0.2, 0.4, 0.6, 0.8)
    for im in (0.0, 3.0, 7.5, 12.0, 15.0)
)


def _check_exact_points() -> CriterionResult:
    t0 = time.perf_counter()
    e1 = entire_e_line(1.0)
    t1 = time.perf_counter()
    e0 = entire_e_line(0.0)
    t2 = time.perf_counter()
    d1 = abs(e1.value - 1.0)
    d0 = abs(e0.value - 0.5)
    ok = d1 < 1e-12 and d0 < 1e-12 and (t1 - t0) < 0.05 and (t2 - t1) < 0.05
    return CriterionResult(
        1, "exact points E(1)=1, E(0)=1/2", ok,
        f"|E(1)-1|={d1:.3e} |E(0)-1/2|={d0:.3e} (tol 1e-12, each under 50 ms)",
    )


def _check_residue_identity() -> CriterionResult:
    worst = -math.inf
    for s in (2.0 + 0.0j, 3.0 + 0.0j, 2.5 + 2.0j):
        e = entire_e_line(s)
        v, tail = residue_partial_sums(s, [10_000])[0]
        excess = abs(e.value - v) - (tail + 1e-10)
        worst = max(worst, excess)
    return CriterionResult(
        2, "residue partial sums converge to E", worst <= 0.0,
        f"worst |E - sum| minus (tail_bound + 1e-10) = {worst:.3e} (need <= 0)",
    )


def _check_contour_shift() -> CriterionResult:
    worst = 0.0
    for s in (-0.5 + 0.0j, -1.0 + 0.0j, -2.5 + 0.0j, -3.0 + 2.0j, -5.0 + 5.0j):
        d = abs(entire_e_line(s).value - entire_e_axis(s).value)
        worst = max(worst, d)
    return CriterionResult(
        3, "line form agrees with shifted-axis form", worst < 1e-9,
        f"worst |E_line - E_axis| = {worst:.3e} (tol 1e-9)",
    )


def _check_functional_equation() -> CriterionResult:
    t0 = time.perf_counter()
    reports = [feq_check(s) for s in FEQ_GRID]
    elapsed = time.perf_counter() - t0
    worst = max(reports, key=lambda r: r.rel_residual)
    ok = all(r.passes for r in reports) and elapsed < 30.0
    return CriterionResult(
        4, "reflection identity across the plane", ok,
        f"worst rel_residual = {worst.rel_residual:.3e} at s = {worst.s} over "
        f"{len(FEQ_GRID)} points (tol {PASS_REL:.0e}, under 30 s)",
    )


def _check_mellin_chain() -> CriterionResult:
    real = [mellin_check(s) for s in (1.5, 2.0, 3.0, 4.5)]
    cplx = [mellin_check(s) for s in (2.0 + 1.0j, 3.0 + 2.0j)]
    worst_real = max(r.max_abs_deviation for r in real)
    worst_cplx = max(r.max_abs_deviation for r in cplx)
    return CriterionResult(
        5, "Mellin chain equals Gamma(s) zeta(s)", all(r.passes for r in real + cplx),
        f"max deviation {worst_real:.3e} at real s (tol {PASS_REAL:.0e}), "
        f"{worst_cplx:.3e} at complex s (tol {PASS_COMPLEX:.0e})",
    )


def _check_trivial_zeros() -> CriterionResult:
    worst = max(abs(zeta(s).value) for s in (-2.0, -4.0, -6.0))
    return CriterionResult(
        6, "trivial zeros at -2, -4, -6", worst < 1e-10,
        f"max |zeta| = {worst:.3e} (tol 1e-10)",
    )


def _theta(t: float) -> float:
    """Phase making e^{i theta(t)} zeta(1/2+it) real-valued on the line."""
    return log_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * math.log(math.pi)


def _z_oracle(t: float) -> float:
    v, _ = zeta_euler_maclaurin(complex(0.5, t))
    ph = complex(math.cos(_theta(t)), math.sin(_theta(t)))
    return (ph * v).real


def locate_first_zero() -> float:
    """Bisect the sign change of the oracle's rotated zeta on [14, 14.3].

    The rotation e^{i theta(t)} makes zeta(1/2+it) real up to round-off, so
    a sign change brackets a zero of the modulus; 60 halvings pin it to
    float resolution deterministically.
    """
    lo, hi = 14.0, 14.3  # about the first zero, at t = 14.1347...
    flo = _z_oracle(lo)
    fhi = _z_oracle(hi)
    if not flo * fhi < 0.0:
        raise ArithmeticError(f"no sign change on [{lo}, {hi}]: {flo} vs {fhi}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _z_oracle(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _check_oracle_agreement() -> CriterionResult:
    worst = 0.0
    for s in STRIP_POINTS:
        v, _ = zeta_euler_maclaurin(s)
        worst = max(worst, abs(zeta(s).value - v))
    t_zero = locate_first_zero()
    mod = abs(zeta(complex(0.5, t_zero)).value)
    ok = worst < 1e-10 and 14.0 <= t_zero <= 14.3 and mod < 1e-4
    return CriterionResult(
        7, "contour matches Euler-Maclaurin oracle", ok,
        f"worst strip deviation {worst:.3e} over {len(STRIP_POINTS)} points "
        f"(tol 1e-10); |zeta(1/2+it)| = {mod:.3e} at oracle-located t = {t_zero:.12f}",
    )


def _check_multiplier_identities() -> CriterionResult:
    d_half = abs(chi(0.5 + 0.0j) - 1.0)
    worst = 0.0
    n_used = 0
    for s in FEQ_GRID:
        if abs(s - round(s.real)) <= 0.1:
            continue  # reciprocity is checked away from the integers
        n_used += 1
        worst = max(worst, abs(chi(s) * chi(1.0 - s) - 1.0))
    ok = d_half < 1e-12 and worst < 1e-10
    return CriterionResult(
        8, "multiplier normalization and reciprocity", ok,
        f"|chi(1/2)-1| = {d_half:.3e} (tol 1e-12); worst |chi(s)chi(1-s)-1| = "
        f"{worst:.3e} over {n_used} points (tol 1e-10)",
    )


_CHECKS = (
    _check_exact_points,
    _check_residue_identity,
    _check_contour_shift,
    _check_functional_equation,
    _check_mellin_chain,
    _check_trivial_zeros,
    _check_oracle_agreement,
    _check_multiplier_identities,
)


def run_criteria() -> list[CriterionResult]:
    """Run checks 1-8 in order (the determinism check lives in the CLI,
    which owns the scan machinery it compares)."""
    return [check() for check in _CHECKS]
