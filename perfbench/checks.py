"""Correctness checks of every workload, against the mpmath references.

Each check takes plain values (what the measured call returned) and the
reference decimal strings, and returns None when the result is right or a
one-line reason when it is not.  Errors are computed exactly in decimal
arithmetic: a double converts to Decimal without rounding, so the error of
a result is measured against the 34-digit reference, not against its
rounding to a double.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import Decimal, localcontext

SCAN_HEADER = "re_s,im_s,re_E,im_E,re_zeta,im_zeta,abs_zeta,err_est"
FEQ_PASS = 1e-8          # rel_residual bound of feq_check
MELLIN_REAL_TOL = 1e-9   # each Mellin integral vs Gamma(s) zeta(s), real s
MELLIN_COMPLEX_TOL = 1e-8
_PREC = 60


def ref_complex(pair: list[str]) -> tuple[Decimal, Decimal]:
    return Decimal(pair[0]), Decimal(pair[1])


def abs_error(value: complex, ref: tuple[Decimal, Decimal]) -> float:
    """|value - ref|, exact up to the final rounding to a float."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        dr = Decimal(value.real) - ref[0]
        di = Decimal(value.imag) - ref[1]
        return float((dr * dr + di * di).sqrt())


def zeta_from_e(s: complex, e_ref: tuple[Decimal, Decimal]) -> tuple[Decimal, Decimal]:
    """zeta(s) = E(s)/(s - 1), in exact decimal arithmetic on the double s."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        c, d = Decimal(s.real) - 1, Decimal(s.imag)
        a, b = e_ref
        den = c * c + d * d
        return (a * c + b * d) / den, (b * c - a * d) / den


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def check_estimate(value: complex, err_est: float, converged: bool,
                   ref: tuple[Decimal, Decimal]) -> str | None:
    """A value with its own error estimate: converged, and within it."""
    if not converged:
        return "converged=False"
    if not (_finite(value) and math.isfinite(err_est)):
        return f"non-finite value {value!r} or err_est {err_est!r}"
    err = abs_error(value, ref)
    if err > err_est:
        return f"|error| {err:.3e} exceeds err_est {err_est:.3e}"
    return None


def check_conjugate(value: complex, value_at_conj: complex) -> str | None:
    """zeta(conj s) == conj zeta(s), bitwise (signed zeros included)."""
    want = value.conjugate()
    same = (math.copysign(1.0, want.real) == math.copysign(1.0, value_at_conj.real)
            and math.copysign(1.0, want.imag) == math.copysign(1.0, value_at_conj.imag)
            and want == value_at_conj)
    return None if same else f"zeta(conj s) = {value_at_conj!r}, conj zeta(s) = {want!r}"


def check_feq(rel_residual: float) -> str | None:
    if not rel_residual <= FEQ_PASS:
        return f"rel_residual {rel_residual:.3e} above {FEQ_PASS:g}"
    return None


def check_mellin(s: complex, integrals: dict[str, complex],
                 ref: tuple[Decimal, Decimal]) -> str | None:
    """Each of the three integrals within the acceptance tolerance of Gamma*zeta."""
    tol = MELLIN_REAL_TOL if s.imag == 0.0 else MELLIN_COMPLEX_TOL
    for name, v in integrals.items():
        err = abs_error(v, ref) if _finite(v) else math.inf
        if not err <= tol:
            return f"{name} off by {err:.3e} (tol {tol:g})"
    return None


def check_scan_csv(text: str, points: list[complex],
                   refs: list[tuple[Decimal, Decimal]]) -> tuple[str | None, dict]:
    """A scan's CSV: header, row count, row-major order, and every cell.

    Every E cell must lie within its err_est of the reference; the zeta
    cells must lie within err_est/|s-1| of reference zeta plus two units in
    the last place of |zeta|, the rounding of the one division E/(s-1).
    Returns (reason or None, accuracy summary).
    """
    acc = {"worst_abs_err": 0.0, "worst_err_over_est": 0.0}
    if not text.endswith("\n") or "\r" in text:
        return "CSV must end in LF and hold no CR", acc
    lines = text[:-1].split("\n")
    if lines[0] != SCAN_HEADER:
        return f"header {lines[0]!r}", acc
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if len(rows) != len(points):
        return f"{len(rows)} rows, expected {len(points)}", acc
    for k, (row, s, ref) in enumerate(zip(rows, points, refs)):
        if len(row) != 8:
            return f"row {k} has {len(row)} fields", acc
        if complex(float(row[0]), float(row[1])) != s:
            return f"row {k} holds s = {row[0]}+{row[1]}i, expected {s!r} (row-major order)", acc
        e = complex(float(row[2]), float(row[3]))
        err_est = float(row[7])
        bad = check_estimate(e, err_est, True, ref)
        if bad:
            return f"row {k} (s = {s!r}): {bad}", acc
        err = abs_error(e, ref)
        acc["worst_abs_err"] = max(acc["worst_abs_err"], err)
        if err_est > 0.0:
            acc["worst_err_over_est"] = max(acc["worst_err_over_est"], err / err_est)
        if abs(s - 1.0) < 1e-6:
            if row[4:7] != ["", "", ""]:
                return f"row {k}: zeta cells must be empty inside the pole guard", acc
            continue
        z = complex(float(row[4]), float(row[5]))
        zref = zeta_from_e(s, ref)
        zerr = abs_error(z, zref)
        allow = err_est / abs(s - 1.0) + 2.0 * math.ulp(abs(z))
        if zerr > allow:
            return f"row {k}: zeta off by {zerr:.3e} (allowed {allow:.3e})", acc
        if float(row[6]) != abs(z):
            return f"row {k}: abs_zeta {row[6]} is not |zeta|", acc
    return None, acc


def check_same_csv(first: bytes, other: bytes) -> str | None:
    """Scans of one grid are byte-identical whatever --jobs is."""
    if first == other:
        return None
    a, b = first.split(b"\n"), other.split(b"\n")
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"CSV differs from the first scan of the run at line {k + 1}"
