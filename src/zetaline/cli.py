"""Command-line front end: evaluate, verify, scan, self-test.

Subcommands and their stdout formats (space-separated tokens, floats with
17 significant digits so values round-trip exactly):

  eval      value_re value_im err_est line n_evals  (`line` is literal)
  feq       lhs_re lhs_im rhs_re rhs_im abs_residual rel_residual form direction
  lemma     bose_re bose_im exp_sq_re exp_sq_im sinh_re sinh_im
            reference_re reference_im max_abs_deviation extended
            (exp_sq and sinh are one integral and print the same value)
  residues  one row per table size N: "N value_re value_im tail_bound"
  scan      writes CSV to --out (header re_s,im_s,re_E,im_E,re_zeta,im_zeta,
            abs_zeta,err_est; shortest round-trip decimals; LF endings;
            zeta fields empty inside the |s-1| < 1e-6 pole guard); stdout
            stays empty, and one stderr line gives the count and worst
            err_est of cells that did not converge
  selftest  one "criterion N PASS/FAIL name: detail" line per check

Exit codes: 0 pass/success; 1 usage error; 2 domain error (non-finite s or
grid bounds, guards, poles, contract boxes, --tol below 1e-14 or infinite,
--jobs below 1, --n-max outside [1, 10^6], unwritable scan paths); 3
convergence or check failure (eval, or any scan cell, whose err_est exceeds
its tolerance; feq residual above 1e-8; lemma deviation not below 1e-9 at
real s or 1e-8 at complex s; failed selftest criterion; truncation failure,
non-finite integrand, overflow).
scan refuses a bad grid, --jobs, --tol or --out before it evaluates a
point.  Diagnostics go to stderr; stdout carries results only.  There are
no environment variables: every knob is a flag.

lemma's bounds are absolute.  |Gamma(s) zeta(s)| falls below 1e-8 above
|Im s| = 13.0 at Re s = 1.06 and above 23.4 at Re s = 6, and from there on
lemma passes whatever the integrals return: at 3+60i they are 3.5e-14 off
a reference of 7e-37, and lemma exits 0.

eval, residues and scan run on the line evaluator alone; feq, lemma and
selftest import the functional equation, the Mellin chain and the
acceptance suite when they run, so no other command pays to load them.

Repeated invocations with identical flags produce byte-identical stdout.
A scan evaluates its points row-major (im outer, re inner) on one thread;
--jobs must be >= 1 and changes nothing.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

from .contour import _zeta_value, entire_e_line, residue_partial_sums, zeta
from .errors import (
    DomainError,
    NonFiniteIntegrand,
    PoleAtOne,
    TruncationFailure,
    ZetalineError,
    check_box,
    finite_s,
)
from .quadrature import EvalResult, check_tol
from .record import Record

__all__ = ["ScanGrid", "main"]

_MAX_POINTS = 1_000_000  # largest scan grid and largest --n-max


class ScanGrid(Record):
    """Rectangular grid: steps_* points per axis, endpoints inclusive."""

    __slots__ = ()

    def __new__(cls, re_min: float, re_max: float, im_min: float, im_max: float,
                steps_re: int, steps_im: int) -> ScanGrid:
        bounds = (re_min, re_max, im_min, im_max)
        if not all(map(math.isfinite, bounds)):
            raise DomainError(f"grid bounds must be finite, got {bounds}")
        if not (re_min <= re_max and im_min <= im_max):
            raise DomainError("grid needs re_min <= re_max and im_min <= im_max")
        if steps_re < 1 or steps_im < 1:
            raise DomainError("steps_re and steps_im must be >= 1")
        if (steps_re == 1 and re_min != re_max) or (steps_im == 1 and im_min != im_max):
            raise DomainError("an axis with one step needs equal bounds")
        if steps_re * steps_im > _MAX_POINTS:
            raise DomainError(
                f"grid has {steps_re * steps_im} points; the cap is {_MAX_POINTS}"
            )
        for im in (im_min, _axis(im_min, im_max, steps_im)[-1]):
            check_box(complex(0.0, im), "scan grid")  # the Im axis runs between these
        return tuple.__new__(cls, (re_min, re_max, im_min, im_max, steps_re, steps_im))

    def points(self) -> list[complex]:
        """Row-major: im outer, re inner."""
        res = _axis(self.re_min, self.re_max, self.steps_re)
        ims = _axis(self.im_min, self.im_max, self.steps_im)
        return [complex(re, im) for im in ims for re in res]


def _axis(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    return [lo + k * (hi - lo) / (n - 1) for k in range(n)]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


_SCAN_HEADER = "re_s,im_s,re_E,im_E,re_zeta,im_zeta,abs_zeta,err_est"


def _scan_cell(s: complex, tol: float) -> tuple[str, EvalResult]:
    e = entire_e_line(s, tol)
    try:
        z = _zeta_value(s, e.value)
    except PoleAtOne:
        z_txt = ",,"  # undefined near the pole, not zero
    else:
        z_txt = f"{z.real!r},{z.imag!r},{abs(z)!r}"
    return f"{s.real!r},{s.imag!r},{e.value.real!r},{e.value.imag!r},{z_txt},{e.err_est!r}", e


def scan_csv_lines(grid: ScanGrid, tol: float = 1e-12) -> tuple[list[str], list[float]]:
    """Header plus one line per grid point, E(s) at tolerance tol, and the
    err_est of every cell that did not converge."""
    lines, missed = [_SCAN_HEADER], []
    for s in grid.points():  # a cell's result is dropped once its line is made
        line, e = _scan_cell(s, tol)
        lines.append(line)
        if not e.converged:
            missed.append(e.err_est)
    return lines, missed


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract reserves 2 for
    # domain errors and uses 1 for usage problems
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--re", type=float, required=True, help="Re s")
    p.add_argument("--im", type=float, default=0.0, help="Im s (default 0)")


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use: parse_args leaves
    it as it was, and each build costs about 0.8 ms and leaves a few hundred
    objects in reference cycles for the garbage collector."""
    parser = _Parser(prog="zetaline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate zeta(s)")
    _add_point_flags(p)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="absolute tolerance on E(s) = (s-1) zeta(s) (default 1e-12)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("feq", help="check zeta(s) = chi(s) zeta(1-s)")
    _add_point_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_feq)

    p = sub.add_parser("lemma", help="check the Mellin chain against Gamma(s) zeta(s)")
    _add_point_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("residues", help="residue partial-sum table (doubling N)")
    _add_point_flags(p)
    p.add_argument("--n-max", type=int, required=True, help="largest table size")
    p.set_defaults(func=_cmd_residues)

    p = sub.add_parser("scan", help="CSV grid scan of E(s) and zeta(s)")
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, required=True)
    p.add_argument("--im-max", type=float, required=True)
    p.add_argument("--steps-re", type=int, required=True)
    p.add_argument("--steps-im", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for old scripts: must be >= 1 and changes nothing")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _point(args: argparse.Namespace) -> complex:
    """s from --re and --im; DomainError unless it is finite."""
    return finite_s(complex(args.re, args.im))


def _cmd_eval(args: argparse.Namespace) -> int:
    res = zeta(_point(args), args.tol)
    print(f"{_fmt(res.value.real)} {_fmt(res.value.imag)} {_fmt(res.err_est)} "
          f"line {res.n_evals}")
    return 0 if res.converged else 3


def _cmd_feq(args: argparse.Namespace) -> int:
    from .functional_equation import feq_check

    rep = feq_check(_point(args), args.tol)
    print(f"{_fmt(rep.lhs.real)} {_fmt(rep.lhs.imag)} {_fmt(rep.rhs.real)} "
          f"{_fmt(rep.rhs.imag)} {_fmt(rep.abs_residual)} {_fmt(rep.rel_residual)} "
          f"{rep.form} {rep.direction}")
    return 0 if rep.passes else 3


def _cmd_lemma(args: argparse.Namespace) -> int:
    from .mellin import mellin_check

    rep = mellin_check(_point(args), args.tol)
    print(f"{_fmt(rep.bose.real)} {_fmt(rep.bose.imag)} "
          f"{_fmt(rep.exp_sq.real)} {_fmt(rep.exp_sq.imag)} "
          f"{_fmt(rep.sinh_form.real)} {_fmt(rep.sinh_form.imag)} "
          f"{_fmt(rep.reference.real)} {_fmt(rep.reference.imag)} "
          f"{_fmt(rep.max_abs_deviation)} {int(rep.extended)}")
    return 0 if rep.passes else 3


def _cmd_residues(args: argparse.Namespace) -> int:
    if not 1 <= args.n_max <= _MAX_POINTS:
        raise DomainError(f"--n-max must be in [1, {_MAX_POINTS}], got {args.n_max}")
    s = _point(args)
    sizes = []
    n = 1
    while n <= args.n_max:
        sizes.append(n)
        n *= 2
    if sizes[-1] != args.n_max:
        sizes.append(args.n_max)
    for size, (value, tail) in zip(sizes, residue_partial_sums(s, sizes)):
        print(f"{size} {_fmt(value.real)} {_fmt(value.imag)} {_fmt(tail)}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    grid = ScanGrid(args.re_min, args.re_max, args.im_min, args.im_max,
                    args.steps_re, args.steps_im)
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    check_tol(args.tol)
    # opened first, so an unwritable path exits 2 before any point is evaluated
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        lines, missed = scan_csv_lines(grid, args.tol)
        fh.write("\n".join(lines) + "\n")
    if missed:
        print(f"scan: {len(missed)} of {len(lines) - 1} cells did not converge at "
              f"--tol {args.tol!r}; worst err_est {_fmt(max(missed))}", file=sys.stderr)
        return 3
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import run_criteria

    for r in run_criteria():
        print(f"criterion {r.number} {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        if not r.passed:
            return 3
    grid = ScanGrid(-2.0, 3.0, 0.0, 5.0, 100, 100)
    # the second scan reads the node lists the first one filled
    same = scan_csv_lines(grid, 1e-8) == scan_csv_lines(grid, 1e-8)
    print(f"criterion 9 {'PASS' if same else 'FAIL'} scan determinism: "
          f"10000-point scan byte-identical when repeated in one process")
    return 0 if same else 3


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PoleAtOne:
        print("pole at s=1; evaluate E instead", file=sys.stderr)
        return 2
    except (TruncationFailure, NonFiniteIntegrand, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ZetalineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
