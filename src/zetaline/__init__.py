"""Riemann zeta via a contour integral on a vertical line.

The central object is the entire function E(s) = (s - 1) zeta(s), computed as

    E(s) = (1 / 2 pi) Integral over Re z = N + 1/2 of pi^2 z^{1-s} / sin^2(pi z)
           + (s - 1) sum_{n <= N} n^{-s}

with N = floor(|Im s| / 2 pi), at least 1 for Re s > -10: the line
Re z = 1/2 of the paper, moved past the residues (1-s) n^{-s} of the first
N poles so that the integral does not cancel, and on N >= 1 integrated
with the two nearest poles' contribution taken out of each trapezoid sum.
Everything else is built around that representation: an imaginary-axis
variant for Re s <= -0.05, residue partial sums that recover the
Dirichlet series, the functional equation zeta(s) =
chi(s) zeta(1-s) in two multiplier forms, a chain of Mellin integrals
equal to Gamma(s) zeta(s), and an independent Euler-Maclaurin evaluator
used as a cross-check.  The supported box is |Im s| <= 60.

Quick start::

    from zetaline import zeta
    print(zeta(2.0 + 0.0j).value)   # pi^2/6

Command line: ``python -m zetaline eval --re 2``.
"""

from sys import modules as _modules

from .complex_core import (
    cos_pi_z,
    cpow_principal,
    gamma,
    log_gamma,
    sech_sq_pi,
    sin_pi_z,
    sinhc_half,
)
from .contour import (
    entire_e_axis,
    entire_e_line,
    line_integrand,
    residue_partial_sum,
    residue_partial_sums,
    zeta,
    zeta_from_e,
)
from .errors import (
    ContractViolation,
    DomainError,
    NonFiniteIntegrand,
    PoleAtOne,
    PoleError,
    TruncationFailure,
    ZetalineError,
)
from .quadrature import (
    EvalResult,
    check_tol,
    integrate_interval,
    integrate_line_decaying,
    integrate_mellin,
)

__version__ = "0.1.0"

# names whose modules load on first access, so a process that only
# evaluates zeta never loads them (see README, "Start-up")
_LAZY = {
    **dict.fromkeys(("FeqReport", "select_form", "chi", "feq_check"),
                    "zetaline.functional_equation"),
    **dict.fromkeys(("MellinReport", "bose_integral", "exp_sq_integral",
                     "sinh_integral", "mellin_check"), "zetaline.mellin"),
    **dict.fromkeys(("EulerMaclaurinParams", "zeta_euler_maclaurin", "default_params"),
                    "zetaline.oracle"),
}


def __getattr__(name: str):
    """A lazy name, read from its module on every access and never bound
    here, so a name patched on the module (a tracer's wrapper, say) is seen
    here exactly while the patch lasts."""
    path = _LAZY.get(name)
    if path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _modules.get(path)
    if module is None:
        from importlib import import_module

        module = import_module(path)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "__version__",
    # errors
    "ZetalineError",
    "DomainError",
    "ContractViolation",
    "PoleError",
    "PoleAtOne",
    "NonFiniteIntegrand",
    "TruncationFailure",
    # complex helpers
    "cpow_principal",
    "sin_pi_z",
    "cos_pi_z",
    "sech_sq_pi",
    "sinhc_half",
    "log_gamma",
    "gamma",
    # quadrature
    "EvalResult",
    "check_tol",
    "integrate_interval",
    "integrate_line_decaying",
    "integrate_mellin",
    # contour
    "line_integrand",
    "entire_e_line",
    "entire_e_axis",
    "residue_partial_sum",
    "residue_partial_sums",
    "zeta_from_e",
    "zeta",
    # functional equation
    "FeqReport",
    "select_form",
    "chi",
    "feq_check",
    # Mellin chain
    "MellinReport",
    "bose_integral",
    "exp_sq_integral",
    "sinh_integral",
    "mellin_check",
    # Euler-Maclaurin oracle
    "EulerMaclaurinParams",
    "zeta_euler_maclaurin",
    "default_params",
]
