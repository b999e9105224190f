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

The package exports those objects: zeta, zeta_from_e and the two forms
of E, the integrand and the residue sums, chi and feq_check, the three
Mellin integrals and mellin_check, the oracle, the records they return
and the errors.  The quadrature rule and the scalar kernels under them
stay in their modules (zetaline.quadrature, zetaline.complex_core).

Quick start::

    from zetaline import zeta
    print(zeta(2.0 + 0.0j).value)   # pi^2/6

Command line: ``python -m zetaline eval --re 2``.
"""

from sys import modules as _modules

from . import contour, errors, quadrature
from .contour import *
from .errors import *
from .quadrature import *

__version__ = "0.1.0"

# names whose modules load on first access, so a process that only
# evaluates zeta never loads them (see README, "Start-up")
_LAZY = {
    **dict.fromkeys(("FeqReport", "chi", "feq_check"),
                    "zetaline.functional_equation"),
    **dict.fromkeys(("MellinReport", "bose_integral", "exp_sq_integral",
                     "sinh_integral", "mellin_check"), "zetaline.mellin"),
    "zeta_euler_maclaurin": "zetaline.oracle",
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


__all__ = ["__version__", *errors.__all__, *quadrature.__all__, *contour.__all__, *_LAZY]
