"""The package's public surface: each module's __all__ names real objects,
the package exports exactly the library modules' names, and the README's
quick start runs."""

import ast
import dataclasses
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zetaline
from zetaline.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent

# the modules whose __all__ the package re-exports
LIBRARY = ("errors", "complex_core", "quadrature", "contour",
           "functional_equation", "mellin", "oracle")


def test_all_lists_match_exports():
    union = set()
    for info in pkgutil.iter_modules(zetaline.__path__):
        if info.name == "__main__":
            continue  # runs the command line on import
        mod = importlib.import_module(f"zetaline.{info.name}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"zetaline.{info.name}.{name}"
        if info.name in LIBRARY:
            union |= set(mod.__all__)
    assert len(zetaline.__all__) == len(set(zetaline.__all__))
    assert set(zetaline.__all__) == union | {"__version__"}
    for name in zetaline.__all__:
        assert hasattr(zetaline, name), name


def _level(g, a=0.0):
    """The level evaluator of the per-node integrand g on the grid a + k h."""
    return lambda h, ks: [g(a + k * h) for k in ks]


def _gauss_bound(h):
    """The strip bound 2M / (e^{2 pi d/h} - 1) of e^{-x^2}, M = sqrt(pi) e^{d^2}
    at d = 1, plus 1e-40 for the nodes and the integral past |x| = 10."""
    return 2.0 * math.sqrt(math.pi) * math.e / math.expm1(2.0 * math.pi / h) + 1e-40


def test_one_result_type():
    """Every integral and every E(s) or zeta(s) comes back as the one
    EvalResult, fields in one order."""
    results = [
        zetaline.zeta(2.0),
        zetaline.entire_e_axis(-1.5),
        zetaline.integrate_interval(_level(lambda x: complex(math.exp(-x * x)), -10.0),
                                    -10.0, 10.0, bound=_gauss_bound),
        zetaline.integrate_line_decaying(_level(lambda y: complex(2.0 * math.exp(-y * y))),
                                         lambda y: 1.0 - y, bound=_gauss_bound),
        # e^{-e^w} along Im w = b integrates to 1 / cos(b) in modulus: M(1) = 1 / cos(1)
        zetaline.integrate_mellin(
            lambda t: complex(math.exp(-t)), 0.0,
            bound=lambda h: 2.0 / math.cos(1.0) / math.expm1(2.0 * math.pi / h)),
    ]
    for r in results:
        assert type(r) is zetaline.EvalResult
    assert [f.name for f in dataclasses.fields(zetaline.EvalResult)] == [
        "value", "err_est", "n_evals", "converged", "truncation_height"]
    assert not hasattr(zetaline, "QuadratureResult")


def test_package_imports_only_stdlib():
    """The package needs the standard library alone: the top-level module of
    every absolute import under src/zetaline is a stdlib module."""
    paths = sorted((ROOT / "src" / "zetaline").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_readme_quick_start_runs():
    """The README's python block runs as written against src/."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


# every public function that takes s, called with s and defaults otherwise
ENTRY_POINTS = {
    "zeta": zetaline.zeta,
    "entire_e_line": zetaline.entire_e_line,
    "entire_e_axis": zetaline.entire_e_axis,
    "zeta_from_e": lambda s: zetaline.zeta_from_e(s, zetaline.EvalResult(1j, 0.0, 1, True, 1.0)),
    "line_integrand": lambda s: zetaline.line_integrand(0.5, s),
    "residue_partial_sum": lambda s: zetaline.residue_partial_sum(s, 2),
    "residue_partial_sums": lambda s: zetaline.residue_partial_sums(s, [1, 2]),
    "pole_guard": zetaline.pole_guard,
    "select_form": zetaline.select_form,
    "chi": zetaline.chi,
    "feq_check": zetaline.feq_check,
    "bose_integral": zetaline.bose_integral,
    "exp_sq_integral": zetaline.exp_sq_integral,
    "sinh_integral": zetaline.sinh_integral,
    "mellin_check": zetaline.mellin_check,
    "zeta_euler_maclaurin": zetaline.zeta_euler_maclaurin,
    "default_params": zetaline.default_params,
    # the scalar kernels run a few times per evaluation; those run once per
    # quadrature node are pinned in test_complex_core instead
    "gamma": zetaline.gamma,
    "log_gamma": zetaline.log_gamma,
    "sin_pi_z": zetaline.sin_pi_z,
    "cos_pi_z": zetaline.cos_pi_z,
}


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan,
                               complex(2.0, math.nan), complex(2.0, math.inf)], ids=repr)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_nonfinite_s_is_a_domain_error(name, s):
    """No entry point lets a non-finite s through to an OverflowError, a
    plain ValueError or a NaN result."""
    with pytest.raises(DomainError, match="s must be finite"):
        ENTRY_POINTS[name](s)
