"""The package's public surface: each module's __all__ names real objects,
the package exports exactly the library modules' names, and the README's
quick start runs."""

import ast
import copy
import importlib
import math
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zetaline
from zetaline import acceptance, cli
from zetaline.errors import DomainError
from zetaline.quadrature import KernelTable

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


# the names of zetaline.__all__ that no code in the package uses, each with
# the reason it stays public
UNREFERENCED = {
    "__version__": "the package's version, for code outside it",
    "line_integrand": "the paper's integrand, and the tests' reference for the line",
    "exp_sq_integral": "the lemma's middle integral, whose time the benchmark traces",
    "sinhc_half": "a scalar kernel whose calls the benchmark traces",
}


def test_every_public_name_has_a_caller():
    """A public name is used by code in the package, outside its own
    definition and __init__ (imports and __all__ strings do not count),
    unless UNREFERENCED gives it a reason; and every name there has no user."""
    used = set()

    class Refs(ast.NodeVisitor):
        def __init__(self):
            self.defs = []  # the definitions the visit is inside

        def visit_FunctionDef(self, node):
            self.defs.append(node.name)
            self.generic_visit(node)
            self.defs.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Name(self, node):
            if node.id not in self.defs:
                used.add(node.id)

        def visit_Attribute(self, node):
            if node.attr not in self.defs:
                used.add(node.attr)
            self.generic_visit(node)

    for path in (ROOT / "src" / "zetaline").glob("*.py"):
        if path.name != "__init__.py":
            Refs().visit(ast.parse(path.read_text()))
    assert sorted(set(zetaline.__all__) - used) == sorted(UNREFERENCED)


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
            KernelTable(lambda t: complex(math.exp(-t))), 0.0,
            bound=lambda h: 2.0 / math.cos(1.0) / math.expm1(2.0 * math.pi / h)),
    ]
    for r in results:
        assert type(r) is zetaline.EvalResult
    assert zetaline.EvalResult.__match_args__ == (
        "value", "err_est", "n_evals", "converged", "truncation_height")
    assert not hasattr(zetaline, "QuadratureResult")


def test_lazy_names_in_a_fresh_process():
    """The names whose modules load on first use: dir() lists them before
    any has loaded, each in __all__ resolves to its module's object, and
    `from zetaline import *` binds them all."""
    code = """if True:
        import importlib, zetaline
        listed = set(dir(zetaline))
        star = {}
        exec("from zetaline import *", star)
        wrong = [n for n in zetaline.__all__ if n not in listed or n not in star
                 or star[n] is not getattr(zetaline, n)]
        home = {n: importlib.import_module(zetaline._LAZY[n]) for n in zetaline._LAZY}
        wrong += [n for n, mod in home.items() if star[n] is not getattr(mod, n)]
        print(wrong, hasattr(zetaline, "QuadratureResult"))
    """
    r = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[] False"


def test_lazy_names_follow_a_tracer():
    """perfbench's tracer patches module attributes by identity: a lazy name
    read while it is installed is its wrapper, and the original once it is
    uninstalled, whichever was read first."""
    code = f"""if True:
        import sys
        sys.path.insert(0, {str(ROOT / "perfbench")!r})
        import tracing, zetaline
        import zetaline.mellin as m
        original = m.mellin_check
        tracer = tracing.Tracer()
        tracer.install()
        during = zetaline.mellin_check
        tracer.uninstall()
        print(during is not original, zetaline.mellin_check is original,
              zetaline.feq_check is zetaline.functional_equation.feq_check)
    """
    r = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "True True True"


def test_import_computes_no_step_factor():
    """Importing contour and mellin computes no factor of their strip
    bounds: each step's factors are formed when a level first needs them."""
    code = ("import zetaline.contour as c, zetaline.mellin as m\n"
            "print(c._level_factors.cache_info().currsize, m._strip_factors.cache_info().currsize)")
    r = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0 0"


# one of each record, one that differs in a field, and its literal repr; a
# record equals only a record of its own type with equal fields, as a frozen
# dataclass does (the checks in ScanGrid.__new__ are pinned by test_cli's
# test_scan_grid_points_order)
RECORDS = {
    "EvalResult": (lambda: zetaline.EvalResult(1j, 0.5, 3, True, 2.0),
                   lambda: zetaline.EvalResult(1j, 0.5, 3, True),
                   "EvalResult(value=1j, err_est=0.5, n_evals=3, converged=True, "
                   "truncation_height=2.0)"),
    "MellinReport": (lambda: zetaline.MellinReport(2 + 0j, 1.5 + 0j, 1.25 + 0j, 1.25 + 0j, 1.5 + 0j, 0.25),
                     lambda: zetaline.MellinReport(2 + 0j, 1.5 + 0j, 1.25 + 0j, 1.25 + 0j, 1.5 + 0j, 0.25, True),
                     "MellinReport(s=(2+0j), bose=(1.5+0j), exp_sq=(1.25+0j), sinh_form=(1.25+0j), "
                     "reference=(1.5+0j), max_abs_deviation=0.25, extended=False)"),
    "FeqReport": (lambda: zetaline.FeqReport(2.0, 1.0, 1.0, 0.0, 0.0, "sine"),
                  lambda: zetaline.FeqReport(2.0, 1.0, 1.0, 0.0, 0.0, "cosine"),
                  "FeqReport(s=2.0, lhs=1.0, rhs=1.0, abs_residual=0.0, rel_residual=0.0, "
                  "form='sine', direction='direct')"),
    "ScanGrid": (lambda: cli.ScanGrid(0.0, 1.0, 0.0, 2.0, 2, 3),
                 lambda: cli.ScanGrid(0.0, 1.0, 0.0, 2.0, 3, 3),
                 "ScanGrid(re_min=0.0, re_max=1.0, im_min=0.0, im_max=2.0, steps_re=2, steps_im=3)"),
    "CriterionResult": (lambda: acceptance.CriterionResult(1, "exact", True, "ok"),
                        lambda: acceptance.CriterionResult(1, "exact", False, "ok"),
                        "CriterionResult(number=1, name='exact', passed=True, detail='ok')"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_behave_as_frozen_dataclasses(name):
    make, make_changed, text = RECORDS[name]
    rec, changed = make(), make_changed()
    assert repr(rec) == text
    cls = type(rec)
    fields = [getattr(rec, f) for f in cls.__match_args__]
    twin = cls(*fields)
    assert rec == twin and not rec != twin and hash(rec) == hash(twin) == hash(tuple(fields))
    assert cls(**dict(zip(cls.__match_args__, fields))) == rec
    assert copy.copy(rec) == copy.deepcopy(rec) == pickle.loads(pickle.dumps(rec)) == rec
    assert rec != changed and not rec == changed

    class Other(cls):
        __slots__ = ()

    for other in (Other(*fields), tuple(fields), None):
        assert rec != other and other != rec and not rec == other and not other == rec
    for attr in (cls.__match_args__[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, 1)
    with pytest.raises(AttributeError):
        delattr(rec, cls.__match_args__[0])
    with pytest.raises(TypeError):
        rec < twin  # noqa: B015


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
    "residue_partial_sums": lambda s: zetaline.residue_partial_sums(s, [1, 2]),
    "select_form": zetaline.select_form,
    "chi": zetaline.chi,
    "feq_check": zetaline.feq_check,
    "bose_integral": zetaline.bose_integral,
    "exp_sq_integral": zetaline.exp_sq_integral,
    "sinh_integral": zetaline.sinh_integral,
    "mellin_check": zetaline.mellin_check,
    "zeta_euler_maclaurin": zetaline.zeta_euler_maclaurin,
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
