import cmath
import json
import math
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline import contour, quadrature
from zetaline.complex_core import cpow_principal
from zetaline.contour import (
    entire_e_axis,
    entire_e_line,
    line_integrand,
    residue_partial_sums,
    zeta,
    zeta_from_e,
)
from zetaline.errors import ContractViolation, DomainError, PoleAtOne, TruncationFailure
from zetaline.oracle import zeta_euler_maclaurin

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"

# reference values carried to 20 digits and rounded here once
ZETA_HALF = -1.4603545088095868129
ZETA_3 = 1.2020569031595942854
ZETA_HALF_3I = complex(0.53273667097423288392, -0.078896513425833382656)
ZETA_M15 = -0.02548520188983303595
ZETA_M15_2I = complex(0.12424726557777474701, -0.015707749528273202786)
E_HALF_3I = complex(-0.029678795209616293993, 1.6376582696356153431)
E_M15 = 0.063713004724582589874
# E(s) at large Re s, frozen from mpmath at 60 digits and kept to 40
E_FAR_RIGHT = {
    8.0: ("7.028541493385610375650796669560567256813", "0"),
    30.0: ("29.00000002700849554017037730328117731562", "0"),
    65.76 + 6.0j: ("64.76000000000000511528113756837463999913",
                   "6.00000000000000000083126531819364037411"),
    750.0: ("749", "0"),
}


def test_entire_e_at_one_and_zero():
    r = entire_e_line(1.0)
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-12
    r = entire_e_line(0.0)
    assert abs(r.value - 0.5) <= 1e-12


def test_entire_e_reference_points():
    assert abs(entire_e_line(0.5 + 3.0j).value - E_HALF_3I) <= 1e-12
    assert abs(entire_e_line(-1.5).value - E_M15) <= 1e-13


def test_zeta_reference_points():
    assert abs(zeta(2.0).value - math.pi**2 / 6.0) <= 1e-13
    assert abs(zeta(3.0).value - ZETA_3) <= 1e-13
    assert abs(zeta(0.5).value - ZETA_HALF) <= 1e-12
    assert abs(zeta(0.5 + 3.0j).value - ZETA_HALF_3I) <= 1e-12
    assert abs(zeta(-1.5).value - ZETA_M15) <= 1e-13
    assert abs(zeta(-1.5 + 2.0j).value - ZETA_M15_2I) <= 1e-12
    assert abs(zeta(-1.0).value - (-1.0 / 12.0)) <= 1e-13


def test_zeta_error_estimate_covers_truth():
    for s in (2.0, 0.5, -1.5, 0.5 + 3.0j, 3.0):
        r = zeta(s)
        ref, ref_err = zeta_euler_maclaurin(s)
        assert abs(r.value - ref) <= 10.0 * (r.err_est + ref_err)


def test_pole_guard():
    with pytest.raises(PoleAtOne):
        zeta(1.0)
    # just outside the guard disk the evaluation stands
    r = zeta(1.0 + 1e-5j)
    assert math.isfinite(r.value.real)
    # zeta, zeta_from_e and the scan's zeta value share the one disk test
    with pytest.raises(PoleAtOne, match="guard disk") as guard:
        zeta(1.0 + 1e-8j)
    for convert in (lambda s: contour._zeta_value(s, 1.0),
                    lambda s: zeta_from_e(s, quadrature.EvalResult(1.0, 0.0, 1, True, 1.0))):
        with pytest.raises(PoleAtOne) as value:
            convert(1.0 + 1e-8j)
        assert str(value.value) == str(guard.value)
    assert contour._zeta_value(1.0 + 1e-5j, 1.0) == 1.0 / 1e-5j


def test_contract_box():
    with pytest.raises(ContractViolation):
        entire_e_line(0.5 + 61.0j)
    with pytest.raises(ContractViolation):
        entire_e_axis(-1.0 - 61.0j)
    with pytest.raises(ContractViolation):
        zeta_euler_maclaurin(2.0 + 61.0j)


def test_nonfinite_s_is_a_domain_error():
    """NaN fails the box checks and a non-finite Re s is refused, on both
    forms, before any quadrature runs."""
    for s in (complex(math.nan, 0.0), complex(0.5, math.nan), math.inf):
        with pytest.raises(DomainError):
            zeta(s)
    for s in (complex(math.nan, 0.0), complex(-1.0, math.nan), -math.inf):
        with pytest.raises(DomainError):
            entire_e_axis(s)


def test_spec_validation():
    with pytest.raises(DomainError):
        entire_e_line(2.0 + 0.0j, tol=0.0)
    with pytest.raises(DomainError):
        zeta(2.0 + 0.0j, tol=0.0)
    with pytest.raises(DomainError):
        entire_e_axis(-2.0, tol=0.0)  # checked before the exact-zero shortcut


def test_line_integrand_matches_reduced_form():
    """The half-integer-line shortcut equals the generic kernel evaluated there."""
    import cmath

    for y in (0.0, 0.5, -1.7, 3.2):
        for s in (2.0 + 0.0j, 0.5 + 3.0j, -1.5 + 1.0j):
            z = complex(0.5, y)
            want = math.pi**2 * z ** (1.0 - s) / cmath.sin(math.pi * z) ** 2
            assert line_integrand(y, s) == pytest.approx(want, rel=1e-12)
            z = complex(3.5, y)
            want = math.pi**2 * z ** (1.0 - s) / cmath.sin(math.pi * z) ** 2
            assert line_integrand(y, s, 3) == pytest.approx(want, rel=1e-12)


def test_line_integrand_guards():
    for n in (-1, 1.5, True, False):  # bool is not a line
        with pytest.raises(DomainError):
            line_integrand(0.0, 2.0, n)
    for y in (301.0, math.nan):
        with pytest.raises(DomainError):
            line_integrand(y, 2.0)


def test_large_re_s_within_err_est():
    """Past Re s = 6.5 the line crosses at least the poles at 1 and 2: on
    Re z = 1/2 the kernel peaks near 2^{Re s - 1} and cancels down to E,
    which was off by 8.7e5 at s = 30 and by 2.9e223 at s = 750 (err_est
    9.7e209).  Crossing only z = 1 leaves that pole half a unit from the
    line, and at 65.76+6i an error of 1.5e-12 above an err_est of 2.1e-13."""
    for s, (re, im) in E_FAR_RIGHT.items():
        r = entire_e_line(s)
        assert r.converged, s
        with localcontext() as ctx:
            ctx.prec = 60
            dr = Decimal(r.value.real) - Decimal(re)
            di = Decimal(r.value.imag) - Decimal(im)
            assert (dr * dr + di * di).sqrt() <= Decimal(r.err_est), s


def test_contour_independence():
    """Shifting the line past more poles changes nothing: E(s) on the lines
    N0, N0+1 and N0+2, N0 = floor(|Im s| / 2 pi), (integral plus residues)
    agrees within the err_ests with the line entire_e_line picks, N0 or,
    for N0 = 0, the corrected line N = 1."""
    for s in (2.0 + 0.0j, 0.5 + 3.0j, -1.5 + 0.0j, 0.5 + 14.134725141734693j, 6.0 - 20.0j):
        n0 = int(abs(s.imag) / (2.0 * math.pi))
        lines = [contour._entire_e_line(s, 1e-12, k) for k in (n0, n0 + 1, n0 + 2)]
        picked = lines[max(n0, 1) - n0]
        assert picked.value == entire_e_line(s).value
        for r in lines:
            assert r.converged, s
            assert abs(r.value - picked.value) <= r.err_est + picked.err_est, s


@given(
    x=st.floats(min_value=-3.0, max_value=5.0),
    y=st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=40, deadline=None)
def test_schwarz_reflection_bitwise(x, y):
    """E(conj s) == conj(E(s)) exactly: the folded quadrature preserves it."""
    s = complex(x, y)
    up = entire_e_line(s)
    down = entire_e_line(s.conjugate())
    assert down.value == up.value.conjugate()
    assert down.n_evals == up.n_evals


def test_schwarz_reflection_bitwise_every_line():
    """The residues keep E(conj s) == conj(E(s)) exactly on each line N = 0 .. 9."""
    for n in range(10):
        for x in (-5.0, -0.6, 0.5, 1.6, 6.0):
            s = complex(x, 2.0 * math.pi * n + 3.0 if n < 9 else 59.5)
            up, down = entire_e_line(s), entire_e_line(s.conjugate())
            assert down.value == up.value.conjugate(), s
            assert (down.err_est, down.n_evals) == (up.err_est, up.n_evals), s


def test_residue_values():
    """The partial sums add up minus the residues (1-s) n^{-s} at z = n."""
    assert residue_partial_sums(3.0, [1])[0][0] == 2.0
    assert residue_partial_sums(3.0, [2])[0][0] == pytest.approx(2.25, rel=1e-15)


def test_residue_sum_approaches_line_value():
    for s in (2.5 + 0.0j, 3.0 + 2.0j, 4.0 - 1.0j):
        e = entire_e_line(s)
        for n in (10, 100, 1000):
            value, tail = residue_partial_sums(s, [n])[0]
            assert abs(e.value - value) <= tail + e.err_est + 1e-10


def test_residue_sum_tail_bound_monotone():
    _, t1 = residue_partial_sums(3.0, [10])[0]
    _, t2 = residue_partial_sums(3.0, [100])[0]
    assert t2 < t1


def test_residue_sum_guards():
    with pytest.raises(DomainError):
        residue_partial_sums(1.0, [10])
    with pytest.raises(DomainError):
        residue_partial_sums(3.0, [0])
    for sizes in ([], [0, 1], [2, 2], [4, 2], [1, 2.5], [2.0], [True], [1, True]):
        with pytest.raises(DomainError, match="sizes must be increasing integers"):
            residue_partial_sums(2.0 + 3.0j, sizes)


def test_residue_table_matches_each_size():
    """Each prefix of one table of terms equals that size's own sum of
    per-term cpow_principal(float(k), -s), bit for bit and zero sign for
    zero sign: at real s, Im s = +-0.0 and conjugate pairs, among them
    1.6 +- 57.5i (the points of test_line_residues_match_cpow_bitwise with
    Re s > 1, where the sum converges), and a pair just right of Re s = 1."""
    sizes = [1, 2, 7, 64, 4000]
    points = [2.0, 3.5, 2.0 + 0j, complex(2.0, -0.0), complex(7.25, 1e-300)]
    for a, b in ((4.75, 1.5), (6.75, 59.5), (1.6, 57.5), (1.0 + 2.0 ** -52, 14.134725)):
        points += [complex(a, b), complex(a, b).conjugate()]
    for s in points:
        sc = complex(s)

        def own_sum(n):
            terms = [cpow_principal(float(k), -sc) for k in range(1, n + 1)]
            return (sc - 1.0) * complex(math.fsum(z.real for z in terms),
                                        math.fsum(z.imag for z in terms))

        table = residue_partial_sums(s, sizes)
        assert [repr(value) for value, _ in table] == [repr(own_sum(n)) for n in sizes], s
        assert table[-1] == residue_partial_sums(s, sizes[-1:])[0]


def test_axis_agrees_with_line():
    for s in (-0.5 + 0.0j, -1.5 + 1.0j, -3.7 + 0.0j, -0.05 - 2.0j):
        a = entire_e_axis(s)
        b = entire_e_line(s)
        assert abs(a.value - b.value) <= 1e-9


def test_zeta_axis_method():
    """zeta_from_e turns the axis form of E into zeta as zeta does the line form."""
    for s in (-1.5 + 0.0j, -3.0 + 2.0j):
        r = zeta_from_e(s, entire_e_axis(s))
        assert r.value == entire_e_axis(s).value / (s - 1.0)
        assert abs(r.value - zeta(s).value) <= 1e-9


def test_axis_exact_trivial_zeros():
    for s in (-2.0, -4.0, -10.0):
        r = entire_e_axis(s)
        assert r.value == 0.0  # prefactor sin(pi s/2) is exactly zero
        assert r.err_est == 0.0 and r.n_evals == 0


def test_axis_domain_guard():
    with pytest.raises(DomainError):
        entire_e_axis(0.5)
    with pytest.raises(DomainError):
        entire_e_axis(-0.04)


def test_axis_deep_origin_tail_is_finite():
    # Re s just inside the boundary pushes the substitution hundreds of units
    # left; the scaled integrand must survive that without under/overflow
    r = entire_e_axis(-0.05)
    assert math.isfinite(r.value.real)
    assert abs(r.value - entire_e_line(-0.05).value) <= 1e-9


def test_entire_across_the_dirichlet_boundary():
    """E is analytic at Re s = 1: one-sided quadratic extrapolations from
    either side of the line agree with the on-line value to O(h^3)."""
    h = 1e-2
    t = 2.0  # stay off the real axis so both zeta factors are generic
    mid = entire_e_line(complex(1.0, t)).value

    def extrap(sign: float) -> complex:
        e1 = entire_e_line(complex(1.0 + sign * h, t)).value
        e2 = entire_e_line(complex(1.0 + sign * 2 * h, t)).value
        e3 = entire_e_line(complex(1.0 + sign * 3 * h, t)).value
        return 3.0 * e1 - 3.0 * e2 + e3

    assert abs(extrap(+1.0) - mid) <= 5e-6
    assert abs(extrap(-1.0) - mid) <= 5e-6


def test_result_metadata():
    r = entire_e_line(2.0)
    assert r.truncation_height >= 1.0
    assert r.n_evals > 0 and r.n_evals % 2 == 0  # folded pairs
    r = entire_e_axis(-1.5)
    assert r.truncation_height > 0.0 and r.n_evals > 0


def test_looser_plan_converges_faster():
    tight = entire_e_line(0.5 + 3.0j, tol=1e-12)
    loose = entire_e_line(0.5 + 3.0j, tol=1e-6)
    assert loose.n_evals <= tight.n_evals
    assert abs(loose.value - tight.value) <= 1e-6


@given(
    x=st.floats(min_value=-5.0, max_value=6.0),
    y=st.floats(min_value=-30.0, max_value=30.0),
    log_tol=st.floats(min_value=-12.0, max_value=-4.0),
)
@settings(max_examples=40, deadline=None)
def test_converged_iff_err_est_within_tol(x, y, log_tol):
    """tol bounds E(s) itself: converged says exactly that err_est <= tol
    (|Im s| up to 30 reaches points that miss small tolerances)."""
    tol = 10.0**log_tol
    r = entire_e_line(complex(x, y), tol)
    assert r.converged == (r.err_est <= tol)


def test_converged_at_height_twenty():
    """At -5+20i, where |E| is about 1.3e4, rounding puts 1e-12 out of reach;
    err_est 6.6e-11 on E is within tol 1e-10, so the evaluation converged."""
    s = -5.0 + 20.0j
    assert not entire_e_line(s).converged
    e = entire_e_line(s, tol=1e-10)
    assert e.converged and e.err_est <= 1e-10
    z = zeta(s, tol=1e-10)
    assert z.converged and z.err_est == e.err_est / abs(s - 1.0)


def _points(name: str) -> list[complex]:
    data = json.loads((REFS / name).read_text())
    return [complex(float(a), float(b)) for a, b in data["points"]["E"]]


def _cached_fold(s: complex, n: int):
    """The table-fed fold g(y) at one node y = k/256, read through the
    level evaluator as the one-node level starting at k."""
    level = contour._cached_level(s, n)

    def g(y: float) -> complex:
        k = int(y * 256.0)
        return level(k / 256.0, 1.0 / 256.0, 1)[0]

    return g


def _line_tables(ns) -> dict[int, dict]:
    """The lattice lists of each line n's node table in ns in the shape of
    one dict y -> (ln z, weight) per line, each y found in exactly one
    lattice."""
    lines: dict[int, dict] = {}
    for n in ns:
        table = lines[n] = {}
        for (offset, spacing), (lo, nodes) in contour._line(n)[0]._lattices.items():
            for i, node in enumerate(nodes, lo):
                y = offset + i * spacing
                assert y not in table, (n, y)
                table[y] = node
    return lines


def test_node_table_matches_line_integrand():
    """The table-fed fold g(y) equals the reference kernel's f(y) + f(-y) at
    sampled nodes, relative to |f(y)| + |f(-y)| since the sum can cancel."""
    for n in (0, 3, 9):
        for s in (2.0 + 0.0j, 0.5 + 3.0j, -4.5 - 6.0j, 5.5 + 40.0j, -2.0 + 60.0j):
            g = _cached_fold(s, n)
            for k in (0, 1, 3, 64, 255, 1000, 2689, 5000):
                y = k / 256.0
                plus, minus = line_integrand(y, s, n), line_integrand(-y, s, n)
                assert abs(g(y) - (plus + minus)) <= 1e-15 * (abs(plus) + abs(minus))


def test_fold_at_origin_is_twice_the_node():
    """At y = 0, where ln z is real, the fold's two terms are the same bits,
    so g(0) is (v + v) pi^2 with v = exp((1-s) ln(n + 1/2)), on every line
    and for both signs of Im s."""
    for n in range(10):
        for s in (2.0 + 0.0j, 0.5 + 3.0j, 0.5 - 3.0j, -4.5 - 6.0j, 1.0 - 0.7j, 5.5 + 40.0j,
                  -2.0 - 60.0j, 20.0 - 1e-300j):
            v = cmath.exp((1.0 - s) * math.log(n + 0.5))
            assert contour._cached_level(s, n)(0.0, 0.25, 1) == [(v + v) * math.pi ** 2], (s, n)


def test_far_left_truncation_past_kernel_range():
    """Far left the tails need a truncation height above the kernel's range
    |y| <= 300: a TruncationFailure, as further left, not a DomainError
    about a node the caller never passed; line_integrand still refuses
    such a y with DomainError.  Where a residue power k^{-s} leaves double
    range first, from Re s = -308.25 on the line N = 9, that too is a
    TruncationFailure naming the power, not a bare OverflowError."""
    for re in (-350.0, -400.0, -450.0):
        with pytest.raises(TruncationFailure, match="range"):
            entire_e_line(complex(re, 0.0))
    for s in (-310.0 + 59.0j, -400.0 + 40.0j, -1030.0 + 10.0j):
        with pytest.raises(TruncationFailure, match=r"residue power k\^\(-s\)"):
            entire_e_line(s)
    with pytest.raises(DomainError):
        line_integrand(300.25, -400.0)


def test_node_table_cold_threads_bitwise():
    """Four threads filling a cold table give the bits of serial evaluation."""
    code = (
        "import json, sys\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from zetaline.contour import zeta\n"
        "pts = [complex(float(a), float(b)) for a, b in json.load(open(sys.argv[1]))['points']['E'][:100]]\n"
        "sys.setswitchinterval(1e-6)\n"
        "with ThreadPoolExecutor(4) as pool:\n"
        "    res = list(pool.map(zeta, pts))\n"
        "print(json.dumps([[r.value.real.hex(), r.value.imag.hex(), r.err_est.hex()] for r in res]))\n"
    )
    path = REFS / "eval-strip-seed1.json"
    out = subprocess.run([sys.executable, "-c", code, str(path)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    threaded = json.loads(out.stdout)
    serial = [zeta(s) for s in _points("eval-strip-seed1.json")[:100]]
    assert threaded == [[r.value.real.hex(), r.value.imag.hex(), r.err_est.hex()] for r in serial]


def test_node_table_eight_cold_threads_bitwise():
    """Eight threads started together on cold lines, all through the same
    points, half at tol 1e-12 first and half at 1e-6 first, so they race to
    extend the same levels to different truncation heights, and to grow the
    envelope tables that the far-left points need past X = 4 while others
    read them, give the bits of serial evaluation; five rounds, each on
    emptied tables."""
    code = (
        "import json, sys, threading\n"
        "from zetaline import contour\n"
        "from zetaline.contour import entire_e_line\n"
        "pts = [complex(float(a), float(b)) for a, b in json.loads(sys.stdin.read())]\n"
        "tasks = [(s, tol) for s in pts for tol in (1e-12, 1e-6)]\n"
        "out = [None] * 8\n"
        "start = threading.Barrier(8)\n"
        "def work(i):\n"
        "    order = sorted(range(len(tasks)), key=lambda j: (j % 2 == i % 2, j))\n"
        "    res = [None] * len(tasks)\n"
        "    start.wait()\n"
        "    for j in order:\n"
        "        r = entire_e_line(*tasks[j])\n"
        "        res[j] = [r.value.real.hex(), r.value.imag.hex(), r.err_est.hex(), r.n_evals,\n"
        "                  r.truncation_height]\n"
        "    out[i] = res\n"
        "sys.setswitchinterval(1e-6)\n"
        "rounds = []\n"
        "for _ in range(5):\n"
        "    contour._line.cache_clear()\n"
        "    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
        "    for th in threads: th.start()\n"
        "    for th in threads: th.join(120)\n"
        "    assert not any(th.is_alive() for th in threads)\n"
        "    rounds.append(list(out))\n"
        "print(json.dumps(rounds))\n"
    )
    far_left = [complex(-8.3 - 1.3 * k, (-1) ** k * (59.5 - 4.0 * k)) for k in range(10)]
    pts = _points("eval-tall.json") + far_left + _points("eval-strip-seed1.json")[:40]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                         input=json.dumps([[s.real, s.imag] for s in pts]))
    assert out.returncode == 0, out.stderr
    serial = []
    for s in pts:
        for tol in (1e-12, 1e-6):
            r = entire_e_line(s, tol)
            serial.append([r.value.real.hex(), r.value.imag.hex(), r.err_est.hex(), r.n_evals,
                           r.truncation_height])
    assert len({r[-1] for r in serial}) > 10  # mixed truncation heights
    assert json.loads(out.stdout) == [[serial] * 8] * 5


def test_node_table_size_bounded():
    """After the 48 eval-tall points exactly the lines they used are built,
    each line's record holds only nodes k/256 up to the largest truncation
    height on that line, and all records together hold fewer than 6,000
    nodes (about 1 MB)."""
    contour._line.cache_clear()
    heights: dict[int, float] = {}
    for s in _points("eval-tall.json"):
        n = int(abs(s.imag) / (2.0 * math.pi))
        heights[n] = max(heights.get(n, 0.0), entire_e_line(s).truncation_height)
    assert contour._line.cache_info().currsize == len(heights)
    lines = _line_tables(heights)
    assert contour._line.cache_info().currsize == len(heights)
    for n, table in lines.items():
        assert all(y >= 0.0 and (y * 256.0).is_integer() for y in table)
        assert len(table) <= 256.0 * heights[n] + 1.0
    assert sum(len(table) for table in lines.values()) < 6000


def test_node_table_computes_each_node_once(monkeypatch):
    """On cold node tables the 48 eval-tall points call _line_node once per
    node the tables hold: no level recomputes a node another level, or an
    earlier point, already stored."""
    contour._line.cache_clear()
    calls = []
    real = contour._line_node
    monkeypatch.setattr(contour, "_line_node",
                        lambda sigma, y: calls.append((sigma, y)) or real(sigma, y))
    ns = set()
    for s in _points("eval-tall.json"):
        entire_e_line(s)
        ns.add(int(abs(s.imag) / (2.0 * math.pi)))
    stored = sum(len(table) for table in _line_tables(ns).values())
    assert len(calls) == stored > 0


def _dense_abs_integral(s: complex, n: int, b: float) -> float:
    """The integral of |pi^2 z^{1-s} / sin^2(pi z)| along y = x + ib, i.e.
    z = n + 1/2 - b + ix, by a dense trapezoid sum: step 1/512 on |x| <= 1,
    where the pole a distance 1/2 - |b| from the line makes a narrow peak,
    1/32 out to |x| = max(16, (1 - Re s) / 2), far past the peak of
    |z|^{1 - Re s} e^{-2 pi |x|} near |x| = (1 - Re s) / 2 pi."""
    def f(x: float) -> float:
        z = complex(n + 0.5 - b, x)
        return abs(math.pi ** 2 * cmath.exp((1.0 - s) * cmath.log(z)) / cmath.sin(math.pi * z) ** 2)

    fine, coarse = 1.0 / 512.0, 1.0 / 32.0
    m = int((max(16.0, 0.5 * (1.0 - s.real)) - 1.0) / coarse)
    inner = fine * math.fsum(f(k * fine) for k in range(-512, 513))
    outer = coarse * math.fsum(f(x) + f(-x) for x in (1.0 + k * coarse for k in range(1, m + 1)))
    return inner + outer


def _bound_grid():
    """(s, n): every line N = 0 .. 9, at both ends of each line's range of
    |Im s|, both signs of Im s, Re s from -60 to 20.  From Re s = -8.3 on
    down some lines need the envelope past X = 4, out to X = 13 at -60."""
    for n in range(10):
        for im in (2.0 * math.pi * n + 0.1, min(2.0 * math.pi * (n + 1) - 0.1, 60.0)):
            for re in (-60.0, -20.0, -12.0, -8.3, -5.0, 0.5, 6.0, 20.0):
                for sign in (1, -1):
                    yield complex(re, sign * im), n


def test_strip_m_bounds_the_integral():
    """M bounds the integral of |f(x + ib)| over x for |b| < a, which the
    strip bound 2M / (e^{2 pi a/h} - 1) needs: checked against a dense sum
    on every line of _bound_grid and b = 0, +-a/2, +-0.99a."""
    a = contour._STRIP
    for s, n in _bound_grid():
        m, = contour._strip_m(s, [contour._line_envelope(n + 0.5, a)])
        assert math.isfinite(m), (s, n)
        for b in (0.0, 0.5 * a, -0.5 * a, 0.99 * a, -0.99 * a):
            assert _dense_abs_integral(s, n, b) <= m, (s, n, b)


def test_neighbour_m_bounds_the_integral():
    """On N >= 1 the bound (M_- + M_+) / (e^{2 pi/h} - 1) takes M_- and M_+
    from the line's record: they bound the integral of |f| along Im y = 1
    and -1, the lines Re z = N - 1/2 and N + 3/2, over the grid of
    _bound_grid with N = 1 .. 9."""
    for s, n in _bound_grid():
        if n:
            lower, upper = contour._strip_m(s, contour._line(n)[1])
            assert math.isfinite(lower) and math.isfinite(upper), (s, n)
            assert _dense_abs_integral(s, n, 1.0) <= lower, (s, n)
            assert _dense_abs_integral(s, n, -1.0) <= upper, (s, n)


def test_every_line_has_a_finite_bound():
    """_line_bound is finite on the line entire_e_line picks at every point
    of a 31 x 25 grid of Re s in [-20, 10], |Im s| <= 60, where the tail's
    envelope needs X up to 5.5 from Re s = -8.3 on down; a table grown by
    one s serves the next with the same bits as a fresh one."""
    contour._line.cache_clear()
    for re in range(-20, 11):
        for k in range(-12, 13):
            s = complex(re, 5.0 * k)
            n = int(abs(s.imag) / (2.0 * math.pi))
            if s.real > -10.0:
                n = max(n, 2 if s.real > 6.5 else 1)
            bound = contour._line_bound(s, n)
            assert math.isfinite(bound(0.25)), s
            fresh = contour._strip_m(
                s, [contour._line_envelope(*table[:2]) for table in contour._line(n)[1]])
            assert contour._strip_m(s, contour._line(n)[1]) == fresh, s


def test_strip_m_is_inf_where_the_envelope_overflows():
    """Far left the envelope's e^{(1 - Re s) log|z|} overflows: M is inf, a
    bound that certifies nothing, and the line's nodes overflow too, so the
    evaluation fails with the overflow named."""
    s = complex(-300.0, 0.0)
    assert contour._strip_m(s, [contour._line_envelope(0.5, contour._STRIP)]) == [math.inf]
    assert contour._line_bound(s, 0)(0.25) == math.inf
    with pytest.raises(TruncationFailure, match="overflows"):
        entire_e_line(s)


def test_level_factors_cover_every_step_of_the_rule():
    """The line's bound and correction are finite at every step
    integrate_interval takes from either first step the line uses (1/2 with
    a correction, 1/4 without)."""
    s = 0.5 + 3.0j
    residues, rounding, near, far = contour._line_residues(s, 1)
    for n, first in ((0, quadrature._FIRST_STEP), (1, quadrature._MAX_STEP)):
        bound = contour._line_bound(s, n)
        for h in quadrature._step_schedule(first):
            assert 0.0 < bound(h) < math.inf, (n, h)
            if n:
                assert cmath.isfinite(contour._pole_correction(s, n, near, far)(h)), h


def test_corrected_levels_within_the_bound():
    """The corrected trapezoid sums T(1/4) - C(1/4) and T(1/8) - C(1/8) on
    the line entire_e_line picks lie within B(h), plus the sum's rounding,
    the cut tails and the residues' rounding, of the 34-digit references,
    at every eval-strip seed-1 and eval-tall point on a line N >= 1."""
    eps = math.ulp(1.0)
    checked = 0
    for name in ("eval-strip-seed1.json", "eval-tall.json"):
        data = json.loads((REFS / name).read_text())
        for s, (re, im) in zip(_points(name), data["values"]["E"]):
            r = entire_e_line(s)
            n = max(int(abs(s.imag) / (2.0 * math.pi)), 1)
            residues, rounding, near, far = contour._line_residues(s, n)
            correction = contour._pole_correction(s, n, near, far)
            bound = contour._line_bound(s, n)
            level = contour._cached_level(s, n)
            ref = complex(float(re), float(im))
            for h in (0.25, 0.125):
                g0, = level(0.0, h, 1)
                values = level(h, h, int(r.truncation_height / h))
                total = 0.5 * g0 + sum(values)
                noise = 4.0 * eps * h * (0.5 * abs(g0) + sum(abs(v) for v in values))
                value = (h * total - correction(h)) / (2.0 * math.pi) + residues
                # the tails are within 0.1 tol; the last term covers the
                # rounding of ref, of the 2 pi scaling and of the addition
                allowed = ((bound(h) + noise) / (2.0 * math.pi) + rounding + 1e-13
                           + 4.0 * eps * abs(ref))
                assert abs(value - ref) <= allowed, (s, h)
            checked += 1
    assert checked == 448


def _replay_levels(level, tol: float, bound, result, correction=None) -> tuple[bool, bool]:
    """Rerun the trapezoid levels of one integrate_interval call on the line
    (the same nodes, from h = 1/2 with a correction and 1/4 without, summed
    in the same order, each level less correction(h)) up to where it
    stopped.  Return (certified,
    fell_through): whether the bound certifies a level, and whether the
    consistency check fails at the first level it certifies; where the
    check holds, that level is where the call stopped."""
    eps = math.ulp(1.0)
    h = 0.5 if correction else 0.25
    g0, = level(0.0, h, 1)
    acc, l1, nodes = 0.5 * g0, 0.5 * abs(g0), 1
    bound_prev = bound(h)
    for halving in range(8 if correction else 7):
        ks = range(1, int(result.truncation_height / h) + 1, 2 if halving else 1)
        for v in level(h, ks.step * h, len(ks)):
            acc += v
            l1 += abs(v)
        nodes += len(ks)
        refined, noise = h * acc - (correction(h) if correction else 0.0), 4.0 * eps * h * l1
        if halving:
            bound_h = bound(h)
            if bound_h + noise <= tol:
                fell_through = abs(refined - value) > bound_h + bound_prev + noise
                assert fell_through or 2 * nodes == result.n_evals
                return True, fell_through
            bound_prev = bound_h
        if 2 * nodes == result.n_evals:
            return False, False
        value = refined
        h *= 0.5
    raise AssertionError("the replay ran past the last level")


def test_strip_certificate_consistent_and_honest(monkeypatch):
    """On eval-strip's and scan-grid's seed-1 points and on eval-tall's, the
    check |T(h) - T(2h)| <= B(h) + B(2h) + noise on the corrected levels
    never fails where the bound B certifies a level, so the loop stops at
    the first such level; and every converged eval-tall result lies within
    its err_est."""
    calls = []
    real = contour.integrate_line_decaying

    def spy(level, log_tail, tol, *, bound, correction):
        result = real(level, log_tail, tol, bound=bound, correction=correction)
        calls.append((level, tol, bound, correction, result))
        return result

    monkeypatch.setattr(contour, "integrate_line_decaying", spy)
    tall = json.loads((REFS / "eval-tall.json").read_text())
    refs = dict(zip(_points("eval-tall.json"), tall["values"]["E"]))
    certified = 0
    for name, tol in (("eval-strip-seed1.json", 1e-12), ("scan-grid-seed1.json", 1e-8),
                      ("eval-tall.json", 1e-12)):
        for s in _points(name):
            calls.clear()
            r = entire_e_line(s, tol)
            level, quad_tol, bound, correction, base = calls[0]
            assert correction is not None, s
            done, fell_through = _replay_levels(level, quad_tol, bound, base, correction)
            assert not fell_through, s
            certified += done
            if s in refs and r.converged:
                with localcontext() as ctx:
                    ctx.prec = 60
                    re, im = refs[s]
                    dr = Decimal(r.value.real) - Decimal(re)
                    di = Decimal(r.value.imag) - Decimal(im)
                    assert (dr * dr + di * di).sqrt() <= Decimal(r.err_est), s
    assert certified > 1400


def test_strip_certificate_evaluation_counts():
    """Stopping at the first certified level of the corrected line: zeta
    averages at most 110 evaluations over eval-strip's seed-1 points (386.8
    with the halving rule alone, 224.2 with the strip bound on N = 0), and
    entire_e_line at tol 1e-8 at most 40 over scan-grid's (181.3, 137.3)."""
    strip = [zeta(s).n_evals for s in _points("eval-strip-seed1.json")]
    assert len(strip) == 400 and sum(strip) / len(strip) <= 110.0
    scan = [entire_e_line(s, 1e-8).n_evals for s in _points("scan-grid-seed1.json")]
    assert len(scan) == 1000 and sum(scan) / len(scan) <= 40.0


def test_line_residues_match_cpow_bitwise():
    """_line_residues forms each k^{-s} in line as cpow_principal(float(k), -s)
    does, so its sum, its rounding bound and the correction's n^{-s} and
    (n+1)^{-s} equal, bit for bit and zero sign for zero sign, those built
    from cpow_principal, for every n + 1 <= 10: at real s, s = 0 and -0.0,
    Im s = +-0.0, and conjugate pairs, among them 1.6 +- 57.5i, where
    math.hypot and the complex abs the bound takes differ in the last bit."""
    eps = math.ulp(1.0)
    points = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 2.0 + 0j,
              -3.5 + 0j, 0.5 + 0j, complex(2.0, -0.0), complex(-1.5, -0.0), complex(0.0, 1.0),
              complex(-0.0, -1.0), complex(7.25, 1e-300)]
    for a, b in ((0.5, 14.134725), (-12.0, 3.0), (1.0, 0.1), (6.75, 59.5), (-0.0, 6.3),
                 (1.6, 57.5)):
        points += [complex(a, b), complex(a, b).conjugate()]
    for s in points:
        for n in range(1, 10):
            terms = [cpow_principal(float(k), -s) for k in range(1, n + 2)]
            size = abs(s.real) + abs(s.imag)
            spread = math.fsum(abs(z) * (4.0 + size * math.log(k))
                               for k, z in enumerate(terms[:n], 1))
            expected = ((s - 1.0) * complex(math.fsum(z.real for z in terms[:n]),
                                            math.fsum(z.imag for z in terms[:n])),
                        eps * abs(s - 1.0) * spread, terms[n - 1], terms[n])
            assert repr(contour._line_residues(s, n)) == repr(expected), (s, n)
