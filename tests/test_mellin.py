import cmath
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetaline import mellin, quadrature
from zetaline.complex_core import _lanczos, gamma
from zetaline.contour import entire_e_axis
from zetaline.errors import IM_BOX, ContractViolation, DomainError, TruncationFailure
from zetaline.mellin import bose_integral, exp_sq_integral, mellin_check, sinh_integral
from zetaline.oracle import zeta_euler_maclaurin
from zetaline.quadrature import KernelTable, integrate_mellin

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"
_EPS = math.ulp(1.0)

# Gamma(s) zeta(s) carried to 20 digits and rounded here once
GZ_15 = 2.3151573733941170004
GZ_45 = 12.268071302996975793
GZ_2_1I = complex(0.90124447679797811083, 0.10895518636055365653)
GZ_3_2I = complex(-0.2824806901370491924, 0.910733517109945777)
GZ_2_2I = complex(0.18643333618746225199, 0.24979102350311461805)

# Gamma(2) zeta(2) = pi^2/6, Gamma(4) zeta(4) = 6 * pi^4/90 = pi^4/15,
# Gamma(3) zeta(3) = 2 zeta(3)
GZ_2 = math.pi**2 / 6.0
GZ_4 = math.pi**4 / 15.0
GZ_3 = 2.0 * 1.2020569031595942854


@pytest.mark.parametrize("integral", [bose_integral, exp_sq_integral, sinh_integral])
def test_each_form_reproduces_reference(integral):
    assert abs(integral(2.0) - GZ_2) <= 1e-11
    assert abs(integral(3.0) - GZ_3) <= 1e-11
    assert abs(integral(4.0) - GZ_4) <= 1e-10
    assert abs(integral(1.5) - GZ_15) <= 1e-11
    assert abs(integral(4.5) - GZ_45) <= 1e-10


@pytest.mark.parametrize("integral", [bose_integral, exp_sq_integral, sinh_integral])
def test_each_form_at_complex_points(integral):
    assert abs(integral(2.0 + 1.0j) - GZ_2_1I) <= 1e-10
    assert abs(integral(3.0 + 2.0j) - GZ_3_2I) <= 1e-10
    assert abs(integral(2.0 + 2.0j) - GZ_2_2I) <= 1e-10


def test_chain_equality_grid():
    """All three forms agree with each other across a grid, which is the
    integration-by-parts chain verified numerically."""
    for re in (1.5, 2.0, 3.0, 4.5):
        for im in (0.0, 1.0, 2.0):
            s = complex(re, im)
            a, b, c = bose_integral(s), exp_sq_integral(s), sinh_integral(s)
            assert abs(a - b) <= 1e-10
            assert abs(b - c) <= 1e-10


def test_report_fields():
    rep = mellin_check(2.0)
    assert rep.s == 2.0
    assert rep.extended is False
    assert rep.max_abs_deviation <= 1e-10
    assert abs(rep.reference - GZ_2) <= 1e-12
    for v in (rep.bose, rep.exp_sq, rep.sinh_form):
        assert abs(v - rep.reference) <= rep.max_abs_deviation + 1e-15

    rep = mellin_check(3.0 + 2.0j)
    assert rep.extended is True
    assert rep.max_abs_deviation <= 1e-9


def test_domain_guard():
    for fn in (bose_integral, exp_sq_integral, sinh_integral, mellin_check):
        with pytest.raises(DomainError):
            fn(1.05)
        with pytest.raises(DomainError):
            fn(0.5 + 10.0j)


def test_check_outside_the_box_runs_no_integral(monkeypatch):
    """mellin_check forms its oracle reference first, so a point past
    |Im s| <= 60 raises ContractViolation before either integral runs."""
    calls = []
    monkeypatch.setattr(mellin, "integrate_mellin", lambda *a, **k: calls.append(a))
    with pytest.raises(ContractViolation):
        mellin_check(2.0 + 61.0j)
    assert calls == []


def test_termwise_mellin_factors():
    """Expanding 1/(e^t - 1) = sum e^{-nt} termwise: each piece at s = 2 is
    integral of t e^{-nt} = 1/n^2 (kernel e^{-nt}, alpha = 1), and the first
    50 already track zeta(2).  In u = ln t the integrand e^{2w} e^{-n e^w}
    integrates along Im w = b to 1 / (n cos b)^2 in modulus, the M(d) of
    its strip bound, here at d = 1."""
    total = 0.0
    for n in range(1, 51):
        m = 1.0 / (n * math.cos(1.0)) ** 2
        r = integrate_mellin(
            KernelTable(lambda u, n=n: math.exp(-n * math.exp(u))),
            alpha=1.0,
            tol=1e-12,
            growth=1.0,
            origin_coeff=1.0,
            bound_const=1.0,
            bound=lambda h, m=m: 2.0 * m / math.expm1(2.0 * math.pi / h),
        )
        assert r.converged
        assert abs(r.value.real - 1.0 / (n * n)) <= 1e-12
        total += r.value.real
    want, _ = zeta_euler_maclaurin(2.0)
    # the omitted tail of the n-sum is below 1/50
    assert abs(total - want.real) <= 1.0 / 50.0


def _strip_bounds(monkeypatch) -> list:
    """Record the strip bound B(h) that each integrate_mellin call from
    mellin receives."""
    bounds = []
    real = mellin.integrate_mellin

    def spy(*args, bound, **kwargs):
        bounds.append(bound)
        return real(*args, bound=bound, **kwargs)

    monkeypatch.setattr(mellin, "integrate_mellin", spy)
    return bounds


def _taylor_coefficients(n: int) -> tuple[list[Fraction], list[Fraction]]:
    """d_j = B_j^+ / j!, j < n, the Taylor coefficients of t/(1 - e^{-t}), from
    the Bernoulli recurrence sum_{k <= m} C(m+1, k) B_k = 0 (B_1^+ = +1/2),
    and c_j, those of its square, exactly."""
    b = [Fraction(1)]
    for m in range(1, n):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    b[1] = -b[1]
    d = [x / math.factorial(j) for j, x in enumerate(b)]
    return d, [sum(d[i] * d[j - i] for i in range(j + 1)) for j in range(n)]


def test_series_literals_are_the_rounded_coefficients():
    """The float literals are the exact coefficients correctly rounded: the
    heads d_0 .. d_2 and 4 c_0 .. 4 c_3, the series d_4, d_6, .. d_20 and
    c_4 .. c_21; the first term each series leaves out is below 1e-18 of
    its first at t = 1/2."""
    d, c = _taylor_coefficients(24)
    assert d[:4] == [1, Fraction(1, 2), Fraction(1, 12), 0] and not any(d[5:24:2])
    assert c[:4] == [1, 1, Fraction(5, 12), Fraction(1, 12)]
    assert mellin._BOSE_HEAD == tuple(float(x) for x in d[:3])
    assert mellin._SINH_HEAD == tuple(float(4 * x) for x in c[:4])
    assert mellin._BOSE_SERIES == tuple(float(x) for x in d[4:21:2])
    assert mellin._SINH_SERIES == tuple(float(x) for x in c[4:22])
    half = Fraction(1, 2)
    assert abs(d[22]) * half ** 18 < Fraction(1, 10**18) * abs(d[4])
    assert abs(c[22]) * half ** 18 < Fraction(1, 10**18) * abs(c[4])


# r(t)/t^4 for bose and J at t, 30 digits (mpmath, offline)
_REM_30 = {
    0.001: (-0.0013875006611772908330298191183, 0.0166444576671969475304361210199),
    0.1: (-0.00125641949222395489954836968905, 0.0145720735564363957272297505472),
    0.25: (-0.00108006064070683457006917903413, 0.011867830196250382618352303107),
    0.4: (-0.000927467526607116263692208237601, 0.00961751455982834641869701241976),
    0.49999999999999994: (-0.000837420529160006942682113176667,
                          0.00833458755209979922431433164445),
    0.5: (-0.000837420529160006895096322373885, 0.00833458755209979855602329177011),
    0.6: (-0.000755763183122519758830427595604, 0.00720398692780732990201973770771),
    1.0: (-0.000499074985457251474577297646635, 0.00389996511674605982641638925139),
    3.0: (-0.0000570479348369130711958600872029, -0.0000790930449432869409658892702318),
    10.0: (-0.0000000196712416498738522053875781263, -0.000000653594085060159439620125735523),
    30.0: (-7.04709877900277014034046510626e-18, -8.11456095470704712804687199474e-16),
}


@pytest.mark.parametrize("t", sorted(_REM_30))
def test_remainder_kernels_against_30_digits(t):
    """Below t = 1/2 the series is within a few ulps; from t = 1/2 on the
    subtraction is within its cancellation constant times eps of the sizes
    of the kernel and the head it subtracts, the term err_est carries."""
    e, q = math.exp(-t), t / -math.expm1(-t)
    for kernel, ref, parts, cancel in (
            (mellin._bose_rem, _REM_30[t][0], e * (q + 1.0 + t / 2.0 + t * t / 12.0),
             mellin._BOSE_CANCEL),
            (mellin._sinh_rem, _REM_30[t][1],
             4.0 * e * (q * q + 1.0 + t + 5.0 * t * t / 12.0 + t ** 3 / 12.0), mellin._SINH_CANCEL)):
        err = abs(kernel(t) - ref)
        if t < 0.5:
            assert err <= 4.0 * _EPS * abs(ref), (kernel, t)
        else:
            assert err <= cancel * _EPS * parts / t ** 4, (kernel, t)


def test_remainder_bounds_hold_on_a_dense_grid():
    """The constants the tails are cut by: |r/t^4| <= 1/720 (bose) and 1/60
    (J) on (0, 1], |r| <= t^2 e^{-t}/12 and t^3 e^{-t}/3 everywhere, r <= 0
    for bose; checked on t = k/64 up to 60 with a rounding allowance."""
    for k in range(1, 64 * 60 + 1):
        t = k / 64.0
        rb, rj = mellin._bose_rem(t) * t ** 4, mellin._sinh_rem(t) * t ** 4
        slack = 1e-10 * math.exp(-t)
        assert rb <= slack, t
        assert abs(rb) <= t * t * math.exp(-t) / 12.0 + slack, t
        assert abs(rj) <= t ** 3 * math.exp(-t) / 3.0 + slack, t
        if t <= 1.0:
            assert abs(mellin._bose_rem(t)) <= 1.0 / 720.0
            assert abs(mellin._sinh_rem(t)) <= 1.0 / 60.0


# Gamma(z), and the two heads at s = z - 1 (exact for these z):
# Gamma(s-1)(1 + (s-1)/2 + (s-1)s/12) and
# 4 Gamma(s-1)(1 + (s-1) + 5(s-1)s/12 + (s-1)s(s+1)/12), 25 digits (mpmath, offline)
_GAMMA_25 = {
    2.05 + 0j: (complex(1.022179478840914342829867, 0.0),
                complex(20.04201906727371448407303, 0.0),
                complex(84.17648008254958659239568, 0.0)),
    2.5 + 0.5j: (complex(1.172395828484856313709171, 0.4365070851847560857426005),
                 complex(1.311233108979417922907191, -0.7132256955749784151732171),
                 complex(9.293850045026464367789581, -1.65688795549103464522492)),
    3.7 - 4.1j: (complex(0.3641941854356074434207984, 0.3135453804046628431530513),
                 complex(0.002791756044189207578427979, 0.08043983784840212642185111),
                 complex(1.349364305991038202837157, 0.8229654496380400221930395)),
    5.0 + 0j: (complex(24.0, 0.0), complex(7.0, 0.0), complex(112.0, 0.0)),
    6.95 + 0j: (complex(655.7662628554250739789615, 0.0),
                complex(132.018812828058261826961, 0.0),
                complex(3142.047745307786725286681, 0.0)),
    6.95 - 5j: (complex(-104.9750767396553801518722, 35.78448199120999970626346),
                complex(-16.20789777999937144046768, -1.460375416795616796748219),
                complex(-414.9554754998973877344993, 289.4010206802517480090869)),
    8.9 + 9.5j: (complex(-323.4685621049260191383151, 80.78118870126261995027497),
                 complex(-31.72280833640039075350084, 20.91044080930410504193241),
                 complex(-1797.03749418380838448488, -544.6967872092050995924442)),
    2.1 + 30j: (complex(1.247140651306024478598533e-18, -1.540630987065251508017052e-18),
                complex(7.75947513084622752834805e-20, -1.4842998557508626942292e-19),
                complex(1.815301517476758636956491e-17, 8.658278220485093395823888e-18)),
    4.4 - 45j: (complex(1.345425532142039123276617e-24, -4.326927010133814481530465e-25),
                complex(1.173934815954689092007658e-25, -2.125868051814806080941189e-26),
                complex(-2.230011143568273613737555e-24, -2.141994474223121731335625e-23)),
    7.3 + 59.9j: (complex(3.055445269844450943586558e-29, 2.959972110090522961870062e-29),
                  complex(2.810396810390878436646913e-30, 2.230451263882307485116795e-30),
                  complex(-4.635941232043507261487412e-28, 7.295784476194886044854564e-28)),
    2.05 - 60j: (complex(1.529732547290403111376646e-38, 6.821749620946747803367637e-39),
                 complex(1.215894169579208304914403e-39, 6.95095910944208947000073e-40),
                 complex(1.719297741388428212967132e-37, -2.888951978730443160959517e-37)),
    9.0 + 60j: (complex(-3.461959304296180964275546e-26, -1.858595192766386831311546e-26),
                complex(-3.067012377678606353329507e-27, -1.278405254710872104939329e-27),
                complex(2.086728650448939018788946e-25, -7.769919387936134321571403e-25)),
}


@pytest.mark.parametrize("z", list(_GAMMA_25), ids=repr)
def test_gamma_and_heads_within_their_rounding_terms(z):
    """gamma(z), exp of _lanczos(z)'s log, lies within its bound from
    _lanczos(z) of Gamma(z), relative, on Re z in [2, 9] up to |Im z| = 60,
    and each head (_head at z - 1) within its own rounding term; both bounds
    stay within 100x of the measured error envelope 1.5 eps
    (1 + |z| ln(|z| + 5)) for gamma."""
    g, bose, sinh = _GAMMA_25[z]
    log_value, rel_err = _lanczos(z)
    value = cmath.exp(log_value)
    assert value == gamma(z)
    assert abs(value - g) <= rel_err * abs(g)
    assert rel_err <= 100.0 * 1.5 * _EPS * (1.0 + abs(z) * math.log(abs(z) + 5.0))
    s = z - 1.0
    for head, want in ((mellin._head(s, 12.0 * (s * (s - 1.0))), bose),
                       (mellin._head(s, 3.0 * (s - 1.0)), sinh)):
        value, err = head
        assert abs(value - want) <= err, (z, value, want, err)


def _verify_refs() -> dict:
    """verify's committed references, seed 1: the points and 34-digit values
    of its Mellin ("gamma_zeta", Gamma(s) zeta(s)) and axis ("E") checks."""
    return json.loads((REFS / "verify-seed1.json").read_text())


def _pairs(refs: dict, kind: str) -> list[tuple[complex, complex]]:
    return [(complex(float(a), float(b)), complex(float(x), float(y)))
            for (a, b), (x, y) in zip(refs["points"][kind], refs["values"][kind])]


def test_verify_integrals_within_err_est_and_cheap():
    """On verify's 48 Mellin points at tol 1e-12 bose and J lie within
    err_est of the 34-digit references (plus the references' own rounding
    to double), every J reports err_est <= 1e-10 (up to 2.6e-5 while J's
    origin tail ran to the round-off floor), and bose and J together take
    at most 7,000 integrand evaluations (21,962 with the origin tail)."""
    n_evals = 0
    for s, gz in _pairs(_verify_refs(), "gamma_zeta"):
        for r, want in ((mellin._bose(s, 1e-12), gz), (mellin._sinh_sq_integral(s, 1e-12),
                                                      4.0 * s * gz)):
            assert abs(r.value - want) <= r.err_est + 4.0 * _EPS * abs(want), s
            n_evals += r.n_evals
        assert r.err_est <= 1e-10, s
    assert n_evals <= 7000


def test_axis_points_within_err_est_and_cheap():
    """verify's 48 axis points at tol 1e-12 lie within err_est of the
    references in at most 3,000 evaluations (5,638 with the origin tail)."""
    n_evals = 0
    for s, want in _pairs(_verify_refs(), "E"):
        r = entire_e_axis(s)
        assert abs(r.value - want) <= r.err_est + 4.0 * _EPS * abs(want), s
        n_evals += r.n_evals
    assert n_evals <= 3000


def test_far_left_axis_overflow_is_a_truncation_failure():
    """Far left the axis form's J leaves double range, in t^(alpha+1) at
    the nodes or in the head's Gamma, and says so, not a bare OverflowError."""
    with pytest.raises(TruncationFailure, match=r"t\^\(alpha\+1\) overflows"):
        entire_e_axis(-142.4 - 1.1j)
    with pytest.raises(TruncationFailure, match=r"Gamma\(.*\) in the integral's head overflows"):
        entire_e_axis(-300.0 + 10.0j)


def test_past_double_range_is_a_truncation_failure():
    """Where J's M(0), which sizes the kernel's rounding, overflows (J from
    Re s = 169.82 on) and where (2 pi)^(s-2) underflows (the axis form from
    Re s = -403.5 on), both forms say so, not a DomainError about an
    internal tolerance or a ZeroDivisionError."""
    for s in (169.85, 170.0, 170.6):
        with pytest.raises(TruncationFailure, match=r"M\(0\) .* overflows"):
            sinh_integral(s)
    with pytest.raises(TruncationFailure, match=r"M\(0\) .* overflows"):
        entire_e_axis(-168.85 + 0.0j)
    for s in (-403.5 + 0.5j, -1000.5 + 0.5j):
        with pytest.raises(TruncationFailure, match=r"\(2 pi\)\^\(s-2\) underflows"):
            entire_e_axis(s)
    for k in range(271):
        for im in (0.0, 0.3, -7.0):
            s = complex(-171.55 + k / 100.0, im)
            if s != -170.0:  # a trivial zero, returned exactly
                with pytest.raises(TruncationFailure):
                    entire_e_axis(s)


def test_origin_cut_lands_in_its_range(monkeypatch):
    """The origin cut u_left that integrate_mellin hands integrate_interval
    as a lies in [-7.6, -2] on the grid of its first step for what mellin
    passes: alpha = s + 2 with Re s >= 1.05 and tol >= 1e-14, far above
    where e^u underflows.  Seeded: the two integrals at Re s in [1.06, 171]
    (log-uniform, as the cut lies furthest out at small Re s), |Im s| up to
    1000 and tol in [1e-14, 1e3], the axis form in its box, and the corners
    Re s = 1.06 at tol 1e-14; the spy stops each integral at its cut."""
    class Cut(Exception):
        pass

    cuts = []

    def spy(level, a, b, tol, *, step, **kwargs):
        cuts.append((a, step))
        raise Cut

    monkeypatch.setattr(quadrature, "integrate_interval", spy)
    forms = ((mellin._bose, 1000.0), (mellin._sinh_sq_integral, 1000.0),
             (lambda sigma, tol: entire_e_axis(1.0 - sigma, tol), IM_BOX))
    rng = random.Random(1)
    cases = [(run, complex(1.06, im), 1e-14) for run, im_max in forms for im in (0.0, im_max)]
    for _ in range(132):
        for run, im_max in forms:
            sigma = math.exp(rng.uniform(math.log(1.06), math.log(171.0)))
            cases.append((run, complex(sigma, rng.uniform(-im_max, im_max)),
                          10.0 ** rng.uniform(-14.0, 3.0)))
    for run, sigma, tol in cases:
        with pytest.raises(Cut):
            run(sigma, tol)
    assert len(cuts) == len(cases) == 402
    for a, step in cuts:
        assert -7.6 <= a <= -2.0 and (a / step).is_integer(), (a, step)


def test_kernel_tables_give_the_inline_kernel_bits(monkeypatch):
    """The shared tables return kernel(e^u) bitwise, on any lattice and
    however filled: the same integrals through the package's tables (cold,
    then warm) and through a table of their own for each call agree bit
    for bit."""
    pts = [1.06 + 4j, 2.5 - 0.3j, 5.9 + 5j, 3.0, 7.5 - 21.0j]
    monkeypatch.setattr(mellin, "_BOSE_TABLE", KernelTable(mellin._BOSE_TABLE.node))
    monkeypatch.setattr(mellin, "_SINH_TABLE", KernelTable(mellin._SINH_TABLE.node))
    runs = [[(mellin._bose(s, tol), mellin._sinh_sq_integral(s, tol))
             for s in pts for tol in (1e-12, 1e-6)] for _ in range(2)]
    real = mellin.integrate_mellin
    monkeypatch.setattr(mellin, "integrate_mellin",
                        lambda table, *a, **k: real(KernelTable(table.node), *a, **k))
    inline = [(mellin._bose(s, tol), mellin._sinh_sq_integral(s, tol))
              for s in pts for tol in (1e-12, 1e-6)]
    assert runs[0] == runs[1] == inline
    table = KernelTable(mellin._BOSE_TABLE.node)
    for first, spacing, n in ((0.25, 0.5, 9), (-7.75, 0.25, 40), (-9.0, 0.25, 3), (2.0, 0.5, 7)):
        assert list(table.values(first, spacing, n)) == [
            mellin._bose_rem(math.exp(first + i * spacing)) for i in range(n)]


def test_kernel_tables_compute_each_node_once(monkeypatch):
    """On cold kernel tables verify's 48 Mellin points, seed 1, call each
    table's node function once per value the table holds."""
    counts = {}
    for name in ("_BOSE_TABLE", "_SINH_TABLE"):
        def counted(u, node=getattr(mellin, name).node, name=name):
            counts[name] += 1
            return node(u)

        counts[name] = 0
        monkeypatch.setattr(mellin, name, KernelTable(counted))
    for s, _ in _pairs(_verify_refs(), "gamma_zeta"):
        mellin_check(s)
    for name, count in counts.items():
        stored = sum(len(vals) for _, vals in getattr(mellin, name)._lattices.values())
        assert count == stored > 0, name


def test_kernel_tables_eight_cold_threads_bitwise():
    """Eight threads started together on emptied kernel tables, all through
    verify's Mellin and axis points, half at tol 1e-12 first and half at
    1e-6 first, so they race to extend the same lattices to different cuts,
    give the bits of a warm serial run; five rounds."""
    code = (
        "import json, sys, threading\n"
        "from zetaline import mellin\n"
        "from zetaline.contour import entire_e_axis\n"
        "from zetaline.mellin import mellin_check\n"
        "from zetaline.quadrature import KernelTable\n"
        "mel, axis = ([complex(float(a), float(b)) for a, b in p] for p in json.loads(sys.stdin.read()))\n"
        "def bits(s, tol, kind):\n"
        "    if kind:\n"
        "        r = entire_e_axis(s, tol)\n"
        "        return [r.value.real.hex(), r.value.imag.hex(), r.err_est.hex(), r.n_evals]\n"
        "    r = mellin_check(s, tol)\n"
        "    return [r.bose.real.hex(), r.bose.imag.hex(), r.sinh_form.real.hex(),\n"
        "            r.sinh_form.imag.hex()]\n"
        "tasks = [(s, tol, 0) for s in mel for tol in (1e-12, 1e-6)]\n"
        "tasks += [(s, tol, 1) for s in axis for tol in (1e-12, 1e-6)]\n"
        "out = [None] * 8\n"
        "start = threading.Barrier(8)\n"
        "def work(i):\n"
        "    order = sorted(range(len(tasks)), key=lambda j: (j % 2 == i % 2, j))\n"
        "    res = [None] * len(tasks)\n"
        "    start.wait()\n"
        "    for j in order:\n"
        "        res[j] = bits(*tasks[j])\n"
        "    out[i] = res\n"
        "sys.setswitchinterval(1e-6)\n"
        "rounds = []\n"
        "for _ in range(5):\n"
        "    mellin._BOSE_TABLE = KernelTable(mellin._BOSE_TABLE.node)\n"
        "    mellin._SINH_TABLE = KernelTable(mellin._SINH_TABLE.node)\n"
        "    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
        "    for th in threads: th.start()\n"
        "    for th in threads: th.join(120)\n"
        "    assert not any(th.is_alive() for th in threads)\n"
        "    rounds.append(list(out))\n"
        "for _ in range(2):\n"
        "    serial = [bits(*task) for task in tasks]\n"
        "print(json.dumps([rounds, serial]))\n"
    )
    refs = _verify_refs()
    stdin = json.dumps([refs["points"]["gamma_zeta"], refs["points"]["E"]])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                         input=stdin)
    assert out.returncode == 0, out.stderr
    rounds, serial = json.loads(out.stdout)
    assert rounds == [[serial] * 8] * 5


def _series(coeffs, x: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_D, _C = ([float(x) for x in coeffs] for coeffs in _taylor_coefficients(26))


def _bose_rem(t: complex) -> complex:
    """bose's remainder r(t)/t^4 at complex t: the series below |t| = 1/2,
    the subtraction beyond."""
    if abs(t) < 0.5:
        return cmath.exp(-t) * _series(_D[4:26:2], t * t)
    return (t / (cmath.exp(t) - 1.0) - cmath.exp(-t) * (1.0 + t / 2.0 + t * t / 12.0)) / t ** 4


def _sinh_rem(t: complex) -> complex:
    """J's remainder r(t)/t^4 at complex t, as _bose_rem."""
    if abs(t) < 0.5:
        return 4.0 * cmath.exp(-t) * _series(_C[4:26], t)
    return (t * t / cmath.sinh(0.5 * t) ** 2
            - 4.0 * cmath.exp(-t) * (1.0 + t + 5.0 * t * t / 12.0 + t ** 3 / 12.0)) / t ** 4


# per form: the integral it runs, the bound on |r/t^4| near the origin, and
# its remainder integrand g(w) = e^{(s+3) w} r(t)/t^4 at complex w, t = e^w
_STRIP_FORMS = {
    "bose": (mellin._bose, 1.0 / 720.0, _bose_rem),
    "sinh": (mellin._sinh_sq_integral, 1.0 / 60.0, _sinh_rem),
}


def test_strip_factors_cover_every_step_in_the_box(monkeypatch):
    """Every step at which either form asks for a level's bound, at |Im s|
    up to 60, and a step no form takes, here h = 1, get from _strip_factors
    the values 2 pi d/h and log(1 - e^{-2 pi d/h}), d = 1, bitwise, and the
    bound is formed from them."""
    steps = set()
    real = mellin.integrate_mellin

    def spy(*args, bound, **kwargs):
        def recorded(h):
            steps.add(h)
            return bound(h)
        return real(*args, bound=recorded, **kwargs)

    monkeypatch.setattr(mellin, "integrate_mellin", spy)
    for s in (1.5, 2.0 + 5j, 3.0 - 21j, 1.2 + 40j, 6.0 - 60j, 2.5 + 60j):
        for tol in (1e-12, 1e-14):
            mellin._bose(s, tol)
            mellin._sinh_sq_integral(s, tol)
    assert {0.25, 2.0 ** -5} <= steps
    for h in steps | {1.0}:
        x = 2.0 * math.pi / h
        assert mellin._strip_factors(h) == (x, math.log(-math.expm1(-x))), h
    x, log_q = mellin._strip_factors(1.0)
    assert mellin._strip_bound(3.0)(1.0) == math.exp(math.log(2.0) + 3.0 - x - log_q)


@pytest.mark.parametrize("form", sorted(_STRIP_FORMS))
def test_strip_m_bounds_the_integrand_off_the_axis(monkeypatch, form):
    """M(d) bounds the integral over u of the remainder integrand |g(u + ib)|
    for |b| <= d: a dense sum of |g| with complex arithmetic on the lines
    b = 0, +-d/2, +-0.99d, plus a bound on the part left of u = -8 from the
    origin exponent Re s + 3, stays below it, for Re s from 1.06 to 8 and
    |Im s| <= 10."""
    run, coeff, rem = _STRIP_FORMS[form]
    d, h, u0 = mellin._STRIP, 0.01, -8.0
    bounds = _strip_bounds(monkeypatch)
    for s in (1.06, 1.06 - 10j, 2.5 + 4j, 4.0 - 7j, 8.0, 8.0 + 10j):
        run(s, 1e-12)
        m = bounds[-1](1.0) * math.expm1(2.0 * math.pi * d) / 2.0  # B(1) = 2M / (e^{2 pi d} - 1)
        for b in (0.0, 0.5 * d, -0.5 * d, 0.99 * d, -0.99 * d):
            # left of u0, |r/t^4| <= 1.001 coeff and |e^{(s+3) w}| = e^{(Re s+3) u - Im s b}
            total = 1.001 * coeff * math.exp((s.real + 3.0) * u0 - s.imag * b) / (s.real + 3.0)
            for k in range(int((6.0 - u0) / h) + 1):
                w = complex(u0 + k * h, b)
                total += h * abs(cmath.exp((s + 3.0) * w) * rem(cmath.exp(w)))
            assert total <= m, (s, b, total, m)


def test_conjugation_bitwise():
    """I(conj s) == conj I(s) exactly for the three integrals, and
    E(conj s) == conj E(s) for the axis form: the level's e^{(alpha+1) u}
    times a real kernel is symmetric, and the strip bound reads |Im s|."""
    for s in (1.5 + 2.0j, 3.25 - 4.5j, 6.0 + 0.1j):
        for integral in (bose_integral, exp_sq_integral, sinh_integral):
            assert integral(s.conjugate()) == integral(s).conjugate(), s
    for s in (-1.5 + 3.0j, -4.2 - 7.9j, -0.3 + 0.5j):
        up, down = entire_e_axis(s), entire_e_axis(s.conjugate())
        assert down.value == up.value.conjugate(), s
        assert (down.err_est, down.n_evals) == (up.err_est, up.n_evals), s
