import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import qprolate as qp
from _oracles import bilateral_jackson, c_qv, qpoch


def test_qpochhammer_empty_product():
    assert qp.qpochhammer(0.7, 0.5, 0) == 1.0


def test_qpochhammer_two_factors():
    assert qp.qpochhammer(0.5, 0.5, 2) == pytest.approx(0.375, rel=1e-15)


def test_qpochhammer_infinite_frozen():
    # frozen from the arbitrary-precision product oracle
    assert qp.qpochhammer(0.25, 0.25, math.inf) == pytest.approx(
        0.6885375371203397, rel=1e-12
    )


@pytest.mark.parametrize("z,q", [(0.25, 0.25), (0.9, 0.5), (-0.7, 0.8), (2.5, 0.3)])
def test_qpochhammer_infinite_vs_oracle(z, q):
    # the oracle runs the product with far more factors at 50 digits
    want = float(qpoch(z, q, None, dps=50))
    assert qp.qpochhammer(z, q, math.inf) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_qpochhammer_infinite_within_an_ulp_of_the_oracle():
    # Euler's series at 20 digits, rounded once (at most 0.4951 ulp off on
    # these draws): the float product it replaced, cut at
    # |z q^i| < EPS (1 - q), erred by a median of 42 ulps and up to 122 on
    # them, and gave -0.0 for (1/0.3; 0.3)_inf, whose second factor
    # 1 - 0.3 (1/0.3) is -7.4e-18 exactly but 0.0 in float
    rng = np.random.default_rng(30)
    draws = list(zip(rng.uniform(-3, 3, 64).tolist(), rng.uniform(0.05, 0.99, 64).tolist()))
    for z, q in draws + [(1 / 0.3, 0.3), (4.0, 0.5), (-3.0, 0.99), (3.0, 0.99)]:
        got = qp.qpochhammer(z, q, math.inf)
        want = qpoch(z, q, None, dps=80)
        assert abs(mp.mpf(got) - want) <= math.ulp(float(want)), (z, q, got)
    assert qp.qpochhammer(1 / 0.3, 0.3, math.inf) == 1.0580516905803615e-17
    # (4; 1/2)_inf has the factor 1 - 4/4: exactly 0, and +0.0
    assert math.copysign(1.0, qp.qpochhammer(4.0, 0.5, math.inf)) == 1.0


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_qpochhammer_infinite_refuses_a_non_finite_z(z):
    # the float product returned 1.0 at nan and never returned at inf
    with pytest.raises(ValueError, match="z must be finite"):
        qp.qpochhammer(z, 0.5, math.inf)


def test_qpochhammer_finite_beyond_the_float_range_raises():
    # the float product returned -inf
    with pytest.raises(OverflowError, match=r"\(1e\+300; 0.5\)_3 lies beyond the float range"):
        qp.qpochhammer(1e300, 0.5, 3)


def test_qpochhammer_stops_once_the_factors_round_to_one():
    # past |z q^i| <= 2^-54 every factor rounds to 1.0, so n = 10^8 gives
    # the value of n = 100 bit for bit, without taking the 10^8 factors
    # (9.5 s on a 2-core host before the product stopped there)
    t0 = time.perf_counter()
    assert qp.qpochhammer(0.7, 0.5, 10**8) == qp.qpochhammer(0.7, 0.5, 100)
    assert time.perf_counter() - t0 < 0.5
    assert qp.qpochhammer(-1.5, 0.3, 2.0) == (1.0 + 1.5) * (1.0 + 1.5 * 0.3)


def test_qpochhammer_infinite_beyond_the_float_range_raises():
    with pytest.raises(OverflowError, match=r"\(-3.0; 0.999\)_inf = 1.38\d+e\+842"):
        qp.qpochhammer(-3.0, 0.999, math.inf)


def test_qpochhammer_infinite_decided_past_the_digit_cap():
    # Euler's series would cancel more than 2,000 digits at both, which
    # raised ValueError; the magnitude estimate decides them first.
    # (1/2; 0.9999)_inf is about 1e-2528, below the float range
    assert math.copysign(1.0, qp.qpochhammer(0.5, 0.9999, math.inf)) == 1.0
    assert qp.qpochhammer(0.5, 0.9999, math.inf) == 0.0
    # (1e6; 0.999)_inf is about -1e40001, beyond it
    with pytest.raises(OverflowError, match=r"\(1000000.0; 0.999\)_inf = -1.06\d+e\+40001"):
        qp.qpochhammer(1e6, 0.999, math.inf)


def test_every_infinite_qpochhammer_is_eulers_series(monkeypatch):
    # qcalc.qpoch_inf_decimal is the one evaluation of (a; x)_inf: the
    # float API, the lattice growth bound and c_qv all reach it
    from qprolate import qcalc

    calls = []
    series = qcalc.qpoch_inf_decimal

    def counted(a, x):
        calls.append((float(a), float(x)))
        return series(a, x)

    monkeypatch.setattr(qcalc, "qpoch_inf_decimal", counted)
    assert qp.qpochhammer(0.5, 0.5, math.inf) == pytest.approx(0.2887880950866024, rel=1e-15)
    assert calls == [(0.5, 0.5)]
    p = qp.QParams(0.5, 0.0)
    assert len(calls) == 3 and calls[1] == (0.25, 0.25)
    qp.jv_bound(-2, p)
    assert sorted(calls[3:]) == [(-0.25, 0.25), (-0.25, 0.25), (0.25, 0.25)]


def test_qpochhammer_recurrence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = rng.uniform(-2, 2)
        q = rng.uniform(0.05, 0.95)
        n = rng.integers(0, 30)
        lhs = qp.qpochhammer(z, q, n + 1)
        rhs = qp.qpochhammer(z, q, n) * (1.0 - z * q ** int(n))
        assert lhs == pytest.approx(rhs, rel=1e-15, abs=1e-280)


def test_qpochhammer_validation():
    with pytest.raises(ValueError):
        qp.qpochhammer(0.5, 1.5, 2)
    # n = 3.7 was cut to three factors with no word, and z = nan gave nan
    for n in (-1, 3.7, math.nan, -math.inf):
        with pytest.raises(ValueError, match="n must be a nonnegative integer or inf"):
            qp.qpochhammer(0.5, 0.5, n)
    for z in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="z must be finite"):
            qp.qpochhammer(z, 0.5, 3)


def test_qparams_constant():
    p = qp.QParams(0.5, -0.5)
    # frozen from the oracle: (q; q^2)_inf / ((1-q)(q^2; q^2)_inf)
    assert p.c_qv == pytest.approx(1.218299422132457, rel=1e-12)
    # at v = 0 the two products cancel and c = 1/(1-q) exactly
    assert qp.QParams(0.5, 0.0).c_qv == 2.0


def test_qparams_constant_is_correctly_rounded():
    # c_qv used to come from float products, 20 ulp off at (1/2, -1/2)
    # and 60 ulp at worst on these draws; the decimal series at 25 digits,
    # rounded once, is within half an ulp of the oracle on each of them
    rng = np.random.default_rng(2026)
    qs, vs = rng.uniform(0.05, 0.95, 400), rng.uniform(-0.99, 3.0, 400)
    for q, v in zip(qs.tolist(), vs.tolist()):
        got = qp.QParams(q, v).c_qv
        err = abs(mp.mpf(got) - c_qv(q, v, 40)) / math.ulp(got)
        assert err <= 0.5, (q, v, float(err))


def test_qparams_constant_near_one():
    # the series' digits come from sums of logs: the float product they
    # came from lies below the float range above q = 0.9988, where c_qv
    # was 8,190.86 at q = 0.999 and q = 0.9995 raised a bare "math domain
    # error".  q = 0.99 is checked against the 60-digit oracle, the others
    # against its values frozen here (its products take 1.6-7 s there),
    # which an Euler-Maclaurin sum of the logs of the factors matched
    with mp.workdps(40):
        want = {
            0.99: c_qv(0.99, -0.5, 60),
            0.998: mp.mpf("17.8457050066650636474763826823"),
            0.999: mp.mpf("25.2344803849447467126969816549"),
            0.9995: mp.mpf("35.6847129197050923786202601334"),
        }
        for q, c in want.items():
            got = qp.QParams(q, -0.5).c_qv
            assert abs(mp.mpf(got) - c) <= math.ulp(got) / 2, q


@pytest.mark.parametrize("q", [0.9999, 1.0 - 1e-15])
def test_qparams_too_close_to_one_raises(q):
    # the series would cancel more than 2,000 digits (5,400 at q = 0.9999);
    # its digit estimates stop once they pass them, so this takes
    # milliseconds even where q - 1 is a few ulps
    with pytest.raises(ValueError, match=f"q = {q!r} lies too close to 1"):
        qp.QParams(q, -0.5)


@pytest.mark.parametrize("q", [0.999, 0.9997])
def test_qparams_beyond_the_float_range_raises(q):
    # at v = 1e6 q^{2v+2} is negligible and c_qv ~ 1/((1-q) (q^2;q^2)_inf)
    # is 1.8e358 at q = 0.999: it was silently inf, and every transform
    # at those parameters scaled by it
    with pytest.raises(OverflowError, match=rf"c_qv\(q={q!r}, v=1000000.0\) = "):
        qp.QParams(q, 1e6)


@pytest.mark.parametrize("q, v", [(0.5, -0.5), (0.5, 1.7)])
def test_c_qv_decimal_at_thousands_of_digits(q, v):
    # the moment matrix of the eigensolve reads c_qv in contexts of up to
    # about 3,000 digits: the digit cap counts only the digits the series
    # cancels, so a q that QParams takes is summed at any precision
    from decimal import MAX_EMAX, MIN_EMIN, Context, localcontext

    from qprolate.qcalc import c_qv_decimal

    with localcontext(Context(prec=2500, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        got = c_qv_decimal(q, v)
    with mp.workdps(2520):
        want = c_qv(q, v, 2520)
        assert abs(mp.mpf(str(got)) / want - 1) < mp.mpf(10) ** -2498


# v = inf gave c_qv = 2.9047, and j_v a value of 0.918
@pytest.mark.parametrize("q,v", [(1.5, 0.0), (0.0, 0.0), (0.5, -1.0), (0.5, math.inf),
                                 (0.5, math.nan)])
def test_qparams_validation(q, v):
    with pytest.raises(ValueError):
        qp.QParams(q, v)


def test_qparams_takes_no_tolerance():
    # the series tolerance is the constant qcalc.EPS, not a setting
    with pytest.raises(TypeError):
        qp.QParams(0.5, -0.5, 1e-8)


def test_window_basics():
    w = qp.LatticeWindow(-3, 5)
    assert w.size == 9
    assert w.contains(-3) and w.contains(5) and not w.contains(6)
    pts = w.points(0.5)
    assert pts[0] == 8.0 and pts[-1] == 0.03125
    assert (np.diff(pts) < 0).all()
    with pytest.raises(ValueError):
        qp.LatticeWindow(2, 1)


def test_window_points_are_python_float_powers():
    # numpy's array power differs from Python's in the last bit at about
    # one (q, k) in twenty; every lattice point is Python's q ** float(k)
    w = qp.LatticeWindow(-40, 119)
    for q in np.random.default_rng(38).uniform(0.05, 0.95, 200).tolist():
        assert w.points(q).tolist() == [q ** float(k) for k in w.exponents()]


def test_lattice_function_basics():
    w = qp.LatticeWindow(0, 4)
    with pytest.raises(ValueError):
        qp.LatticeFunction(w, np.zeros(3))
    e2 = qp.LatticeFunction.delta(w, 2)
    assert e2.value_at_exp(2) == 1.0
    assert e2.value_at_exp(3) == 0.0
    assert e2.value_at_exp(99) == 0.0
    f = qp.LatticeFunction.from_callable(w, lambda x: x * x, 0.5)
    assert f.value_at_exp(1) == 0.25
    g = 2.0 * f + e2
    assert g.value_at_exp(1) == 0.5
    assert g.value_at_exp(2) == pytest.approx(2.0 * 0.0625 + 1.0, rel=1e-15)


def test_jackson_0a_constant_one(p_half):
    w = qp.LatticeWindow(-5, 60)
    f = qp.LatticeFunction(w, np.ones(w.size))
    assert qp.jackson_integral_0a(f, 0, p_half) == pytest.approx(1.0, rel=1e-14)


def test_jackson_0a_zero(p_half):
    f = qp.LatticeFunction.zeros(qp.LatticeWindow(0, 40))
    assert qp.jackson_integral_0a(f, 0, p_half) == 0.0


def test_jackson_0a_identity_function(p_half):
    w = qp.LatticeWindow(-5, 80)
    f = qp.LatticeFunction.from_callable(w, lambda x: x, 0.5)
    assert qp.jackson_integral_0a(f, 0, p_half) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_jackson_0a_window_too_small(p_half):
    f = qp.LatticeFunction.zeros(qp.LatticeWindow(0, 10))
    with pytest.raises(qp.WindowTooSmall):
        qp.jackson_integral_0a(f, -1, p_half)
    with pytest.raises(qp.WindowTooSmall):
        qp.jackson_integral_0a(f, 11, p_half)


def test_jackson_0inf_trivials(p_half):
    w = qp.LatticeWindow(-10, 30)
    assert qp.jackson_integral_0inf(qp.LatticeFunction.zeros(w), p_half) == 0.0
    e0 = qp.LatticeFunction.delta(w, 0)
    assert qp.jackson_integral_0inf(e0, p_half) == pytest.approx(0.5, rel=1e-15)


def test_jackson_0inf_vs_oracle(p_half):
    # decaying profile tabulated on the window; oracle re-sums on a window
    # twice as large (the extension carries the same decay)
    w = qp.LatticeWindow(-10, 30)
    big = qp.LatticeWindow(-20, 60)
    profile = lambda x: x * x * math.exp(-x)
    f_big = qp.LatticeFunction.from_callable(big, profile, 0.5)
    got = qp.jackson_integral_0inf(
        qp.LatticeFunction.from_callable(w, profile, 0.5), p_half
    )
    want = float(bilateral_jackson(big.exponents(), f_big.values, 0.5, dps=50))
    assert got == pytest.approx(want, rel=1e-10)


def test_jackson_0a_matches_0inf_restriction(p_half):
    # identical terms, identical accumulation order: bitwise equality
    w = qp.LatticeWindow(-7, 25)
    rng = np.random.default_rng(3)
    f = qp.LatticeFunction(w, rng.standard_normal(w.size))
    assert qp.jackson_integral_0a(f, w.n_min, p_half) == qp.jackson_integral_0inf(f, p_half)


def test_inner_product_single_point(p_half):
    w = qp.LatticeWindow(-4, 10)
    e0 = qp.LatticeFunction.delta(w, 0)
    assert qp.inner_product(e0, e0, p_half) == pytest.approx(0.5, rel=1e-15)
    e1 = qp.LatticeFunction.delta(w, 1)
    assert qp.inner_product(e0, e1, p_half) == 0.0


def test_inner_product_vs_direct_sum(p_half):
    w = qp.LatticeWindow(-6, 20)
    rng = np.random.default_rng(11)
    f = qp.LatticeFunction(w, rng.standard_normal(w.size))
    want = math.fsum(
        (1 - 0.5) * 0.5 ** float(k) * f.value_at_exp(k) ** 2
        for k in range(w.n_min, w.n_max + 1)
    )
    assert qp.inner_product(f, f, p_half) == pytest.approx(want, rel=1e-13)


def test_inner_product_symmetry_bitwise(p_half):
    w = qp.LatticeWindow(-6, 20)
    rng = np.random.default_rng(12)
    for _ in range(25):
        f = qp.LatticeFunction(w, rng.standard_normal(w.size))
        g = qp.LatticeFunction(w, rng.standard_normal(w.size))
        assert qp.inner_product(f, g, p_half) == qp.inner_product(g, f, p_half)


def test_inner_product_bilinear(p_half):
    w = qp.LatticeWindow(-6, 20)
    rng = np.random.default_rng(13)
    for _ in range(25):
        f = qp.LatticeFunction(w, rng.standard_normal(w.size))
        g = qp.LatticeFunction(w, rng.standard_normal(w.size))
        h = qp.LatticeFunction(w, rng.standard_normal(w.size))
        alpha = float(rng.standard_normal())
        lhs = qp.inner_product(alpha * f + g, h, p_half)
        rhs = alpha * qp.inner_product(f, h, p_half) + qp.inner_product(g, h, p_half)
        scale = abs(lhs) + abs(rhs) + 1.0
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_inner_product_window_intersection(p_half):
    f = qp.LatticeFunction.delta(qp.LatticeWindow(-4, 4), 3)
    g = qp.LatticeFunction.delta(qp.LatticeWindow(3, 10), 3)
    assert qp.inner_product(f, g, p_half) == pytest.approx(0.5 * 0.5**3, rel=1e-15)
    far = qp.LatticeFunction.delta(qp.LatticeWindow(20, 25), 20)
    assert qp.inner_product(f, far, p_half) == 0.0


def test_cauchy_schwarz(p_half):
    w = qp.LatticeWindow(-8, 30)
    rng = np.random.default_rng(17)
    for _ in range(100):
        f = qp.LatticeFunction(w, rng.standard_normal(w.size))
        g = qp.LatticeFunction(w, rng.standard_normal(w.size))
        fg = qp.inner_product(f, g, p_half)
        assert fg * fg <= qp.inner_product(f, f, p_half) * qp.inner_product(g, g, p_half) + 1e-12


def test_norm_trivials(p_half):
    w = qp.LatticeWindow(-4, 10)
    assert qp.norm_lqpv(qp.LatticeFunction.zeros(w), 2.0, p_half) == 0.0
    e0 = qp.LatticeFunction.delta(w, 0)
    assert qp.norm_lqpv(e0, 2.0, p_half) == pytest.approx(math.sqrt(0.5), rel=1e-15)


@pytest.mark.parametrize("p_exp", [1.0, 2.0, 3.0])
def test_norm_vs_direct_sum(p_half, p_exp):
    w = qp.LatticeWindow(-6, 20)
    rng = np.random.default_rng(19)
    f = qp.LatticeFunction(w, rng.standard_normal(w.size))
    want = math.fsum(
        0.5 * 0.5 ** float(k) * abs(f.value_at_exp(k)) ** p_exp
        for k in range(w.n_min, w.n_max + 1)
    ) ** (1.0 / p_exp)
    assert qp.norm_lqpv(f, p_exp, p_half) == pytest.approx(want, rel=1e-13)


def test_norm2_equals_sqrt_inner(p_half):
    w = qp.LatticeWindow(-6, 20)
    rng = np.random.default_rng(23)
    f = qp.LatticeFunction(w, rng.standard_normal(w.size))
    assert qp.norm_lqpv(f, 2.0, p_half) == pytest.approx(
        math.sqrt(qp.inner_product(f, f, p_half)), rel=1e-13
    )
    # p_exponent = inf returned 1.0 where the sup is 2.0, and nan returned nan
    g = qp.LatticeFunction(qp.LatticeWindow(-3, 10), np.linspace(-1.0, 2.0, 14))
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="p_exponent"):
            qp.norm_lqpv(g, bad, p_half)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_lattice_sums_reject_non_finite(p_half, bad):
    # one bad sample made each sum NaN or inf without a word; the zero g
    # makes inf * 0 in the inner product, which must not warn either
    w = qp.LatticeWindow(-3, 10)
    f = qp.LatticeFunction(w, np.linspace(-1.0, 2.0, w.size))
    f.values[4] = bad
    g = qp.LatticeFunction(w, np.linspace(-1.0, 2.0, w.size))
    calls = [
        ("inner_product", lambda: qp.inner_product(f, g, p_half)),
        ("inner_product", lambda: qp.inner_product(qp.LatticeFunction.zeros(w), f, p_half)),
        ("norm_lqpv", lambda: qp.norm_lqpv(f, 2.0, p_half)),
        ("jackson_integral_0a", lambda: qp.jackson_integral_0a(f, 0, p_half)),
        ("jackson_integral_0inf", lambda: qp.jackson_integral_0inf(f, p_half)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=name):
            call()
    # so does a sum that overflows from finite samples
    huge = qp.LatticeFunction(w, np.full(w.size, 1e308))
    with pytest.raises(ValueError, match="jackson_integral_0inf"):
        qp.jackson_integral_0inf(huge, p_half)


def test_tail_warning_fires_for_constant(p_half):
    w = qp.LatticeWindow(-10, 30)
    f = qp.LatticeFunction(w, np.ones(w.size))
    with pytest.warns(qp.TailWarning):
        qp.jackson_integral_0inf(f, p_half)


def test_no_tail_warning_for_compact_support(p_half, recwarn):
    import warnings

    w = qp.LatticeWindow(-10, 30)
    e0 = qp.LatticeFunction.delta(w, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", qp.TailWarning)
        qp.jackson_integral_0inf(e0, p_half)


def test_weights_descending(p_half):
    w = qp.lattice_weights(qp.LatticeWindow(-5, 20), p_half)
    assert (np.diff(w) < 0).all() and (w > 0).all()


# three of the package's calls that each need numpy, with inputs that
# differ by thread i, and their values as lists; run from source, since
# this module imports numpy
FIRST_NUMPY_CALLS = """
def first_numpy_calls(i):
    p = qp.QParams(0.5, -0.5 + 0.1 * i)
    return [qp.lattice_weights(qp.LatticeWindow(-5, 20 + i), p).tolist(),
            qp.jv_array([0.25 * (i + 1), 1.5, 3.0 + i], p).tolist(),
            qp.LatticeFunction.zeros(qp.LatticeWindow(0, i)).values.tolist()]
"""


def test_numpy_stand_in_is_safe_on_first_use_from_many_threads():
    # ``qcalc.np`` imports numpy at its first attribute access; 12 threads
    # making their first numpy calls at once, with the interpreter
    # switching threads every microsecond, all get a serial run's values:
    # none sees a half-built stand-in, and sys.modules holds numpy itself
    src = str(Path(qp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys, threading\n"
        "import qprolate as qp\n"
        f"{FIRST_NUMPY_CALLS}\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.setswitchinterval(1e-6)\n"
        "start, out, errors = threading.Barrier(12), {}, []\n"
        "def work(i):\n"
        "    start.wait(timeout=60)\n"
        "    try:\n"
        "        out[i] = first_numpy_calls(i)\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=work, args=(i,)) for i in range(12)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "import numpy\n"
        "assert type(qp.qcalc.np) is type(sys) and sys.modules['numpy'] is numpy\n"
        "print(json.dumps({'errors': errors, 'out': [out.get(i) for i in range(12)]}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["errors"] == []
    serial = {"qp": qp}
    exec(FIRST_NUMPY_CALLS, serial)
    assert got["out"] == [serial["first_numpy_calls"](i) for i in range(12)]
