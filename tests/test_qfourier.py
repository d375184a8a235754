import math
import warnings

import numpy as np
import pytest

import qprolate as qp
from _oracles import convolve_direct, transform_point, translate_point
from conftest import supported_function


def _measured(window):
    exps = window.exponents()
    return (exps >= -3) & (exps <= 10)


# Ff of a function supported on [-3, 10] is still 4e-8 to 2e-7 of its sum
# at the window's top end q^-15, so a transform of Ff (the involution, a
# translation, the spectral convolution) cuts that tail on purpose: the
# identities are checked on [-3, 10] only
SPECTRUM_TAIL = pytest.mark.filterwarnings("ignore::qprolate.qcalc.TailWarning")


def test_plan_table_matches_jv(plan_half, p_half, window):
    # the table covers the diagonal exponents s = m + n, 2 n_min..2 n_max
    table = plan_half.kernel_table
    assert table.shape == (2 * window.size - 1,)
    for s in (-30, -20, -5, 0, 7, 40, 120):
        assert table[s - 2 * window.n_min] == pytest.approx(
            qp.jv_array(p_half.q ** float(s), p_half), rel=1e-12, abs=1e-300
        )


def test_transform_zero(plan_half):
    f = qp.LatticeFunction.zeros(plan_half.window)
    g = qp.fqv_transform(f, plan_half)
    assert (g.values == 0).all()


def test_transform_window_mismatch(plan_half):
    f = qp.LatticeFunction.zeros(qp.LatticeWindow(0, 3))
    with pytest.raises(ValueError):
        qp.fqv_transform(f, plan_half)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_transform_rejects_non_finite(plan_half, bandlimit, window, bad):
    # one nan input used to turn all 76 outputs to nan without a warning
    f = supported_function(window, -3, 10, np.random.default_rng(3))
    f.values[20] = bad
    with pytest.raises(ValueError):
        qp.fqv_transform(f, plan_half)
    with pytest.raises(ValueError):
        qp.translate(2, f, plan_half)
    with pytest.raises(ValueError):
        qp.convolve(f, f, plan_half)
    with pytest.raises(ValueError):
        qp.project(f, bandlimit, plan_half)


def test_transform_delta_is_kernel_column(plan_v0, p_v0):
    # F e_0 (q^m) = c (1-q) j_v(q^m, q^2)
    f = qp.LatticeFunction.delta(plan_v0.window, 0)
    g = qp.fqv_transform(f, plan_v0)
    for m in (-4, 0, 3, 12):
        want = p_v0.c_qv * (1 - p_v0.q) * qp.jv_at_exponent(m, p_v0)
        assert g.value_at_exp(m) == pytest.approx(want, rel=1e-13, abs=1e-250)


def test_transform_vs_mp_oracle(plan_half, p_half, window):
    rng = np.random.default_rng(41)
    f = supported_function(window, -3, 10, rng)
    g = qp.fqv_transform(f, plan_half)
    sel = (window.exponents() >= -3) & (window.exponents() <= 10)
    exps = window.exponents()[sel]
    vals = f.values[sel]
    for m in (-5, 0, 7, 20):
        want = float(transform_point(exps, vals, m, p_half.q, p_half.v, dps=50))
        assert g.value_at_exp(m) == pytest.approx(want, rel=1e-11, abs=1e-250)


@SPECTRUM_TAIL
@pytest.mark.parametrize("which", ["half", "v0"])
def test_involution(which, plan_half, plan_v0, window):
    plan = plan_half if which == "half" else plan_v0
    rng = np.random.default_rng(43)
    f = supported_function(window, -3, 10, rng)
    ff = qp.fqv_transform(qp.fqv_transform(f, plan), plan)
    sup = np.abs((ff.values - f.values)[_measured(window)]).max()
    assert sup <= 1e-8


@pytest.mark.parametrize("which", ["half", "v0"])
def test_self_adjoint(which, plan_half, plan_v0, window):
    plan = plan_half if which == "half" else plan_v0
    p = plan.params
    rng = np.random.default_rng(47)
    f = supported_function(window, -3, 10, rng)
    g = supported_function(window, -3, 10, rng)
    lhs = qp.inner_product(qp.fqv_transform(f, plan), g, p)
    rhs = qp.inner_product(f, qp.fqv_transform(g, plan), p)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("which", ["half", "v0"])
def test_plancherel(which, plan_half, plan_v0, window):
    plan = plan_half if which == "half" else plan_v0
    p = plan.params
    rng = np.random.default_rng(53)
    f = supported_function(window, -3, 10, rng)
    nf = qp.norm_lqpv(f, 2.0, p)
    ng = qp.norm_lqpv(qp.fqv_transform(f, plan), 2.0, p)
    assert abs(nf - ng) <= 1e-8 * nf


def test_linearity(plan_half, window):
    rng = np.random.default_rng(59)
    f = supported_function(window, -3, 10, rng)
    g = supported_function(window, -3, 10, rng)
    alpha = 1.37
    lhs = qp.fqv_transform(alpha * f + g, plan_half)
    rhs = alpha * qp.fqv_transform(f, plan_half) + qp.fqv_transform(g, plan_half)
    scale = np.abs(rhs.values).max()
    assert np.abs(lhs.values - rhs.values).max() <= 1e-12 * scale


def test_translate_zero(plan_half):
    f = qp.LatticeFunction.zeros(plan_half.window)
    t = qp.translate(0, f, plan_half)
    assert (t.values == 0).all()


def test_translate_symmetry(plan_half, window):
    rng = np.random.default_rng(61)
    f = supported_function(window, -3, 10, rng)
    t2 = qp.translate(2, f, plan_half)
    t5 = qp.translate(5, f, plan_half)
    scale = max(abs(t2.value_at_exp(5)), abs(t5.value_at_exp(2)), 1e-30)
    assert abs(t2.value_at_exp(5) - t5.value_at_exp(2)) <= 1e-12 * scale


def test_translate_delta_vs_mp_oracle(plan_v0, p_v0, window):
    f = qp.LatticeFunction.delta(window, 0)
    spectrum = qp.fqv_transform(f, plan_v0)
    got = qp.translate(2, f, plan_v0)
    exps = window.exponents()
    for y in (0, 3, 6):
        want = float(
            translate_point(exps, spectrum.values, 2, y, p_v0.q, p_v0.v, dps=40)
        )
        # the sum cancels O(1) terms down to ~1e-7, so the meaningful
        # agreement is absolute at roundoff-of-the-terms level
        assert got.value_at_exp(y) == pytest.approx(want, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("x_exp", [-18, 64])
def test_translate_outside_window_vs_mp_oracle(plan_v0, p_v0, window, x_exp):
    # x = q^{x_exp} beyond either end of the window (n_min - 3, n_max + 4):
    # j_v(q^{x_exp + t}) lies outside the plan's window, read from the
    # lattice cache.  At x_exp = -18 the kernel's arguments reach q^{-33},
    # where the series peaks near q^{-33^2}; the oracle carries the digits
    # of that peak, so the tiny terms there come out negligible.  There
    # the terms (sum 3.6e-11) cancel to 1e-28, so the error is measured
    # against the sum of the terms' magnitudes.
    p = p_v0
    f = qp.LatticeFunction.delta(window, 0)
    spectrum = qp.fqv_transform(f, plan_v0)
    got = qp.translate(x_exp, f, plan_v0)
    exps = window.exponents()
    dps = 40 + int(min(x_exp + window.n_min, 0) ** 2 * -math.log10(p.q))
    for y in (0, 5):
        want = float(translate_point(exps, spectrum.values, x_exp, y, p.q, p.v, dps=dps))
        scale = p.c_qv * (1 - p.q) * sum(
            abs(p.q ** (int(t) * (2 * p.v + 2)) * s
                * qp.jv_at_exponent(x_exp + int(t), p) * qp.jv_at_exponent(y + int(t), p))
            for t, s in zip(exps, spectrum.values)
        )
        assert abs(got.value_at_exp(y) - want) <= 1e-12 * scale, y


def _cache_reads():
    from qprolate.qbessel import _jv_exp_cached

    info = _jv_exp_cached.cache_info()
    return info.hits + info.misses


@SPECTRUM_TAIL
def test_lattice_cache_reads_per_operation(plan_half, basis12, window):
    # a warm plan's transform reads no lattice table; a translation reads
    # its x row as one table, wherever x lies; pswf_on_window reads one
    # table over the window's points, each point a slice of it
    f = supported_function(window, -3, 10, np.random.default_rng(5))
    before = _cache_reads()
    qp.fqv_transform(f, plan_half)
    assert _cache_reads() == before
    for x_exp in (2, window.n_max + 4, window.n_min - 3):
        before = _cache_reads()
        qp.translate(x_exp, f, plan_half)
        assert _cache_reads() - before == 1
    before = _cache_reads()
    qp.pswf_on_window(basis12, 0, window)
    assert _cache_reads() - before == 1


def test_convolve_zero(plan_half, window):
    rng = np.random.default_rng(67)
    f = supported_function(window, -3, 10, rng)
    z = qp.LatticeFunction.zeros(window)
    out = qp.convolve(f, z, plan_half)
    assert np.abs(out.values).max() <= 1e-12


def test_convolution_theorem(plan_half, window):
    rng = np.random.default_rng(71)
    f = supported_function(window, -3, 10, rng)
    g = supported_function(window, -3, 10, rng)
    conv = qp.convolve(f, g, plan_half)
    lhs = qp.fqv_transform(conv, plan_half)
    ff = qp.fqv_transform(f, plan_half)
    fg = qp.fqv_transform(g, plan_half)
    sel = _measured(window)
    assert np.abs((lhs.values - ff.values * fg.values)[sel]).max() <= 1e-8


@SPECTRUM_TAIL
def test_convolve_routes_agree(plan_half, window):
    rng = np.random.default_rng(73)
    f = supported_function(window, -3, 10, rng)
    g = supported_function(window, -3, 10, rng)
    spectrum = qp.convolve(f, g, plan_half)
    direct = convolve_direct(f, g, plan_half)
    sel = _measured(window)
    assert np.abs((spectrum.values - direct.values)[sel]).max() <= 1e-8


def test_transform_tail_warning_for_slow_decay(plan_half, p_half, window):
    f = qp.LatticeFunction.from_callable(window, lambda x: 1.0 / (1.0 + x * x), p_half.q)
    with pytest.warns(qp.TailWarning):
        qp.fqv_transform(f, plan_half)


def test_transform_no_tail_warning_for_compact_support(plan_half, window):
    f = supported_function(window, -3, 10, np.random.default_rng(47))
    with warnings.catch_warnings():
        warnings.simplefilter("error", qp.TailWarning)
        qp.fqv_transform(f, plan_half)


def _seeded_transform_case(seed):
    """A seeded (q, v, window) and a random function supported on [lo, hi].

    Below hi the window reaches as far as |j_v(q^s)| ~ q^{s^2} needs to
    fall below 1e-20, so that Ff has decayed at its low end; above hi as
    far as the weight q^{n(2v+2)} needs; then up to three more exponents
    on each side.
    """
    rng = np.random.default_rng(seed)
    q, v = float(rng.uniform(0.3, 0.8)), float(rng.uniform(-0.5, 2.0))
    lq = -math.log10(q)
    lo = int(rng.integers(-4, 1))
    hi = lo + int(rng.integers(6, 15))
    n_min = -hi - math.ceil(math.sqrt(20 / lq)) - int(rng.integers(0, 4))
    n_max = hi + math.ceil(20 / ((2 * v + 2) * lq)) + int(rng.integers(0, 4))
    window = qp.LatticeWindow(n_min, n_max)
    return qp.QParams(q, v), window, lo, hi, supported_function(window, lo, hi, rng), rng


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 12, 37])
def test_seeded_transform_properties(seed):
    # involution and isometry at the tolerances of test_involution and
    # test_plancherel.  Ff at four random points against the mp oracle,
    # relative to the sum of the terms' magnitudes, since a random point
    # may lie near a zero of Ff.  A kept float kernel value may carry
    # ~1e-10 relative error (peak terms up to 1e6 |value|), more than the
    # 1e-11 that test_transform_vs_mp_oracle's points at q = 1/2 meet:
    # seeds 12 and 37, the worst of the first 40, reach 9.1e-11 and
    # 1.2e-11 of the sum through j_v(q^-2) at q = 0.425 and j_v(q^-3) at
    # q = 0.652.  So the bound is 2e-10 of the sum.
    p, window, lo, hi, f, rng = _seeded_transform_case(seed)
    plan = qp.make_plan(window, p)
    ff = qp.fqv_transform(f, plan)
    exps = window.exponents()
    sel = (exps >= lo) & (exps <= hi)
    assert np.abs((qp.fqv_transform(ff, plan).values - f.values)[sel]).max() <= 1e-8
    nf = qp.norm_lqpv(f, 2.0, p)
    assert abs(nf - qp.norm_lqpv(ff, 2.0, p)) <= 1e-8 * nf
    support, values = exps[sel], f.values[sel]
    for m in (int(x) for x in rng.choice(exps, 4, replace=False)):
        # the oracle's digits cover the peak term ~ q^{-s^2} and a value as
        # small as q^{s^2} at the deepest argument s = m + lo
        dps = 40 + int(2 * min(m + lo, 0) ** 2 * -math.log10(p.q))
        want = float(transform_point(support, values, m, p.q, p.v, dps=dps))
        scale = p.c_qv * (1 - p.q) * sum(
            abs(p.q ** (int(n) * (2 * p.v + 2)) * x * qp.jv_at_exponent(m + int(n), p))
            for n, x in zip(support, values)
        )
        assert abs(ff.value_at_exp(m) - want) <= 2e-10 * scale + 1e-250, m
