import math

import mpmath as mp
import numpy as np
import pytest

import qprolate as qp
from _oracles import jv_lattice, jv_series, product_integral, qpoch
from conftest import closed_form
from qprolate import qbessel, qcalc


def _peak(z, q, v):
    """The largest term of the float pass at z (inf where a term
    overflowed), as ``jv_array`` judges it."""
    return float(qbessel._series_float(np.array([z * z]), q, v)[1][0])


def test_jv_at_zero():
    for q, v in [(0.5, 0.0), (0.3, -0.5), (0.8, 1.5)]:
        assert qp.jv_array(0.0, qp.QParams(q, v)) == 1.0
        assert _peak(0.0, q, v) == 1.0


def test_jv_frozen_values():
    # frozen from the 30-digit series oracle
    assert qp.jv_array(1.0, qp.QParams(0.5, 0.0)) == pytest.approx(0.5866528696112797, rel=1e-13)
    # q^{-3} at v = -1/2: mild cancellation, float path still in charge
    val = qp.jv_array(8.0, qp.QParams(0.5, -0.5))
    assert val == pytest.approx(-0.004584129647814683, rel=1e-9)
    peak = _peak(8.0, 0.5, -0.5)
    assert peak > 1.0
    assert not qbessel._needs_refinement(val, peak)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("v", [-0.5, 0.0, 1.5])
def test_jv_vs_oracle(q, v):
    p = qp.QParams(q, v)
    for z in [0.01, 0.3, 1.0, 2.0, q**-2, q**-4]:
        want = float(jv_series(z, q, v, dps=60))
        got = qp.jv_array(z, p)
        assert got == pytest.approx(want, rel=2e-9, abs=1e-280), f"z={z}"


def test_jv_deep_lattice_matches_oracle():
    # far into the cancellation regime: the mp fallback must hold absolute
    # accuracy that the float series cannot
    p = qp.QParams(0.5, -0.5)
    for s in (-6, -10, -14):
        want = float(jv_series(0.5**s, 0.5, -0.5, dps=300))
        got = qp.jv_at_exponent(s, p)
        assert got == pytest.approx(want, rel=1e-12), f"s={s}"


def _log10_peak(s, q, v):
    """log10 of the largest term of the j_v series at z = q^s."""
    acc = best = 0.0
    n = 0
    while acc > best - 20:
        n += 1
        acc += 2 * (n + s) * math.log10(q) - math.log10(
            (1 - q ** (2 * n)) * (1 - q ** (2 * v + 2 * n))
        )
        best = max(best, acc)
    return best


@pytest.mark.parametrize(
    "q, v, exps",
    [
        (0.05, -0.5, (-30, -16, -15, -1, 3)),
        (0.05, 3.0, (-5, -4)),
        (0.2, 3.0, (-12, -5)),
        (0.5, 3.0, (-11,)),
        (0.7, 1.5, (-10, -4, 1)),
        (0.9, -0.9, (-6,)),
        (0.97, -0.5, (-30, 0)),
    ],
)
def test_jv_at_exponent_grid_vs_oracle(q, v, exps):
    # Each lattice value comes from the q-difference equation and is the
    # exact point's value correctly rounded: it lies within one ulp of the
    # oracle, or, at a near-zero (below 1e-3 of its larger neighbour),
    # within 1e-15 of that neighbour.  The oracle runs at
    # ``_oracle_digits`` for the largest of the package's three values and
    # the peak term at s - 1: then it resolves 40 digits of any scale it
    # could be confused with, so agreement cannot come from both being
    # wrong.  At q = 0.05, s <= -16 the value lies below the float range
    # and is +0.0.
    p = qp.QParams(q, v)
    for s in exps:
        got = [qp.jv_at_exponent(t, p) for t in (s - 1, s, s + 1)]
        dps = _oracle_digits(s - 1, q, v, max(abs(x) for x in got))
        with mp.workdps(dps):
            ref = [jv_series(mp.mpf(q) ** t, q, v, dps) for t in (s - 1, s, s + 1)]
        want, near = float(ref[1]), float(max(abs(ref[0]), abs(ref[2])))
        err = abs(got[1] - want)
        if abs(want) < 1e-3 * near:
            assert err <= 1e-15 * near, f"s={s}"
        else:
            assert err <= math.ulp(want), f"s={s}"


def test_jv_cancellation_flag():
    # more than 12 digits cancel in the float pass
    val = qp.jv_array(0.5**-10, qp.QParams(0.5, -0.5))
    assert _peak(0.5**-10, 0.5, -0.5) > 1e12 * abs(val)
    # value still accurate thanks to the refinement
    want = float(jv_series(0.5**-10, 0.5, -0.5, dps=200))
    assert val == pytest.approx(want, rel=1e-12)


def test_jv_cancellation_flag_at_overflowing_peak():
    # the peak term overflows to inf while the refined value is near the
    # float limit, where 1e12 |value| and 1e6 |value| would overflow too
    p = qp.QParams(0.05, -0.5)
    z = 0.05**-16
    val = qp.jv_array(z, p)
    assert _peak(z, p.q, p.v) == np.inf
    want = float(jv_series(z, p.q, p.v, dps=400))  # 3.2639e296
    assert val == pytest.approx(want, rel=1e-14)
    assert qbessel._needs_refinement(val, np.inf)


def test_jv_beyond_float_range_raises():
    # j_{-1/2}(100) at q = 0.99 is 6.68e878; the float pass overflows
    with pytest.raises(OverflowError):
        qp.jv_array(100.0, qp.QParams(0.99, -0.5))
    with pytest.raises(OverflowError):
        qp.jv_array(np.array([1.0, 100.0]), qp.QParams(0.99, -0.5))


def test_power_kept_at_more_digits_rounds_into_fewer():
    # q^{2v+2} at 45 or 60 digits is the power with the exact exponent,
    # formed 20 digits past them and rounded, whether or not it was asked
    # for at 600 digits before; below the 51-54 digits of 2v+2 a power
    # formed with the exponent rounded to the context differs
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal

    def ctx(d):
        return Context(prec=d, Emax=MAX_EMAX, Emin=MIN_EMIN)

    for q, v in [(0.5, 1.7), (0.3, 0.25), (0.9, -0.8), (0.7, -0.95), (0.2, 0.7)]:
        exact = ctx(300).power(Decimal(q), ctx(300).fma(2, Decimal(v), 2))
        for d in (45, 60):
            qcalc.qv_power.cache_clear()
            fresh = qcalc.qv_power(q, v, d)
            qcalc.qv_power(q, v, 600)
            assert qcalc.qv_power(q, v, d) == fresh == ctx(d).plus(exact)
    e = ctx(45).add(ctx(45).multiply(2, Decimal(0.7)), 2)
    assert ctx(45).power(Decimal(0.2), e) != ctx(45).plus(exact)
    # an integer 2v+2 is a plain product at the asked digits
    assert qcalc.qv_power(0.5, -0.5, 600) == Decimal(0.5)
    assert qcalc.qv_power(0.5, 0.0, 600) == Decimal(0.25)


def test_refined_values_do_not_depend_on_earlier_refinements(monkeypatch):
    # non-lattice values refined at fewer digits than 2v+2 has are the
    # same before and after a deep refinement at the same (q, v) forms
    # q^{2v+2} at many more digits
    digits = []
    real = qbessel._series_decimal

    def counted(z, q, v, ctx):
        digits.append(ctx.prec)
        return real(z, q, v, ctx)

    monkeypatch.setattr(qbessel, "_series_decimal", counted)
    p, z = qp.QParams(0.9, 0.3), np.geomspace(1.5, 3000.0, 100)
    qcalc.qv_power.cache_clear()
    before = qp.jv_array(z, p)
    assert sum(d < 52 for d in digits) >= 10
    qp.jv_array(5000.0, p)  # refined at 340 digits
    assert max(digits) >= 340
    assert np.array_equal(qp.jv_array(z, p), before)


@pytest.mark.parametrize("q, v", [(0.05, 10.0), (0.01, 7.0)])
def test_negative_lattice_exponents_at_large_order(q, v):
    # at large v, jv_bound(s) overstates |j_v(q^s)| by up to q^{2(2v+1)s},
    # more than the peak term itself; the lattice value is still the one
    # a 1000-digit sum at the exact point gives
    for s in range(-10, 0):
        want = float(jv_lattice(q, v, s, 1000))
        got = qp.jv_at_exponent(s, qp.QParams(q, v))
        assert math.isfinite(got) and got == want, (s, got, want)


def test_arguments_whose_square_overflows_raise_overflow_error():
    # the float pass squares z, which overflows above about 1.34e154; the
    # named OverflowError must come first, not numpy's overflow warning
    import warnings

    p = qp.QParams(0.5, -0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="1e\\+160"):
            qp.jv_array(1e160, p)
        with pytest.raises(OverflowError):
            qp.jv_array(np.array([1.0, -1e200]), p)
        with pytest.raises(OverflowError):
            qp.kernel(1e200, 1e200, qp.Bandlimit(0, 60), p)


def test_jv_even_in_z():
    p = qp.QParams(0.5, 0.0)
    for z in (0.7, 3.0):
        assert qp.jv_array(z, p) == qp.jv_array(-z, p)


@pytest.mark.parametrize("q, v, z", [(0.5, 0.0, 1.7), (0.8, 1.5, 2.3), (0.3, -0.5, 0.9)])
def test_jv_float_pass_vs_oracle(q, v, z):
    # points where the float pass is kept: its truncation at the fixed
    # tolerance stays within the oracle bound
    val = qp.jv_array(z, qp.QParams(q, v))
    assert not qbessel._needs_refinement(val, _peak(z, q, v))
    want = float(jv_series(z, q, v, dps=60))
    assert val == pytest.approx(want, rel=1e-9)


def _reconstruct_z_grid(q):
    """The z grid of ``qprolate reconstruct``: 200 points uniform on
    [q^10, q^-1] and the lattice points of that span."""
    dense = np.linspace(q**10, q**-1, 200)
    return np.unique(np.concatenate([dense, [q ** float(n) for n in range(-1, 11)]]))


def test_jv_array_matches_scalar():
    # each element of a batch stops on its own, so it is bit for bit the
    # value of a lone evaluation
    p = qp.QParams(0.5, -0.5)
    zs = np.array([0.0, 0.2, 1.0, 4.0, 16.0, 1024.0])
    assert np.array_equal(qp.jv_array(zs, p), [qp.jv_array(float(z), p) for z in zs])
    # the z-side arguments of the reconstruct kernel at q = 0.9, v = -1/2,
    # a_exp 0..-2, where a float pass stopped with its batch would differ
    # from a lone one by up to 3.1e-9 relative
    q = 0.9
    zs = _reconstruct_z_grid(q)
    for a_exp in (0, -1, -2):
        a = q ** float(a_exp)
        for z, v in ((a * zs, 0.5), (a * zs / q, -0.5)):
            p = qp.QParams(q, v)
            assert np.array_equal(qp.jv_array(z, p), [qp.jv_array(float(x), p) for x in z])


def _float_pass_loop(z, q, v, eps):
    """The float pass as a scalar loop, with the arithmetic of
    ``qbessel._series_float`` term for term; returns (sum, peak)."""
    q2, qv = q * q, q ** (2.0 * v + 2.0)
    term, total, peak, n = 1.0, 0.0, 0.0, 0
    while n < 2000:
        total += term
        peak = max(peak, abs(term))
        nxt = -term * (q2 ** (n + 1) * (z * z) / ((1.0 - q2 ** (n + 1)) * (1.0 - qv * q2**n)))
        n += 1
        if not math.isfinite(nxt):
            return total, math.inf
        if abs(nxt) <= eps * abs(total) and abs(nxt) <= abs(term):
            return total, peak
        term = nxt
    return total, peak


@pytest.mark.parametrize("q, v", [(0.5, -0.5), (0.9, 0.5), (0.99, -0.5), (0.05, 3.0)])
def test_float_pass_matches_scalar_loop(q, v):
    # the batched kernel, which drops each element from the batch as it
    # stops, gives every element the scalar loop's sum and peak (inf where
    # a term overflowed: q = 0.99, z = 100)
    z = np.concatenate([[0.0, 100.0], np.geomspace(1e-3, q**-12, 60)])
    sums, peaks = qbessel._series_float(z * z, q, v)
    want = [_float_pass_loop(float(x), q, v, 1e-14) for x in z]
    assert list(zip(sums.tolist(), peaks.tolist())) == want


def test_batch_size_does_not_change_an_element():
    # a scalar, 0-d or not, gives a Python float, and a 1-D or 2-D batch an
    # array of its shape; every element is its lone evaluation, bit for bit
    p = qp.QParams(0.9, -0.5)
    z = np.geomspace(1e-3, 0.9**-8, 200)
    whole = qp.jv_array(z, p)
    assert whole.shape == (200,)
    for i in range(0, 200, 7):
        assert qp.jv_array(z[i : i + 1], p)[0] == whole[i]
        for scalar in (float(z[i]), z[i], np.array(z[i])):
            alone = qp.jv_array(scalar, p)
            assert type(alone) is float and alone == whole[i]
    square = qp.jv_array(z.reshape(20, 10), p)
    assert square.shape == (20, 10)
    assert np.array_equal(square.reshape(-1), whole)


@pytest.mark.parametrize("q, v", [(0.5, -0.5), (0.9, 0.5), (0.3, 1.7), (0.7, -0.9)])
def test_jv_at_exponent_is_jv_at_the_lattice_point(q, v):
    # every lattice value comes from the q-difference equation and is the
    # exact point's value correctly rounded, where the float pass at the
    # rounded point errs by up to 1e-10 relative at s < 0
    p = qp.QParams(q, v)
    for s in range(-12, 40):
        got = qp.jv_at_exponent(s, p)
        assert got == float(jv_lattice(q, v, s, _oracle_digits(s, q, v, got))), s


def _oracle_digits(s, q, v, value):
    """Digits at which ``jv_lattice`` resolves j_v(q^s) to 40 digits: the
    peak term's over ``value`` (at least the float floor), plus, as a
    margin, the denominators' (q^2;q^2)_inf (q^{2v+2};q^2)_inf, which near
    q = 1 reach 1e-15."""
    den = sum(
        math.log10((1 - q ** (2 * k + 2)) * (1 - q ** (2 * v + 2 * k + 2))) for k in range(2000)
    )
    floor = math.log10(max(abs(value), np.finfo(float).tiny))
    return int(_log10_peak(s, q, v) - floor - den) + 40


def test_lattice_recurrence_vs_exact_point_oracle():
    # seeded draws over q 0.05-0.95, v -0.99..3, s -40..120, and a few at
    # q 0.97-0.995, kept where the oracle needs at most 1,500 digits: each
    # value lies within one ulp of the series summed at the exact point
    # q^s, or, at a near-zero (below 1e-3 of its larger neighbour), within
    # 1e-15 of that neighbour (0 ulps on all of them, and on 560 more draws
    # over q 0.05-0.995, when this was written)
    rng = np.random.default_rng(2606)
    checked = 0
    while checked < 48:
        q = rng.uniform(0.97, 0.995) if checked % 8 == 7 else rng.uniform(0.05, 0.95)
        v, s = rng.uniform(-0.99, 3.0), int(rng.integers(-40, 121))
        p = qp.QParams(q, v)
        got = [qp.jv_at_exponent(t, p) for t in (s - 1, s, s + 1)]
        dps = _oracle_digits(s, q, v, got[1])
        if dps > 1500:
            continue
        want = float(jv_lattice(q, v, s, dps))
        err, near = abs(got[1] - want), max(abs(got[0]), abs(got[2]))
        if abs(want) < 1e-3 * near:
            assert err <= 1e-15 * near, (q, v, s, got, want)
        else:
            assert err <= math.ulp(want), (q, v, s, got, want)
        checked += 1


@pytest.mark.parametrize("q, v", [(0.5, 0.5), (0.05, 0.7), (0.3, 1.7), (0.95, -0.1), (0.99, 0.0)])
def test_cold_lattice_table_sums_no_series(monkeypatch, q, v):
    # a cold s = -30..120 table, at either order, as a cold (-15, 60) plan
    # reads, calls no series, in float or in decimal: every lattice value
    # comes from the q-difference equation
    def series(*args):
        raise AssertionError("a lattice-cache miss summed a series")

    for name in ("_series_float", "_series_refined", "_series_decimal"):
        monkeypatch.setattr(qbessel, name, series)
    qbessel._jv_exp_cached.cache_clear()
    p = qp.QParams(q, v)
    qbessel.lattice_table(p, -30, 120)
    qbessel.lattice_table(p, -30, 120, v + 1.0)
    # so do deep tables: at q = 0.99 the y-side tables of a reconstruct at
    # a_exp = -460 lie near 1e-880, and each value rounds to +0.0
    for table in (
        qbessel.lattice_table(qp.QParams(0.05, 0.7), -40, -25),
        qbessel.lattice_table(qp.QParams(0.99, 0.5), -470, -420, 1.5),
        qbessel.lattice_table(qp.QParams(0.99, 0.5), -471, -421),
    ):
        assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in table)
    # below v = -1/2 the paper's form C q^{s^2 + (2v+1) s} of the bound
    # lies 40 digits under this subnormal value
    assert qp.jv_at_exponent(-16, qp.QParams(0.05, -0.99)) == 3.74033201837e-312


def test_lattice_cache_computes_its_misses_in_one_call(monkeypatch):
    # a cold table is one recurrence call over its exponents, and a repeat
    # read of the same table makes none
    calls = []
    real = qbessel._lattice_recurrence

    def counted(q, v, exps):
        calls.append(list(exps))
        return real(q, v, exps)

    monkeypatch.setattr(qbessel, "_lattice_recurrence", counted)
    qbessel._jv_exp_cached.cache_clear()
    p = qp.QParams(0.7, 0.3)
    first = qbessel.lattice_table(p, 0, 10)
    qbessel.lattice_table(p, -5, 15)
    again = qbessel.lattice_table(p, 0, 10)
    qbessel.lattice_table(p, -5, 15)
    assert calls == [list(range(0, 11)), list(range(-5, 16))]
    assert np.array_equal(first, again)


@pytest.mark.parametrize("q, v", [(0.05, -0.99), (0.5, 0.0), (0.9, 2.0), (0.95, -0.5)])
def test_lattice_values_at_and_past_the_top_exponent(q, v):
    # the recurrence sets j_v(q^T) = 1 at the least T where the series'
    # second term c_1 q^{2T} falls below 1e-40 (T = 15..949 here);
    # around it every value is the exact point's, and far past it 1.0
    p = qp.QParams(q, v)
    c1 = q * q / ((1 - q * q) * (1 - q ** (2 * v + 2)))
    top = math.floor(math.log(c1 * 1e40) / (-2 * math.log(q))) + 1
    for s in (top // 2, top - 1, top, top + 1):
        got = qp.jv_at_exponent(s, p)
        assert got == float(jv_lattice(q, v, s, 60)), s
    assert qp.jv_at_exponent(10**9, p) == 1.0


@pytest.mark.parametrize("q, v", [(0.5, -0.5), (0.3, 1.7), (0.8, -0.1), (0.95, 0.5), (0.99, -0.9)])
def test_lattice_value_does_not_depend_on_its_table(monkeypatch, q, v):
    # a value at s, on both sides of 0, is the same read alone, inside a
    # table from s - 40, or after a deeper table filled the cache, and with
    # the ratios started twice as deep: for v < 0 the values at s > 0 also
    # run down over ratios started below the table's lowest exponent
    p = qp.QParams(q, v)
    exps = range(-25, 40, 3)
    alone, within = [], []
    for s in exps:
        qbessel._jv_exp_cached.cache_clear()
        alone.append(qp.jv_at_exponent(s, p))
        qbessel._jv_exp_cached.cache_clear()
        within.append(qbessel.lattice_table(p, s - 40, s)[-1])
    qbessel._jv_exp_cached.cache_clear()
    qbessel.lattice_table(p, -80, -30)
    after = [qp.jv_at_exponent(s, p) for s in exps]
    monkeypatch.setattr(qbessel, "_RATIO_DEPTH", 2 * qbessel._RATIO_DEPTH)
    qbessel._jv_exp_cached.cache_clear()
    deeper = qbessel.lattice_table(p, -25, 38)[::3].tolist()
    assert alone == within == after == deeper


def test_lattice_reads_from_four_threads():
    # four threads read distinct tables and single values, twice over, in
    # all more tables than the memo holds, so that it evicts while they
    # run, with the interpreter switching threads every microsecond: none
    # raises, and every value is the one a single-threaded read gives
    import sys
    import threading

    params = [qp.QParams(q, 0.5) for q in (0.3, 0.5, 0.7, 0.8)]
    count = qbessel._jv_exp_cached.cache_info().maxsize // len(params) + 20

    def reads(p):
        return [qbessel.lattice_table(p, -26 - k, 120 - k).tolist() for k in range(0, 40, 4)] + [
            qp.jv_at_exponent(s, p) for s in range(-26, count - 26)
        ]

    qbessel._jv_exp_cached.cache_clear()
    want = [reads(p) for p in params]
    got, errors = [[] for _ in params], []

    def run(i):
        try:
            for _ in range(2):
                got[i].append(reads(params[i]))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(params))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert got == [[w] * 2 for w in want]


def test_jv_bound_branches():
    p = qp.QParams(0.5, 0.0)
    c = qp.jv_bound(0, p)
    # the n >= 0 branch is the bare constant
    assert qp.jv_bound(5, p) == c
    want = float(
        qpoch(-0.25, 0.25, None, 50)
        * qpoch(-0.25, 0.25, None, 50)
        / qpoch(0.25, 0.25, None, 50)
    )
    assert c == pytest.approx(want, rel=1e-12)
    # n = -2, v = 0: exponent n^2 + (2v+1)n = 2
    assert qp.jv_bound(-2, p) == pytest.approx(c * 0.25, rel=1e-14)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99])
def test_jv_bound_constant_vs_oracle(q):
    # C = (-q^2;q^2)_inf (-q^{2v+2};q^2)_inf / (q^{2v+2};q^2)_inf, from
    # Euler's series at 20 digits and rounded once (at most 0.497 ulp off
    # on these and at q = 0.995); the oracle's products run at 40 digits
    for v in (-0.5, 0.0, 1.7):
        with mp.workdps(40):
            x, a = mp.mpf(q) ** 2, mp.mpf(q) ** (2 * mp.mpf(v) + 2)
            want = qpoch(-x, x, None, 40) * qpoch(-a, x, None, 40) / qpoch(a, x, None, 40)
        got = qp.jv_bound(0, qp.QParams(q, v))
        assert abs(mp.mpf(got) - want) <= math.ulp(got), (q, v)


def test_jv_bound_below_zero_takes_the_exact_exponent():
    # C q^{n^2 - |(2v+1) n|} correctly rounded at n < 0 on seeded draws;
    # with the exponent rounded in float it was off by up to 466 ulps at
    # n = -20 (1.1e-13 of an exponent near 850 moves the power that much)
    rng = np.random.default_rng(35)
    for _ in range(40):
        q, v = float(rng.uniform(0.05, 0.95)), float(rng.uniform(-0.95, 3.0))
        with mp.workdps(50):
            qm, vm = mp.mpf(q), mp.mpf(v)
            x, a = qm * qm, qm ** (2 * vm + 2)
            c = qpoch(-x, x, None, 50) * qpoch(-a, x, None, 50) / qpoch(a, x, None, 50)
            for n in (-1, -3, -8, -20):
                got = qp.jv_bound(n, qp.QParams(q, v))
                want = c * qm ** (n * n - abs((2 * vm + 1) * n))
                assert abs(mp.mpf(got) - want) <= mp.mpf(math.ulp(got)) / 2, (q, v, n)


@pytest.mark.parametrize("q, v", [(0.998, 0.0), (0.9995, 1.0)])
def test_jv_bound_beyond_the_float_range_raises(q, v):
    # the float products returned inf at (0.998, 0) and divided by a
    # (q^4; q^2)_inf that underflowed to 0.0 at (0.9995, 1)
    with pytest.raises(OverflowError, match=rf"jv_bound\(n=0, q={q!r}, v={v!r}\) = "):
        qp.jv_bound(0, qp.QParams(q, v))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("v", [-0.9, -0.5, 0.0, 1.5, 3.0])
def test_bound_inequality_on_lattice(q, v):
    p = qp.QParams(q, v)
    for n in range(-6, 21):
        assert abs(qp.jv_at_exponent(n, p)) <= qp.jv_bound(n, p) + 1e-12, f"n={n}"


def test_product_integral_closed_vs_direct_frozen():
    p = qp.QParams(0.5, 0.0)
    closed, separated = closed_form(1.0, 0.5, 0, p)
    assert separated
    direct = qp.product_integral_direct(1.0, 0.5, 0, p, depth=300)
    # frozen from the 60-digit Jackson-sum oracle
    assert direct == pytest.approx(0.4101087087025178, rel=1e-12)
    assert abs(closed - direct) / (1.0 + abs(direct)) <= 1e-9


def test_product_integral_against_mp_oracle():
    q, v = 0.5, 0.0
    p = qp.QParams(q, v)
    y, z, a_exp = q**-1, q**2, 2
    want = float(product_integral(y, z, a_exp, q, v, depth=200, dps=50))
    assert qp.product_integral_direct(y, z, a_exp, p, depth=200) == pytest.approx(
        want, rel=1e-11
    )
    closed, separated = closed_form(y, z, a_exp, p)
    assert separated
    assert closed == pytest.approx(want, rel=1e-9)


def test_product_integral_random_pairs(p_half):
    rng = np.random.default_rng(29)
    q = p_half.q
    for _ in range(20):
        y, z = np.exp(rng.uniform(np.log(q**4), np.log(q**-2), size=2))
        if abs(y * y - z * z) <= 1e-3 * max(y * y, z * z):
            continue
        closed, separated = closed_form(float(y), float(z), 0, p_half)
        assert separated
        direct = qp.product_integral_direct(float(y), float(z), 0, p_half, depth=300)
        assert abs(closed - direct) / (1.0 + abs(direct)) <= 1e-9


def test_product_integral_degenerate():
    p = qp.QParams(0.5, 0.0)
    assert closed_form(0.7, 0.7, 0, p)[1] is False
    assert closed_form(0.7, 0.7 * (1 + 1e-11), 0, p)[1] is False


def test_product_integral_direct_depth_doubling():
    p = qp.QParams(0.5, 0.0)
    d200 = qp.product_integral_direct(1.0, 0.5, 0, p, depth=200)
    d400 = qp.product_integral_direct(1.0, 0.5, 0, p, depth=400)
    assert d200 == pytest.approx(d400, rel=1e-12)
    # equal arguments are fine on the direct route
    e200 = qp.product_integral_direct(1.0, 1.0, 0, p, depth=200)
    e400 = qp.product_integral_direct(1.0, 1.0, 0, p, depth=400)
    assert e200 == pytest.approx(e400, rel=1e-12)


def test_product_integral_vanishing_prefactor():
    # a -> 0 kills the integral through the a^{2v+2} prefactor
    p = qp.QParams(0.5, -0.5)
    assert abs(qp.product_integral_direct(1.0, 0.5, 45, p, depth=50)) < 1e-12


def test_product_integral_depth_validation():
    with pytest.raises(ValueError):
        qp.product_integral_direct(1.0, 0.5, 0, qp.QParams(0.5, 0.0), depth=0)


def test_closed_form_pairing_as_printed():
    # the y^2 term must carry j_v(a q^-1 z): swapping the pairing breaks
    # the identity at O(1), confirming the closed form as printed
    p = qp.QParams(0.5, 0.0)
    y, z, a = 1.0, 0.5, 1.0
    pref = (1 - p.q) / (1 - p.q**2) * 1.0
    swapped = (
        pref
        * (
            y * y * qp.jv_array(a * y, p, 1.0) * qp.jv_array(a * y / p.q, p, 0.0)
            - z * z * qp.jv_array(a * z, p, 1.0) * qp.jv_array(a * z / p.q, p, 0.0)
        )
        / (y * y - z * z)
    )
    direct = qp.product_integral_direct(y, z, 0, p, depth=300)
    assert abs(swapped - direct) / (1.0 + abs(direct)) > 1e-3


@pytest.mark.parametrize("z", [float("nan"), float("inf"), -float("inf")])
def test_jv_rejects_non_finite(z):
    p = qp.QParams(0.5, -0.5)
    with pytest.raises(ValueError):
        qp.jv_array(z, p)
    with pytest.raises(ValueError):
        qp.jv_array(np.array([0.5, z, 2.0]), p)
    with pytest.raises(ValueError):
        qp.kernel(z, 0.7, qp.Bandlimit(0, 60), p)
