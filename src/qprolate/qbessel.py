"""Normalized Hahn-Exton q-Bessel function j_v(z, q^2) and related identities.

The series sum_n (-1)^n q^{n(n+1)} z^{2n} / ((q^2;q^2)_n (q^{2v+2};q^2)_n)
is entire, but for large z its terms grow to a huge peak before the
q^{n(n+1)} decay wins, so the alternating sum cancels catastrophically in
double precision.  Evaluation therefore runs a fast float pass first,
``_series_float`` over a batch of arguments, each of which stops at the
first term that does not grow and lies at most EPS |partial sum|.  It
transparently reruns the same series in the standard library's decimal
arithmetic (libmpdec), with enough digits, for each element whose peak
term dwarfs the result or whose float pass overflowed.  ``jv`` (a batch
of one), ``jv_array`` and the lattice cache behind ``jv_at_exponent`` and
``lattice_table`` share that one float-then-refine step, so an element's
value does not depend on the batch it came in.  A kept float pass is good
to about 1e-10 relative: its peak may reach 1e6 |value|.  A value beyond
the float range raises OverflowError; one below it is 0.0.

The product integral int_0^a j_v(yt) j_v(zt) t^{2v+1} d_q t is, up to
c_qv^2, the reproducing kernel of the q-Paley-Wiener space.  Its closed
form is ``product_integral_quotient``, broadcast over y and z, which
reports where y^2 and z^2 lie too close for it; its Jackson sum is
``product_integral_direct``, the brute-force twin.  ``sampling.kernel``
is the one place that chooses between them.  Also implements the
lattice growth bound.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext

import numpy as np

from .qcalc import EPS, LatticeWindow, QParams, lattice_points, lattice_weights, qpochhammer

# Above this peak-to-value ratio the float series has lost ~6 digits to
# cancellation and the decimal rerun takes over.
_REFINE_RATIO = 1e6
_MAX_TERMS = 2000
# log10 of 2^-1075: a value below it rounds to zero in float64
_LOG10_ROUNDS_TO_ZERO = -1075 * math.log10(2.0)


@dataclass
class BesselEvalReport:
    """Series evaluation result with cancellation diagnostics.

    ``cancellation_flag`` is set when the largest term encountered
    exceeds 1e12 |value|, i.e. more than ~12 digits cancelled.
    """

    value: float
    terms_used: int
    max_term_magnitude: float
    cancellation_flag: bool


def _series_float(z2: np.ndarray, q: float, v: float):
    """One float pass of the series at each z^2 of the 1-D ``z2``; returns
    per-element (sums, terms, peaks).

    An element stops at the first term that does not grow and lies at most
    EPS |partial sum|, which it leaves out; the terms rise to one peak and
    then fall, so no element stops before its peak.  A term that overflows
    stops its element with peak inf.  A stopped element leaves the active
    set, so its result is the one a batch of that element alone gives.
    """
    q2 = q * q
    qv = q ** (2.0 * v + 2.0)
    sums, peaks = np.empty(z2.size), np.empty(z2.size)
    terms = np.empty(z2.size, dtype=int)
    live, x2 = np.arange(z2.size), z2
    term, total, peak = np.ones(z2.size), np.zeros(z2.size), np.zeros(z2.size)
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and n < _MAX_TERMS:
            total = total + term
            at = np.abs(term)
            peak = np.maximum(peak, at)
            nxt = -term * (q2 ** (n + 1) * x2 / ((1.0 - q2 ** (n + 1)) * (1.0 - qv * q2**n)))
            n += 1
            an = np.abs(nxt)
            over = ~np.isfinite(nxt)
            stop = over | ((an <= EPS * np.abs(total)) & (an <= at))
            if stop.any():
                done = live[stop]
                sums[done], terms[done] = total[stop], n
                peaks[done] = np.where(over[stop], np.inf, peak[stop])
                go = ~stop
                live, x2, total, peak, nxt = live[go], x2[go], total[go], peak[go], nxt[go]
            term = nxt
    sums[live], terms[live], peaks[live] = total, n, peak
    return sums, terms, peaks


# (q, v) -> (digits, q^{2v+2} at those digits), for non-integer 2v+2
_QV_POWERS: dict[tuple[float, float], tuple[int, Decimal]] = {}
# forms 2v + 2 without rounding, whatever the digits of the float v
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _qv_power(q: float, v: float, ctx: Context) -> Decimal:
    """q^{2v+2} at the working precision of ``ctx``.

    A non-integer power costs libmpdec an exp and a log (13 ms at 560
    digits, 57 ms at 1,090), so it is kept per (q, v) and rounded into
    each context; a plan refines its deepest, most costly values first, so
    it takes about one power.  The exponent is exact, and the kept power
    carries at least 20 digits past any context it is rounded into.  So
    the rounded value does not depend on the digits it was kept at, and
    no series on which refinements ran before it, unless q^{2v+2} lies
    within 10^-20 units of a rounding tie.  An integer 2v+2 (v = -1/2, 0,
    ...) is a plain product, formed each time.
    """
    e = _EXACT.fma(2, Decimal(v), 2)
    if e == e.to_integral_value():
        return ctx.power(Decimal(q), e)
    digits, value = _QV_POWERS.get((q, v), (0, None))
    if digits < ctx.prec + 20:
        if len(_QV_POWERS) >= 256:
            _QV_POWERS.clear()
        digits = ctx.prec + 20
        value = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN).power(Decimal(q), e)
        _QV_POWERS[q, v] = digits, value
    return ctx.plus(value)


def _series_decimal(z, q: float, v: float, ctx: Context, s: int | None = None):
    """Series at the working precision of ``ctx``; returns (sum, max_term)
    as Decimals.  The argument is the float z, converted exactly, or, given
    a lattice exponent s, the power q^s formed at that precision, so deep
    negative exponents stay consistent."""
    with localcontext(ctx):
        qd = Decimal(q)
        x = qd**s if s is not None else Decimal(z)
        z2 = x * x
        q2 = qd * qd
        qv = _qv_power(q, v, ctx)
        term = Decimal(1)
        total = Decimal(0)
        max_term = Decimal(0)
        floor = Decimal(1).scaleb(-ctx.prec)
        q2n = Decimal(1)  # q2**n
        while True:
            total += term
            at = abs(term)
            if at > max_term:
                max_term = at
            q2n1 = q2n * q2
            nxt = -term * (q2n1 * z2 / ((1 - q2n1) * (1 - qv * q2n)))
            q2n = q2n1
            if abs(nxt) < floor * max(1, max_term) and abs(nxt) <= at:
                return total, max_term
            term = nxt


def _series_refined(z, q: float, v: float, max_term_hint: float, s: int | None = None) -> float:
    """Decimal evaluation with digits escalated until the sum is resolved.

    Starts at 40 digits past the float pass's peak term (200 when it
    overflowed) and doubles until at least 18 digits survive the
    cancellation.  At a lattice exponent s < 0 the value can lie far below
    1.  There the start rises to 50 digits past the peak's ratio to
    ``jv_bound(s)``, and to 28 past its ratio to C q^{s^2 - (2v+1) s},
    C = ``jv_bound(0)``, when either is more.  That last is where
    |j_v(q^s)| lies: 0 to 15 digits below it for q 0.05-0.95, v -0.95..10,
    s -40..-1; for v > -1/2 the bound's q^{s^2 + (2v+1) s} overstates it
    by q^{2 (2v+1) s}, and below -1/2 the two coincide.  Where
    ``jv_bound(s)`` lies below 2^-1075, the value rounds to +0.0 and no
    series is summed.  Raises OverflowError when the resolved value lies
    beyond the float range.
    """
    if s is not None and s < 0:
        # in logs, since the bound underflows at deep s
        log_c, lq = math.log10(jv_bound(0, QParams(q, v))), math.log10(q)
        if log_c + _bound_exponent(s, v) * lq < _LOG10_ROUNDS_TO_ZERO:
            return 0.0
    if math.isfinite(max_term_hint) and max_term_hint > 0:
        peak = math.log10(max_term_hint)
        dps = 40 + int(peak)
        if s is not None and s < 0:
            dps = max(dps, 50 + int(peak - log_c - _bound_exponent(s, v) * lq),
                      28 + int(peak - log_c - (s * s - (2.0 * v + 1.0) * s) * lq))
    else:
        dps = 200
    while True:
        ctx = Context(prec=dps, Emax=MAX_EMAX, Emin=MIN_EMIN)
        total, max_term = _series_decimal(z, q, v, ctx, s)
        if total == 0 or max_term.scaleb(18 - dps, ctx) < total.copy_abs():
            value = float(total)
            if math.isinf(value):
                arg = f"q^{s}" if s is not None else repr(z)
                raise OverflowError(f"j_{v}({arg}) = {total:.6e} lies beyond the float range")
            return value
        dps *= 2
        if dps > 40000:  # pragma: no cover - series is entire, never reached
            raise ArithmeticError("q-Bessel series failed to resolve")


def _needs_refinement(val, max_term):
    """Whether a float pass is untrustworthy: its peak term dwarfs the sum
    by more than _REFINE_RATIO (compared scaled down, since _REFINE_RATIO
    |val| overflows near the float limit), or the sum is not finite."""
    return (max_term / _REFINE_RATIO > np.maximum(np.abs(val), 1e-300)) | ~np.isfinite(val)


def _series_checked(z: np.ndarray, q: float, v: float, s=None):
    """Float pass of the series at each z of the 1-D ``z``, each element
    for which ``_needs_refinement`` holds rerun in decimal arithmetic (at
    its lattice exponent, when ``s`` gives one per element); returns
    (values, terms, peaks), the last two from the float pass."""
    vals, terms, peaks = _series_float(z * z, q, v)
    for i in np.flatnonzero(_needs_refinement(vals, peaks)):
        si = None if s is None else int(s[i])
        vals[i] = _series_refined(float(z[i]), q, v, float(peaks[i]), si)
    return vals, terms, peaks


def jv(z: float, p: QParams) -> BesselEvalReport:
    """Normalized Hahn-Exton q-Bessel function j_v(z, q^2) for real z >= 0.

    Returns a BesselEvalReport.  The float pass is kept while its largest
    term is at most 1e6 |value|; past that, and in the severe cancellation
    regime, ``value`` comes from the decimal refinement (the report still
    describes the float-series behaviour that triggered it).  The float
    pass stops at the first term that does not grow and lies at most
    EPS |partial sum|, so a kept float pass errs by the rounding of terms
    up to 1e6 |value|: the worst measured is 9.1e-11 relative, at
    q = 0.4254, v = 1.867, z = q^-2 (max_term 7.0e5 |value|), and 4.1e-11
    at q = 0.9, v = -1/2, z = 0.9^-5.  Raises ValueError for a non-finite
    z, on which the refinement would never resolve, and OverflowError when
    the value lies beyond the float range.
    """
    if not math.isfinite(z):
        raise ValueError(f"jv needs a finite argument, got {z!r}")
    vals, terms, peaks = _series_checked(np.array([float(z)]), p.q, p.v)
    val, max_term = float(vals[0]), float(peaks[0])
    # scaled down, not |val| up: 1e12 |val| overflows near the float limit
    return BesselEvalReport(val, int(terms[0]), max_term, max_term * 1e-12 > abs(val))


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _LatticeCache:
    """Process-wide j_v(q^s, q^2), keyed by (q, v, s).

    ``read`` counts a hit or a miss per value, as ``functools.lru_cache``
    counts calls, and sums all of its misses in one ``_series_checked``
    call, at the arguments ``lattice_points(q, s)``.  A read that
    would pass ``maxsize`` empties the cache first.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.values: dict[tuple[float, float, int], float] = {}
        self.hits = self.misses = 0

    def read(self, q: float, v: float, exps) -> list[float]:
        values = self.values
        keys = [(q, v, s) for s in exps]
        missing = [k for k in keys if k not in values]
        if missing:
            if len(values) + len(missing) > self.maxsize:
                values.clear()
                missing = keys
            s = [k[2] for k in missing]
            vals = _series_checked(lattice_points(q, s), q, v, s)[0]
            values.update(zip(missing, vals.tolist()))
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        return [values[k] for k in keys]

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self.values))

    def cache_clear(self) -> None:
        self.values.clear()
        self.hits = self.misses = 0


_jv_exp_cached = _LatticeCache(1 << 18)


def jv_at_exponent(s: int, p: QParams, v: float | None = None) -> float:
    """j_v(q^s, q^2) for integer s, cached across the whole process.

    The order ``v`` defaults to ``p.v``; the closed-form kernels also need
    order v + 1 at lattice arguments.
    """
    return _jv_exp_cached.read(p.q, p.v if v is None else v, (int(s),))[0]


def lattice_table(p: QParams, s_min: int, s_max: int, v: float | None = None) -> np.ndarray:
    """Array of j_v(q^s, q^2) for s = s_min..s_max, read through the same
    process-wide cache as ``jv_at_exponent``; ``v`` defaults to ``p.v``."""
    v = p.v if v is None else v
    return np.array(_jv_exp_cached.read(p.q, v, range(s_min, s_max + 1)))


def jv_array(z: np.ndarray, p: QParams, v: float | None = None) -> np.ndarray:
    """Vectorized j_v(z_i, q^2), each element equal to ``jv(z_i).value``.
    Raises ValueError if any z_i is not finite, OverflowError if a value
    lies beyond the float range."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("jv_array needs finite arguments")
    vals = _series_checked(z.reshape(-1), p.q, p.v if v is None else v)[0]
    return vals.reshape(z.shape)


def jv_bound(n: int, p: QParams) -> float:
    """Upper bound for |j_v(q^n, q^2)|: a constant C for n >= 0, times
    q^{n^2 - |(2v+1) n|} for n < 0.

    For v >= -1/2 that is the paper's C q^{n^2 + (2v+1) n}.  Below -1/2
    that form fails (by 76 digits at q = 0.05, v = -0.99, n = -30), and
    the exponent is n^2 - (2v+1) n.  On q 0.05-0.95, n -30..-1 it held at
    v -0.99..-0.51 with at least 0.02 digits to spare, as the paper's form
    does at v = -1/2 (measured, not proved).
    """
    q2 = p.q * p.q
    c = (
        qpochhammer(-q2, q2, math.inf)
        * qpochhammer(-p.q ** (2.0 * p.v + 2.0), q2, math.inf)
        / qpochhammer(p.q ** (2.0 * p.v + 2.0), q2, math.inf)
    )
    if n >= 0:
        return c
    return c * p.q ** _bound_exponent(n, p.v)


def _bound_exponent(n: int, v: float) -> float:
    """Power of q by which ``jv_bound`` scales its constant at n < 0."""
    return n * n - abs((2.0 * v + 1.0) * n)


def product_integral_direct(
    y: float, z: float, a_exp: int, p: QParams, depth: int
) -> float:
    """Jackson-sum evaluation of int_0^a j_v(yt) j_v(zt) t^{2v+1} d_q t.

    The brute-force twin of ``product_integral_quotient``; ``depth`` is
    the number of lattice points of [0, a]_q retained.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    window = LatticeWindow(a_exp, a_exp + depth - 1)
    t = window.points(p.q)
    return float(np.dot(lattice_weights(window, p), jv_array(y * t, p) * jv_array(z * t, p)))


def product_integral_quotient(y, z, jy, a_exp: int, p: QParams):
    """Closed form of int_0^a j_v(yt) j_v(zt) t^{2v+1} d_q t, broadcast
    over y and z:

        (1-q) a^{2v+2} / (1-q^{2v+2})
        [y^2 j_{v+1}(ay) j_v(az/q) - z^2 j_{v+1}(az) j_v(ay/q)] / (y^2 - z^2).

    ``jy`` holds the y-side values (j_{v+1}(ay), j_v(ay/q)), so callers can
    pass series values or cached lattice values; the two z-side series are
    evaluated here by ``jv_array``.  Returns (values, separated): the
    difference quotient loses ~9 digits at separation 1e-9, so where
    |y^2 - z^2| <= 1e-9 max(y^2, z^2) ``separated`` is False and the
    value is 0.
    """
    y2 = np.asarray(y, dtype=float) ** 2
    z = np.asarray(z, dtype=float)
    z2 = z * z
    a = p.q ** float(a_exp)
    jz1 = jv_array(a * z, p, p.v + 1.0)
    jzq = jv_array(a * z / p.q, p)
    pref = (1.0 - p.q) / (1.0 - p.q ** (2.0 * p.v + 2.0)) * a ** (2.0 * p.v + 2.0)
    den = y2 - z2
    separated = np.abs(den) > 1e-9 * np.maximum(y2, z2)
    num = pref * (y2 * jy[0] * jzq - z2 * jz1 * jy[1])
    return np.divide(num, den, out=np.zeros_like(den), where=separated), separated

