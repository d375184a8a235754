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
of one) and ``jv_array`` share that one float-then-refine step, so an
element's value does not depend on the batch it came in.  A kept float
pass is good to a few 1e-10 relative: its peak may reach 1e6 |value|.  A
value beyond the float range raises OverflowError; one below it is +0.0.

The transform, the operator and the sampling sum read j_v only at the
lattice points q^s, through the cache behind ``jv_at_exponent`` and
``lattice_table``, and at s < 0 the series cancels worst.  There the cache
sums no series: g_s = j_v(q^s, q^2) solves the Hahn-Exton q-difference
equation g_s - b_s g_{s+1} + q^{2v} g_{s+2} = 0, b_s = 1 + q^{2v} -
q^{2s+2} (Koornwinder & Swarttouw 1992, Trans. AMS 333), and below s = 0
it is the equation's minimal solution, found from the continued fraction
of its ratios (Gautschi 1967, SIAM Rev. 9) and scaled to one decimal
series, at z = 1; ``_lattice_recurrence`` says how.  Points s > 0, where
the series cancels less, take the float-then-refine step, refined at the
exact point q^s.

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
# the largest |z| whose square the float pass can form
_SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)
# digits of the lattice recurrence's context, and the digits its anchor
# j_v(1) keeps past the cancellation of its series
_RECURRENCE_DIGITS = 40
_ANCHOR_DIGITS = 30
# steps below the lowest exponent asked for, or below the recurrence's
# turning point where that lies lower, at which the ratios start from 0
_RATIO_DEPTH = 60


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
    a lattice exponent s, the power q^s formed at that precision, so that a
    refined lattice value is the exact point's."""
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


def _series_refined(
    z, q: float, v: float, max_term_hint: float, kept: int = 18, s: int | None = None
) -> Decimal:
    """Decimal sum of the series, at z or at the lattice point q^s, with
    digits escalated until it is resolved.

    Starts at 40 digits past the float pass's peak term (200 when it
    overflowed) and doubles until at least ``kept`` digits survive the
    cancellation.
    """
    if math.isfinite(max_term_hint) and max_term_hint > 0:
        dps = 40 + int(math.log10(max_term_hint))
    else:
        dps = 200
    while True:
        ctx = Context(prec=dps, Emax=MAX_EMAX, Emin=MIN_EMIN)
        total, max_term = _series_decimal(z, q, v, ctx, s)
        if total == 0 or max_term.scaleb(kept - dps, ctx) < total.copy_abs():
            return total
        dps *= 2
        if dps > 40000:  # pragma: no cover - series is entire, never reached
            raise ArithmeticError("q-Bessel series failed to resolve")


def _rounded(value: Decimal, v: float, arg: str) -> float:
    """A resolved value rounded once to float, +0.0 where it underflows;
    raises OverflowError, naming j_v(``arg``), beyond the float range."""
    out = float(value)
    if math.isinf(out):
        raise OverflowError(f"j_{v}({arg}) = {value:.6e} lies beyond the float range")
    return out + 0.0  # turns -0.0 into +0.0


def _needs_refinement(val, max_term):
    """Whether a float pass is untrustworthy: its peak term dwarfs the sum
    by more than _REFINE_RATIO (compared scaled down, since _REFINE_RATIO
    |val| overflows near the float limit), or the sum is not finite."""
    return (max_term / _REFINE_RATIO > np.maximum(np.abs(val), 1e-300)) | ~np.isfinite(val)


def _series_checked(z: np.ndarray, q: float, v: float, s=None):
    """Float pass of the series at each z of the 1-D ``z``, each element
    for which ``_needs_refinement`` holds rerun in decimal arithmetic (at
    its lattice exponent, when ``s`` gives one per element); returns
    (values, terms, peaks), the last two from the float pass.  Raises
    OverflowError, before any squaring, for a |z| whose square lies beyond
    the float range."""
    big = np.flatnonzero(np.abs(z) > _SQRT_FLOAT_MAX)
    if big.size:
        raise OverflowError(
            f"j_{v}({float(z[big[0]])!r}): the argument's square lies beyond the float range"
        )
    vals, terms, peaks = _series_float(z * z, q, v)
    for i in np.flatnonzero(_needs_refinement(vals, peaks)):
        x, si = float(z[i]), None if s is None else int(s[i])
        total = _series_refined(x, q, v, float(peaks[i]), s=si)
        vals[i] = _rounded(total, v, repr(x) if si is None else f"q^{si}")
    return vals, terms, peaks


def _lattice_recurrence(q: float, v: float, exps) -> list[float]:
    """j_v(q^s, q^2) at each exponent s <= 0 of ``exps``, from the
    Hahn-Exton q-difference equation, in decimal at _RECURRENCE_DIGITS.

    With b_s = 1 + q^{2v} - q^{2s+2}, g_s = j_v(q^s) solves
    g_s - b_s g_{s+1} + q^{2v} g_{s+2} = 0, and below s = 0 it is the
    minimal solution, which falls like q^{s^2}: run downward, the
    recurrence for g itself would amplify the dominant one.  The ratios
    R_s = g_s / g_{s+1} = q^{2v} / (b_{s-1} - R_{s-1}) are a continued
    fraction, stable taken upward (Gautschi 1967).  They start from 0
    _RATIO_DEPTH steps below the lowest exponent, or below the turning
    point, the largest s at which q^{2s+2} >= (1 + q^v)^2, where that lies
    lower: above it the equation oscillates and the start's error does
    not decay, so near q = 1 the depth counts from there.  Then
    g_s = R_s g_{s+1} runs down from the anchor g_0 = j_v(1), the decimal
    series at z = 1 resolved to _ANCHOR_DIGITS digits.  q^{2v} is
    ``_qv_power``'s q^{2v+2} over q^2, and each power q^{2s+2} is q^2
    divided down from s = 0, so a value does not depend on the table it
    was read in.  Each value is rounded once to float, +0.0 where it
    underflows; one beyond the float range raises OverflowError.  On
    seeded draws over q 0.05-0.995, v -0.99..3, s -40..0, every value was
    the exact point's value correctly rounded, against the series summed
    at up to 1,500 digits.
    """
    s_min = min(exps)
    turn = math.floor(math.log1p(q**v) / math.log(q)) - 1
    lo = min(s_min, turn) - _RATIO_DEPTH
    peak = float(_series_float(np.ones(1), q, v)[2][0])
    anchor = _series_refined(1.0, q, v, peak, _ANCHOR_DIGITS)
    ctx = Context(prec=_RECURRENCE_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
    with localcontext(ctx):
        q2 = Decimal(q) * Decimal(q)
        q2v = _qv_power(q, v, ctx) / q2
        powers = [q2]  # powers[k] = q^{2s+2} at s = -k
        for _ in range(-lo):
            powers.append(powers[-1] / q2)
        ratios = {}
        ratio = Decimal(0)  # R_lo
        for s in range(lo + 1, 0):
            ratio = q2v / (1 + q2v - powers[1 - s] - ratio)
            ratios[s] = ratio
        values = {0: +anchor}
        for s in range(-1, s_min - 1, -1):
            values[s] = ratios[s] * values[s + 1]
    return [_rounded(values[s], v, f"q^{s}") for s in exps]


def jv(z: float, p: QParams) -> BesselEvalReport:
    """Normalized Hahn-Exton q-Bessel function j_v(z, q^2) for real z >= 0.

    Returns a BesselEvalReport.  The float pass is kept while its largest
    term is at most 1e6 |value|; past that, and in the severe cancellation
    regime, ``value`` comes from the decimal refinement (the report still
    describes the float-series behaviour that triggered it).  The float
    pass stops at the first term that does not grow and lies at most
    EPS |partial sum|, so a kept float pass errs by the rounding of terms
    up to 1e6 |value|: the worst measured is 2.7e-10 relative, at
    q = 0.95, v = -0.1, z = 0.95^5 (max_term 7.8e5 |value|), and 4.1e-11
    at q = 0.9, v = -1/2, z = 0.9^-5.  Raises ValueError for a non-finite
    z, on which the refinement would never resolve, and OverflowError when
    the value lies beyond the float range or |z| above about 1.34e154,
    whose square the float pass cannot form.
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
    counts calls.  It computes all of its misses at s <= 0 in one
    ``_lattice_recurrence`` call, and all of those at s > 0 in one
    ``_series_checked`` call at the arguments ``lattice_points(q, s)``,
    which refines a value at the exact point q^s.
    A read that would pass ``maxsize`` empties the cache first.
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
            low = [s for _, _, s in missing if s <= 0]
            high = [s for _, _, s in missing if s > 0]
            if low:
                values.update(zip([(q, v, s) for s in low], _lattice_recurrence(q, v, low)))
            if high:
                vals = _series_checked(lattice_points(q, high), q, v, high)[0]
                values.update(zip([(q, v, s) for s in high], vals.tolist()))
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


def product_integral_direct(y, z, a_exp: int, p: QParams, depth):
    """Jackson-sum evaluation of int_0^a j_v(yt) j_v(zt) t^{2v+1} d_q t.

    The brute-force twin of ``product_integral_quotient``; ``depth`` is
    the number of lattice points of [0, a]_q retained.  Broadcast over y,
    z and depth: a float for scalars, an array of their broadcast shape
    otherwise.  Each side's points of all the sums go through one
    ``jv_array`` call, and each sum is the one its arguments give alone.
    """
    y, z, depth = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(z, dtype=float), np.asarray(depth)
    )
    if (depth < 1).any():
        raise ValueError("depth must be >= 1")
    ns = [int(n) for n in depth.reshape(-1)]
    window = LatticeWindow(a_exp, a_exp + max(ns) - 1)
    t, w = window.points(p.q), lattice_weights(window, p)
    ys, zs = y.reshape(-1).tolist(), z.reshape(-1).tolist()
    jy = jv_array(np.concatenate([yi * t[:n] for yi, n in zip(ys, ns)]), p)
    jz = jv_array(np.concatenate([zi * t[:n] for zi, n in zip(zs, ns)]), p)
    prod, starts = jy * jz, np.cumsum([0] + ns).tolist()
    out = np.array([np.dot(w[:n], prod[i:i + n]) for i, n in zip(starts, ns)]).reshape(y.shape)
    return float(out) if out.ndim == 0 else out


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

