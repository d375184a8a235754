"""Normalized Hahn-Exton q-Bessel function j_v(z, q^2) and related identities.

The series sum_n (-1)^n q^{n(n+1)} z^{2n} / ((q^2;q^2)_n (q^{2v+2};q^2)_n)
is entire, but for large z its terms grow to a huge peak before the
q^{n(n+1)} decay wins, so the alternating sum cancels catastrophically in
double precision.  At a float argument, evaluation therefore runs a fast
float pass first, ``_series_float`` over a batch of arguments, each of
which stops at the first term that does not grow and lies at most
EPS |partial sum|.  It transparently reruns the same series in the
standard library's decimal arithmetic (libmpdec), with enough digits, for
each element whose peak term dwarfs the result or whose float pass
overflowed.  ``jv_array`` is that one float-then-refine step, at a
scalar or at a batch, and an element's value does not depend on the
batch it came in.  A kept float pass is good to a few 1e-10 relative: its
peak may reach 1e6 |value|.  A value beyond the float range raises
OverflowError; one below it is +0.0.

The transform, the operator and the sampling sum read j_v only at the
lattice points q^s, through the table memo behind ``jv_at_exponent`` and
``lattice_table``, and there no series is summed: g_s = j_v(q^s, q^2)
solves the Hahn-Exton q-difference equation g_s - b_s g_{s+1} +
q^{2v} g_{s+2} = 0, b_s = 1 + q^{2v} - q^{2s+2} (Koornwinder & Swarttouw
1992, Trans. AMS 333), normalised by j_v(0) = 1 where q^s is small enough
that the series is 1 to 40 digits (``flat_depth``).  ``_lattice_recurrence``
says how; each lattice value is the exact point's value, correctly rounded.

The product integral int_0^a j_v(yt) j_v(zt) t^{2v+1} d_q t is, up to
c_qv^2, the reproducing kernel of the q-Paley-Wiener space.  Its closed
form is ``product_integral_quotient``, broadcast over y and z, which
reports where y^2 and z^2 lie too close for it; its Jackson sum is
``product_integral_direct``, the brute-force twin.  ``sampling.kernel``
is the one place that chooses between them.  Also implements the
lattice growth bound.
"""

from __future__ import annotations

import functools
import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

from . import qcalc
from .qcalc import EPS, EXACT, LatticeWindow, QParams, lattice_weights, np, qv_power, to_float

# Above this peak-to-value ratio the float series has lost ~6 digits to
# cancellation and the decimal rerun takes over.
_REFINE_RATIO = 1e6
_MAX_TERMS = 2000
# the largest |z| whose square the float pass can form
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)
# digits of the lattice recurrence's context
_RECURRENCE_DIGITS = 40
# steps below the lowest exponent asked for, or below the recurrence's
# turning point where that lies lower, at which the ratios start from 0
_RATIO_DEPTH = 60


def _series_float(z2: np.ndarray, q: float, v: float):
    """One float pass of the series at each z^2 of the 1-D ``z2``; returns
    per-element (sums, peaks).

    An element stops at the first term that does not grow and lies at most
    EPS |partial sum|, which it leaves out; the terms rise to one peak and
    then fall, so no element stops before its peak.  A term that overflows
    stops its element with peak inf.  A stopped element leaves the active
    set, so its result is the one a batch of that element alone gives.
    """
    q2 = q * q
    qv = q ** (2.0 * v + 2.0)
    sums, peaks = np.empty(z2.size), np.empty(z2.size)
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
                sums[done] = total[stop]
                peaks[done] = np.where(over[stop], np.inf, peak[stop])
                go = ~stop
                live, x2, total, peak, nxt = live[go], x2[go], total[go], peak[go], nxt[go]
            term = nxt
    sums[live], peaks[live] = total, peak
    return sums, peaks


def _series_decimal(z: float, q: float, v: float, ctx: Context):
    """Series at the working precision of ``ctx`` at the float z, converted
    exactly; returns (sum, max_term) as Decimals."""
    with localcontext(ctx):
        z2 = Decimal(z) * Decimal(z)
        q2 = Decimal(q) * Decimal(q)
        qv = qv_power(q, v, ctx.prec)
        term, total, max_term = Decimal(1), Decimal(0), Decimal(0)
        floor = Decimal(1).scaleb(-ctx.prec)
        q2n = Decimal(1)  # q2**n
        while True:
            total += term
            max_term = max(max_term, at := abs(term))
            q2n1 = q2n * q2
            nxt = -term * (q2n1 * z2 / ((1 - q2n1) * (1 - qv * q2n)))
            q2n = q2n1
            if abs(nxt) < floor * max(1, max_term) and abs(nxt) <= at:
                return total, max_term
            term = nxt


def _series_refined(z: float, q: float, v: float, max_term_hint: float) -> Decimal:
    """Decimal sum of the series at z, with digits escalated until it is
    resolved.

    Starts at 40 digits past the float pass's peak term (200 when it
    overflowed) and doubles until at least 18 digits survive the
    cancellation.
    """
    finite = math.isfinite(max_term_hint) and max_term_hint > 0
    dps = 40 + int(math.log10(max_term_hint)) if finite else 200
    while True:
        ctx = Context(prec=dps, Emax=MAX_EMAX, Emin=MIN_EMIN)
        total, max_term = _series_decimal(z, q, v, ctx)
        if total == 0 or max_term.scaleb(18 - dps, ctx) < total.copy_abs():
            return total
        dps *= 2
        if dps > 40000:  # pragma: no cover - series is entire, never reached
            raise ArithmeticError("q-Bessel series failed to resolve")


def _needs_refinement(val, max_term):
    """Whether a float pass is untrustworthy: its peak term dwarfs the sum
    by more than _REFINE_RATIO (compared scaled down, since _REFINE_RATIO
    |val| overflows near the float limit), or the sum is not finite."""
    return (max_term / _REFINE_RATIO > np.maximum(np.abs(val), 1e-300)) | ~np.isfinite(val)


def flat_depth(x: float, q: float, v: float, tol: float) -> int:
    """The least n >= 0 at which c_1 (x q^n)^2 <= tol, where c_1 = q^2 /
    ((1 - q^2) (1 - q^{2v+2})) is the x^2 coefficient of j_v's series;
    0 at x = 0.  From there on the series is 1 to about tol."""
    if not x:
        return 0
    log_q = math.log(q)
    log_c1 = 2.0 * log_q - math.log1p(-q * q) - math.log(-math.expm1((2.0 * v + 2.0) * log_q))
    return max(math.ceil((math.log(tol) - log_c1 - 2.0 * math.log(x)) / (2.0 * log_q)), 0)


def _lattice_recurrence(q: float, v: float, exps) -> list[float]:
    """j_v(q^s, q^2) at each integer exponent s of ``exps``, from the
    Hahn-Exton q-difference equation alone, in decimal at
    _RECURRENCE_DIGITS.

    With b_s = 1 + q^{2v} - q^{2s+2}, g_s = j_v(q^s) solves
    g_s - b_s g_{s+1} + q^{2v} g_{s+2} = 0.  As s grows its solutions tend
    to 1 and to q^{-2vs}.  g is normalised by g_T = 1 at the least T >= 1
    where the series' second term lies below the context's digits
    (``flat_depth``); every s >= T reads 1.0.  For v >= 0 the equation
    runs down from g_{T+1} = g_T = 1 to s = 0: going down, the other
    solution dies out (at v = 0 it grows linearly).  Below s = 0 g is
    the minimal solution (it falls like q^{s^2}), and for v < 0 it is the
    dominant one above the turning point, so there, and for v < 0
    everywhere below T, g_s = R_s g_{s+1} runs down from g_0 or g_T over
    the ratios R_s = g_s / g_{s+1} = q^{2v} / (b_{s-1} - R_{s-1}), a
    continued fraction that is stable taken upward (Gautschi 1967, SIAM
    Rev. 9).  They start from 0 _RATIO_DEPTH steps below the lowest
    exponent, or below the turning point, the largest s at which
    q^{2s+2} >= (1 + q^v)^2, where that lies lower: above it the equation
    oscillates and the start's error does not decay.  q^{2v} is
    ``qv_power``'s q^{2v+2} over q^2, and each power q^{2s+2} is q^2
    multiplied up or divided down from 1 at s = -1, so a value does not
    depend on the table it was read in.  Each value is rounded once to
    float, +0.0 where it underflows; one beyond the float range raises
    OverflowError.  On seeded draws over q 0.05-0.995,
    v -0.99..3, s -40..120, every value was the exact point's value
    correctly rounded.
    """
    top = max(1, flat_depth(1.0, q, v, 10.0 ** -_RECURRENCE_DIGITS))
    mid = 0 if v >= 0 else top  # where the ratios take over, going down
    s_min = min(mid, *exps)
    turn = math.floor(math.log1p(q**v) / math.log(q)) - 1
    lo = min(s_min, turn) - _RATIO_DEPTH
    ctx = Context(prec=_RECURRENCE_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
    with localcontext(ctx):
        q2 = Decimal(q) * Decimal(q)
        q2v = qv_power(q, v, ctx.prec) / q2
        base = 1 + q2v
        powers = {-1: Decimal(1)}  # powers[s] = q^{2s+2}
        for s in range(top):
            powers[s] = powers[s - 1] * q2
        for s in range(-2, lo - 1, -1):
            powers[s] = powers[s + 1] / q2
        ratios = {}
        ratio = Decimal(0)  # R_lo
        for s in range(lo + 1, mid):
            ratio = q2v / (base - powers[s - 1] - ratio)
            ratios[s] = ratio
        values = {top: Decimal(1), top + 1: Decimal(1)}
        for s in range(top - 1, mid - 1, -1):
            values[s] = (base - powers[s]) * values[s + 1] - q2v * values[s + 2]
        for s in range(mid - 1, s_min - 1, -1):
            values[s] = ratios[s] * values[s + 1]
    return [1.0 if s > top else to_float(values[s], f"j_{v}(q^{s})") for s in exps]


@functools.lru_cache(maxsize=1024)
def _jv_exp_cached(q: float, v: float, s_min: int, s_max: int) -> tuple[float, ...]:
    """j_v(q^s, q^2) for s = s_min..s_max, memoised per whole table, at most
    1,024 tables (a warm transform workload holds about 100): each miss
    is one ``_lattice_recurrence`` call, which sums no series, and each
    value is a pure function of its key, so the memo is safe to share
    across threads.  ``cache_info()`` counts one hit or miss per table."""
    return tuple(_lattice_recurrence(q, v, range(s_min, s_max + 1)))


def jv_at_exponent(s: int, p: QParams, v: float | None = None) -> float:
    """j_v(q^s, q^2) for integer s, memoised across the whole process as
    the one-value table (s, s): the exact point's value, correctly
    rounded, from ``_lattice_recurrence``.

    The order ``v`` defaults to ``p.v``; the closed-form kernels also need
    order v + 1 at lattice arguments.
    """
    s = int(s)
    return _jv_exp_cached(p.q, p.v if v is None else v, s, s)[0]


def lattice_table(p: QParams, s_min: int, s_max: int, v: float | None = None) -> np.ndarray:
    """Array of j_v(q^s, q^2) for s = s_min..s_max, memoised as one table
    by the same process-wide memo as ``jv_at_exponent``; a value does not
    depend on the table it was read in.  ``v`` defaults to ``p.v``."""
    return np.array(_jv_exp_cached(p.q, p.v if v is None else v, int(s_min), int(s_max)))


def jv_array(z, p: QParams, v: float | None = None):
    """j_v(z, q^2) at real z, a float for a scalar z and an array of z's
    shape otherwise; ``v`` defaults to ``p.v``.

    Each element is the value a lone evaluation gives: its float pass,
    kept while the largest term is at most 1e6 |value| and rerun in
    decimal arithmetic past that or where it overflowed
    (``_needs_refinement``).  The float pass stops at the first term that
    does not grow and lies at most EPS |partial sum|, so a kept float pass
    errs by the rounding of terms up to 1e6 |value|: the worst measured
    is 2.7e-10 relative, at q = 0.95, v = -0.1, z = 0.95^5 (peak term
    7.8e5 |value|), and 4.1e-11 at q = 0.9, v = -1/2, z = 0.9^-5;
    ``jv_at_exponent`` gives the exact lattice point's value instead.
    Raises ValueError for a non-finite z, on which the refinement would
    never resolve, and OverflowError, before any squaring, for a |z|
    above about 1.34e154, whose square the float pass cannot form, or
    where a value lies beyond the float range.
    """
    z = np.asarray(z, dtype=float)
    v = p.v if v is None else v
    if not np.isfinite(z).all():
        raise ValueError("jv_array needs finite arguments")
    flat = z.reshape(-1)
    big = np.flatnonzero(np.abs(flat) > _SQRT_FLOAT_MAX)
    if big.size:
        raise OverflowError(
            f"j_{v}({float(flat[big[0]])!r}): the argument's square lies beyond the float range"
        )
    vals, peaks = _series_float(flat * flat, p.q, v)
    for i in np.flatnonzero(_needs_refinement(vals, peaks)):
        x = float(flat[i])
        vals[i] = to_float(_series_refined(x, p.q, v, float(peaks[i])), f"j_{v}({x!r})")
    return float(vals[0]) if z.ndim == 0 else vals.reshape(z.shape)


def jv_bound(n: int, p: QParams) -> float:
    """Upper bound for |j_v(q^n, q^2)|: C for n >= 0, times q^{n^2 - |(2v+1) n|}
    for n < 0, with C = (-q^2;q^2)_inf (-q^{2v+2};q^2)_inf / (q^{2v+2};q^2)_inf
    from ``qcalc.qpoch_inf_decimal`` at 20 digits, rounded once to float.
    Raises OverflowError, naming q, v and n, where the bound lies beyond the
    float range (from about q = 0.998 on at v = 0).

    For v >= -1/2 that is the paper's C q^{n^2 + (2v+1) n}.  Below -1/2
    that form fails (by 76 digits at q = 0.05, v = -0.99, n = -30), and
    the exponent is n^2 - (2v+1) n.  On q 0.05-0.95, n -30..-1 it held at
    v -0.99..-0.51 with at least 0.02 digits to spare, as the paper's form
    does at v = -1/2 (measured, not proved).  The exponent is exact.
    """
    with localcontext(Context(prec=20, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        qd = Decimal(p.q)
        x, a = EXACT.multiply(qd, qd), qv_power(p.q, p.v, 20)
        c = qcalc.qpoch_inf_decimal(-x, x) * qcalc.qpoch_inf_decimal(-a, x)
        c /= qcalc.qpoch_inf_decimal(a, x)
        if n < 0:
            c *= qd ** (n * n) * min(a / qd, qd / a) ** n  # q^{n^2 - |2v+1| |n|}
        return to_float(c, f"jv_bound(n={n}, q={p.q!r}, v={p.v!r})")


def band_edge(a_exp: int, p: QParams, power: float = 1.0) -> float:
    """The band edge a = q^{a_exp}, raised to ``power``.  Raises
    OverflowError, naming q, a_exp and the power, beyond the float range."""
    try:
        return (p.q ** float(a_exp)) ** power
    except OverflowError:
        raised = "" if power == 1.0 else f", raised to {power!r},"
        raise OverflowError(f"the band edge a = q^a_exp at q = {p.q!r}, a_exp = {a_exp}"
                            f"{raised} lies beyond the float range") from None


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
    value is 0.  Raises OverflowError, naming q and a_exp, where a or
    a^{2v+2} lies beyond the float range (``band_edge``).
    """
    y2 = np.asarray(y, dtype=float) ** 2
    z = np.asarray(z, dtype=float)
    z2 = z * z
    a = band_edge(a_exp, p)
    jz1 = jv_array(a * z, p, p.v + 1.0)
    jzq = jv_array(a * z / p.q, p)
    pref = (1.0 - p.q) / (1.0 - p.q ** (2.0 * p.v + 2.0))
    pref *= band_edge(a_exp, p, 2.0 * p.v + 2.0)
    den = y2 - z2
    separated = np.abs(den) > 1e-9 * np.maximum(y2, z2)
    num = pref * (y2 * jy[0] * jzq - z2 * jz1 * jy[1])
    return np.divide(num, den, out=np.zeros_like(den), where=separated), separated

