"""Concentration operator T_a^v, its eigenfunctions (the q-prolate
spheroidal wave functions) and the concentration index.  The reproducing
kernel whose eigen-expansion they give is ``sampling.kernel``.

T_a^v u(x) = c_qv int_0^a u(t) j_v(xt, q^2) t^{2v+1} d_q t is an exact
weighted sum over the lattice points a q^m, so truncating at depth M is
the only discretization.  In the weighted coordinates y_m = sqrt(w_m) u_m
the operator matrix B_km = c_qv sqrt(w_k w_m) j_v(a^2 q^{k+m}, q^2) is
symmetric, and its eigenvalues fall off so fast (roughly like q^{3 i^2}
at q = 1/2) that everything past the fourth pair drowns in float64
roundoff of B itself.  Every eigenpair therefore comes from one
extended-precision solve at enough digits to resolve every retained pair;
results are returned in float64.

That solve never forms B.  With
j_v(x, q^2) = sum_n (-1)^n c_n x^{2n},
c_n = q^{n(n+1)} / ((q^2;q^2)_n (q^{2v+2};q^2)_n) > 0, B = G J G^T exactly,
where G[k,n] = sqrt(c_qv w_k) (a q^k)^{2n} sqrt(c_n) = D_n y_n^k,
y_n = q^{v+1+2n}, D_n^2 = c_qv w_0 c_n a^{4n} and J = diag((-1)^n).  G is
cut at the first N whose D_n^2 falls below 10^{-dps} (N is 8-32 for the
usual requests).  Its moment matrix K = G^T G = D H D has the closed form
H[n,m] = h(n+m) = (1 - X^M) / (1 - X), X = q^{2v+2+2(n+m)}; a Cholesky
H = R_H^T R_H, which errs columnwise as a Householder QR of G does
(Higham, Accuracy and Stability of Numerical Algorithms, chs. 10 and 19),
leaves C = R_H diag((-1)^n D_n^2) R_H^T = U diag(lambda) U^T, and the
eigenvectors of B are V R_H^-1 U, V[k,n] = y_n^k.  The alternating sum
cancels where D_n^2 > 1 (band edges above 1), so C carries log10 of the
largest on top of the working digits, and H, whose pivots must resolve
to the noise of C divided by D_n^2, twice that.

The solve's noise is absolute, about 10^-(dps+10), so every digit is
counted from 1.  The digits come from the LDL^T pivots of K = G^T G,
whose graded factors have a closed form (at depth infinity K is a
diagonally scaled Cauchy matrix): the keep-th largest pivot estimates
the depth of the keep-th |eigenvalue| below 1, and a solve takes 27
digits past it.  A solve is accepted when it resolves ``keep`` pairs,
each |eigenvalue| at least 10^(25-dps), and every retained eigenvector
(those of one float64 eigenvalue judged together) keeps 13 digits in
its smallest entry.  Otherwise the digits grow by 1.6 times (at least
60 more); the first time an eigenvector is short, by three times the
digits it lacks plus the guard instead, when that is less.
Pairs are sorted by |lambda| rounded to 20 digits, so that the +-1
clusters tie at any working precision, and the signs alternate from +
inside a tie.

That solve runs on fixed-point integers (``fixedla``), 10 guard digits
past those: the Cholesky factor of H, stopped at M rows, the rank of H,
or at the first row whose R_jj = D_j sqrt(pivot of H) lies within N
units of zero (the rows past it are rounding noise); C; its Householder
reduction to tridiagonal form; a root-free decimal QL iteration for all
of its eigenvalues; and, for the retained pairs only, inverse iteration
by one pivoted solve, re-orthogonalised inside clusters that the
precision cannot separate, back through the reflectors to an eigenvector
u of C.  Then t = R_H^-1 u, and the sample at a q^k is the power series
sum_n t_n q^{2kn} / sqrt(w_0), rounded once to float64.  It is first
summed from the top bits of t and of the powers, _SAMPLE_BITS past the
bits the alternating sum cancels, with an integer bound on the error;
only where the ends of the bound round to different floats is the sum
taken in full.  The constant c_qv in D_n^2 is ``qcalc.c_qv_decimal``,
Euler's series for the two infinite q-Pochhammer symbols.

Stored eigenfunction samples follow the convention ||psi_i||_{q,2,v} = 1
on the full lattice, which by Plancherel pins the samples on [0, a]_q to
lambda_i times the unit-norm eigenvector; the sign is fixed by making the
first significant sample positive.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from functools import cached_property
from itertools import accumulate, count, islice, repeat, takewhile
from operator import mul

from .qbessel import jv_array, lattice_table
from .qcalc import (LatticeFunction, LatticeWindow, QParams, c_qv_decimal, check_integer,
                    inner_product, lattice_weights, np, qv_power)

# |lambda| below sqrt(1e-300) cannot carry the lambda^2 spectral data in
# float64, so deeper pairs are never retained.
_LAMBDA_FLOOR = 1e-150
# digits the extended-precision solve may work at, its guard and the digits
# its alternating sum cancels included
_MAX_DPS = 3000
# digits by which every retained |eigenvalue| must exceed 10^-dps, the
# absolute noise of a solve at dps digits
_RESOLVED_DIGITS = 25
# digits of |lambda| that order the pairs: fewer than any retained lambda
# resolves, so that the +-1 clusters at band edges above 1 tie whatever
# the working digits
_TIE_DIGITS = 20
# digits added to the estimated depth of the keep-th pair, and kept spare
# in the smallest entry of a retained eigenvector
_DEPTH_GUARD = 2
# digits carried past the working precision by the fixed-point solve
_GUARD_DIGITS = 10
# bits of t and of the powers of q^2 that a sample's first, bounded sum
# keeps past those the column scales cancel (see the ``units`` closure of
# _mp_eigensystem): a row whose terms cancel to nearly this many more
# bits is summed again in full
_SAMPLE_BITS = 192


class SolverNoConvergence(RuntimeError):
    """Eigensolver exhausted its precision budget without resolving the spectrum."""


class ZeroFunction(ValueError):
    """Concentration index requested for a function with vanishing norm."""


class FewerPairsWarning(UserWarning):
    """compute_basis kept fewer pairs than asked: the deeper ones lie below
    the floor of |lambda| that float64 can carry."""


@dataclass(frozen=True)
class Bandlimit:
    """Band [0, a]_q with a = q^{a_exp}, truncated to its first ``depth``
    points a q^m = q^{a_exp + m}, the lattice window ``window``."""

    a_exp: int
    depth: int

    def __post_init__(self):
        check_integer(self.a_exp, "a_exp")
        if check_integer(self.depth, "depth") < 1:
            raise ValueError("depth must be >= 1")

    @property
    def window(self) -> LatticeWindow:
        return LatticeWindow(self.a_exp, self.a_exp + self.depth - 1)

    def weights(self, p: QParams) -> np.ndarray:
        """Jackson weights w_m = (1-q) q^{(a_exp+m)(2v+2)} of the window's points."""
        return lattice_weights(self.window, p)


class PswfBasis:
    """Retained eigenpairs of T_a^v.

    ``eigenvalues[i]`` carries its true sign; ordering is by descending
    magnitude.  ``eigenfunctions[i, m]`` holds psi_i(a q^m) under the
    full-lattice unit-norm convention, and ``unit_samples[i]`` the same
    eigenvector normalized to unit norm on [0, a]_q (used internally to
    evaluate the analytic extension without dividing by tiny lambdas).
    The three arrays are built on first access from the rows given, so
    that a basis that is only reported (``eigen_report_json``,
    ``eigen_report_csv``) never touches numpy.
    """

    def __init__(self, bandlimit: Bandlimit, params: QParams, eigenvalues, eigenfunctions,
                 unit_samples):
        self.bandlimit, self.params, self.count = bandlimit, params, len(eigenvalues)
        self._rows = eigenvalues, eigenfunctions, unit_samples

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.array(self._rows[0], dtype=float)

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        return np.array(self._rows[1], dtype=float).reshape(self.count, self.bandlimit.depth)

    @cached_property
    def unit_samples(self) -> np.ndarray:
        return np.array(self._rows[2], dtype=float).reshape(self.count, self.bandlimit.depth)


def build_operator_matrix(b: Bandlimit, p: QParams) -> np.ndarray:
    """Weight-symmetrized matrix B of T_a^v at depth M.

    B_km = c_qv sqrt(w_k w_m) j_v(a^2 q^{k+m}, q^2); entries depend on
    k+m only (up to the weight factors), so each kernel value is computed
    once per anti-diagonal and the matrix is exactly symmetric.
    """
    m = b.depth
    diag = lattice_table(p, 2 * b.a_exp, 2 * b.a_exp + 2 * m - 2)
    sq = np.sqrt(b.weights(p))
    idx = np.arange(m)
    return p.c_qv * np.outer(sq, sq) * diag[idx[:, None] + idx[None, :]]


def _moments(b: Bandlimit, p: QParams, nterms: int):
    """(D_n^2 for n < nterms, h(s) for s < 2 nterms - 1, w_0) of the moment
    matrix K = D H D (see the module docstring), in the current context."""
    qd = Decimal(p.q)
    q2 = qd * qd
    qv = qv_power(p.q, p.v, getcontext().prec)  # shared with c_qv_decimal
    w0 = (1 - qd) * qv ** b.a_exp  # w_0 = (1 - q) a^{2v+2}
    # D_n^2 from D_{n-1}^2 a^4 c_n / c_{n-1}
    d2, q2n, a4 = [c_qv_decimal(p.q, p.v) * w0], Decimal(1), q2 ** (2 * b.a_exp)
    for n in range(1, nterms):
        qvn = qv * q2n  # q^{2v+2n}
        q2n *= q2
        d2.append(d2[-1] * a4 * q2n / ((1 - q2n) * (1 - qvn)))
    h, x = [], qv
    for _ in range(2 * nterms - 1):
        h.append((1 - x ** b.depth) / (1 - x))
        x *= q2
    return d2, h, w0


def _log_scales(b: Bandlimit, p: QParams):
    """log10 of the column scales D_n^2 = c_qv w_0 c_n a^{4n}, n = 0, 1, ...,
    from D_n^2 / D_{n-1}^2 = a^4 q^{2n} / ((1 - q^{2n}) (1 - q^{2v+2n})).
    They are log-concave in n: past their peak they only fall."""
    q, v, lq = p.q, p.v, math.log10(p.q)
    x = math.log10(p.c_qv * (1.0 - q)) + (2.0 * v + 2.0) * b.a_exp * lq
    for n in count(1):
        yield x
        x += (2 * n + 4 * b.a_exp) * lq - math.log10(
            (1.0 - q ** (2 * n)) * (1.0 - q ** (2.0 * v + 2 * n)))


def _mp_eigensystem(b: Bandlimit, p: QParams, dps: int):
    """Eigenpairs of B through the Cholesky factor of its moment matrix,
    resolved to ``dps`` digits (see the module docstring).

    Returns (evals, units): every eigenvalue of C, in ascending order as
    Decimals, one per row of the factor; and ``units(lams)``,
    the float64 unit eigenvectors of B for the eigenvalues ``lams``
    divided by sqrt(w_m).  ``fixedla`` is imported here, so that the
    commands that never solve for eigenpairs do not pay for it.
    """
    from . import fixedla

    q, v, mdim = p.q, p.v, b.depth
    # the series is cut where the column scales first fall below 10^-dps;
    # one term is kept at least, so that a band whose scales all lie below
    # it factors to an empty spectrum
    logs = list(takewhile(lambda x: x >= -dps, _log_scales(b, p)))
    nterms = max(len(logs), 1)
    # the alternating sum cancels the digits of the largest D_n^2 above 1,
    # and H must resolve its pivots to the noise of C divided by D_n^2: as
    # many again below it
    cancel = max(math.ceil(max(logs, default=0.0)), 0)
    digits = dps + 2 * cancel + _GUARD_DIGITS
    if digits > _MAX_DPS:
        raise SolverNoConvergence(
            f"resolving {dps} digits needs {digits} working digits, past the "
            f"{_MAX_DPS}-digit budget (a_exp={b.a_exp}, q={q!r}, v={v!r})"
        )
    prec = math.ceil(digits * math.log2(10))
    with localcontext(fixedla.context(prec)):
        d2, h, w0 = _moments(b, p, nterms)
        # D_n^2 at 2^(2 prec): R_jj = D_j sqrt(pivot) resolves to 2^-prec
        dd = [fixedla.to_fixed(x, 2 * prec) for x in d2]
        hh = [fixedla.to_fixed(x, prec) for x in h]
        # sqrt(w_0) as the int root_w of prec bits at 2^kw
        kw = prec - fixedla.binary_magnitude(w0.sqrt())
        root_w = fixedla.to_fixed(w0.sqrt(), kw)
        q2 = Decimal(q) * Decimal(q)  # exact: it holds 106 bits
    # H = V^T V has rank at most M: past it, a pivot is rounding noise,
    # which the weights D_n^2 > 1 would carry into C
    rows = fixedla.cholesky([hh[i:i + nterms] for i in range(nterms)], dd, prec, mdim)
    size = len(rows)
    # C = R_H diag((-1)^n D_n^2) R_H^T on one triangle; row i of R_H is
    # held from its diagonal on
    signed = [-x if n % 2 else x for n, x in enumerate(dd)]
    scaled = [[x * y >> 2 * prec for x, y in zip(r, signed[i:])] for i, r in enumerate(rows)]
    core = [[0] * size for _ in range(size)]
    for i, ri in enumerate(scaled):
        for k in range(i, size):
            core[i][k] = core[k][i] = sum(map(mul, ri[k - i:], rows[k])) >> prec
    d, e, tri = fixedla.tridiagonalize(core, prec)
    try:
        evals = fixedla.tridiagonal_eigenvalues(d, e, prec)
    except fixedla.NoConvergence as exc:  # pragma: no cover - QL deflates in a few sweeps
        raise SolverNoConvergence(str(exc)) from exc

    def units(lams):
        """Unit eigenvectors of B for the eigenvalues ``lams``, divided by
        sqrt(w_m): sum_n t_n q^{2mn} / sqrt(w_0), t = R_H^-1 u, each one
        int / int quotient, which rounds once, to the nearest float.

        Each sum is first taken from the top bits of t and of the powers
        of q^2, _SAMPLE_BITS past those the alternating sum cancels, with
        an integer bound on the error of the truncated sum; where both
        ends of the bound round to the same float, that float is the
        sum's, and only the other rows are summed in full (Ziv's rounding
        test)."""
        fixed = [fixedla.to_fixed(x, prec) for x in lams]
        ts = []
        for s in fixedla.tridiagonal_eigenvectors(d, e, fixed, prec):
            u = fixedla.reflect(tri, s)  # eigenvector of C
            t = [0] * size
            for i in range(size - 1, -1, -1):
                r = rows[i]
                t[i] = ((u[i] << prec) - sum(map(mul, r[1:], t[i + 1:]))) // r[0]
            ts.append(t)
        # q^{2j} at 2^wide, wide past the bits of the largest t_n, from
        # q^2 by j products, each erring by a unit; row k of V takes every
        # k-th of them, and stops at its last nonzero power
        top = max((abs(x) for t in ts for x in t), default=0)
        wide = top.bit_length() + (mdim * size).bit_length()
        x, y, pw = fixedla.to_fixed(q2, wide), 1 << wide, []
        while y and len(pw) <= (mdim - 1) * (size - 1):
            pw.append(y)
            y = y * x >> wide
        powers = [pw[:k * size:k] if k else pw[:1] * size for k in range(mdim)]
        # the same powers cut to sp = pw >> cut, at most ``bits`` bits:
        # _SAMPLE_BITS past the bits the alternating sum cancels; the
        # powers fall, so the nonzero sp are a prefix of each row
        bits = _SAMPLE_BITS + math.ceil(cancel * math.log2(10))
        cut = max(wide - bits, 0)
        sp = [z for z in (y >> cut for y in pw) if z]
        short = [sp[:k * size:k] if k else sp[:1] * size for k in range(mdim)]
        up = kw - prec - wide  # the scale of root_w over that of a sum

        def divisor(shift):
            """(left shift, divisor) that take a sum X, with X 2^shift
            standing for sum_n t_n pw_n, to a sample."""
            return max(shift + up, 0), root_w << max(-shift - up, 0)

        full, out = divisor(0), []
        for t in ts:
            # tt = t >> tcut: |sum t_n pw_n - 2^(tcut+cut) sum tt_n sp_n| lies
            # below 2^(tcut+cut) (sum |tt_n| + N + N 2^(wide-cut)) on every row
            tcut = max(max(map(abs, t)).bit_length() - bits, 0)
            tt = [x >> tcut for x in t]
            slack = sum(map(abs, tt)) + size + (size << wide - cut)
            sums = [sum(map(mul, tt, row)) for row in short]
            lsh, div = divisor(tcut + cut)
            lo = [((s - slack) << lsh) / div for s in sums]
            hi = [((s + slack) << lsh) / div for s in sums]
            out.append([low if low == high else _full_sample(t, row, full)
                        for low, high, row in zip(lo, hi, powers)])
        return out

    return evals, units


def _full_sample(t: list[int], row: list[int], scale) -> float:
    """The sample sum_n t_n row_n, summed exactly and rounded once by the
    (left shift, divisor) pair ``scale``: the rows whose bounded sum
    leaves the float undecided."""
    lsh, div = scale
    return (sum(map(mul, t, row)) << lsh) / div


def _sample_sign(samples: list[float]) -> float:
    """Sign factor making the first sample of significant magnitude positive.

    The cutoff is relative (1e-12 of the largest magnitude) so the
    convention stays meaningful for eigenfunctions whose samples are all
    tiny in absolute terms.
    """
    peak = max(map(abs, samples))
    if peak == 0.0:
        return 1.0
    for s in samples:
        if abs(s) > 1e-12 * peak:
            return 1.0 if s > 0 else -1.0
    return 1.0


def _retain(b: Bandlimit, p: QParams, lams, units) -> PswfBasis:
    """Basis from eigenpairs of B in descending |lambda| order, all at or
    above _LAMBDA_FLOOR.

    ``units[i]`` is the unit eigenvector of ``lams[i]`` divided by
    sqrt(w_m), a list of floats, as the solve forms it without dividing
    by a weight.  Each sign is fixed by _sample_sign, and the samples are
    lambda * unit.
    """
    funcs, rows = [], []
    for lam, unit in zip(lams, units):
        samples = [lam * x for x in unit]
        if _sample_sign(samples) < 0:
            samples, unit = [-s for s in samples], [-x for x in unit]
        funcs.append(samples)
        rows.append(unit)
    return PswfBasis(b, p, lams, funcs, rows)


def _pair_order(evals) -> list[int]:
    """Indices of the ascending eigenvalues ``evals`` (Decimals) in the
    order of the retained pairs: by |lambda| rounded to _TIE_DIGITS
    digits, descending; inside a tie by the rank among the earlier members
    of the same sign, then + before -, so that the signs alternate from +,
    as they do down the spectrum."""
    key = Context(prec=_TIE_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
    mags = [key.abs(x) for x in evals]
    seen, rank = Counter(), []  # rank: earlier members of the same sign
    for mag, lam in zip(mags, evals):
        rank.append(seen[mag, lam < 0])
        seen[mag, lam < 0] += 1
    return sorted(range(len(evals)),
                  key=lambda i: (mags[i].copy_negate(), rank[i], evals[i] < 0))


def _basis_from_mp(b: Bandlimit, p: QParams, keep: int, dps: int):
    """One extended-precision solve; returns (basis, 0), or (None, short)
    when the solve must be repeated: ``short`` is the digits the smallest
    entries of a retained eigenvector lack, or None when fewer than
    ``keep`` pairs resolve.  A pair resolves when |lambda| lies
    _RESOLVED_DIGITS above the solve's absolute noise, under 10^-dps, and
    at or above _LAMBDA_FLOOR; one that does not is dropped only once
    10^(_RESOLVED_DIGITS - dps) is below the floor too."""
    evals, units = _mp_eigensystem(b, p, dps)
    resolved = Decimal(f"1e{_RESOLVED_DIGITS - dps}")  # the least |lambda| resolved
    floor = max(resolved, Decimal(_LAMBDA_FLOOR))
    lams = [evals[i] for i in _pair_order(evals)[:keep] if abs(evals[i]) >= floor]
    if len(lams) < keep and resolved > _LAMBDA_FLOOR:
        return None, None
    rows, lams = units(lams), [float(lam) for lam in lams]
    lost = _lost_digits(lams, rows, [float(x) for x in evals])  # each entry must keep 13
    if lost > dps - 13 - _DEPTH_GUARD:
        return None, math.ceil(lost - (dps - 13 - _DEPTH_GUARD))
    return _retain(b, p, lams, rows), 0


def _lost_digits(lams, rows, spectrum) -> float:
    """Digits lost by the eigenvectors ``rows`` of ``lams``: an entry 10^-s
    of its vector's largest keeps about dps - s digits, less
    log10(|lambda| / gap) where another eigenvalue of ``spectrum`` lies
    within gap.  Vectors of one float64 eigenvalue span an eigenspace with
    no unique basis, so each index takes the largest |entry| any of them
    has there (which a rotation of g vectors moves by at most sqrt(g); a
    root of a sum of squares would underflow at entries of 1e-170)."""
    lost = 0.0
    for lam in set(lams):
        group = [map(abs, row) for x, row in zip(lams, rows) if x == lam]
        env = list(map(max, *group, repeat(0.0)))
        span = math.log10(max(env)) - math.log10(min(filter(None, env)))
        gap = min([abs(lam)] + [abs(x - lam) for x in spectrum if x != lam])
        lost = max(lost, span + max(math.log10(abs(lam) / gap), 0.0))
    return lost


def _pivot_depth(b: Bandlimit, p: QParams, keep: int) -> float:
    """Digits by which the keep-th |eigenvalue| lies below 1, estimated
    from the pivots of the moment matrix K = G^T G.

    G[k,n] = D_n y_n^k with y_n = q^{v+1+2n} and
    D_n^2 = c_qv (1-q) c_n a^{2(v+1+2n)}, so G = V diag(D) with V the
    Vandermonde matrix of the y_n over the rows k < M.  The unpivoted
    LDL^T pivots of K are the squared diagonal of R in G = Q R.  Writing
    V = W T, with W the divided differences of t -> (1, t, t^2, ...) at
    y_0, y_1, ... (W[k,i] = h_{k-i}(y_0, ..., y_i) >= 0, unit lower
    triangular) and T upper triangular with T_kk = prod_{j<k} (y_k - y_j),
    gives the level of column k,
    log10 Delta_k = log10 D_k^2 + 2 log10 prod_{j<k} |y_j - y_k| + 2 log10 R_kk(W),
    all graded factors in closed form, in logs (D_n^2 from
    ``_log_scales``), since they underflow float64 within a few dozen
    terms.  R_kk(W) depends on W's leading k+1 columns alone, and is
    taken column by column by modified Gram-Schmidt at depth M.  At depth
    infinity K is a diagonally scaled Cauchy matrix and
    R_kk(W)^2 = 1 / ((1 - y_k^2) prod_{j<k} (1 - y_j y_k)^2); truncation
    only lowers the pivots (K_M <= K_inf), so these closed-form levels
    bound every column's.  The graded |eigenvalues| follow the pivots, so
    the keep-th largest level stands in for log10 |lambda_{keep-1}|.
    Inside a +-1 cluster pivots exceed 1 while |lambda| stays at 1, hence
    the clamp at 0; no retained pair lies deeper than _LAMBDA_FLOOR, hence
    the cap.  The columns stop once no later one can change the answer:
    once the keep-th largest level so far is at least 0, or at least the
    bound of every later column, or that bound lies below the cap."""
    lq, m, ln10 = math.log(p.q), b.depth, math.log(10.0)
    floor = math.log10(_LAMBDA_FLOOR)
    ey = [p.v + 1.0 + 2.0 * n for n in range(m)]  # y_n = q^ey_n
    # sums of log(1 - y_j y_k) = log(1 - q^{2v+2+2s}) over s = j + k < n
    ls = list(accumulate((math.log(-math.expm1((2.0 * ey[0] + 2.0 * s) * lq))
                          for s in range(2 * m)), initial=0.0))
    # level of column k without R_kk(W), and with its depth-infinity value
    base, log_t = [], 0.0
    for k, log_d2 in enumerate(islice(_log_scales(b, p), m)):
        base.append(log_d2 + 2.0 * log_t / ln10)
        log_t += ey[k] * lq + math.log(-math.expm1(2.0 * (k + 1) * lq))
    bound = [x - (ls[2 * k + 1] - ls[2 * k] + 2.0 * (ls[2 * k] - ls[k])) / ln10
             for k, x in enumerate(base)]
    later = list(accumulate(reversed(bound), max, initial=-math.inf))[::-1]
    levels, units, col = [], [], [0.0] * m
    for k in range(m):
        # W[r,k] = W[r-1,k-1] + y_k W[r-1,k] from W[k,k] = 1
        yk, w = math.exp(ey[k] * lq), 1.0
        col = [0.0] * k + [1.0] + [w := x + yk * w for x in col[k:-1]]
        res = col
        for u in units:
            r = sum(map(mul, u, res))
            res = [x - r * y for x, y in zip(res, u)]
        norm = math.sqrt(sum(map(mul, res, res)))
        units.append([x / norm for x in res])
        levels.append(base[k] + 2.0 * math.log10(norm))
        kth = sorted(levels)[-keep] if len(levels) >= keep else -math.inf
        if kth >= 0.0 or later[k + 1] <= max(kth, floor):
            return min(max(-kth, 0.0), -floor)


def compute_basis(b: Bandlimit, p: QParams, keep: int = 15) -> PswfBasis:
    """The ``keep`` eigenpairs of the concentration operator with the
    largest |lambda|, largest first, from the extended-precision solve.

    That solve works at 25 digits past the depth of the keep-th pair below
    1, plus a guard of 2, the depth estimated by ``_pivot_depth`` from the
    pivots of the moment matrix G^T G.  A solve that resolves fewer than
    ``keep`` pairs 25 digits above its absolute noise, 10^-dps, is
    repeated at 1.6 times the digits (at least 60 more), until that noise
    lies 25 digits below the 1e-150 floor.  The first time the smallest
    entries of an eigenvector are short, it is repeated instead at three
    times the digits they lack, plus the guard, when that is less: entries
    that are still rounding noise understate the shortfall, and on seeded
    grids the digits finally lacking were 1 to 3.2 times those measured
    first.  So a request takes at most one solve more than the ladder
    alone would give it.
    Raises SolverNoConvergence if the precision budget is exhausted:
    before any solve whose working digits (its digits, twice those its
    alternating sum cancels, and a guard) would pass ``_MAX_DPS``.  The
    cancelled digits grow with the square of a band edge's exponent past
    1: at q = 1/2, v = -1/2, depth 60, keep 4, a_exp = -30 works at 2,189
    digits, and a_exp = -40 would need 3,867 and raises.
    Pairs with |lambda| below 1e-150 (``_LAMBDA_FLOOR``, where lambda^2
    leaves float64) are never kept: where the keep-th lies below it, the
    basis holds fewer than ``keep`` pairs and a FewerPairsWarning says how
    many.
    """
    if check_integer(keep, "keep") < 1:
        raise ValueError("keep must be >= 1")
    if keep > b.depth:
        raise ValueError("keep must not exceed the bandlimit depth")
    dps = _RESOLVED_DIGITS + math.ceil(_pivot_depth(b, p, keep)) + _DEPTH_GUARD
    stepped = False
    while dps <= _MAX_DPS:
        basis, short = _basis_from_mp(b, p, keep, dps)
        if basis is not None:
            if basis.count < keep:
                warnings.warn(
                    f"kept {basis.count} of {keep} eigenpairs: the others have |lambda| "
                    f"below {_LAMBDA_FLOOR:.0e} (a_exp={b.a_exp}, depth={b.depth}, "
                    f"q={p.q!r}, v={p.v!r})", FewerPairsWarning, stacklevel=2)
            return basis
        ladder = max(int(dps * 1.6), dps + 60)
        if short is not None and not stepped:
            dps, stepped = min(dps + 3 * short + _DEPTH_GUARD, ladder), True
        else:
            dps = ladder
    raise SolverNoConvergence(
        f"spectrum unresolved at the {_MAX_DPS}-digit budget (keep={keep})"
    )


def eval_pswf_at(basis: PswfBasis, i: int, z: float) -> float:
    """Analytic extension psi_i(z) for real z >= 0, through the eigen-relation

    psi_i(z) = (1/lambda_i) c_qv int_0^a psi_i(t) j_v(zt, q^2) t^{2v+1} d_q t,

    evaluated as the truncated Jackson sum over the stored samples.
    """
    if not 0 <= check_integer(i, "i") < basis.count:
        raise IndexError(f"eigenpair index {i} out of range")
    b = basis.bandlimit
    p = basis.params
    jvals = jv_array(z * b.window.points(p.q), p)
    return float(p.c_qv * np.dot(b.weights(p) * basis.unit_samples[i], jvals))


def pswf_on_window(basis: PswfBasis, i: int, window: LatticeWindow) -> LatticeFunction:
    """Tabulate psi_i on a window: stored samples on [0, a]_q, the analytic
    extension elsewhere.  Point n of the window needs j_v(q^{n + a_exp + k})
    for k < depth, so one lattice table over all of the window's points,
    one memo read, serves every point as a slice."""
    if not 0 <= check_integer(i, "i") < basis.count:
        raise IndexError(f"eigenpair index {i} out of range")
    b = basis.bandlimit
    p = basis.params
    h = p.c_qv * b.weights(p) * basis.unit_samples[i]
    table = lattice_table(p, window.n_min + b.a_exp, window.n_max + b.a_exp + b.depth - 1)
    vals = np.empty(window.size)
    for j, n in enumerate(window.exponents()):
        m = n - b.a_exp
        if 0 <= m < b.depth:
            vals[j] = basis.eigenfunctions[i, m]
        else:
            vals[j] = np.dot(h, table[j : j + b.depth])
    return LatticeFunction(window, vals)


def concentration_index(f: LatticeFunction, b: Bandlimit, p: QParams) -> float:
    """Fraction of the weighted energy of f inside [0, a]_q, in [0, 1].

    Both energies are summed for f / max|f|, so the index does not depend
    on the scale of f.  Raises ZeroFunction when f is zero on its whole
    window, or its weights underflow wherever it is not, and ValueError
    when a value of f is not finite.
    """
    scale = float(np.max(np.abs(f.values)))
    if not math.isfinite(scale):
        raise ValueError("concentration index needs finite values")
    g = LatticeFunction(f.window, f.values / scale) if scale else f
    den = inner_product(g, g, p)
    if den == 0.0:
        raise ZeroFunction("concentration index undefined for the zero function")
    inside = LatticeFunction(b.window, [g.value_at_exp(int(k)) for k in b.window.exponents()])
    return inner_product(inside, inside, p) / den


def eigen_report_json(basis: PswfBasis) -> str:
    """JSON eigen-report {q, v, a_exp, M, eigenvalues, samples}."""
    lams, funcs, _ = basis._rows
    payload = {
        "q": basis.params.q,
        "v": basis.params.v,
        "a_exp": basis.bandlimit.a_exp,
        "M": basis.bandlimit.depth,
        "eigenvalues": [float(x) for x in lams],
        "samples": [[float(x) for x in row] for row in funcs],
    }
    return json.dumps(payload, indent=2)


def eigen_report_csv(basis: PswfBasis) -> str:
    """CSV eigen-report: one row per lattice point, one column per psi_i.
    The points are ``lattice_points``' float powers; one below the least
    normal float is printed from its exact value instead, as
    0.000000000000e+00 or a subnormal's few digits would misstate it."""
    q, b, funcs = basis.params.q, basis.bandlimit, basis._rows[1]
    exact = Context(prec=28, Emin=MIN_EMIN, Emax=MAX_EMAX)
    lines = [",".join(["point"] + [f"psi_{i}" for i in range(basis.count)])]
    for m, s in enumerate(range(b.a_exp, b.a_exp + b.depth)):
        point = q ** float(s)
        if point < sys.float_info.min:
            point = exact.power(Decimal(q), s)
        lines.append(",".join([f"{point:.12e}"] + [f"{row[m]:.12e}" for row in funcs]))
    return "\n".join(lines) + "\n"
