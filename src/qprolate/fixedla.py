"""Symmetric eigen-kernels on fixed-point integers.

A real number x is held as the Python int x * 2^prec, rounded to within
one unit, so every sum and product of the dense reductions is exact and
only a rescaling ``>> prec`` or a division rounds, each by one unit
2^-prec.  The error of a reduction is then norm-wise, like that of a
backward-stable floating-point one at prec bits, at the cost of plain
integer arithmetic.  Vectors and matrices are lists of such ints
(matrices as lists of rows); ``to_fixed`` converts a Decimal to one.

A Householder reflector is a tuple (start, v, vtv, bits): it maps x to
x - 2 v (v.x) / (v.v) on the entries start, start + 1, ... of x, with
vtv = v.v.  ``bits`` is the bit length of the largest |v_i|, and applying
the reflector scales the factor f = 2 (v.x) / (v.v) by 2^bits, not by
2^prec: f is then exact to 2^-bits, and each v_i f to one unit of x.

The QL iteration for the eigenvalues of the tridiagonal matrix runs in
floating point instead, in the standard library's decimal (libmpdec) at
``context(prec)``, at least prec bits' worth of digits: its rotations
carry each entry to its own relative precision, so the small eigenvalues
of a graded matrix can come out far finer than the 2^-prec that fixed
point resolves.  An off-diagonal entry within n^2 units 2^-prec of zero
is deflated: the reduction to tridiagonal form leaves errors of about
that size, so iterating on such an entry refines rounding noise.  It is the
root-free QL of Pal, Walker and Kahan (LAPACK dsterf), which carries the
squared off-diagonal entries and so takes square roots, the context's
own, only for each sweep's shift; it runs to the end and returns every
eigenvalue.  Eigenvectors come from one step of inverse iteration, one
solve of the shifted tridiagonal with partial pivoting, in fixed point.
"""

from __future__ import annotations

import functools
import math
import random
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from operator import mul

# products in this context are exact, so that int() truncates only once
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


class NoConvergence(ArithmeticError):
    """The QL iteration did not deflate an eigenvalue within its sweep budget."""


def context(prec: int) -> Context:
    """Decimal context carrying at least ``prec`` bits, with an unbounded
    exponent range."""
    return Context(prec=math.ceil(prec * math.log10(2)) + 2, Emax=MAX_EMAX, Emin=MIN_EMIN)


@functools.lru_cache(maxsize=1024)
def _pow2(k: int) -> Decimal:
    return Decimal(1 << k)


def to_fixed(x: Decimal, prec: int) -> int:
    """x * 2^prec truncated toward zero to an int, for a Decimal x and
    prec >= 0."""
    return int(_EXACT.multiply(x, _pow2(prec)))


def binary_magnitude(x: Decimal) -> int:
    """The e with 2^(e-1) <= |x| < 2^e, for a nonzero Decimal x."""
    n, d = x.copy_abs().as_integer_ratio()
    e = n.bit_length() - d.bit_length()  # 2^(e-1) < n/d < 2^(e+1)
    return e + ((n >> e if e >= 0 else n << -e) >= d)


def _reflector(start: int, x: list[int]):
    """Reflector mapping x (placed at ``start``) to alpha e_1; returns
    (reflector, alpha), or (None, x[0]) when x is a multiple of e_1 at
    this precision."""
    norm2 = sum(map(mul, x, x))
    if norm2 == x[0] * x[0]:
        return None, x[0]
    alpha = -math.isqrt(norm2) if x[0] >= 0 else math.isqrt(norm2)
    v = list(x)
    v[0] -= alpha
    bits = max(map(abs, v)).bit_length()
    return (start, v, sum(map(mul, v, v)), bits), alpha


def _apply(reflector, x: list[int]) -> None:
    """x <- H x in place, for one reflector H, to one unit of x per entry."""
    start, v, vtv, bits = reflector
    end = start + len(v)
    xs = x[start:end]
    f = (2 * sum(map(mul, v, xs)) << bits) // vtv
    x[start:end] = [xi - ((vi * f) >> bits) for xi, vi in zip(xs, v)]


def reflect(reflectors: list, x: list[int]) -> list[int]:
    """H_0 H_1 ... H_{k-1} x for the reflectors [H_0, ..., H_{k-1}] (the
    last one acts first): the back-transform of a vector through a
    factorisation that applied H_0 first."""
    x = list(x)
    for r in reversed(reflectors):
        _apply(r, x)
    return x


def cholesky(a: list[list[int]], d2: list[int], prec: int, rank: int) -> list[list[int]]:
    """Upper Cholesky factor R of the symmetric positive semidefinite
    matrix ``a`` (rows) of rank at most ``rank``, a = R^T R to a few units
    per entry, stopped at the first row j whose pivot is not positive or
    whose diagonal, weighted by column j's d2[j] >= 0 (held at 2^(2 prec)),
    R_jj sqrt(d2[j]) lies within n units of zero.  Returns the r <= rank
    rows computed, row i as [R_ii, R_i,i+1, ..., R_i,n-1]."""
    n = len(a)
    cols = [[] for _ in range(n)]  # column j of R, down to the current row
    limit = n * n << 2 * prec  # (n units)^2 at 2^(4 prec)
    for j in range(min(n, rank)):
        cj, aj = cols[j], a[j]
        piv = (aj[j] << prec) - sum(map(mul, cj, cj))  # R_jj^2 at 2^(2 prec)
        if piv * d2[j] < limit:
            break
        rjj = math.isqrt(piv)
        for m in range(j + 1, n):
            cm = cols[m]
            cm.append(((aj[m] << prec) - sum(map(mul, cj, cm))) // rjj)
        cj.append(rjj)
    return [[c[i] for c in cols[i:]] for i in range(len(cols[-1]))]


def tridiagonalize(a: list[list[int]], prec: int):
    """Householder reduction of the symmetric matrix ``a`` (rows, left
    intact) to tridiagonal form T = Z^T a Z, Z = H_0 H_1 ... H_{n-3}.

    Returns (d, e, reflectors): the diagonal and the subdiagonal of T,
    and the reflectors, so that ``reflect(reflectors, s)`` maps an
    eigenvector s of T to one of ``a``.
    """
    a = [list(row) for row in a]
    n = len(a)
    e, reflectors = [], []
    for k in range(n - 2):
        h, alpha = _reflector(k + 1, [a[i][k] for i in range(k + 1, n)])
        e.append(alpha)
        if h is None:
            continue
        reflectors.append(h)
        _, v, vtv, _ = h
        block = [row[k + 1:] for row in a[k + 1:]]
        # rank-two update of the trailing block: A - v w^T - w v^T with
        # p = 2 A v / v.v and w = p - (p.v / v.v) v
        p = [(2 * sum(map(mul, row, v)) << prec) // vtv for row in block]
        kv = (sum(map(mul, p, v)) << prec) // vtv
        w = [pi - ((kv * vi) >> prec) for pi, vi in zip(p, v)]
        for i, row in enumerate(block):
            vi, wi = v[i], w[i]
            a[k + 1 + i][k + 1:] = [
                x - ((vi * wj + wi * vj) >> prec) for x, wj, vj in zip(row, w, v)
            ]
    if n > 1:
        e.append(a[n - 1][n - 2])
    return [a[i][i] for i in range(n)], e, reflectors


def tridiagonal_eigenvalues(d: list[int], e: list[int], prec: int) -> list[Decimal]:
    """All eigenvalues of the symmetric tridiagonal matrix (d, e), in
    ascending order, as Decimals carrying ``prec`` bits.

    The root-free QL iteration of Pal, Walker and Kahan with the Wilkinson
    shift (LAPACK dsterf; Parlett, The Symmetric Eigenvalue Problem,
    8.15) in ``context(prec)``.  It runs on the squares of the
    off-diagonal entries, so the only square roots are the two that form
    each sweep's shift.  An off-diagonal entry e_m is deflated once
    e_m^2 <= n^4 units^2, within n^2 units of zero.  The iteration runs
    on the entries as given, scaled by 2^prec, and the eigenvalues are
    scaled back at the end.
    """
    n = len(d)
    ctx = context(prec)
    with localcontext(ctx):
        noise = Decimal(n ** 4)
        d = [Decimal(x) for x in d]
        e2 = [+Decimal(x * x) for x in e] + [Decimal(0)]  # squared, rounded
        for l in range(n):
            for _ in range(60):
                m = l
                while m < n - 1 and e2[m] > noise:
                    m += 1
                if m == l:
                    break
                _ql_sweep(d, e2, l, m, ctx)
            else:
                raise NoConvergence(f"QL iteration did not deflate eigenvalue {l} of {n}")
        unit = Decimal(1 << prec)
        return sorted(x / unit for x in d)


def _ql_sweep(d: list[Decimal], e2: list[Decimal], l: int, m: int, ctx: Context) -> None:
    """One root-free QL sweep, in place, over the unreduced block l..m of
    the tridiagonal (d, e2), e2 its squared off-diagonal, with the
    Wilkinson shift of the block's leading 2 x 2: its two square roots are
    the sweep's only ones."""
    rte = ctx.sqrt(e2[l])
    sigma = (d[l + 1] - d[l]) / (2 * rte)
    r = ctx.sqrt(sigma * sigma + 1)
    sigma = d[l] - rte / (sigma + r if sigma >= 0 else sigma - r)
    c, s = Decimal(1), Decimal(0)
    gamma = d[m] - sigma
    p = gamma * gamma
    for i in range(m - 1, l - 1, -1):
        bb = e2[i]
        r = p + bb
        if i != m - 1:
            e2[i + 1] = s * r
        oldc, oldgam = c, gamma
        c, s = p / r, bb / r
        gamma = c * (d[i] - sigma) - s * oldgam
        d[i + 1] = oldgam + (d[i] - gamma)
        p = gamma * gamma / c if c else oldc * bb
    e2[l] = s * p
    d[l] = sigma + gamma
    e2[m] = Decimal(0)


def tridiagonal_eigenvectors(d: list[int], e: list[int], lams: list[int], prec: int):
    """Unit eigenvectors (scaled by 2^prec) of the symmetric tridiagonal
    matrix (d, e) for the eigenvalues ``lams`` (ints scaled by 2^prec).

    One step of inverse iteration (LAPACK dstein): one solve through
    T - lam I with partial pivoting, ``_shifted_solve``, from a fixed
    pseudo-random start.  lam is an eigenvalue to working precision, so
    the one solve amplifies the wanted component over those a gap g away
    by about g 2^prec / ||T||.  Each vector is orthogonalised
    against the earlier ones whose eigenvalue lies within
    2^(-prec/2) ||T||, so that a cluster unresolved at this precision
    comes out as an orthonormal basis of its invariant subspace.
    """
    n = len(d)
    scale = max(map(abs, d + e), default=0)
    close = scale >> (prec // 2)
    one = 1 << prec
    out = []
    for j, lam in enumerate(lams):
        group = [y for mu, y in zip(lams, out) if abs(mu - lam) <= close]
        rng = random.Random(j)
        x = [rng.getrandbits(prec + 1) - one for _ in range(n)]
        x = _shifted_solve(d, e, lam, x, prec)
        for y in group:
            f = sum(map(mul, x, y)) >> prec
            x = [xi - ((f * yi) >> prec) for xi, yi in zip(x, y)]
        norm = math.isqrt(sum(map(mul, x, x)))
        out.append([(xi << prec) // norm for xi in x])
    return out


def _shifted_solve(d: list[int], e: list[int], lam: int, x: list[int], prec: int) -> list[int]:
    """(T - lam I)^-1 x for the symmetric tridiagonal T = (d, e) shifted by
    ``lam`` (all scaled by 2^prec), each entry to a few units of x's
    scale, by Gaussian elimination with partial pivoting (LAPACK dgtsv):
    each row swap and multiplier (sub << prec) // pivot is applied to x as
    the rows of U are formed, and U is then back-substituted.  A zero
    pivot, which an exact eigenvalue leaves, is taken as one unit."""
    n = len(d)
    x = list(x)
    u = []  # row k of U as (U_kk, U_k,k+1, U_k,k+2)
    a = d[0] - lam  # the pending row k: a at column k, b at k + 1
    b = e[0] if n > 1 else 0
    for k in range(n - 1):
        c, dk1 = e[k], d[k + 1] - lam  # row k + 1 at columns k and k + 1
        ek1 = e[k + 1] if k + 2 < n else 0
        if abs(c) > abs(a):  # swap rows k and k + 1
            m = (a << prec) // c
            u.append((c, dk1, ek1))
            a, b = b - ((m * dk1) >> prec), -((m * ek1) >> prec)
            x[k], x[k + 1] = x[k + 1], x[k] - ((m * x[k + 1]) >> prec)
        else:
            m = (c << prec) // a if c else 0
            u.append((a, b, 0))
            a, b = dk1 - ((m * b) >> prec), ek1
            x[k + 1] -= (m * x[k]) >> prec
    u.append((a, 0, 0))
    x += [0, 0]
    for k in range(n - 1, -1, -1):
        piv, u1, u2 = u[k]
        x[k] = ((x[k] << prec) - u1 * x[k + 1] - u2 * x[k + 2]) // (piv or 1)
    return x[:n]
