"""Independent high-precision reference implementations for the tests.

Everything here is deliberately written from scratch against the defining
formulas (fresh products and powers per term, no shared recurrences with
the package code) and evaluated in mpmath at a fixed number of digits.
The exceptions are ``convolve_direct``, the defining sum of the
q-convolution over the package's own translation, which checks the
spectral route of ``qp.convolve`` against the direct one, and
``pivot_depth``, the float64 QR of the divided-difference matrix that the
package's leading-column ``_pivot_depth`` replaced.
"""

import math
from itertools import islice

import mpmath as mp
import numpy as np

import qprolate as qp


def qpoch(z, q, n=None, dps=40):
    """(z; q)_n, or the infinite product when n is None."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        q = mp.mpf(q)
        out = mp.mpf(1)
        if n is None:
            i = 0
            while True:
                factor = z * q**i
                if abs(factor) < mp.mpf(10) ** (-dps - 10):
                    return out
                out *= 1 - factor
                i += 1
        for i in range(int(n)):
            out *= 1 - z * q**i
        return out


def c_qv(q, v, dps=40):
    with mp.workdps(dps):
        q = mp.mpf(q)
        v = mp.mpf(v)
        return qpoch(q ** (2 * v + 2), q * q, None, dps) / qpoch(q * q, q * q, None, dps) / (1 - q)


def jv_series(z, q, v, dps=40):
    """Hahn-Exton series with base q^2, each term rebuilt from scratch."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        q = mp.mpf(q)
        v = mp.mpf(v)

        def term(n):
            return (
                (-1) ** n
                * q ** (n * (n + 1))
                * z ** (2 * n)
                / (qpoch(q * q, q * q, n, dps) * qpoch(q ** (2 * v + 2), q * q, n, dps))
            )

        total = mp.mpf(0)
        peak = mp.mpf(0)
        n, now = 0, term(0)
        while True:
            total += now
            peak = max(peak, abs(now))
            n += 1
            # the whole next term, denominators too: near q = 1 they fall
            # to 1e-15 and below
            nxt = term(n)
            if n > 4 and abs(nxt) < mp.mpf(10) ** (-dps) * max(1, peak) and abs(nxt) < abs(now):
                return total
            now = nxt


def jv_lattice(q, v, s, dps):
    """j_v(q^s, q^2) at the exact lattice point, with q^s formed inside the
    working precision: an ``mp.mpf(q) ** s`` formed outside it is rounded
    to 53 bits, which at s < 0 changes every digit of the value.  ``dps``
    must cover the series' cancellation, the digits by which its peak term
    exceeds the value."""
    with mp.workdps(dps):
        return jv_series(mp.mpf(q) ** int(s), q, v, dps)


def product_integral(y, z, a_exp, q, v, depth, dps=40):
    """Direct Jackson sum of int_0^a j_v(yt) j_v(zt) t^{2v+1} d_q t."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        v = mp.mpf(v)
        a = q ** int(a_exp)
        total = mp.mpf(0)
        for m in range(depth):
            t = a * q**m
            total += q ** (m * (2 * v + 2)) * jv_series(y * t, q, v, dps) * jv_series(
                z * t, q, v, dps
            )
        return (1 - q) * a ** (2 * v + 2) * total


def bilateral_jackson(exps, vals, q, dps=40):
    """(1-q) sum q^n f(q^n) over tabulated exponents."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        total = mp.mpf(0)
        for n, f in zip(exps, vals):
            total += q ** int(n) * mp.mpf(float(f))
        return (1 - q) * total


def transform_point(exps, vals, m, q, v, dps=40):
    """One output value of the q-Bessel Fourier transform, term by term."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        v = mp.mpf(v)
        total = mp.mpf(0)
        for n, f in zip(exps, vals):
            total += (
                q ** (int(n) * (2 * v + 2))
                * mp.mpf(float(f))
                * jv_series(q ** (int(m) + int(n)), q, v, dps)
            )
        return c_qv(q, v, dps) * (1 - q) * total


def translate_point(exps, spec_vals, x_exp, y_exp, q, v, dps=40):
    """One value of the q-Bessel translation from a tabulated spectrum."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        v = mp.mpf(v)
        total = mp.mpf(0)
        for t, s in zip(exps, spec_vals):
            total += (
                q ** (int(t) * (2 * v + 2))
                * mp.mpf(float(s))
                * jv_series(q ** (int(x_exp) + int(t)), q, v, dps)
                * jv_series(q ** (int(y_exp) + int(t)), q, v, dps)
            )
        return c_qv(q, v, dps) * (1 - q) * total


def convolve_direct(f, g, plan):
    """Brute-force convolution c (1-q) sum_y q^{y(2v+2)} T_{q,x}f(q^y) g(q^y),
    one ``qp.translate`` per output point x: the definition that
    ``qp.convolve``'s spectral route must agree with."""
    wg = qp.lattice_weights(g.window, plan.params) * g.values
    c = plan.params.c_qv
    out = [c * np.dot(wg, qp.translate(int(x), f, plan).values) for x in plan.window.exponents()]
    return qp.LatticeFunction(plan.window, np.array(out))


def operator_matrix(a_exp, depth, q, v, dps=40):
    """Weight-symmetrized concentration operator matrix, built from scratch."""
    with mp.workdps(dps):
        q = mp.mpf(q)
        v = mp.mpf(v)
        a = q ** int(a_exp)
        c = c_qv(q, v, dps)
        w = [(1 - q) * a ** (2 * v + 2) * q ** (m * (2 * v + 2)) for m in range(depth)]
        sq = [mp.sqrt(x) for x in w]
        out = mp.matrix(depth, depth)
        for k in range(depth):
            for m in range(k, depth):
                val = c * sq[k] * sq[m] * jv_series(q ** (2 * int(a_exp) + k + m), q, v, dps)
                out[k, m] = val
                out[m, k] = val
        return out


def cyclic_jacobi(A, dps=60, max_sweeps=40):
    """Cyclic Jacobi eigensolver; A is an mp.matrix or a float array.

    Returns (eigenvalues, V) with columns of V the eigenvectors, ordered
    by descending |eigenvalue|.
    """
    with mp.workdps(dps):
        if not isinstance(A, mp.matrix):
            A = mp.matrix(np.asarray(A, dtype=float).tolist())
        n = A.rows
        V = mp.eye(n)
        norm = max(abs(A[i, j]) for i in range(n) for j in range(n))
        stop = norm * mp.mpf(10) ** (-(dps - 8))
        for _ in range(max_sweeps):
            off = max(
                (abs(A[i, j]) for i in range(n) for j in range(i + 1, n)), default=mp.mpf(0)
            )
            if off <= stop:
                break
            for p in range(n - 1):
                for q_ in range(p + 1, n):
                    apq = A[p, q_]
                    if abs(apq) <= stop / n:
                        continue
                    tau = (A[q_, q_] - A[p, p]) / (2 * apq)
                    if tau >= 0:
                        t = 1 / (tau + mp.sqrt(1 + tau * tau))
                    else:
                        t = -1 / (-tau + mp.sqrt(1 + tau * tau))
                    c = 1 / mp.sqrt(1 + t * t)
                    s = t * c
                    for k in range(n):
                        akp = A[k, p]
                        akq = A[k, q_]
                        A[k, p] = c * akp - s * akq
                        A[k, q_] = s * akp + c * akq
                    for k in range(n):
                        apk = A[p, k]
                        aqk = A[q_, k]
                        A[p, k] = c * apk - s * aqk
                        A[q_, k] = s * apk + c * aqk
                    for k in range(n):
                        vkp = V[k, p]
                        vkq = V[k, q_]
                        V[k, p] = c * vkp - s * vkq
                        V[k, q_] = s * vkp + c * vkq
        evals = [A[i, i] for i in range(n)]
        order = sorted(range(n), key=lambda i: -abs(evals[i]))
        ordered = [evals[i] for i in order]
        Vo = mp.matrix(n, n)
        for col, i in enumerate(order):
            for k in range(n):
                Vo[k, col] = V[k, i]
        return ordered, Vo


def depth_infinity_pairs(q, v, a_exp, keep, dps=60):
    """The ``keep`` eigenpairs of the concentration operator at depth
    infinity with the largest |lambda|, largest first, as (lambdas, ts).

    For psi(x) = sum_n c_n x^{2n} the commuting operator acts on the c_n
    as the three-term recurrence
    A[n,n] = -(q^{-2n} + q^{2v+2n+2}),
    A[n,n+1] = a^2 (q^{-2n-2} - 1) (1 - q^{2v+2n+2}), A[n,n-1] = -a^2,
    here its N x N section, N where the keep-th vector's coefficients have
    fallen by 10^-dps (at most 40).  Its eigenvectors with the ``keep``
    largest eigenvalues (nearest 0) are the depth-infinity ones, and each
    lambda is the Rayleigh quotient t^T H D J D H t / t^T H t, with
    t_n = c_n a^{2n}, H[n,m] = 1 / (1 - q^{2v+2+2(n+m)}), J = diag((-1)^n)
    and D_n^2 = c_qv (1-q) a^{2v+2} a^{4n} q^{n(n+1)} / ((q^2;q^2)_n
    (q^{2v+2};q^2)_n).  Each t is scaled to t^T H t = 1, so that
    sum_n t_n q^{2nm} / sqrt((1-q) a^{2v+2}) is psi's unit eigenvector of
    the weighted operator matrix, over all m >= 0, divided by sqrt(w_m)."""
    log_q = abs(float(np.log10(q)))
    tail = next((m for m in range(1, 41) if (m * (m + 1) + 2 * m * a_exp) * log_q >= dps), 40)
    size = min(keep + tail, 40)
    with mp.workdps(dps):
        qm, vm = mp.mpf(q), mp.mpf(v)
        a2 = qm ** (2 * int(a_exp))
        A = mp.zeros(size, size)
        for n in range(size):
            A[n, n] = -(qm ** (-2 * n) + qm ** (2 * vm + 2 * n + 2))
            if n + 1 < size:
                A[n, n + 1] = a2 * (qm ** (-2 * n - 2) - 1) * (1 - qm ** (2 * vm + 2 * n + 2))
                A[n + 1, n] = -a2
        mus, vecs = mp.eig(A)
        order = sorted(range(size), key=lambda j: -mp.re(mus[j]))[:keep]
        scale = c_qv(q, v, dps) * (1 - qm) * a2 ** (vm + 1)
        d2 = [scale * a2 ** (2 * n) * qm ** (n * (n + 1))
              / (qpoch(qm * qm, qm * qm, n, dps) * qpoch(qm ** (2 * vm + 2), qm * qm, n, dps))
              for n in range(size)]
        h = [1 / (1 - qm ** (2 * vm + 2 + 2 * s)) for s in range(2 * size - 1)]
        pairs = []
        for j in order:
            t = [mp.re(vecs[n, j]) * a2 ** n for n in range(size)]
            ht = [mp.fsum(h[n + m] * t[m] for m in range(size)) for n in range(size)]
            norm = mp.sqrt(mp.fsum(x * y for x, y in zip(t, ht)))
            lam = mp.fsum((-1) ** n * d2[n] * ht[n] ** 2 for n in range(size)) / norm**2
            pairs.append((lam, [x / norm for x in t]))
        pairs.sort(key=lambda pair: -abs(pair[0]))
        return [lam for lam, _ in pairs], [t for _, t in pairs]


def pivot_depth(b, p, keep):
    """``pswf._pivot_depth`` from the R_kk(W) of a float64 Householder QR
    of the whole M x M divided-difference matrix W, every column's level
    taken (see ``_pivot_depth`` for the levels and the clamp)."""
    from qprolate.pswf import _LAMBDA_FLOOR, _log_scales

    lq, m = math.log(p.q), b.depth
    ey = p.v + 1.0 + 2.0 * np.arange(m)  # y_n = q^ey
    log_d2 = np.fromiter(islice(_log_scales(b, p), m), float, m)  # log10 D_n^2
    # log(y_j - y_k) for j < k, with y_j - y_k = y_j (1 - q^{2(k-j)})
    j, k = np.triu_indices(m, 1)
    log_t = np.bincount(k, ey[j] * lq + np.log(-np.expm1(2.0 * (k - j) * lq)), m)
    # h_r(y_0..y_i) = h_r(y_0..y_{i-1}) + y_i h_{r-1}(y_0..y_i), row by row
    y, w = np.exp(ey * lq), np.zeros((m, m))
    w[0, 0] = 1.0
    for row in range(1, m):
        w[row] = y * w[row - 1]
        w[row, 1:] += w[row - 1, :-1]
    log_r = np.log(np.abs(np.diag(np.linalg.qr(w, mode="r"))))
    levels = np.sort(log_d2 + 2.0 * (log_t + log_r) / math.log(10.0))
    return min(max(-levels[-keep], 0.0), -math.log10(_LAMBDA_FLOOR))
