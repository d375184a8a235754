"""Fixed-point kernels of the factored eigensolve, on seeded random
matrices, against float64 numpy."""

import math
import operator
from decimal import Context, Decimal

import mpmath as mp
import numpy as np
import pytest

from qprolate import fixedla

PREC = 200


def _fixed(x, prec=PREC):
    return int(round(float(x) * 2.0**60)) << (prec - 60)


def _float(x, prec=PREC):
    return float(mp.mpf((x, -prec)))


def _symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def _exact(rows, prec=PREC):
    """The r x n upper trapezoidal factor of ``cholesky`` as an mp matrix."""
    n = len(rows[0]) if rows else 0
    r = mp.matrix(len(rows), n)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            r[i, i + j] = mp.mpf((x, -prec))
    return r


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_cholesky_reproduces_the_matrix(n):
    # a well-conditioned positive definite matrix, unit weights: every row
    # is kept, the diagonal is positive and R^T R = A to a few units
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n + 3, n))
    a = [[_fixed(v) for v in row] for row in x.T @ x + np.eye(n)]
    rows = fixedla.cholesky(a, [1 << 2 * PREC] * n, PREC, n)
    assert len(rows) == n and [len(r) for r in rows] == list(range(n, 0, -1))
    assert all(r[0] > 0 for r in rows)
    with mp.workprec(2 * PREC):
        r = _exact(rows)
        gram = r.T * r
        err = max(abs(gram[i, j] - mp.mpf((a[i][j], -PREC))) for i in range(n) for j in range(n))
        assert err <= 4 * n * mp.mpf(2) ** -PREC


def test_cholesky_stops_at_the_rank():
    # the Gram matrix of 3 x 6 integer rows, rank 3, plus 2^40 units on its
    # diagonal for rounding noise: under weights of 2^200 a fourth row
    # would carry that noise far above a unit, so only the rank stops it
    x = np.random.default_rng(3).integers(-9, 10, (3, 6))
    a = [[(int(v) << PREC) + ((i == j) << 40) for j, v in enumerate(row)]
         for i, row in enumerate(x.T @ x)]
    assert len(fixedla.cholesky(a, [1 << 2 * PREC + 200] * 6, PREC, 6)) > 3
    rows = fixedla.cholesky(a, [1 << 2 * PREC + 200] * 6, PREC, 3)
    assert [len(r) for r in rows] == [6, 5, 4]
    with mp.workprec(2 * PREC):
        r = _exact(rows)
        gram = r.T * r
        err = max(abs(gram[i, j] - mp.mpf((a[i][j], -PREC))) for i in range(3) for j in range(6))
        assert err <= 24 * int(np.abs(x.T @ x).max()) * mp.mpf(2) ** -PREC


def test_cholesky_stops_at_the_first_noise_row():
    # the Hankel moment matrix H[i,j] = sum_{k<40} (y_i y_j)^k of the
    # nodes y_i = 2^-(i+1), whose pivots fall like prod (y_j - y_i)^2,
    # under the weights d_i = 2^(-30 i): the rows kept are those whose
    # weighted diagonal R_ii sqrt(d_i) lies above n units, by the exact
    # pivots at twice the precision, and R^T R reproduces the rows of H
    # that they cover
    n, m = 14, 40
    with mp.workprec(4 * PREC):
        y = [mp.mpf(2) ** -(i + 1) for i in range(n)]
        h = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                h[i, j] = mp.fsum((y[i] * y[j]) ** k for k in range(m))
        a = [[int(mp.ldexp(h[i, j], PREC)) for j in range(n)] for i in range(n)]
        d2 = [1 << (2 * PREC - 30 * i) for i in range(n)]
        rows = fixedla.cholesky(a, d2, PREC, n)
        size = len(rows)
        assert 2 < size < n
        # the exact pivots, from the LDL^T of the fixed-point matrix
        hx = mp.matrix([[mp.mpf((x, -PREC)) for x in row] for row in a])
        pivots = [mp.det(hx[: i + 1, : i + 1]) / mp.det(hx[:i, :i]) if i else hx[0, 0]
                  for i in range(size + 1)]
        unit = mp.mpf(2) ** -PREC
        weighted = [mp.sqrt(pv * mp.ldexp(d, -2 * PREC)) if pv > 0 else 0
                    for pv, d in zip(pivots, d2)]
        assert all(w > 2 * n * unit for w in weighted[:size])
        assert weighted[size] < 2 * n * unit
        r = _exact(rows)
        gram = r.T * r
        err = max(abs(gram[i, j] - hx[i, j]) for i in range(size) for j in range(n))
        assert err <= 4 * n * unit


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_tridiagonal_eigenvalues_match_eigvalsh(n):
    rng = np.random.default_rng(n)
    a = _symmetric(rng, n)
    d, e, _ = fixedla.tridiagonalize([[_fixed(x) for x in row] for row in a], PREC)
    got = fixedla.tridiagonal_eigenvalues(d, e, PREC)
    want = np.linalg.eigvalsh(a)
    assert all(x <= y for x, y in zip(got, got[1:]))  # ascending
    radius = np.abs(want).max()
    assert np.abs(np.array([float(x) for x in got]) - want).max() <= 1e-12 * radius


def _graded(prec, n=22):
    # diagonal +-10^(-4i), coupled by 0.3 sqrt(|d_i d_{i+1}|), as ints
    with mp.workprec(prec):
        d = [(-1) ** i * mp.mpf(10) ** (-4 * i) for i in range(n)]
        e = [mp.mpf("0.3") * mp.sqrt(abs(d[i] * d[i + 1])) for i in range(n - 1)]
        return [int(mp.ldexp(x, prec)) for x in d], [int(mp.ldexp(x, prec)) for x in e]


@pytest.mark.parametrize("reverse", [False, True])
def test_tridiagonal_eigenvalues_relative_on_graded_matrix(reverse):
    # diagonal +-10^(-4i), i < 22, coupled by 0.3 sqrt(|d_i d_{i+1}|):
    # eigenvalues from 1 down to 1e-84, alternating in sign.  At 300 bits a
    # solve accurate only to 2^-300 of the norm would miss the smallest by
    # 5e-7 relative; the relative deflation test resolves each to far
    # better, against mpmath at twice the precision (graded either way)
    prec, n = 300, 22
    d, e = _graded(prec, n)
    if reverse:
        d, e = d[::-1], e[::-1]
    got = fixedla.tridiagonal_eigenvalues(d, e, prec)
    assert all(x <= y for x, y in zip(got, got[1:]))  # ascending
    with mp.workprec(2 * prec):
        t = mp.matrix(n, n)
        for i, x in enumerate(d):
            t[i, i] = mp.mpf((x, -prec))
        for i, x in enumerate(e):
            t[i, i + 1] = t[i + 1, i] = mp.mpf((x, -prec))
        want = sorted(mp.eigsy(t, eigvals_only=True))
        assert min(map(abs, want)) < 1e-80 and max(map(abs, want)) > 0.9
        err = max(abs(mp.mpf(str(x)) - w) / abs(w) for x, w in zip(got, want))
    assert err <= 1e-12


def _eigenpairs(d, e, prec=PREC):
    evals = fixedla.tridiagonal_eigenvalues(d, e, prec)
    vecs = fixedla.tridiagonal_eigenvectors(d, e, [fixedla.to_fixed(x, prec) for x in evals], prec)
    return np.array([float(x) for x in evals]), vecs


def test_eigenvectors_through_the_reduction():
    rng = np.random.default_rng(9)
    n = 9
    a = _symmetric(rng, n)
    d, e, tri = fixedla.tridiagonalize([[_fixed(x) for x in row] for row in a], PREC)
    lam, vecs = _eigenpairs(d, e)
    y = np.array([[_float(x) for x in fixedla.reflect(tri, s)] for s in vecs])
    assert np.abs(y @ y.T - np.eye(n)).max() <= 1e-14
    assert np.abs(a @ y.T - y.T * lam).max() <= 1e-14


def test_eigenvectors_of_a_degenerate_cluster():
    # two equal blocks (and a 1 x 1 one) make every eigenvalue of the
    # block double, exactly: inverse iteration alone would return one
    # vector twice; the pair must span the eigenspace orthonormally
    block_d, block_e = [0.5, -0.25, 0.75], [0.3, -0.6]
    d = [_fixed(x) for x in block_d * 2 + [0.1]]
    e = [_fixed(x) for x in block_e + [0.0] + block_e + [0.0]]
    lam, vecs = _eigenpairs(d, e)
    df, ef = [_float(x) for x in d], [_float(x) for x in e]
    t = np.diag(df) + np.diag(ef, 1) + np.diag(ef, -1)
    y = np.array([[_float(x) for x in s] for s in vecs])
    assert np.abs(y @ y.T - np.eye(len(d))).max() <= 1e-14
    assert np.abs(t @ y.T - y.T * lam).max() <= 1e-14
    want_lam, want_vec = np.linalg.eigh(t)
    for mu in np.linalg.eigvalsh(np.diag(block_d) + np.diag(block_e, 1) + np.diag(block_e, -1)):
        got = np.abs(lam - mu) < 1e-9
        ref = np.abs(want_lam - mu) < 1e-9
        assert got.sum() == ref.sum() == 2
        proj = y[got].T @ y[got]
        assert np.abs(proj - want_vec[:, ref] @ want_vec[:, ref].T).max() <= 1e-14


def _shifted(d, e, lam, prec=PREC):
    """T - lam I as an mp matrix, for fixed-point (d, e) and lam."""
    n = len(d)
    t = mp.matrix(n, n)
    for i, x in enumerate(d):
        t[i, i] = mp.mpf((x - lam, -prec))
    for i, x in enumerate(e):
        t[i, i + 1] = t[i + 1, i] = mp.mpf((x, -prec))
    return t


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("swap_all", [False, True])
def test_pivoted_lu_solve_matches_an_exact_solve(seed, swap_all):
    # seeded tridiagonals with off-diagonal entries up to twice the
    # diagonal ones, so rows swap often; with d = lam and |e_k| rising
    # every step swaps (n is even there: T - lam I is singular at odd n).
    # The solve errs by at most kappa (1 + |x|) units, as a backward
    # stable one does, against an exact solve at four times the precision
    rng = np.random.default_rng([seed, 21])
    n = int(rng.integers(1, 13)) * 2 if swap_all else int(rng.integers(2, 25))
    lam = _fixed(rng.uniform(-1, 1))
    if swap_all:
        d = [lam] * n
        e = [_fixed(x * s) for x, s in zip(np.sort(rng.uniform(0.5, 2, n - 1)),
                                           rng.choice([-1, 1], n - 1))]
    else:
        d = [_fixed(x) for x in rng.uniform(-1, 1, n)]
        e = [_fixed(x) for x in rng.uniform(-2, 2, n - 1)]
    b = [int.from_bytes(rng.bytes(26), "big") - (1 << 207) >> 7 for _ in range(n)]
    lu = fixedla._shifted_lu(d, e, lam, PREC)
    swaps = [swap for swap, _ in lu[0]]
    assert all(swaps) if swap_all else any(swaps)
    got = fixedla._lu_solve(lu, b, PREC)
    with mp.workprec(4 * PREC):
        t = _shifted(d, e, lam)
        want = mp.lu_solve(t, mp.matrix([mp.mpf((x, -PREC)) for x in b]))
        kappa = mp.mnorm(t, 1) * mp.mnorm(t**-1, 1)
        unit = mp.mpf(2) ** -PREC
        err = max(abs(mp.mpf((x, -PREC)) - w) for x, w in zip(got, want))
        assert err <= kappa * (1 + max(map(abs, want))) * unit


def test_exact_eigenvalue_leaves_a_zero_pivot():
    # 0 is an eigenvalue of the path matrix (d = 0, e = 1) of odd order,
    # exactly: the last pivot of T - 0 I is zero, is taken as one unit,
    # and inverse iteration still returns the eigenvector
    # (1, 0, -1, 0, 1, ...) / sqrt(k)
    n = 7
    d, e = [0] * n, [1 << PREC] * (n - 1)
    _, u = fixedla._shifted_lu(d, e, 0, PREC)
    assert u[-1][0] == 0 and all(row[0] for row in u[:-1])
    (y,) = fixedla.tridiagonal_eigenvectors(d, e, [0], PREC)
    want = np.array([(-1) ** (i // 2) if i % 2 == 0 else 0 for i in range(n)]) / 2.0
    y = np.array([_float(x) for x in y])
    assert np.abs(y * np.sign(y[0]) - want).max() <= 1e-15


@pytest.mark.parametrize("s", ["1", "0.5", "0.49999", "3", "4", "-7.99", "1e-300", "1e300",
                               "2.5e-1000", "-1.125e1000"])
def test_binary_magnitude_matches_mpmath(s):
    with mp.workprec(4000):
        assert fixedla.binary_magnitude(Decimal(s)) == mp.mag(mp.mpf(s))


def test_to_fixed_truncates_toward_zero():
    assert fixedla.to_fixed(Decimal("1.7"), 1) == 3
    assert fixedla.to_fixed(Decimal("-1.75"), 3) == -14
    assert fixedla.to_fixed(Decimal("-1.7"), 1) == -3
    x = Decimal(2).sqrt(fixedla.context(PREC)) / 7
    with mp.workprec(2 * PREC):
        assert fixedla.to_fixed(x, PREC) == int(mp.ldexp(mp.mpf(str(x)), PREC))


@pytest.mark.parametrize("keep", [1, 4, 10, 21])
@pytest.mark.parametrize("matrix", ["graded", "reversed", "random"])
def test_early_stopping_keeps_the_top_eigenvalues(keep, matrix):
    # the graded matrix deflates its largest eigenvalues first, so the QL
    # stops early; the reversed one and a random one deflate in another
    # order, where stopping at the first keep deflated would be wrong
    prec = 300
    if matrix == "random":
        a = _symmetric(np.random.default_rng(keep), 22)
        d, e, _ = fixedla.tridiagonalize([[_fixed(x, prec) for x in row] for row in a], prec)
    else:
        d, e = _graded(prec)
        if matrix == "reversed":
            d, e = d[::-1], e[::-1]
    full = fixedla.tridiagonal_eigenvalues(d, e, prec)
    got = fixedla.tridiagonal_eigenvalues(d, e, prec, keep)
    assert len(got) >= keep
    if matrix == "graded":
        assert len(got) < len(full)
    assert all(x <= y for x, y in zip(got, got[1:]))  # ascending
    top = sorted(full, key=abs, reverse=True)[:keep]
    assert sorted(got, key=abs, reverse=True)[:keep] == top
    # the returned eigenvalues are full ones, and the rest are smaller
    assert set(got) <= set(full)
    rest = [abs(x) for x in full if x not in got]
    assert not rest or min(map(abs, top)) > max(rest)


def test_qprolate_solve_deflates_fewer_than_n(monkeypatch):
    # at q = 0.7, keep = 15 the QL stops before deflating all N eigenvalues
    # of the factored solve; if it ran to the end this would fail
    import qprolate as qp

    counts = []
    real = fixedla.tridiagonal_eigenvalues

    def counted(d, e, prec, keep=None):
        evals = real(d, e, prec, keep)
        counts.append((len(evals), len(d)))
        return evals

    monkeypatch.setattr(fixedla, "tridiagonal_eigenvalues", counted)
    basis = qp.compute_basis(qp.Bandlimit(0, 60), qp.QParams(0.7, -0.5), keep=15)
    assert basis.count == 15
    assert len(counts) == 1
    deflated, n = counts[0]
    assert 15 <= deflated < n


# the eigen-mp benchmark's requests (q, v, a_exp, depth, keep); the second
# holds a +-1 cluster
EIGEN_MP = [(0.05, -0.5, 0, 60, 4), (0.5, -0.5, -1, 60, 8), (0.7, -0.5, 0, 60, 15)]


def _captured(monkeypatch, name, requests):
    """The arguments of each call to fixedla.<name> while compute_basis
    solves ``requests``; undoes every patch of ``monkeypatch``."""
    import qprolate as qp

    captured = []
    real = getattr(fixedla, name)
    monkeypatch.setattr(fixedla, name, lambda *args: captured.append(args) or real(*args))
    for q, v, a_exp, depth, keep in requests:
        qp.compute_basis(qp.Bandlimit(a_exp, depth), qp.QParams(q, v), keep=keep)
    monkeypatch.undo()
    return captured


def _count_roots(monkeypatch):
    """Make fixedla.context return contexts whose sqrt records its
    argument; returns the list it records into."""
    roots = []
    real = fixedla.context

    class Counting(Context):
        def sqrt(self, x):
            roots.append(x)
            return super().sqrt(x)

    def counting(prec):
        ctx = real(prec)
        return Counting(prec=ctx.prec, Emin=ctx.Emin, Emax=ctx.Emax)

    monkeypatch.setattr(fixedla, "context", counting)
    return roots


def test_root_free_ql_takes_the_roots_of_its_shifts_only(monkeypatch):
    # on the tridiagonal of the q = 0.7, keep = 15 solve the QL takes two
    # square roots per sweep, for its shift, and one per early-stop check
    # (one per eigenvalue deflated from the keep-th on), none per rotation
    (d, e, prec, keep), = _captured(monkeypatch, "tridiagonal_eigenvalues", EIGEN_MP[2:])
    sweeps = []
    roots = _count_roots(monkeypatch)
    real_sweep = fixedla._ql_sweep
    monkeypatch.setattr(fixedla, "_ql_sweep", lambda *args: sweeps.append(args[2:4]) or
                        real_sweep(*args))
    got = fixedla.tridiagonal_eigenvalues(d, e, prec, keep)
    checks = len(got) - keep + 1
    assert keep <= len(got) < len(d) and len(sweeps) > len(got)
    # the old QL took one root per rotation, m - l per sweep
    assert sum(m - l for l, m in sweeps) > 4 * len(sweeps)
    assert len(roots) <= 2 * len(sweeps) + checks


def test_inverse_iteration_takes_one_solve_per_eigenvalue(monkeypatch):
    # the eigenvalues come from the QL at the working precision, so one
    # solve through T - lam I resolves each vector
    (d, e, lams, prec), = _captured(monkeypatch, "tridiagonal_eigenvectors", EIGEN_MP[2:])
    solves = []
    real = fixedla._lu_solve
    monkeypatch.setattr(fixedla, "_lu_solve", lambda *args: solves.append(args) or real(*args))
    vecs = fixedla.tridiagonal_eigenvectors(d, e, lams, prec)
    assert len(vecs) == len(lams) >= 15
    assert len(solves) == len(lams)


def test_eigenvector_residuals_within_n_units(monkeypatch):
    # ||(T - lam I) x||_inf of each returned unit vector, exactly in
    # integers, on the eigen-mp tridiagonals: within n units 2^-prec,
    # inside the +-1 cluster, whose vectors are orthogonalised, too
    calls = _captured(monkeypatch, "tridiagonal_eigenvectors", EIGEN_MP)
    assert len(calls) == len(EIGEN_MP)
    clustered = 0
    for d, e, lams, prec in calls:
        n = len(d)
        close = max(map(abs, d + e)) >> (prec // 2)
        clustered += any(abs(a - b) <= close for i, a in enumerate(lams) for b in lams[:i])
        for lam, x in zip(lams, fixedla.tridiagonal_eigenvectors(d, e, lams, prec)):
            worst = 0
            for i in range(n):
                r = (d[i] - lam) * x[i]
                if i:
                    r += e[i - 1] * x[i - 1]
                if i < n - 1:
                    r += e[i] * x[i + 1]
                worst = max(worst, abs(r))
            assert worst <= n << 2 * prec  # at 2^(2 prec)
    assert clustered


def test_narrow_reflector_matches_full_width():
    # a reflector of 40 bits applied to vectors of 300 bits, with f scaled
    # by 2^bits, against f scaled by 2^prec: each entry within one unit
    # (300 random draws)
    rng = np.random.default_rng(40)
    prec, worst = 300, 0
    for _ in range(300):
        m = int(rng.integers(2, 12))
        x = [int.from_bytes(rng.bytes(40), "big") >> 20 for _ in range(m)]
        h, _ = fixedla._reflector(0, [int(t) for t in rng.integers(-2**39, 2**39, m)])
        if h is None:
            continue
        _, v, vtv, bits = h
        assert bits <= 41
        got = list(x)
        fixedla._apply(h, got)
        f = (2 * sum(map(operator.mul, v, x)) << prec) // vtv  # full width, at 2^prec
        full = [xi - ((vi * f) >> prec) for xi, vi in zip(x, v)]
        worst = max(worst, max(abs(a - b) for a, b in zip(got, full)))
    assert worst <= 1


def test_noise_level_entries_deflate_without_iterating(monkeypatch):
    # the reduction to tridiagonal form leaves errors of a few units
    # 2^-prec, so off-diagonal entries within n^2 units of zero are
    # rounding noise: a block of them deflates at once, with no rotation,
    # and beside a graded block the eigenvalues above the noise stay
    # within n^2 units of the exact ones
    prec, tail = 200, 8
    rng = np.random.default_rng(5)
    noise_d = [int(x) for x in rng.integers(-30, 31, tail)]
    noise_e = [int(x) for x in rng.integers(-30, 31, tail - 1)]
    roots = _count_roots(monkeypatch)
    got = fixedla.tridiagonal_eigenvalues(noise_d, noise_e, prec)
    assert not roots
    ctx = fixedla.context(prec)
    assert got == [ctx.divide(x, 1 << prec) for x in sorted(noise_d)]
    big_d, big_e = _graded(prec, 6)
    d, e = big_d + noise_d, big_e + [noise_e[0]] + noise_e
    n = len(d)
    got = fixedla.tridiagonal_eigenvalues(d, e, prec)
    with mp.workprec(2 * prec):
        t = mp.matrix(n, n)
        for i, x in enumerate(d):
            t[i, i] = mp.mpf((x, -prec))
        for i, x in enumerate(e):
            t[i, i + 1] = t[i + 1, i] = mp.mpf((x, -prec))
        want = sorted(mp.eigsy(t, eigvals_only=True))
        unit = mp.mpf(2) ** -prec
        assert sum(abs(w) > 1e6 * n * n * unit for w in want) == 6
        assert max(abs(mp.mpf(str(x)) - w) for x, w in zip(got, want)) <= n * n * unit
