import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import qprolate as qp
from _oracles import (c_qv, cyclic_jacobi, depth_infinity_pairs, operator_matrix, pivot_depth,
                      qpoch)
from conftest import direct_kernel, eigen_series_kernel, supported_function

# the requests that keep fewer pairs than asked, by design: a
# FewerPairsWarning is an error everywhere else
FEWER_PAIRS = pytest.mark.filterwarnings("ignore::qprolate.pswf.FewerPairsWarning")


def test_matrix_small_case(p_half):
    b = qp.Bandlimit(0, 1)
    B = qp.build_operator_matrix(b, p_half)
    want = p_half.c_qv * (1 - p_half.q) * qp.jv_at_exponent(0, p_half)
    assert B.shape == (1, 1)
    assert B[0, 0] == pytest.approx(want, rel=1e-14)


def test_weights_are_the_lattice_weights_to_the_last_normal_float():
    # w_m = (1-q) q^{(a_exp+m)(2v+2)} in one power of q.  A partial power
    # a^{2v+2} q^{m(2v+2)} underflows before w_m does: on these bands it
    # flushes 7 normal weights to 0.0 and errs by up to 0.14 relative on
    # others (a weight of 2.5e-304 at q = 0.134, v = 2.62, a_exp = -2 comes
    # out 1.2e-312), where the one power errs by at most 1.2e-13
    rng = np.random.default_rng(2026)
    tiny = np.finfo(float).tiny
    for _ in range(200):
        q, v = float(rng.uniform(0.05, 0.95)), float(rng.uniform(-0.95, 3.0))
        b = qp.Bandlimit(int(rng.integers(-5, 3)), int(rng.integers(3, 120)))
        got = b.weights(qp.QParams(q, v))
        with mp.workdps(30):
            want = [float((1 - mp.mpf(q)) * mp.mpf(q) ** ((b.a_exp + m) * (2 * mp.mpf(v) + 2)))
                    for m in range(b.depth)]
        for g, w in zip(got, want):
            if w >= tiny:
                assert abs(g - w) <= 2e-13 * w, (q, v, b)
            elif g == 0.0:
                assert w < 2.0**-1074, (q, v, b)


def test_matrix_antidiagonal_structure(p_half):
    b = qp.Bandlimit(0, 20)
    B = qp.build_operator_matrix(b, p_half)
    assert (B == B.T).all()
    sq = np.sqrt(b.weights(p_half))
    ratio = B / np.outer(sq, sq)
    # entries depend on k+m only
    for s in (3, 9, 15):
        vals = [ratio[k, s - k] for k in range(max(0, s - 19), min(19, s) + 1)]
        assert np.ptp(vals) <= 1e-13 * max(abs(v) for v in vals)


def test_matrix_vs_mp_oracle(p_half):
    b = qp.Bandlimit(0, 12)
    B = qp.build_operator_matrix(b, p_half)
    Bmp = operator_matrix(0, 12, p_half.q, p_half.v, dps=40)
    for k in range(12):
        for m in range(12):
            assert B[k, m] == pytest.approx(float(Bmp[k, m]), rel=1e-12)


def test_compute_basis_m1(p_half):
    b = qp.Bandlimit(0, 1)
    B = qp.build_operator_matrix(b, p_half)
    basis = qp.compute_basis(b, p_half, keep=1)
    assert basis.count == 1
    assert basis.eigenvalues[0] == pytest.approx(B[0, 0], rel=1e-14)
    w0 = float(b.weights(p_half)[0])
    assert basis.eigenfunctions[0, 0] == pytest.approx(
        basis.eigenvalues[0] / math.sqrt(w0), rel=1e-13
    )
    assert basis.eigenfunctions[0, 0] > 0


def test_basis_short_of_keep_warns(p_half):
    # the deeper pairs lie below the 1e-150 floor: one pair is kept of
    # four, and a named warning says so; a full basis warns of nothing
    with pytest.warns(qp.FewerPairsWarning, match="kept 1 of 4 eigenpairs"):
        basis = qp.compute_basis(qp.Bandlimit(400, 60), p_half, 4)
    assert basis.count == 1 and 1e-150 <= basis.eigenvalues[0] < 1e-120
    with warnings.catch_warnings():
        warnings.simplefilter("error", qp.FewerPairsWarning)
        assert qp.compute_basis(qp.Bandlimit(0, 60), p_half, 4).count == 4


@pytest.mark.parametrize("a_exp", [400, 2000])
@pytest.mark.parametrize("keep", [1, 4])
def test_basis_below_the_floor_is_empty(a_exp, keep):
    # at v = 0 every |lambda| lies below the 1e-150 floor (lambda_0 is
    # 2.0e-241 at a_exp = 400); at a_exp = 2000 the Cholesky factor keeps
    # no row, and the empty spectrum raised IndexError.  Both give the
    # empty basis and say so
    with pytest.warns(qp.FewerPairsWarning, match=f"kept 0 of {keep} eigenpairs"):
        basis = qp.compute_basis(qp.Bandlimit(a_exp, 60), qp.QParams(0.5, 0.0), keep)
    assert basis.count == 0 and basis.eigenvalues.size == 0
    # the sample arrays keep one column per lattice point, and the CSV one
    # row per point under the header "point" (it held shape (0,) and
    # "point,")
    assert basis.eigenfunctions.shape == basis.unit_samples.shape == (0, 60)
    assert basis.eigenfunctions[:, 0].size == 0
    lines = qp.eigen_report_csv(basis).splitlines()
    assert lines[0] == "point" and len(lines) == 61


@pytest.mark.parametrize("a_exp", [120, 166, 200, 250])
def test_small_band_takes_one_solve(monkeypatch, a_exp):
    # lambda_0 lies 72 to 151 digits below 1 (7.5e-73 at a_exp = 120, below
    # the 1e-150 floor at 250): its depth below 1 sets the first solve's
    # digits, where a depth below the top pair took 2, 3, 3 and 4 solves
    from qprolate.pswf import _basis_from_mp

    digits = _mp_solve_digits(monkeypatch)
    b, p = qp.Bandlimit(a_exp, 60), qp.QParams(0.5, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", qp.FewerPairsWarning)
        basis = qp.compute_basis(b, p, 1)
    assert len(digits) == 1, digits
    ref, more = _basis_from_mp(b, p, 1, 2 * digits[0])
    assert not more and np.array_equal(basis.eigenvalues, ref.eigenvalues)
    assert basis.count == (a_exp < 250)


@pytest.mark.parametrize("a_exp", [120, 166])
def test_pair_below_the_first_solve_noise_takes_a_deeper_one(a_exp):
    # at keep = 1 the first solve works at 27 digits, 37 with its guard,
    # absolute, and lambda_0 is 7.5e-73 at a_exp = 120 and 1.5e-100 at
    # 166: the solve saw lambda_0 = 0, or no row at all, and the basis came
    # out empty, with a FewerPairsWarning, or raised IndexError.  A pair
    # below the floor is now dropped only once the solve's noise is too
    from qprolate.pswf import _basis_from_mp

    b, p = qp.Bandlimit(a_exp, 60), qp.QParams(0.5, 0.0)
    basis = qp.compute_basis(b, p, 1)
    ref, more = _basis_from_mp(b, p, 1, 300)
    assert basis.count == 1 and not more
    assert np.array_equal(basis.eigenvalues, ref.eigenvalues)
    assert np.array_equal(basis.unit_samples, ref.unit_samples)
    top = np.abs(np.linalg.eigvalsh(qp.build_operator_matrix(b, p))).max()
    assert basis.eigenvalues[0] == pytest.approx(top, rel=1e-12)


def test_keep_validation(p_half):
    b = qp.Bandlimit(0, 4)
    with pytest.raises(ValueError):
        qp.compute_basis(b, p_half, keep=0)
    with pytest.raises(ValueError):
        qp.compute_basis(b, p_half, keep=5)


def test_double_path_agrees_with_refined(basis12, bandlimit, p_half):
    # LAPACK resolves the top of the spectrum; it must match the
    # extended-precision values there
    B = qp.build_operator_matrix(bandlimit, p_half)
    evals = np.linalg.eigvalsh(B)
    top4 = evals[np.argsort(-np.abs(evals))][:4]
    for lam_np, lam in zip(top4, basis12.eigenvalues[:4]):
        assert lam_np == pytest.approx(lam, rel=1e-11)


def test_jacobi_oracle_same_matrix(p_half):
    # independent eigensolver on the same float64 matrix: agreement down
    # to the double resolution floor
    b = qp.Bandlimit(0, 24)
    B = qp.build_operator_matrix(b, p_half)
    evals_np = np.linalg.eigvalsh(B)
    evals_np = evals_np[np.argsort(-np.abs(evals_np))]
    evals_j, _ = cyclic_jacobi(B, dps=50)
    for i in range(4):
        assert evals_np[i] == pytest.approx(float(evals_j[i]), rel=1e-12)


def test_jacobi_oracle_full_pipeline(p_half):
    # fully independent route: matrix rebuilt from scratch in mpmath and
    # solved by cyclic Jacobi, vs the package's compute_basis
    b = qp.Bandlimit(0, 24)
    basis = qp.compute_basis(b, p_half, keep=6)
    Bmp = operator_matrix(0, 24, p_half.q, p_half.v, dps=60)
    evals_j, _ = cyclic_jacobi(Bmp, dps=60)
    for i in range(6):
        assert basis.eigenvalues[i] == pytest.approx(float(evals_j[i]), rel=1e-10), i


def _clusters(lams, rtol=1e-6):
    """Index groups of eigenvalues that chain within rtol of each other."""
    groups = []
    for i in np.argsort(lams):
        if groups and abs(lams[i] - lams[groups[-1][-1]]) <= rtol * abs(lams[i]):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


@pytest.mark.parametrize("q, v, a_exp, depth, keep", [
    (0.05, -0.5, 0, 24, 4),
    (0.5, -0.5, -1, 24, 8),
    (0.3, 1.5, 1, 24, 5),
    (0.5, -0.5, 0, 10, 10),  # more series terms than lattice points
    (0.5, -0.5, -3, 24, 10),  # band edge above 1: clusters of three +1 and two -1
])
def test_factored_mp_solve_vs_jacobi_oracle(q, v, a_exp, depth, keep):
    # every case needs pairs below float64 resolution of B, which eigh of
    # B cannot give; the oracle rebuilds B from scratch and solves it by
    # cyclic Jacobi
    b = qp.Bandlimit(a_exp, depth)
    p = qp.QParams(q, v)
    B = qp.build_operator_matrix(b, p)
    lam_np = np.abs(np.linalg.eigvalsh(B))
    assert (lam_np >= 1e-11 * lam_np.max()).sum() < keep
    basis = qp.compute_basis(b, p, keep=keep)
    assert basis.count == keep
    evals_o, V = cyclic_jacobi(operator_matrix(a_exp, depth, q, v, dps=90), dps=90)
    lam_o = np.array([float(x) for x in evals_o])
    np.testing.assert_allclose(
        np.sort(basis.eigenvalues), np.sort(lam_o[:keep]), rtol=1e-10, atol=0
    )
    sq = np.sqrt(b.weights(p))
    Y = sq * basis.unit_samples
    Vo = np.array([[float(V[k, j]) for j in range(depth)] for k in range(depth)])
    for group in _clusters(basis.eigenvalues):
        lam = basis.eigenvalues[group[0]]
        near = np.flatnonzero(np.abs(lam_o - lam) <= 1e-6 * abs(lam))
        assert len(near) == len(group), (lam, near)
        if len(group) == 1:  # a separated pair: its vector up to sign
            y, vo = Y[group[0]], Vo[:, near[0]]
            vo *= np.sign(np.dot(vo, y))
            assert np.abs(y - vo).max() <= 1e-10, lam
        else:  # a near-degenerate cluster has no unique basis, but a projector
            proj = Y[group].T @ Y[group]
            proj_o = Vo[:, near] @ Vo[:, near].T
            assert np.abs(proj - proj_o).max() <= 1e-12, (lam, len(group))
    gram = (basis.unit_samples * b.weights(p)) @ basis.unit_samples.T
    assert np.abs(gram - np.eye(keep)).max() <= 1e-12


@pytest.mark.parametrize("q, v, a_exp, depth, keep", [
    (0.0278, 3.0498, -4, 5, 4), (0.0785, 1.4383, -6, 8, 6),
])
def test_fewer_points_than_terms_vs_oracle(q, v, a_exp, depth, keep):
    # fewer lattice points than series terms, with column scales D_n^2 up
    # to 1e100: the moment matrix has rank M, and a factor row past it is
    # rounding noise that those scales carried into spurious eigenvalues
    # (+-7.5e-50 at the first case); B's entries cancel so far that the
    # oracle needs 300 digits
    _eigenvalues_match_the_300_digit_oracle(q, v, a_exp, depth, keep)


@pytest.mark.parametrize("q, v, a_exp, depth, keep", [
    (0.0248, 1.2515, -5, 3, 2), (0.4321, 1.8047, 16, 14, 2), (0.369, 1.6796, 14, 12, 4),
])
def test_small_top_pair_vs_oracle(q, v, a_exp, depth, keep):
    # the top |lambda| lies 33 to 70 digits below 1: resolved 25 digits
    # below the top pair, not below 1, the retained eigenvalues erred
    # relatively by 1.1e4, 3.7e-6 and 1.2e-6
    _eigenvalues_match_the_300_digit_oracle(q, v, a_exp, depth, keep)


def _eigenvalues_match_the_300_digit_oracle(q, v, a_exp, depth, keep):
    """compute_basis's eigenvalues equal, to 1e-13 relative, the keep
    largest |lambda| of mp.eigsy of the operator matrix at 300 digits."""
    basis = qp.compute_basis(qp.Bandlimit(a_exp, depth), qp.QParams(q, v), keep=keep)
    with mp.workdps(300):
        want = mp.eigsy(operator_matrix(a_exp, depth, q, v, dps=300), eigvals_only=True)
        want = sorted(want, key=lambda x: -abs(x))[:keep]
    np.testing.assert_allclose(
        np.sort(basis.eigenvalues), np.sort([float(x) for x in want]), rtol=1e-13, atol=0
    )


def _count_mp_solves(monkeypatch):
    """List that gets the N of each extended-precision solve: the order of
    its tridiagonal matrix, one row per column of the factor."""
    from qprolate import fixedla

    sizes = []
    real = fixedla.tridiagonal_eigenvalues

    def counted(d, e, prec):
        sizes.append(len(d))
        return real(d, e, prec)

    monkeypatch.setattr(fixedla, "tridiagonal_eigenvalues", counted)
    return sizes


def _mp_solve_digits(monkeypatch):
    """List that gets the working digits of each extended-precision solve."""
    from qprolate import pswf

    digits = []
    real = pswf._mp_eigensystem

    def counted(b, p, dps):
        digits.append(dps)
        return real(b, p, dps)

    monkeypatch.setattr(pswf, "_mp_eigensystem", counted)
    return digits


def test_small_q_takes_one_mp_solve(monkeypatch):
    # only two eigenvalues resolve in float64 at q = 0.05; the digits
    # chosen from the pivots must still resolve keep = 4 at the first solve
    sizes = _count_mp_solves(monkeypatch)
    basis = qp.compute_basis(qp.Bandlimit(0, 60), qp.QParams(0.05, -0.5), keep=4)
    assert basis.count == 4
    assert len(sizes) == 1
    assert sizes[0] < 60  # the N x N core, not the depth-60 operator matrix


@pytest.mark.parametrize("q, keep", [(0.5, 12), pytest.param(0.3, 15, marks=FEWER_PAIRS)])
def test_cluster_takes_one_mp_solve(monkeypatch, q, keep):
    # at a_exp = -4 float64 resolves only the +-1 cluster of nine; the
    # decay past it must come from the pivots, not from the cluster's
    # zero growth, which asked for too few digits and a second solve
    # (72 then 132 digits at q = 1/2, 105 then 168 at q = 0.3)
    sizes = _count_mp_solves(monkeypatch)
    basis = qp.compute_basis(qp.Bandlimit(-4, 60), qp.QParams(q, -0.5), keep=keep)
    assert len(sizes) == 1
    assert (np.abs(np.abs(basis.eigenvalues[:9]) - 1.0) <= 1e-6).all()
    assert basis.count >= 12


@pytest.mark.parametrize("a_exp, keep", [(-3, 10), (-4, 12)])
def test_degenerate_clusters_span_their_eigenspace(a_exp, keep):
    # at depth 60 the +-1 clusters are degenerate at the working precision,
    # so no single vector of them is unique; each cluster must still come
    # out orthonormal and span the eigenspace that float64 eigh resolves
    # (the clusters lie 2 apart and far from the rest of the spectrum)
    b, p = qp.Bandlimit(a_exp, 60), qp.QParams(0.5, -0.5)
    basis = qp.compute_basis(b, p, keep=keep)
    Y = basis.unit_samples * np.sqrt(b.weights(p))
    assert np.abs(Y @ Y.T - np.eye(keep)).max() <= 1e-12
    lam, V = np.linalg.eigh(qp.build_operator_matrix(b, p))
    for sign in (1.0, -1.0):
        got = np.abs(basis.eigenvalues - sign) <= 1e-6
        want = np.abs(lam - sign) <= 1e-6
        assert got.sum() == want.sum() >= 3
        proj = Y[got].T @ Y[got]
        assert np.abs(proj - V[:, want] @ V[:, want].T).max() <= 1e-12


def test_mp_solve_keeps_relative_precision_on_tiny_weights():
    # at q = 0.05, v = 3/2 the weights fall to sqrt(w_59 / w_0) ~ 1e-192,
    # far below the absolute precision of the fixed-point solve; psi_i is
    # analytic in x^2, so its samples at a q^m, m >= 30, all equal psi_i(0)
    # in float64, which they show only if each kept its relative precision
    basis = qp.compute_basis(qp.Bandlimit(0, 60), qp.QParams(0.05, 1.5), keep=6)
    assert basis.count == 6
    u = basis.unit_samples
    assert (u[:, -1] != 0).all()
    assert (np.abs(u[:, 30:] - u[:, -1:]) <= 1e-12 * np.abs(u[:, -1:])).all()


@pytest.mark.parametrize("a_exp, keep", [(-2, 4), (-4, 4), (-4, 8)])
def test_underflowing_weights_give_finite_samples(a_exp, keep):
    # at q = 0.05, v = 3/2 the last weights (eight at a_exp = -2, six at
    # -4) underflow float64, so the float64 eigenvectors cannot be divided
    # by sqrt(w_m) there; the samples must come out finite, without a
    # RuntimeWarning, as orthonormal eigenvectors of B, and, psi_i being
    # analytic in x^2, equal to psi_i(0) at every a q^m, m >= 30, the
    # underflowed ones too
    import warnings

    b, p = qp.Bandlimit(a_exp, 60), qp.QParams(0.05, 1.5)
    assert (b.weights(p) == 0.0).sum() == {-2: 8, -4: 6}[a_exp]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = qp.compute_basis(b, p, keep=keep)
    assert basis.count == keep
    u = basis.unit_samples
    assert np.isfinite(u).all() and np.isfinite(basis.eigenfunctions).all()
    assert (np.abs(u[:, 30:] - u[:, -1:]) <= 1e-12 * np.abs(u[:, -1:])).all()
    y = u * np.sqrt(b.weights(p))
    assert np.abs(y @ y.T - np.eye(keep)).max() <= 1e-12
    B = qp.build_operator_matrix(b, p)
    assert np.abs(B @ y.T - y.T * basis.eigenvalues).max() <= 1e-12


@pytest.mark.parametrize("q, v, a_exp, keep, span, cluster", [
    pytest.param(0.3, 1.5, -4, 15, 100, 2, marks=FEWER_PAIRS),
    pytest.param(0.05, 0.0, -2, 15, 100, 2, marks=FEWER_PAIRS),
    pytest.param(0.05, 0.0, -4, 15, 100, 2, marks=FEWER_PAIRS),
    # +-1 clusters whose members differ past 1e-16, so each float64
    # eigenvalue is unique; the top row has entries down to 1e-100 and
    # 3e-33 of its largest, which at 82 and 42 digits came out off by up
    # to 5e22 and 1 relative
    (0.136, -0.849, -1, 6, 100, 0),
    (0.523, -0.666, -1, 6, 30, 0),
], ids=["0.3-1.5--4", "0.05-0.0--2", "0.05-0.0--4", "0.136--0.849--1", "0.523--0.666--1"])
def test_unit_samples_componentwise_vs_300_digits(q, v, a_exp, keep, span, cluster):
    # the entries of a row span ``span`` orders of magnitude or more; both
    # solves list the same eigenvalues in the same order, each of +1 and -1
    # carrying at least ``cluster`` of them; each row whose signed float64
    # eigenvalue is unique must match a 300-digit solve to 1e-13 relative
    # in every entry, and rows that share one, degenerate at the working
    # precision, as a projector in weighted coordinates
    from qprolate.pswf import _basis_from_mp

    b, p = qp.Bandlimit(a_exp, 60), qp.QParams(q, v)
    basis = qp.compute_basis(b, p, keep=keep)
    ref, more = _basis_from_mp(b, p, keep, 300)
    assert not more
    mag = np.abs(ref.unit_samples)
    assert np.log10(mag.max(axis=1) / mag.min(axis=1)).max() > span
    assert np.array_equal(basis.eigenvalues, ref.eigenvalues)
    for sign in (1.0, -1.0):
        assert (np.abs(basis.eigenvalues - sign) <= 1e-6).sum() >= cluster
    sq = np.sqrt(b.weights(p))
    for lam in np.unique(basis.eigenvalues):
        got = np.flatnonzero(basis.eigenvalues == lam)
        want = np.flatnonzero(ref.eigenvalues == lam)
        assert len(got) == len(want), lam
        if len(got) == 1:
            u, w = basis.unit_samples[got[0]], ref.unit_samples[want[0]]
            assert (np.abs(u - w) <= 1e-13 * np.abs(w)).all(), lam
        else:
            y, z = basis.unit_samples[got] * sq, ref.unit_samples[want] * sq
            assert np.abs(y.T @ y - z.T @ z).max() <= 1e-13


@pytest.mark.parametrize("q, v, a_exp, keep", [
    (0.5, 0.5, 0, 6), (0.5, -0.5, 0, 6), (0.5, 0.0, -2, 5), (0.3, -0.7, 1, 6), (0.7, 0.0, 0, 6),
])
def test_depth_infinity_oracle_vs_depth_400(q, v, a_exp, keep):
    # at depth 400 the truncation X^M = q^{(2v+2) 400} lies below 1e-120,
    # so the depth-400 operator stands for depth infinity far past 1e-40:
    # the three-term recurrence's eigenvalues match the extended solve's to
    # 1e-40 relative, and its vectors match compute_basis's unit samples
    # to 1e-13 relative in every entry, or as projectors in weighted
    # coordinates for the +-1 clusters at a_exp = -2 (+1 three times, -1
    # twice)
    from qprolate.pswf import _mp_eigensystem, _pair_order, _pivot_depth

    b, p = qp.Bandlimit(a_exp, 400), qp.QParams(q, v)
    dps = 50 + math.ceil(_pivot_depth(b, p, keep))
    lams, ts = depth_infinity_pairs(q, v, a_exp, keep, dps + 10)
    evals, _ = _mp_eigensystem(b, p, dps)
    with mp.workdps(dps + 10):
        got = sorted(mp.mpf(str(evals[i])) for i in _pair_order(evals)[:keep])
        for x, y in zip(got, sorted(lams)):
            assert abs(x - y) <= mp.mpf(10) ** -40 * abs(y), (x, y)
        # the unit samples sum_n t_n q^{2nm} / sqrt(w_0)
        qm = mp.mpf(q)
        root_w0 = mp.sqrt((1 - qm) * qm ** (a_exp * (2 * mp.mpf(v) + 2)))
        powers = [qm ** (2 * m) for m in range(b.depth)]
        want = np.array([[float(mp.polyval(t[::-1], x) / root_w0) for x in powers]
                         for t in ts])
    basis = qp.compute_basis(b, p, keep)
    lam_floats = np.array([float(lam) for lam in lams])
    assert np.array_equal(np.sort(basis.eigenvalues), np.sort(lam_floats))
    sq = np.sqrt(b.weights(p))
    for lam in np.unique(basis.eigenvalues):
        got, ref = basis.unit_samples[basis.eigenvalues == lam], want[lam_floats == lam]
        if len(got) == 1:
            u, w = got[0], ref[0] * np.sign(got[0] @ ref[0])
            assert (np.abs(u - w) <= 1e-13 * np.abs(w)).all(), lam
        else:
            y, z = got * sq, ref * sq
            assert np.abs(y.T @ y - z.T @ z).max() <= 1e-13, lam


def test_tied_pairs_order_independent_of_digits():
    # seven |lambda| tie with 1 to 20 digits (four +1, three -1), so their
    # order at the working precision would depend on the digits; keyed at
    # 20 digits they alternate from +1 at any digits that resolve them
    from qprolate.pswf import _basis_from_mp

    b, p = qp.Bandlimit(-3, 60), qp.QParams(0.482, 0.469)
    lams = []
    for dps in (105, 116, 155, 200):
        basis, more = _basis_from_mp(b, p, 12, dps)
        assert not more
        lams.append(basis.eigenvalues)
    assert all(np.array_equal(x, lams[0]) for x in lams)
    assert list(np.sign(lams[0][:8])) == [1.0, -1.0] * 4
    assert (np.abs(np.abs(lams[0][:7]) - 1.0) <= 1e-15).all() and abs(lams[0][7]) < 1e-20


def _solved_depth(lams, keep):
    """Digits by which lambda_{keep-1} lies below 1, as ``_pivot_depth``
    estimates it; 150 when fewer than keep are retained."""
    if len(lams) < keep:
        return 150.0
    return min(max(-math.log10(abs(lams[keep - 1])), 0.0), 150.0)


@FEWER_PAIRS
def test_pivot_depth_on_seeded_draws(monkeypatch):
    # on every draw the depth estimated from the pivots of the moment
    # matrix is never shallower than the solved one by more than the
    # guard, and the first solve resolves every eigenvalue.  On the draws
    # whose keep pairs float64 eigh of B cannot give (82 of 100), a second
    # solve is left only to eigenvectors whose smallest entries lack
    # digits; on the others, all at band edges above 1, the entries of an
    # eigenvector span up to 79 decades, and a second solve for them is
    # the price of resolving every entry to 13 digits
    from qprolate.pswf import _DEPTH_GUARD, _RESOLVED_DIGITS, _pivot_depth

    digits = _mp_solve_digits(monkeypatch)
    rng = np.random.default_rng(2026)
    deep, again = 0, 0
    for _ in range(100):
        q, v = rng.uniform(0.05, 0.9), rng.uniform(-0.999, 1.5)
        b, p = qp.Bandlimit(int(rng.integers(-4, 2)), 60), qp.QParams(q, v)
        keep = int(rng.integers(4, 16))
        digits.clear()
        basis = qp.compute_basis(b, p, keep)
        solved = _solved_depth(basis.eigenvalues, keep)
        assert _pivot_depth(b, p, keep) >= solved - _DEPTH_GUARD, (q, v, b, keep)
        assert digits[0] >= _RESOLVED_DIGITS + solved, (q, v, b, keep, digits)
        lam = np.abs(np.linalg.eigvalsh(qp.build_operator_matrix(b, p)))
        if (lam > 1e-11 * lam.max()).sum() < keep or b.weights(p)[-1] < np.finfo(float).tiny:
            deep += 1
            again += len(digits) > 1
    assert deep == 82 and again <= 2


def test_pivot_depth_matches_the_float_qr_on_seeded_requests():
    # the leading columns of W, orthogonalised one by one and stopped once
    # no later column can move the keep-th level, give the depth that the
    # float64 Householder QR of the whole of W gives (_oracles): the same
    # ceil on every request, so every solve keeps its digits.  On the two
    # fixed requests a column past the keep-th reaches 1, so a stop after
    # keep columns would give 0.34 and 0.12 digits instead of 0
    from qprolate.pswf import _pivot_depth

    rng = np.random.default_rng(38)
    seeded = []
    for _ in range(300):
        q, v, a_exp = rng.uniform(0.05, 0.95), rng.uniform(-0.95, 3.0), int(rng.integers(-5, 3))
        depth = int(rng.integers(3, 121))
        seeded.append((q, v, a_exp, depth, int(rng.integers(1, min(15, depth) + 1))))
    worst = 0.0
    for q, v, a_exp, depth, keep in [(0.9177, -0.9419, -4, 49, 1), (0.938, -0.9269, 2, 109, 4),
                                     *seeded]:
        b, p = qp.Bandlimit(a_exp, depth), qp.QParams(q, v)
        want, got = pivot_depth(b, p, keep), _pivot_depth(b, p, keep)
        assert math.ceil(got) == math.ceil(want), (q, v, b, keep, got, want)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-6


def test_truncated_depth_takes_one_mp_solve(monkeypatch):
    # at depth 16, q near 1 and v near -1 truncation lowers the spectrum
    # 3 digits below the depth-infinity pivots; the pivots of the depth-16
    # moment matrix must not estimate it shallow, so one solve suffices
    from qprolate.pswf import _pivot_depth

    digits = _mp_solve_digits(monkeypatch)
    b, p = qp.Bandlimit(-1, 16), qp.QParams(0.928, -0.921)
    basis = qp.compute_basis(b, p, keep=15)
    assert basis.count == 15 and len(digits) == 1
    assert _pivot_depth(b, p, 15) >= _solved_depth(basis.eigenvalues, 15) > 19.0


@pytest.mark.parametrize("q, a_exp, keep, most", [
    (0.05, 0, 4, 65), (0.5, -1, 8, 65), (0.7, 0, 15, 121),
])
def test_benchmark_requests_take_one_solve_at_few_digits(monkeypatch, q, a_exp, keep, most):
    # the extended-precision requests of the benchmark: more digits here
    # cost time in every stage of the solve
    digits = _mp_solve_digits(monkeypatch)
    basis = qp.compute_basis(qp.Bandlimit(a_exp, 60), qp.QParams(q, -0.5), keep)
    assert basis.count == keep
    assert len(digits) == 1 and digits[0] <= most


@pytest.mark.parametrize("q, v, a_exp, depth, keep", [
    (0.5, -0.5, 0, 60, 4), (0.5, 0.0, 0, 60, 4), (0.9, 0.5, 0, 60, 6), (0.7, 0.0, 1, 40, 5),
])
def test_fewer_pairs_are_a_prefix_of_more(q, v, a_exp, depth, keep):
    # the first keep pairs do not depend on keep where keep splits no +-1
    # cluster: an eigh of B for the pairs it resolves gave lambda_3 at
    # (1/2, -1/2, 0, 60) as -7.717848758685e-09, 6.1e-9 off
    b, p = qp.Bandlimit(a_exp, depth), qp.QParams(q, v)
    few, more = qp.compute_basis(b, p, keep), qp.compute_basis(b, p, keep + 4)
    assert np.array_equal(few.eigenvalues, more.eigenvalues[:keep])
    assert np.array_equal(few.eigenfunctions, more.eigenfunctions[:keep])
    assert np.array_equal(few.unit_samples, more.unit_samples[:keep])


def test_eigenvector_resolve_steps_by_the_missing_digits(monkeypatch):
    # the first solve, at 177 digits, leaves the smallest entries of a
    # retained eigenvector 13 digits short; the second solve adds three
    # times those and the guard (1.6 times the digits would take 283) and
    # gives the eigenvalues a solve at 283 digits gives
    from qprolate.pswf import _basis_from_mp

    digits = _mp_solve_digits(monkeypatch)
    b, p = qp.Bandlimit(-1, 72), qp.QParams(0.061, -0.973)
    with pytest.warns(qp.FewerPairsWarning):
        basis = qp.compute_basis(b, p, keep=10)
    assert digits == [177, 218], digits
    ref, more = _basis_from_mp(b, p, 10, 283)
    assert not more
    assert np.array_equal(basis.eigenvalues, ref.eigenvalues)


def test_understated_shortfall_costs_no_more_than_the_ladder(monkeypatch):
    # at 76 digits a +-1 cluster's smallest entries are still rounding
    # noise and understate the shortfall (28 digits measured, 46 lacking):
    # stepping by the measured digits alone took 76, 106 and 122; the
    # step, capped by the 1.6 times ladder, must cost no more than the
    # ladder's 76 and 136
    digits = _mp_solve_digits(monkeypatch)
    qp.compute_basis(qp.Bandlimit(-2, 60), qp.QParams(0.12896620839106507, -0.9541128729042622), 7)
    assert len(digits) == 2 and sum(d * d for d in digits) <= 76**2 + 136**2, digits


def test_shortfall_step_taken_once(monkeypatch):
    # a solve that always comes back a digit short steps by the shortfall
    # once and then climbs the 1.6 times ladder, so the count of solves up
    # to the digit budget stays logarithmic
    from qprolate import pswf

    digits = []

    def short(b, p, keep, dps):
        digits.append(dps)
        return None, 1

    monkeypatch.setattr(pswf, "_basis_from_mp", short)
    b, p = qp.Bandlimit(-4, 60), qp.QParams(0.5, -0.5)
    with pytest.raises(pswf.SolverNoConvergence):
        qp.compute_basis(b, p, keep=15)
    assert digits[1] == digits[0] + 5
    assert all(d == max(int(c * 1.6), c + 60) for c, d in zip(digits[1:], digits[2:]))
    assert len(digits) <= 10


def test_working_digits_past_the_budget_raise_before_the_solve():
    # the solve works at 3,867 digits here, past the 3,000 of the budget,
    # though it resolves only 27; it used to take 526.6 s to return +-1, +-1
    import time

    start = time.perf_counter()
    with pytest.raises(qp.SolverNoConvergence, match="3867 working digits, past the 3000"):
        qp.compute_basis(qp.Bandlimit(-40, 60), qp.QParams(0.5, -0.5), 4)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("seed", range(4))
def test_moments_match_the_gram_matrix_of_g(seed):
    # K = G^T G, with G[k,n] = sqrt(c_qv w_k) (a q^k)^{2n} sqrt(c_n) built
    # from the oracle at 60 digits, against D_n D_m h(n+m): the closed
    # form of the moment matrix that the solve factors
    from decimal import MAX_EMAX, MIN_EMIN, Context, localcontext

    from qprolate.pswf import _moments

    rng = np.random.default_rng([seed, 20])
    q, v = float(rng.uniform(0.05, 0.9)), float(rng.uniform(-0.95, 3.0))
    a_exp, depth, nterms = int(rng.integers(-4, 3)), int(rng.integers(5, 41)), 10
    with localcontext(Context(prec=70, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        d2, h, w0 = _moments(qp.Bandlimit(a_exp, depth), qp.QParams(q, v), nterms)
    assert len(d2) == nterms and len(h) == 2 * nterms - 1
    with mp.workdps(60):
        qm, vm = mp.mpf(q), mp.mpf(v)
        a = qm**a_exp
        w = [(1 - qm) * a ** (2 * vm + 2) * qm ** (k * (2 * vm + 2)) for k in range(depth)]
        c = c_qv(q, v, 60)
        g = mp.matrix(depth, nterms)
        for n in range(nterms):
            cn = qm ** (n * (n + 1)) / (
                qpoch(qm * qm, qm * qm, n, 60) * qpoch(qm ** (2 * vm + 2), qm * qm, n, 60))
            for k in range(depth):
                g[k, n] = mp.sqrt(c * w[k] * cn) * (a * qm**k) ** (2 * n)
        gram = g.T * g
        dm = [mp.sqrt(mp.mpf(str(x))) for x in d2]
        assert abs(mp.mpf(str(w0)) - w[0]) <= 1e-50 * w[0]
        for n in range(nterms):
            for m in range(nterms):
                got = dm[n] * dm[m] * mp.mpf(str(h[n + m]))
                assert abs(got - gram[n, m]) <= 1e-50 * gram[n, m], (n, m)


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_qpochhammer_series_match_mpmath(q):
    # (q^{2v+2}; q^2)_inf and (q^2; q^2)_inf by Euler's series, at 200
    # digits, against mpmath.qp at 260: within a
    # few units of the 200th digit, also where v -> -1 shrinks the first
    # like 1 - q^{2v+2} and q = 0.95 makes its terms exceed it by 10^7
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

    from qprolate.qcalc import qpoch_inf_decimal

    for v in (-0.999, -0.95, -0.5, 0.0, 0.5, 1.5, 3.0):
        with localcontext(Context(prec=200, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            qd = Decimal(q)
            x = qd * qd
            a = qd ** (2 * Decimal(v) + 2)
            got = [qpoch_inf_decimal(a, x), qpoch_inf_decimal(x, x)]
        with mp.workdps(260):
            for g, z in zip(got, (a, x)):
                want = mp.qp(mp.mpf(str(z)), mp.mpf(str(x)))
                assert abs(mp.mpf(str(g)) - want) <= mp.mpf(10) ** -199 * want, (q, v, z)


def _mp_samples_by_width(monkeypatch, requests, bits):
    """compute_basis of each request with pswf._SAMPLE_BITS = bits."""
    from qprolate import pswf

    monkeypatch.setattr(pswf, "_SAMPLE_BITS", bits)
    return [qp.compute_basis(qp.Bandlimit(a_exp, depth), qp.QParams(q, v), keep)
            for q, v, a_exp, depth, keep in requests]


@FEWER_PAIRS
def test_bounded_sample_sums_give_the_full_sums_floats(monkeypatch):
    # with more sample bits than any t_n or power of q^2 carries, the
    # bounded sum is the full one, so every sample is the full sum's
    # float; at the default width each must be that float too, bit for bit
    from qprolate import pswf

    rng = np.random.default_rng(2121)
    requests = []
    while len(requests) < 8:
        q, v = float(rng.uniform(0.05, 0.92)), float(rng.uniform(-0.95, 3.0))
        depth = int(rng.integers(8, 81))
        requests.append((q, v, int(rng.integers(-4, 3)), depth,
                         int(rng.integers(2, min(15, depth) + 1))))
    # column scales D_n^2 up to 3e53: the bounded sums keep _SAMPLE_BITS
    # past the bits they cancel, and leave 16 of its 264 samples to the
    # full sum, where a fixed _SAMPLE_BITS left 204
    cancelling = (0.234, 2.587, -4, 22, 14)
    sums = []
    real = pswf._full_sample
    monkeypatch.setattr(pswf, "_full_sample", lambda *args: sums.append(1) or real(*args))
    _mp_samples_by_width(monkeypatch, [cancelling], pswf._SAMPLE_BITS)
    assert len(sums) < 204
    requests.append(cancelling)
    got = _mp_samples_by_width(monkeypatch, requests, pswf._SAMPLE_BITS)
    full = _mp_samples_by_width(monkeypatch, requests, 1 << 20)
    for request, g, f in zip(requests, got, full):
        assert np.array_equal(g.eigenvalues, f.eigenvalues), request
        assert np.array_equal(g.unit_samples, f.unit_samples), request
        assert np.array_equal(g.eigenfunctions, f.eigenfunctions), request


def test_cancelling_sample_takes_the_full_sum(monkeypatch):
    # at q = 0.7, keep = 15 some samples cancel more bits than the bounded
    # sum keeps (the most, 199, against 192): those rows must be summed in
    # full, and every sample is still the full sum's float
    from qprolate import pswf

    request = (0.7, -0.5, 0, 60, 15)
    cancelled = []
    real = pswf._full_sample

    def full_sample(t, row, scale):
        terms = sum(abs(x * y) for x, y in zip(t, row))
        cancelled.append(terms.bit_length() - abs(sum(x * y for x, y in zip(t, row))).bit_length())
        return real(t, row, scale)

    monkeypatch.setattr(pswf, "_full_sample", full_sample)
    (got,) = _mp_samples_by_width(monkeypatch, [request], pswf._SAMPLE_BITS)
    assert max(cancelled) > pswf._SAMPLE_BITS
    assert len(cancelled) < got.unit_samples.size // 20  # the rest took the bounded sum
    (full,) = _mp_samples_by_width(monkeypatch, [request], 1 << 20)
    assert np.array_equal(got.unit_samples, full.unit_samples)


def test_first_solve_resolves_cancelling_columns(monkeypatch):
    # at q = 0.05, v = 3/2, a_exp = -4 the column scales D_n^2 exceed 1,
    # and H must resolve its pivots to the noise of C divided by them:
    # with those digits added only once, as the QR of G needed, the first
    # solve (27 digits) returned the eigenvalues +-2.2e21, and the second
    # one 5.6, where every |lambda| is at most 1
    from qprolate.pswf import _mp_eigensystem

    digits = _mp_solve_digits(monkeypatch)
    b, p = qp.Bandlimit(-4, 60), qp.QParams(0.05, 1.5)
    basis = qp.compute_basis(b, p, keep=4)
    assert (np.abs(np.abs(basis.eigenvalues) - 1.0) <= 1e-15).all()
    for dps in list(digits):
        evals, _ = _mp_eigensystem(b, p, dps)
        assert max(abs(x) for x in evals) <= 1 + 1e-20, dps


def _tie_groups(evals, keep):
    """Index groups of the first ``keep`` pairs in the order of
    ``pswf._pair_order``, by their tie in |lambda| at _TIE_DIGITS digits,
    each with a flag: whether the cut at ``keep`` splits the tie."""
    from decimal import MAX_EMAX, MIN_EMIN, Context

    from qprolate.pswf import _TIE_DIGITS, _pair_order

    key = Context(prec=_TIE_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
    mags = [key.abs(evals[i]) for i in _pair_order(evals)]
    groups = {}
    for i, mag in enumerate(mags[:keep]):
        groups.setdefault(mag, []).append(i)
    return [(idx, mags.count(mag) > len(idx)) for mag, idx in groups.items()]


def _twice_the_digits(solves, rng, a_exps, draws):
    """(solved, clusters, split) of ``draws`` seeded requests at a_exp in
    the range ``a_exps``, each checked against a solve at twice its final
    digits (see test_solve_matches_twice_the_digits_on_seeded_draws);
    ``solves`` gets the (digits, eigenvalues) of each solve."""
    from qprolate import pswf

    solved, clusters, split = 0, 0, 0
    for _ in range(draws):
        q, v = float(rng.uniform(0.05, 0.9)), float(rng.uniform(-0.95, 3.0))
        depth = int(rng.integers(8, 41))
        b, p = qp.Bandlimit(int(rng.integers(*a_exps)), depth), qp.QParams(q, v)
        keep = int(rng.integers(2, min(15, depth) + 1))
        basis = qp.compute_basis(b, p, keep)
        ref, more = pswf._basis_from_mp(b, p, keep, 2 * solves[-1][0])
        assert not more
        assert np.array_equal(basis.eigenvalues, ref.eigenvalues), (q, v, b, keep)
        sq = np.sqrt(b.weights(p))
        for idx, cut in _tie_groups(solves[-1][1], basis.count):
            lam = basis.eigenvalues[idx[0]]
            if cut:
                split += 1
            elif len(idx) == 1:
                u, w = basis.unit_samples[idx[0]], ref.unit_samples[idx[0]]
                assert (np.abs(u - w) <= 1e-13 * np.abs(w)).all(), (q, v, b, keep, lam)
            else:
                y, z = basis.unit_samples[idx] * sq, ref.unit_samples[idx] * sq
                assert np.abs(y.T @ y - z.T @ z).max() <= 1e-13, (q, v, b, keep, lam)
                clusters += 1
        solved += 1
    return solved, clusters, split


@FEWER_PAIRS
def test_solve_matches_twice_the_digits_on_seeded_draws(monkeypatch):
    # depth <= 40, v up to 3, a_exp -4..2: against a solve at twice the
    # final digits, the eigenvalues are equal, a pair whose |lambda| ties
    # with no other at 20 digits agrees componentwise, and a tie, a +-1
    # cluster with no unique basis, agrees as a projector.  A tie that
    # keep splits has no unique retained members, so only its eigenvalues
    # are compared: (0.1646, 0.4466, -4, 22, keep 3) splits one.  A
    # second set, at a_exp 5..30, draws small bands, whose top |lambda|
    # lies far below 1
    from qprolate import pswf

    solves = []  # (digits, eigenvalues) of each solve
    real = pswf._mp_eigensystem

    def recorded(b, p, dps):
        out = real(b, p, dps)
        solves.append((dps, out[0]))
        return out

    monkeypatch.setattr(pswf, "_mp_eigensystem", recorded)
    solved, clusters, split = _twice_the_digits(solves, np.random.default_rng(4040), (-4, 3), 16)
    assert solved == 16 and clusters >= 2 and split >= 1
    assert _twice_the_digits(solves, np.random.default_rng(37), (5, 31), 16)[0] == 16


def test_cluster_shortfall_does_not_depend_on_its_basis():
    # a +-1 cluster has no unique basis, so its vectors are judged by the
    # largest |entry| any of them has at each index: under a rotation of
    # its g vectors that moves by at most sqrt(g), and the shortfall by
    # at most log10(g) digits; judged one by one, the same vectors read
    # 70 and 77 digits where the whole cluster reads 47, and spread by
    # more than log10(g) under rotations
    from qprolate.pswf import _lost_digits

    b, p = qp.Bandlimit(-4, 60), qp.QParams(0.5, -0.5)
    basis = qp.compute_basis(b, p, keep=12)
    lams, rows = basis.eigenvalues, basis.unit_samples
    rng = np.random.default_rng(12)
    groups = [np.flatnonzero(lams == lam) for lam in np.unique(lams)]
    groups = [idx for idx in groups if len(idx) > 1]
    assert len(groups) == 2
    for idx in groups:
        g = len(idx)
        whole = _lost_digits(lams[idx], rows[idx], lams)
        single = [max(_lost_digits(lams[[i]], rows[[i]], lams) for i in idx)]
        for _ in range(10):
            turned = np.linalg.qr(rng.standard_normal((g, g)))[0] @ rows[idx]
            assert abs(_lost_digits(lams[idx], turned, lams) - whole) <= math.log10(g)
            single.append(max(_lost_digits(lams[[0]], row[None], lams) for row in turned))
        assert max(single) - min(single) > math.log10(g)


def test_mp_pairs_sorted_at_working_precision():
    # at a_exp = -2 the top five |lambda| lie within 1.2e-17 of 1: sorted
    # at float64 they tie and keep the solver's order; keyed at 20 digits
    # the top three tie and alternate in sign from +1, and the two others
    # follow in order of |lambda|
    from qprolate.pswf import _basis_from_mp

    basis, more = _basis_from_mp(qp.Bandlimit(-2, 60), qp.QParams(0.5, -0.5), 5, 150)
    assert not more
    assert list(np.sign(basis.eigenvalues)) == [1.0, -1.0, 1.0, -1.0, 1.0]


@pytest.mark.parametrize("a_exp,keep,signs", [(-1, 3, [1, -1, 1]), (-2, 5, [1, -1, 1, -1, 1])])
def test_float_pairs_tie_as_the_mp_pairs_do(a_exp, keep, signs):
    # the +-1 cluster resolves in float64, whose eigh of B returned it in
    # the order (1, 1, -1) at a_exp = -1; the basis orders the tie as a
    # solve at 150 digits does, with signs alternating from +
    from qprolate.pswf import _basis_from_mp

    b, p = qp.Bandlimit(a_exp, 60), qp.QParams(0.5, -0.5)
    basis = qp.compute_basis(b, p, keep)
    ref, more = _basis_from_mp(b, p, keep, 150)
    assert not more
    assert list(np.sign(basis.eigenvalues)) == list(np.sign(ref.eigenvalues)) == signs


def test_spectrum_strictly_decreasing(basis12):
    lam2 = basis12.eigenvalues**2
    assert (lam2 > 0).all()
    assert (np.diff(lam2) < 0).all()


def test_eigenvalue_signs_alternate(basis12):
    # true signed Rayleigh values at the default parameters
    signs = np.sign(basis12.eigenvalues)
    assert (signs == [1, -1] * 6).all()


def test_sign_convention(basis12):
    for row in basis12.eigenfunctions:
        peak = np.abs(row).max()
        first = row[np.abs(row) > 1e-12 * peak][0]
        assert first > 0


def test_residuals(basis12, bandlimit, p_half):
    B = qp.build_operator_matrix(bandlimit, p_half)
    sq = np.sqrt(bandlimit.weights(p_half))
    for i in range(basis12.count):
        y = sq * basis12.eigenfunctions[i]
        r = B @ y - basis12.eigenvalues[i] * y
        # euclidean norm in weighted coordinates == the L_{q,2,v} norm of
        # the residual restricted to [0,a]_q
        assert np.linalg.norm(r) <= 1e-8


def test_unit_norm_on_full_lattice(basis12, psi_tabs, p_half):
    for i in range(basis12.count):
        nrm = qp.norm_lqpv(psi_tabs[i], 2.0, p_half)
        assert abs(nrm - 1.0) <= 1e-10, i


def test_gram_orthonormal(basis12, psi_tabs, p_half):
    n = basis12.count
    G = np.array(
        [[qp.inner_product(psi_tabs[i], psi_tabs[j], p_half) for j in range(n)] for i in range(n)]
    )
    assert np.abs(G - np.eye(n)).max() <= 1e-9


def test_double_orthogonality_on_band(basis12, bandlimit, p_half):
    w = bandlimit.weights(p_half)
    for i in range(11):
        for j in range(11):
            got = float(np.dot(w, basis12.eigenfunctions[i] * basis12.eigenfunctions[j]))
            want = basis12.eigenvalues[i] * basis12.eigenvalues[j] if i == j else 0.0
            assert abs(got - want) <= 1e-8


def test_eval_self_consistency(basis12, p_half):
    b = basis12.bandlimit
    for i in range(basis12.count):
        for m in (0, 3, 11):
            z = p_half.q ** float(b.a_exp + m)
            got = qp.eval_pswf_at(basis12, i, z)
            stored = basis12.eigenfunctions[i, m]
            assert abs(got - stored) <= 1e-9 * max(1.0, abs(stored))
    # top pairs also agree in relative terms
    for i in range(4):
        z = p_half.q ** float(b.a_exp + 2)
        assert qp.eval_pswf_at(basis12, i, z) == pytest.approx(
            basis12.eigenfunctions[i, 2], rel=1e-9
        )


def test_eval_at_zero(basis12, bandlimit, p_half):
    # j_v(0) = 1 collapses the extension to the plain weighted sum
    want = p_half.c_qv * float(np.dot(bandlimit.weights(p_half), basis12.unit_samples[0]))
    assert qp.eval_pswf_at(basis12, 0, 0.0) == pytest.approx(want, rel=1e-12)


def test_eval_index_bounds(basis12):
    with pytest.raises(IndexError):
        qp.eval_pswf_at(basis12, basis12.count, 1.0)
    with pytest.raises(IndexError):
        qp.pswf_on_window(basis12, -1, qp.LatticeWindow(0, 3))


def test_eval_offlattice_depth_doubling(basis12, p_half):
    # doubled-depth quadrature oracle for the analytic extension
    deep = qp.compute_basis(qp.Bandlimit(0, 120), p_half, keep=1)
    for z in (0.3, 0.77):
        got = qp.eval_pswf_at(basis12, 0, z)
        want = qp.eval_pswf_at(deep, 0, z)
        assert got == pytest.approx(want, rel=1e-10)


def test_kernel_direct_symmetry(bandlimit, p_half):
    for x, y in [(1.0, 0.5), (0.3, 2.0)]:
        assert direct_kernel(x, y, bandlimit, p_half) == direct_kernel(y, x, bandlimit, p_half)


def test_kernel_closed_vs_direct(bandlimit, p_half):
    for x, y in [(1.0, 0.5), (2.0, 0.25), (0.125, 1.3)]:
        kc = qp.kernel(x, y, bandlimit, p_half)
        kd = direct_kernel(x, y, bandlimit, p_half)
        assert abs(kc - kd) <= 1e-9 * max(1.0, abs(kd))


def test_kernel_degenerate_takes_direct_sum(bandlimit, p_half):
    # the near-diagonal entries, and only they, take the Jackson sum over
    # all of [0, a]_q
    from qprolate.sampling import _near_diagonal

    def near(x, y):
        pair = np.array([x]), np.array([y])
        return p_half.c_qv**2 * _near_diagonal(*pair, bandlimit.a_exp, p_half)[0]

    assert qp.kernel(0.7, 0.7, bandlimit, p_half) == near(0.7, 0.7)
    x = np.array([0.7, 0.7 * (1 + 1e-11), 0.3])
    got = qp.kernel(x, 0.7, bandlimit, p_half)
    assert got.shape == (3,)
    assert got[1] == near(float(x[1]), 0.7)
    assert got[2] == qp.kernel(0.3, 0.7, bandlimit, p_half)


def test_kernel_broadcasts(bandlimit, p_half):
    xs = p_half.q ** np.arange(-1.0, 3.0)
    ys = np.array([0.2, 0.5, 1.0])
    got = qp.kernel(xs[:, None], ys, bandlimit, p_half)
    assert got.shape == (4, 3)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert got[i, j] == qp.kernel(float(x), float(y), bandlimit, p_half)
    assert isinstance(qp.kernel(0.5, 1.0, bandlimit, p_half), float)


def test_kernel_eigen_series_vs_direct(basis25, bandlimit, p_half):
    for mx in range(0, 9, 2):
        for my in range(0, 9, 2):
            x, y = p_half.q**mx, p_half.q**my
            es = eigen_series_kernel(basis25, x, y)
            assert abs(es - direct_kernel(x, y, bandlimit, p_half)) <= 1e-8


def test_kernel_eigen_series_under_ties():
    # at a = q^-1 three eigenvalues are +-1; the series must not depend on
    # how the solve resolves the tie
    p = qp.QParams(0.5, -0.5)
    b = qp.Bandlimit(-1, 60)
    with pytest.warns(qp.FewerPairsWarning):
        basis = qp.compute_basis(b, p, keep=25)
    assert np.sum(np.abs(np.abs(basis.eigenvalues) - 1.0) <= 1e-12) == 3
    pts = p.q ** np.arange(-1.0, 9.0)
    want = qp.kernel(pts[:, None], pts, b, p)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert abs(eigen_series_kernel(basis, x, y) - want[i, j]) <= 1e-8, (i, j)


def test_concentration_trivials(bandlimit, p_half, window):
    inside = supported_function(window, 0, 30, np.random.default_rng(5))
    assert qp.concentration_index(inside, bandlimit, p_half) == pytest.approx(1.0, abs=1e-12)
    outside = supported_function(window, -10, -1, np.random.default_rng(6))
    assert qp.concentration_index(outside, bandlimit, p_half) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(qp.ZeroFunction):
        qp.concentration_index(qp.LatticeFunction.zeros(window), bandlimit, p_half)


def test_concentration_is_scale_invariant(bandlimit, p_half, window):
    # f f underflowed at 1e-155 (ZeroFunction) and overflowed at 1e160 (NaN)
    f = qp.LatticeFunction.from_callable(window, lambda x: 1 / (1 + x * x), p_half.q)
    theta = qp.concentration_index(f, bandlimit, p_half)
    assert theta == pytest.approx(0.9153, abs=1e-4)
    for scale in (1e-155, 1e160):
        scaled = qp.LatticeFunction(window, f.values * scale)
        assert abs(qp.concentration_index(scaled, bandlimit, p_half) - theta) <= 1e-12, scale
    with pytest.raises(qp.ZeroFunction):
        qp.concentration_index(qp.LatticeFunction(window, f.values * 0.0), bandlimit, p_half)
    with pytest.raises(ValueError):
        qp.concentration_index(qp.LatticeFunction(window, f.values * np.inf), bandlimit, p_half)


def test_concentration_range(bandlimit, p_half, window):
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = qp.LatticeFunction(window, rng.standard_normal(window.size))
        th = qp.concentration_index(f, bandlimit, p_half)
        assert -1e-12 <= th <= 1.0 + 1e-12


def test_theta_psi0_is_lambda0_squared(basis12, psi_tabs, bandlimit, p_half):
    th = qp.concentration_index(psi_tabs[0], bandlimit, p_half)
    assert th == pytest.approx(basis12.eigenvalues[0] ** 2, abs=1e-8)


def test_reproducing_property(basis12, psi_tabs, bandlimit, p_half, window):
    # <psi_i, k_x> recovers psi_i(x) at lattice points q^-1 .. q^10
    w = qp.lattice_weights(window, p_half)
    for i in range(4):
        for n in range(-1, 11):
            x = p_half.q ** float(n)
            kx = np.array(
                [direct_kernel(x, p_half.q ** float(k), bandlimit, p_half)
                 for k in window.exponents()]
            )
            got = float(np.dot(w, psi_tabs[i].values * kx))
            assert abs(got - psi_tabs[i].value_at_exp(n)) <= 1e-8, (i, n)


# psi_i is cut at the window's top end q^-15, where its term is still
# 2e-14 of the transform's sum, just above EPS: far inside the 1e-8 that
# the spectrum is held to, so the window truncates on purpose
@pytest.mark.filterwarnings("ignore::qprolate.qcalc.TailWarning")
def test_pw_membership(basis12, psi_tabs, plan_half, window):
    # the transform of psi_i vanishes beyond the band edge a = 1
    for i in range(5):
        spectrum = qp.fqv_transform(psi_tabs[i], plan_half)
        outside = spectrum.values[window.exponents() < 0]
        assert np.abs(outside).max() <= 1e-8, i


def test_extremality_random_pw(basis12, psi_tabs, bandlimit, plan_half, p_half, window):
    theta0 = qp.concentration_index(psi_tabs[0], bandlimit, p_half)
    rng = np.random.default_rng(97)
    for _ in range(30):
        u = supported_function(window, 0, 59, rng)
        f = qp.fqv_transform(u, plan_half)
        assert qp.concentration_index(f, bandlimit, p_half) <= theta0 + 1e-9


def test_monotonicity_in_bandwidth(p_half):
    # widening the band cannot decrease the top eigenvalue
    tops = []
    for a_exp in (0, -1, -2):
        basis = qp.compute_basis(qp.Bandlimit(a_exp, 60), p_half, keep=1)
        tops.append(basis.eigenvalues[0] ** 2)
    assert tops[0] <= tops[1] + 1e-10
    assert tops[1] <= tops[2] + 1e-10


def test_eigen_report_json(basis12, p_half):
    payload = json.loads(qp.eigen_report_json(basis12))
    assert payload["q"] == p_half.q and payload["v"] == p_half.v
    assert payload["a_exp"] == 0 and payload["M"] == 60
    assert len(payload["eigenvalues"]) == basis12.count
    assert len(payload["samples"]) == basis12.count
    assert len(payload["samples"][0]) == 60
    np.testing.assert_allclose(payload["eigenvalues"], basis12.eigenvalues)


def test_eigen_report_csv(basis12):
    text = qp.eigen_report_csv(basis12)
    lines = text.strip().split("\n")
    assert lines[0].split(",")[0] == "point"
    assert len(lines) == 1 + 60
    first = lines[1].split(",")
    assert len(first) == 1 + basis12.count
    assert float(first[0]) == 1.0
    # %.12e round-trips the stored double
    assert float(first[1]) == pytest.approx(basis12.eigenfunctions[0, 0], rel=1e-12)
