import math
import warnings

import numpy as np
import pytest

import qprolate as qp
from _oracles import product_integral
from conftest import direct_kernel, supported_function
from qprolate.sampling import _grid_kernel


# the grid [-10, 40] cuts the sampling sum where its end terms are at most
# 1e-12: far inside the bounds these tests hold reconstruct to, so the
# grid truncates on purpose
GRID_TAIL = pytest.mark.filterwarnings("ignore::qprolate.qcalc.TailWarning")
# 1/(1+x^2), and the transform of a function supported on [0, 59], are
# still 1e-5 and 6e-2 of their transforms' sums at the window's top end
# q^-15; the projections are compared with others on the same window
WINDOW_TAIL = pytest.mark.filterwarnings("ignore::qprolate.qcalc.TailWarning")


@pytest.fixture(scope="module")
def grid():
    return qp.LatticeWindow(-10, 40)


def _kernel_at(z, n, b, p):
    """k_z(q^n) from ``_grid_kernel`` on the one-point grid {q^n}."""
    return _grid_kernel(np.array([z]), qp.LatticeWindow(n, n), b, p)[0, 0]


@pytest.fixture(scope="module")
def psi0_samples(basis12, psi_tabs, grid):
    return np.array([psi_tabs[0].value_at_exp(int(k)) for k in grid.exponents()])


def test_grid_validation():
    with pytest.raises(ValueError):
        qp.LatticeWindow(3, 1)
    g = qp.LatticeWindow(-2, 2)
    assert (g.exponents() == [-2, -1, 0, 1, 2]).all()


def test_sampling_kernel_at_zero(bandlimit, p_half):
    # z = 0 kills the z^2 numerator term and j_v(0) = 1
    p = p_half
    a = 1.0
    for n in (0, 2, 5):
        want = (
            (1 - p.q)
            * p.c_qv**2
            / (1 - p.q ** (2 * p.v + 2))
            * qp.jv_array(a * p.q**n, p, p.v + 1.0)
        )
        assert _kernel_at(0.0, n, bandlimit, p_half) == pytest.approx(
            want, rel=1e-12
        )


def test_sampling_kernel_degenerate_fallback(bandlimit, p_half):
    # z = q^n takes the direct-sum branch and must agree with the
    # direct-sum reproducing kernel
    for n in (0, 3, 7):
        z = p_half.q ** float(n)
        got = _kernel_at(z, n, bandlimit, p_half)
        assert got == pytest.approx(direct_kernel(z, z, bandlimit, p_half), rel=1e-12)


def test_kernel_rows_at_lattice_points_match_sampling_kernel(bandlimit, p_half, grid):
    # where z = q^k the rows fall back to the direct sum, which must give
    # the one-point grid's value exactly
    ks = np.arange(-3, 6)
    rows = _grid_kernel(p_half.q ** ks.astype(float), grid, bandlimit, p_half)
    for row, k in zip(rows, ks):
        z = p_half.q ** float(k)
        assert row[k - grid.n_min] == _kernel_at(z, int(k), bandlimit, p_half)


def test_grid_kernel_forms_points_as_the_lattice_cache(bandlimit, grid):
    # at q = 0.9, k = 12 numpy's array power q ** 12.0 lies one ulp from
    # Python's (numpy 2.4), which moved this entry by about 2 ulps; the grid
    # point must be Python's, the point whose j_v the lattice cache holds,
    # so the diagonal entry at z = q ** float(k) is the near-diagonal sum
    # at (z, z) bit for bit
    from qprolate.sampling import _near_diagonal

    p, k = qp.QParams(0.9, 0.3), 12
    z = p.q ** float(k)
    got = _grid_kernel(np.array([z]), grid, bandlimit, p)[0, k - grid.n_min]
    assert got == p.c_qv**2 * _near_diagonal(np.array([z]), np.array([z]), bandlimit.a_exp, p)[0]


def _whole_band_pair(y, z, a_exp, p):
    """c_qv^2 times the integral over all of [0, a]_q at one pair, as
    ``product_integral_direct`` at the depth where j_v's x^2 term falls
    below EPS plus the closed-form sum of the remaining weights."""
    qv = p.q ** (2.0 * p.v + 2.0)
    c1 = p.q * p.q / ((1.0 - p.q * p.q) * (1.0 - qv))
    xmax = p.q ** float(a_exp) * max(abs(y), abs(z))
    n = 0
    if xmax:
        n = max(math.ceil((0.5 * math.log(qp.qcalc.EPS / c1) - math.log(xmax)) / math.log(p.q)), 0)
    head = qp.product_integral_direct(y, z, a_exp, p, n) if n else 0.0
    tail = float(qp.lattice_weights(qp.LatticeWindow(a_exp + n, a_exp + n), p)[0]) / (1.0 - qv)
    return p.c_qv**2 * (head + tail)


@pytest.mark.parametrize(
    "q, v", [(0.5, -0.5), (0.5, 0.0), (0.9, 0.3), (0.27, 2.2), (0.7, -0.93)]
)
def test_near_diagonal_entries_are_the_pairwise_sums(q, v):
    # the near-diagonal entries of a grid kernel, which sums all of them in
    # one jv_array call per side, are bit for bit the Jackson sum of each
    # pair on its own, at the reconstruct z grid of a_exp 0, -1, -2 (its 12
    # lattice points are grid points) and at seeded pairs near the diagonal
    # through kernel
    p, grid = qp.QParams(q, v), qp.LatticeWindow(-10, 40)
    span = qp.LatticeWindow(-1, 10).points(q)
    zs = np.unique(np.concatenate([np.linspace(span[-1], span[0], 200), span]))
    points = grid.points(q)
    for a_exp in (0, -1, -2):
        b = qp.Bandlimit(a_exp, 60)
        rows = _grid_kernel(zs, grid, b, p)
        near = [(i, k) for i, z in enumerate(zs) for k in range(grid.size) if z == points[k]]
        assert len(near) == 12
        for i, k in near:
            assert rows[i, k] == _whole_band_pair(float(points[k]), float(zs[i]), a_exp, p)
    rng = np.random.default_rng(2608)
    x = np.exp(rng.uniform(math.log(q**6), math.log(q**-2), 8))
    y = x * (1.0 + rng.uniform(-1e-10, 1e-10, 8))
    y[:2] = x[:2]
    a_exp = int(rng.integers(-2, 2))
    got = qp.kernel(x, y, qp.Bandlimit(a_exp, 60), p)
    want = [_whole_band_pair(xi, yi, a_exp, p) for xi, yi in zip(x.tolist(), y.tolist())]
    assert got.tolist() == want


def _kernel_oracle_cases():
    """(q, v, a_exp, x): the cases of a fixed list, then seeded draws whose
    oracle depth (below) stays within 1,000 points."""
    cases = [(0.9, 0.0, 0, 0.7), (0.3, 1.7, 1, 2.0), (0.5, -0.5, -2, 0.3), (0.8, 2.5, -3, 0.05)]
    rng = np.random.default_rng(2027)
    while len(cases) < 14:
        q, v = float(rng.uniform(0.05, 0.95)), float(rng.uniform(-0.95, 3.0))
        a_exp = int(rng.integers(-3, 2))
        if _oracle_depth(q, v) <= 1000:
            cases.append((q, v, a_exp, float(rng.uniform(0.05, 1.5)) / q**a_exp))
    return cases


def _oracle_depth(q, v):
    """Points of [0, a]_q past which the weights sum below 1e-16 of the
    first; the oracle's Jackson sum has no tail."""
    e = 2.0 * v + 2.0
    return math.ceil((16.0 - math.log10(1.0 - q**e)) / (e * -math.log10(q)))


@pytest.mark.parametrize("q, v, a_exp, x", _kernel_oracle_cases(),
                         ids=lambda x: f"{x:.3g}")
def test_kernel_near_diagonal_is_the_whole_band(q, v, a_exp, x):
    # where x^2 and y^2 are too close for the closed form, the kernel must
    # still be its integral over all of [0, a]_q, whatever the band's depth:
    # at (0.9, 0, 0, 0.7) a sum cut at the band's 5 points is 61% off
    p, y = qp.QParams(q, v), x * (1.0 + 1e-12)
    got = qp.kernel(x, y, qp.Bandlimit(a_exp, 5), p)
    want = p.c_qv**2 * float(product_integral(x, y, a_exp, q, v, _oracle_depth(q, v), dps=30))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_band_edge_beyond_the_float_range_is_named():
    from qprolate import qbessel

    p = qp.QParams(0.5, 3.0)
    with pytest.raises(OverflowError, match=r"q = 0\.5, a_exp = -2000 lies beyond"):
        qp.kernel(1.0, 0.5, qp.Bandlimit(-2000, 5), p)
    # a = 2^200 is a float, and a^{2v+2} = 2^1600 is not
    with pytest.raises(OverflowError, match=r"a_exp = -200, raised to 8\.0, lies beyond"):
        qbessel.product_integral_quotient(1e-70, 2e-70, (1.0, 1.0), -200, p)


def test_sampling_kernel_vs_pswf_kernel(bandlimit, p_half):
    # two independent code paths: closed form vs Jackson sum
    for m in (-1, 0, 2):
        for n in (1, 4, 8):
            if m == n:
                continue
            z = p_half.q ** float(m)
            got = _kernel_at(z, n, bandlimit, p_half)
            want = direct_kernel(z, p_half.q ** float(n), bandlimit, p_half)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_reconstruct_zero(bandlimit, p_half, grid):
    samples = np.zeros(grid.size)
    assert qp.reconstruct(samples, 0.3, grid, bandlimit, p_half) == 0.0


def test_reconstruct_shape_check(bandlimit, p_half, grid):
    with pytest.raises(ValueError):
        qp.reconstruct(np.zeros(3), 0.3, grid, bandlimit, p_half)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_reconstruct_rejects_non_finite(bandlimit, p_half, grid, bad):
    samples = np.ones(grid.size)
    with pytest.raises(ValueError):
        qp.reconstruct(samples, bad, grid, bandlimit, p_half)
    samples[3] = bad
    with pytest.raises(ValueError):
        qp.reconstruct(samples, 0.3, grid, bandlimit, p_half)


@GRID_TAIL
def test_reconstruct_linear_in_samples(bandlimit, p_half, grid):
    rng = np.random.default_rng(31)
    n = grid.size
    s1 = rng.standard_normal(n)
    s2 = rng.standard_normal(n)
    alpha = 0.731
    z = 0.42
    lhs = qp.reconstruct(alpha * s1 + s2, z, grid, bandlimit, p_half)
    rhs = alpha * qp.reconstruct(s1, z, grid, bandlimit, p_half) + qp.reconstruct(
        s2, z, grid, bandlimit, p_half
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@GRID_TAIL
def test_reconstruct_psi0_matches_extension(basis12, bandlimit, p_half, grid, psi0_samples):
    # the analytic extension is the independent oracle
    for z in (0.3, 0.7, 1.3):
        got = qp.reconstruct(psi0_samples, z, grid, bandlimit, p_half)
        want = qp.eval_pswf_at(basis12, 0, z)
        assert abs(got - want) <= 1e-7, z


@GRID_TAIL
def test_reconstruct_lattice_self_consistency(bandlimit, p_half, grid, psi0_samples):
    for j in (-5, 0, 4, 12):
        z = p_half.q ** float(j)
        got = qp.reconstruct(psi0_samples, z, grid, bandlimit, p_half)
        assert abs(got - psi0_samples[j - grid.n_min]) <= 1e-7, j


@GRID_TAIL
def test_reconstruct_kernel_section(bandlimit, p_half, grid):
    # f = k_{x0} is itself bandlimited; reconstructing it at z must give
    # the kernel value k(x0, z)
    x0 = p_half.q**2
    samples = np.array(
        [direct_kernel(x0, p_half.q ** float(k), bandlimit, p_half) for k in grid.exponents()]
    )
    z = p_half.q**5
    got = qp.reconstruct(samples, z, grid, bandlimit, p_half)
    assert abs(got - direct_kernel(x0, z, bandlimit, p_half)) <= 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 33])
def test_seeded_reproducing_property(seed):
    # <psi_i, k_x> = (1-q) sum_k q^{2k(v+1)} psi_i(q^k) k_x(q^k) is the
    # sampling sum, whose lattice side reads exact lattice values: at a
    # float argument far past 1 the series peak amplifies the rounding of
    # the argument, so kernel(x, y) with y = q^k, k << 0, is noise.  For
    # the same reason x stays inside [0, a]_q.  The grid reaches 24 digits
    # of the weight q^{k(2v+2)} on either side of the band edge, so no
    # TailWarning fires.  Seed 33, the worst of the first 40, reaches
    # 6.2e-10 of max|psi_i| at q = 0.314, v = -0.32, a_exp = -2.
    rng = np.random.default_rng([seed, 7])
    q, v = float(rng.uniform(0.3, 0.8)), float(rng.uniform(-0.5, 2.0))
    a_exp = int(rng.integers(-2, 2))
    p, b = qp.QParams(q, v), qp.Bandlimit(a_exp, 60)
    basis = qp.compute_basis(b, p, keep=4)
    width = math.ceil(24 / ((2 * v + 2) * -math.log10(q)))
    grid = qp.LatticeWindow(a_exp - width, a_exp + width)
    ns = np.arange(a_exp, a_exp + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", qp.TailWarning)
        for i in range(4):
            psi = qp.pswf_on_window(basis, i, grid)
            got = qp.reconstruct(psi.values, q ** ns.astype(float), grid, b, p)
            want = np.array([psi.value_at_exp(int(n)) for n in ns])
            assert np.abs(got - want).max() <= 1e-8 * np.abs(psi.values).max(), i


def test_project_zero(bandlimit, plan_half, window):
    fa = qp.project(qp.LatticeFunction.zeros(window), bandlimit, plan_half)
    assert np.abs(fa.values).max() == 0.0


@WINDOW_TAIL
def test_project_fixes_bandlimited(bandlimit, plan_half, window):
    rng = np.random.default_rng(37)
    u = supported_function(window, 0, 59, rng)
    f = qp.fqv_transform(u, plan_half)
    fa = qp.project(f, bandlimit, plan_half)
    assert np.abs(fa.values - f.values).max() <= 1e-8


@WINDOW_TAIL
def test_project_idempotent(bandlimit, plan_half, window, p_half):
    f = qp.LatticeFunction.from_callable(window, lambda x: 1 / (1 + x * x), p_half.q)
    f1 = qp.project(f, bandlimit, plan_half)
    f2 = qp.project(f1, bandlimit, plan_half)
    assert np.abs(f2.values - f1.values).max() <= 1e-8


@WINDOW_TAIL
def test_project_spectrum_vanishes(bandlimit, plan_half, window, p_half):
    f = qp.LatticeFunction.from_callable(window, lambda x: 1 / (1 + x * x), p_half.q)
    fa = qp.project(f, bandlimit, plan_half)
    spectrum = qp.fqv_transform(fa, plan_half)
    outside = spectrum.values[window.exponents() < bandlimit.a_exp]
    assert np.abs(outside).max() <= 1e-8


@WINDOW_TAIL
def test_project_matches_kernel_inner_product(bandlimit, plan_half, window, p_half):
    # f_a(x) = <f, k_x> evaluated directly through the direct-sum kernel
    f = qp.LatticeFunction.from_callable(window, lambda x: 1 / (1 + x * x), p_half.q)
    fa = qp.project(f, bandlimit, plan_half)
    w = qp.lattice_weights(window, p_half)
    for n in (-2, 0, 3, 8):
        x = p_half.q ** float(n)
        kx = np.array(
            [direct_kernel(x, p_half.q ** float(k), bandlimit, p_half) for k in window.exponents()]
        )
        want = float(np.dot(w, f.values * kx))
        assert fa.value_at_exp(n) == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_reconstruct_tail_warning_for_slow_decay(bandlimit, p_half, grid):
    # samples of 1/(1+x^2): the k = n_min term is still 6.5e-13 of the sum
    ks = grid.exponents().astype(float)
    samples = 1.0 / (1.0 + p_half.q ** (2.0 * ks))
    with pytest.warns(qp.TailWarning):
        qp.reconstruct(samples, 0.3, grid, bandlimit, p_half)


@pytest.mark.parametrize("a_exp", [0, -2])
def test_reconstruct_on_array_matches_scalar_calls(p_half, grid, a_exp):
    # dense points plus lattice points, where the kernel falls back to the
    # direct sum; samples of 1/(1+x^2), so that most z carry a TailWarning
    b = qp.Bandlimit(a_exp, 60)
    ks = grid.exponents().astype(float)
    samples = 1.0 / (1.0 + p_half.q ** (2.0 * ks))
    zs = np.concatenate([np.linspace(0.01, 2.0, 37), p_half.q ** np.arange(-1.0, 8.0)])
    with warnings.catch_warnings(record=True) as per_z:
        warnings.simplefilter("always", qp.TailWarning)
        want = [qp.reconstruct(samples, float(z), grid, b, p_half) for z in zs]
    with warnings.catch_warnings(record=True) as batch:
        warnings.simplefilter("always", qp.TailWarning)
        got = qp.reconstruct(samples, zs.reshape(2, -1), grid, b, p_half)
    assert all(type(w) is float for w in want) and got.shape == (2, zs.size // 2)
    # each element of a jv_array batch stops on its own, so a kernel row,
    # and the sum over it, does not depend on the other z of the call
    assert np.array_equal(got.reshape(-1), want)
    assert len(per_z) > zs.size // 2
    assert len(batch) == len(per_z)
    assert all(w.filename == __file__ for w in batch)


def test_reconstruct_no_tail_warning_for_compact_support(bandlimit, p_half, grid):
    samples = np.zeros(grid.size)
    samples[5:20] = np.random.default_rng(53).standard_normal(15)
    with warnings.catch_warnings():
        warnings.simplefilter("error", qp.TailWarning)
        qp.reconstruct(samples, 0.3, grid, bandlimit, p_half)


def test_convergence_study_zero(plan_half, window):
    out = qp.convergence_study(qp.LatticeFunction.zeros(window), [0, -1, -2], 10, plan_half)
    assert [e for _, e in out] == [0.0, 0.0, 0.0]


@WINDOW_TAIL
def test_convergence_study_bandlimited(bandlimit, plan_half, window):
    # already bandlimited at a = 1: every wider band reproduces it
    rng = np.random.default_rng(41)
    u = supported_function(window, 0, 59, rng)
    f = qp.fqv_transform(u, plan_half)
    out = qp.convergence_study(f, [0, -1, -2], 10, plan_half)
    assert all(err <= 1e-8 for _, err in out)


@WINDOW_TAIL
def test_convergence_study_runge_decreasing(plan_half, window, p_half):
    f = qp.LatticeFunction.from_callable(window, lambda x: 1 / (1 + x * x), p_half.q)
    out = qp.convergence_study(f, [0, -1, -2], 10, plan_half)
    errs = [e for _, e in out]
    assert errs[0] > errs[1] > errs[2] > 0


@WINDOW_TAIL
def test_convergence_study_band_edge_past_the_window(plan_half, window, p_half):
    # a band edge past the window's end keeps no spectrum, so f_a = 0 and
    # the error is |f|; the study used to derive a depth from the window
    # and raise "depth must be >= 1", a setting the caller never passed
    f = qp.LatticeFunction.from_callable(window, lambda x: 1 / (1 + x * x), p_half.q)
    out = qp.convergence_study(f, [70, 0], 5, plan_half)
    assert out[0] == (70, float(np.max(np.abs(f.values[window.exponents() <= 5]))))
    assert out[1] == qp.convergence_study(f, [0], 5, plan_half)[0]


def test_convergence_study_ordering_enforced(plan_half, window):
    f = qp.LatticeFunction.zeros(window)
    with pytest.raises(ValueError):
        qp.convergence_study(f, [-2, -1, 0], 10, plan_half)
