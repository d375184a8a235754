"""Acceptance suite.

Each test implements one acceptance requirement at its stated tolerance
and prints a pass/fail line with the measured figure and elapsed time
(visible under ``pytest -s`` or on failure).
"""

import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import qprolate as qp
from _oracles import convolve_direct
from conftest import closed_form, direct_kernel, eigen_series_kernel, supported_function


def _verdict(name, ok, detail, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({time.time() - t0:.1f}s)"
    print(line)
    assert ok, line


def test_product_integral_identity_suite():
    # closed form vs depth-300 Jackson sum, 27 parameter sets x 50 pairs
    t0 = time.time()
    worst = 0.0
    for q in (0.3, 0.5, 0.8):
        for v in (-0.5, 0.0, 1.5):
            p = qp.QParams(q, v)
            rng = np.random.default_rng(hash((q, v)) % 2**32)
            lo, hi = np.log(q**6), np.log(q**-3)
            for a_exp in (2, 0, -2):
                done = 0
                while done < 50:
                    y, z = np.exp(rng.uniform(lo, hi, size=2))
                    if abs(y * y - z * z) <= 1e-6 * max(y * y, z * z):
                        continue
                    done += 1
                    closed, separated = closed_form(float(y), float(z), a_exp, p)
                    assert separated, (q, v, a_exp, y, z)
                    direct = qp.product_integral_direct(float(y), float(z), a_exp, p, depth=300)
                    worst = max(worst, abs(closed - direct) / (1.0 + abs(direct)))
    _verdict(
        "product-integral closed form vs direct Jackson sum",
        worst <= 1e-9,
        f"worst scaled deviation {worst:.3e} <= 1e-9",
        t0,
    )


def test_lattice_growth_bound_suite():
    # |j_v(q^n, q^2)| against its growth bound on n in [-6, 20]
    t0 = time.time()
    worst = -np.inf
    for q in (0.3, 0.5, 0.8):
        for v in (-0.5, 0.0, 1.5):
            p = qp.QParams(q, v)
            for n in range(-6, 21):
                excess = abs(qp.jv_at_exponent(n, p)) - qp.jv_bound(n, p)
                worst = max(worst, excess)
    _verdict(
        "lattice growth bound, 9 parameter sets",
        worst <= 1e-12,
        f"worst bound excess {worst:.3e} <= 1e-12",
        t0,
    )


# Ff of a function supported on [-3, 10] is still about 1e-7 of its sum at
# the window's top end q^-15, so a transform of Ff cuts that tail on
# purpose: the identities are measured on [-3, 10] only
@pytest.mark.filterwarnings("ignore::qprolate.qcalc.TailWarning")
def test_transform_identity_suite(plan_half, plan_v0, window):
    # involution, self-adjointness, isometry and the convolution identity
    # on windows [-15, 60], measured on n in [-3, 10]
    t0 = time.time()
    rng = np.random.default_rng(2024)
    exps = window.exponents()
    measured = (exps >= -3) & (exps <= 10)
    fails = []
    figures = []
    for plan in (plan_half, plan_v0):
        p = plan.params
        f = supported_function(window, -3, 10, rng)
        g = supported_function(window, -3, 10, rng)

        ff = qp.fqv_transform(qp.fqv_transform(f, plan), plan)
        inv = np.abs((ff.values - f.values)[measured]).max()
        if inv > 1e-8:
            fails.append(f"involution {inv:.2e}")

        lhs = qp.inner_product(qp.fqv_transform(f, plan), g, p)
        rhs = qp.inner_product(f, qp.fqv_transform(g, plan), p)
        adj = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        if adj > 1e-9:
            fails.append(f"self-adjointness {adj:.2e}")

        nf = qp.norm_lqpv(f, 2.0, p)
        iso = abs(qp.norm_lqpv(qp.fqv_transform(f, plan), 2.0, p) - nf) / nf
        if iso > 1e-8:
            fails.append(f"isometry {iso:.2e}")

        conv = qp.convolve(f, g, plan)
        thm = np.abs(
            (
                qp.fqv_transform(conv, plan).values
                - qp.fqv_transform(f, plan).values * qp.fqv_transform(g, plan).values
            )[measured]
        ).max()
        if thm > 1e-8:
            fails.append(f"convolution identity {thm:.2e}")

        routes = np.abs((conv.values - convolve_direct(f, g, plan).values)[measured]).max()
        if routes > 1e-8:
            fails.append(f"convolution routes {routes:.2e}")
        figures.append(
            f"v={p.v:g}: inv {inv:.1e}, adj {adj:.1e}, iso {iso:.1e}, conv {thm:.1e}/{routes:.1e}"
        )
    _verdict(
        "transform identities (involution/self-adjoint/isometry/convolution)",
        not fails,
        "; ".join(figures) if not fails else "; ".join(fails),
        t0,
    )


def test_eigensystem_suite(basis12, basis25, bandlimit, p_half, psi_tabs):
    # residuals, Gram orthonormality, double orthogonality on the band,
    # strict spectral ordering, and the eigen-series kernel expansion
    t0 = time.time()
    fails = []

    B = qp.build_operator_matrix(bandlimit, p_half)
    sq = np.sqrt(bandlimit.weights(p_half))
    res = max(
        float(
            np.linalg.norm(
                B @ (sq * basis12.eigenfunctions[i])
                - basis12.eigenvalues[i] * sq * basis12.eigenfunctions[i]
            )
        )
        for i in range(basis12.count)
    )
    if res > 1e-8:
        fails.append(f"residual {res:.2e}")

    n = basis12.count
    G = np.array(
        [[qp.inner_product(psi_tabs[i], psi_tabs[j], p_half) for j in range(n)] for i in range(n)]
    )
    gram = np.abs(G - np.eye(n)).max()
    if gram > 1e-9:
        fails.append(f"gram {gram:.2e}")

    w = bandlimit.weights(p_half)
    band_orth = max(
        abs(
            float(np.dot(w, basis12.eigenfunctions[i] * basis12.eigenfunctions[j]))
            - (basis12.eigenvalues[i] * basis12.eigenvalues[j] if i == j else 0.0)
        )
        for i in range(11)
        for j in range(11)
    )
    if band_orth > 1e-8:
        fails.append(f"band orthogonality {band_orth:.2e}")

    lam2 = basis12.eigenvalues**2
    if not ((lam2 > 0).all() and (np.diff(lam2) < 0).all()):
        fails.append("lambda^2 not strictly decreasing")

    pts = [p_half.q**m for m in range(9)]
    ker = max(
        abs(eigen_series_kernel(basis25, x, y) - direct_kernel(x, y, bandlimit, p_half))
        for x in pts
        for y in pts
    )
    if ker > 1e-8:
        fails.append(f"eigen-series kernel {ker:.2e}")

    _verdict(
        "eigensystem (residuals/Gram/band orthogonality/ordering/series kernel)",
        not fails,
        f"residual {res:.1e}, gram {gram:.1e}, band orth {band_orth:.1e}, kernel {ker:.1e}"
        if not fails
        else "; ".join(fails),
        t0,
    )


# the grid [-10, 40] cuts the sampling sum of psi_0 where its end terms
# are at most 1e-12, far inside the 1e-7 that the sum is held to
@pytest.mark.filterwarnings("ignore::qprolate.qcalc.TailWarning")
def test_sampling_reconstruction_suite(basis12, bandlimit, p_half, psi_tabs):
    # sampling sum on grid [-10, 40] vs the analytic extension of psi_0
    t0 = time.time()
    grid = qp.LatticeWindow(-10, 40)
    samples = np.array([psi_tabs[0].value_at_exp(int(k)) for k in grid.exponents()])
    worst_off = max(
        abs(qp.reconstruct(samples, z, grid, bandlimit, p_half) - qp.eval_pswf_at(basis12, 0, z))
        for z in (0.3, 0.7, 1.3)
    )
    worst_lat = max(
        abs(
            qp.reconstruct(samples, p_half.q ** float(j), grid, bandlimit, p_half)
            - samples[j - grid.n_min]
        )
        for j in (-6, -1, 0, 3, 9, 15)
    )
    _verdict(
        "sampling formula vs analytic extension of psi_0",
        worst_off <= 1e-7 and worst_lat <= 1e-7,
        f"off-lattice {worst_off:.3e} <= 1e-7, lattice self-consistency {worst_lat:.3e} <= 1e-7",
        t0,
    )


# 1/(1+x^2) is still 1e-5 of its transform's sum at the window's top end
# q^-15: the experiment projects it on that window, as the reconstruct
# command does, and compares projections on the window only
@pytest.mark.filterwarnings("ignore::qprolate.qcalc.TailWarning")
def test_application_experiment_suite(tmp_path, capsys, plan_half, window, p_half):
    # f(x) = 1/(1+x^2) at q = 0.5, v = -1/2: projection error on the
    # lattice span [q^10, q^-1] strictly improves as the band widens
    # through a = 1, 2, 4, and the CSV/SVG artifact set is emitted
    t0 = time.time()
    from qprolate.cli import main

    rc = main(["reconstruct", "--function", "runge", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    sups_cli = [float(l.split("sup_error=")[1]) for l in out.splitlines() if l.startswith("a_exp=")]

    f = qp.LatticeFunction.from_callable(window, lambda x: 1 / (1 + x * x), p_half.q)
    exps = window.exponents()
    region = (exps >= -1) & (exps <= 10)
    sups = []
    for a_exp in (0, -1, -2):
        fa = qp.project(f, qp.Bandlimit(a_exp, 60), plan_half)
        sups.append(float(np.abs((f.values - fa.values)[region]).max()))

    artifacts = all(
        (tmp_path / f"reconstruct_{tag}.{ext}").exists()
        for tag in ("a0", "am1", "am2")
        for ext in ("csv", "svg")
    )
    svg_ok = all(
        len(
            [
                e
                for e in ET.parse(tmp_path / f"reconstruct_{tag}.svg").iter()
                if e.tag.endswith("polyline")
            ]
        )
        == 2
        for tag in ("a0", "am1", "am2")
    )
    ok = (
        rc == 0
        and artifacts
        and svg_ok
        and sups[0] > sups[1] > sups[2] > 0
        and sups_cli[0] > sups_cli[1] > sups_cli[2] > 0
    )
    _verdict(
        "application experiment (runge projection, a in {1,2,4}, CSV+SVG artifacts)",
        ok,
        f"sup errors {sups[0]:.3e} > {sups[1]:.3e} > {sups[2]:.3e}, 3 CSV + 3 valid SVG",
        t0,
    )


def test_spectral_monotonicity_suite(p_half):
    # the top concentration eigenvalue cannot drop when the band widens
    t0 = time.time()
    tops = []
    for a_exp in (0, -1, -2):
        basis = qp.compute_basis(qp.Bandlimit(a_exp, 60), p_half, keep=1)
        tops.append(basis.eigenvalues[0] ** 2)
    ok = tops[0] <= tops[1] + 1e-10 and tops[1] <= tops[2] + 1e-10
    _verdict(
        "spectral monotonicity in the band edge",
        ok,
        f"lambda_0^2 = {tops[0]:.12f} (a=1) <= {tops[1]:.12f} (a=2) <= {tops[2]:.12f} (a=4)",
        t0,
    )


def test_concentration_extremality_suite(
    basis12, psi_tabs, bandlimit, plan_half, p_half, window
):
    # psi_0 maximizes the concentration index over 100 random bandlimited
    # functions; span / orthogonal-complement bounds at n = 3
    t0 = time.time()
    theta0 = qp.concentration_index(psi_tabs[0], bandlimit, p_half)
    rng = np.random.default_rng(424242)
    worst = -np.inf
    for _ in range(100):
        u = supported_function(window, 0, 59, rng)
        f = qp.fqv_transform(u, plan_half)
        worst = max(worst, qp.concentration_index(f, bandlimit, p_half) - theta0)
    max_ok = worst <= 1e-9

    n = 3
    lam2 = basis12.eigenvalues**2
    span_worst = np.inf
    for _ in range(20):
        coeffs = rng.standard_normal(n + 1)
        f = qp.LatticeFunction.zeros(window)
        for c, tab in zip(coeffs, psi_tabs[: n + 1]):
            f = f + float(c) * tab
        span_worst = min(span_worst, qp.concentration_index(f, bandlimit, p_half) - lam2[n])
    span_ok = span_worst >= -1e-9

    w = bandlimit.weights(p_half)
    band = (window.exponents() >= 0) & (window.exponents() <= 59)
    comp_worst = -np.inf
    for _ in range(20):
        u = supported_function(window, 0, 59, rng)
        uvals = u.values[band]
        for i in range(n + 1):
            uvals = uvals - np.dot(w * uvals, basis12.unit_samples[i]) * basis12.unit_samples[
                i
            ] / np.dot(w * basis12.unit_samples[i], basis12.unit_samples[i])
        uf = qp.LatticeFunction.zeros(window)
        uf.values[band] = uvals
        f = qp.fqv_transform(uf, plan_half)
        comp_worst = max(comp_worst, qp.concentration_index(f, bandlimit, p_half) - lam2[n + 1])
    comp_ok = comp_worst <= 1e-9

    _verdict(
        "concentration extremality (psi_0 maximal; span/complement bounds at n=3)",
        max_ok and span_ok and comp_ok,
        f"max excess over theta(psi_0) {worst:.3e} <= 1e-9; span slack {span_worst:.3e} >= -1e-9; "
        f"complement excess {comp_worst:.3e} <= 1e-9",
        t0,
    )
