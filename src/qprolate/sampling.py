"""q-sampling theorem: recovery of q-bandlimited functions from their
values at the lattice points q^k.

Any f in the q-Paley-Wiener space satisfies

    f(z) = (1-q) sum_k q^{2k(v+1)} f(q^k) k_z(q^k),

where k_z is the reproducing kernel; the sampling points q^k do not
depend on the band edge a, and a grid of them is a LatticeWindow.  The
kernel is c_qv^2 times the product integral of ``qbessel`` over all of
[0, a]_q, whatever the band's depth, and this module is the one place
that chooses how to evaluate it: the closed form
``qbessel.product_integral_quotient`` where the two arguments' squares
are apart, and ``_near_diagonal``, the direct Jackson sum
``qbessel.product_integral_direct`` with a closed-form tail, where they
are not.  ``kernel`` feeds the closed form with series values, the
sampling sum with memoised lattice tables.  This module provides that
kernel, the truncated reconstruction sum, the projection onto the
bandlimited space, and the projection-error study driving the
application experiment.
"""

from __future__ import annotations

import numpy as np

from .pswf import Bandlimit
from .qbessel import (
    band_edge,
    flat_depth,
    jv_array,
    lattice_table,
    product_integral_direct,
    product_integral_quotient,
)
from .qcalc import EPS, LatticeFunction, LatticeWindow, QParams, lattice_weights, warn_boundary
from .qfourier import TransformPlan, fqv_transform

DEFAULT_GRID = LatticeWindow(-10, 40)


def kernel(x, y, b: Bandlimit, p: QParams):
    """Reproducing kernel k(x, y) = c_qv^2 int_0^a j_v(xt) j_v(yt) t^{2v+1} d_q t
    of the space bandlimited to [0, a]_q, broadcast over x and y >= 0.

    A float for scalar x and y, an array of their broadcast shape
    otherwise.  The closed form takes its x-side values from ``jv_array``;
    where x^2 and y^2 are too close for it, ``_near_diagonal`` sums the
    same integral over all of [0, a]_q; only ``b.a_exp`` is read.  Raises
    ValueError for a non-finite argument, and OverflowError, naming q and
    a_exp, where the band edge lies beyond the float range.
    Far past 1 (a x or a y near q^s, s << 0) j_v swings, between the
    lattice points, to values some q^{-s^2} times larger than at them,
    so the rounding of the float arguments can swamp the value there;
    ``reconstruct`` reads its lattice side from exact lattice values.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xs, ys = x.reshape(-1), y.reshape(-1)
    a = band_edge(b.a_exp, p)
    jx = (jv_array(a * xs, p, p.v + 1.0), jv_array(a * xs / p.q, p))
    out = _kernel_values(xs, ys, jx, b.a_exp, p).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def _grid_kernel(zs: np.ndarray, grid: LatticeWindow, b: Bandlimit, p: QParams) -> np.ndarray:
    """k_z(q^k) over the whole grid, one row per z in the 1-D ``zs``, with
    the lattice factors of the closed form read as two memoised lattice
    tables."""
    s_min, s_max = b.a_exp + grid.n_min, b.a_exp + grid.n_max
    jy = (lattice_table(p, s_min, s_max, p.v + 1.0), lattice_table(p, s_min - 1, s_max - 1))
    return _kernel_values(grid.points(p.q), zs[:, None], jy, b.a_exp, p)


def _kernel_values(y: np.ndarray, z: np.ndarray, jy, a_exp: int, p: QParams) -> np.ndarray:
    """c_qv^2 times the product integral over [0, q^{a_exp}]_q at the
    broadcast y and z (at least 1-D), given the closed form's y-side
    values ``jy``: the closed form where it is separated,
    ``_near_diagonal`` at the other entries."""
    values, separated = product_integral_quotient(y, z, jy, a_exp, p)
    out = p.c_qv**2 * values
    near = ~separated
    if near.any():
        y, z = np.broadcast_arrays(y, z)
        out[near] = p.c_qv**2 * _near_diagonal(y[near], z[near], a_exp, p)
    return out


def _near_diagonal(y: np.ndarray, z: np.ndarray, a_exp: int, p: QParams) -> np.ndarray:
    """int_0^a j_v(yt) j_v(zt) t^{2v+1} d_q t over all of [0, a]_q, as the
    closed form gives it, whatever the band's depth, at each pair of the
    1-D ``y`` and ``z``: one ``product_integral_direct`` call sums the
    first n points t = a q^m, n the ``flat_depth`` of a max(y, z) at EPS,
    and the weights past them, on which both factors are 1 to EPS, sum to
    (1-q) (a q^n)^{2v+2} / (1-q^{2v+2})."""
    xmax = (band_edge(a_exp, p) * np.maximum(np.abs(y), np.abs(z))).tolist()
    ns = np.array([flat_depth(x, p.q, p.v, EPS) for x in xmax])
    heads = np.zeros(ns.size)
    summed = ns > 0
    if summed.any():
        heads[summed] = product_integral_direct(y[summed], z[summed], a_exp, p, ns[summed])
    tails = lattice_weights(LatticeWindow(a_exp, a_exp + int(ns.max())), p)[ns]
    return heads + tails / (1.0 - p.q ** (2.0 * p.v + 2.0))


def reconstruct(
    samples: np.ndarray,
    z: float | np.ndarray,
    grid: LatticeWindow,
    b: Bandlimit,
    p: QParams,
) -> float | np.ndarray:
    """Truncated sampling sum (1-q) sum_k q^{2k(v+1)} samples[k] k_z(q^k).

    ``samples[i]`` must hold f(q^k) for k = grid.n_min + i; only
    ``b.a_exp`` is read.  ``z`` is a float, which returns a float, or an
    array, which returns an array of its shape.  Emits a TailWarning for
    each z at which a boundary term of the sum is still significant;
    raises ValueError for non-finite samples or z.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.size,):
        raise ValueError("samples length does not match the grid")
    zs = np.asarray(z, dtype=float)
    if not (np.isfinite(samples).all() and np.isfinite(zs).all()):
        raise ValueError("reconstruct needs finite samples and a finite z")
    terms = lattice_weights(grid, p) * samples * _grid_kernel(zs.reshape(-1), grid, b, p)
    totals = np.sum(terms, axis=1)
    for row, total in zip(terms, totals):
        warn_boundary((row[0], row[-1]), total, "reconstruct")
    return float(totals[0]) if zs.ndim == 0 else totals.reshape(zs.shape)


def project(f: LatticeFunction, b: Bandlimit, plan: TransformPlan) -> LatticeFunction:
    """Projection f_a(x) = <f, k_x> onto the space bandlimited to [0, a]_q.

    Computed by transforming, chopping the spectrum at the band edge
    (exponents below a_exp), and transforming back.
    """
    spectrum = fqv_transform(f, plan)
    chopped = spectrum.values.copy()
    chopped[spectrum.window.exponents() < b.a_exp] = 0.0
    return fqv_transform(LatticeFunction(spectrum.window, chopped), plan)


def convergence_study(
    f: LatticeFunction,
    a_exps: list[int],
    delta_exp: int,
    plan: TransformPlan,
) -> list[tuple[int, float]]:
    """Sup of |f - f_a| over lattice points x >= q^{delta_exp}, per band edge.

    ``a_exps`` must be ordered so the band edge a = q^{a_exp} increases
    (exponents decreasing); the error is expected to shrink down the list.
    """
    if any(a_exps[i] <= a_exps[i + 1] for i in range(len(a_exps) - 1)):
        raise ValueError("a_exps must be strictly decreasing (a increasing)")
    exps = f.window.exponents()
    region = exps <= delta_exp
    out = []
    for a_exp in a_exps:
        # project reads only the band edge, so any depth serves; a fixed
        # one is valid at every a_exp, also past the window's end
        fa = project(f, Bandlimit(a_exp, 1), plan)
        sup = float(np.max(np.abs(f.values - fa.values)[region]))
        out.append((a_exp, sup))
    return out
