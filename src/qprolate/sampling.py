"""q-sampling theorem: recovery of q-bandlimited functions from their
values at the lattice points q^k.

Any f in the q-Paley-Wiener space satisfies

    f(z) = (1-q) sum_k q^{2k(v+1)} f(q^k) k_z(q^k),

where k_z is the reproducing kernel; the sampling points q^k do not
depend on the band edge a.  The kernel is c_qv^2 times the product
integral of ``qbessel``: its closed form is
``qbessel.product_integral_quotient``, fed here with cached lattice
values of j_v and j_{v+1}, and its direct Jackson sum, used where q^k
is too close to z, is ``qbessel.product_integral_direct``.  This module
provides that kernel, the truncated reconstruction sum, the projection
onto the bandlimited space (which, like translation, needs a square
transform plan), and the projection-error study driving the application
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pswf import Bandlimit
from .qbessel import lattice_table, product_integral_direct, product_integral_quotient
from .qcalc import LatticeFunction, QParams, warn_boundary
from .qfourier import TransformPlan, fqv_transform


@dataclass(frozen=True)
class SamplingGrid:
    """Sample exponents k_min..k_max; sample k carries weight (1-q) q^{2k(v+1)}."""

    k_min: int
    k_max: int

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ValueError("k_min must not exceed k_max")

    def exponents(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)


DEFAULT_GRID = SamplingGrid(-10, 40)


def sampling_kernel(z: float, n: int, b: Bandlimit, p: QParams) -> float:
    """Reproducing kernel k_z(q^n) = c_qv^2 int_0^a j_v(q^n t) j_v(zt) t^{2v+1} d_q t.

    Evaluated by ``_kernel_rows`` on a one-point grid: the closed form

    k_z(q^n) = (1-q) c^2 / (1-q^{2v+2}) a^{2v+2}
               [q^{2n} j_{v+1}(a q^n) j_v(a q^{-1} z) - z^2 j_{v+1}(a z) j_v(a q^{n-1})]
               / (q^{2n} - z^2),

    or the direct Jackson sum when q^{2n} and z^2 are too close for the
    difference quotient.
    """
    return float(_kernel_rows(np.array([float(z)]), SamplingGrid(n, n), b, p)[0, 0])


def _kernel_rows(zs: np.ndarray, grid: SamplingGrid, b: Bandlimit, p: QParams) -> np.ndarray:
    """k_z(q^k) over the whole grid, one row per z in the 1-D ``zs``: the
    closed form with the lattice factors read once from the exponent
    cache, the direct Jackson sum where q^k is too close to z."""
    ks = grid.exponents()
    s_min, s_max = b.a_exp + grid.k_min, b.a_exp + grid.k_max
    jy = (lattice_table(p, s_min, s_max, p.v + 1.0), lattice_table(p, s_min - 1, s_max - 1))
    values, separated = product_integral_quotient(
        p.q ** ks.astype(float), zs[:, None], jy, b.a_exp, p
    )
    out = p.c_qv**2 * values
    for i, k in zip(*np.nonzero(~separated)):
        y = p.q ** float(ks[k])
        out[i, k] = p.c_qv**2 * product_integral_direct(y, float(zs[i]), b.a_exp, p, b.depth)
    return out


def reconstruct(
    samples: np.ndarray,
    z: float | np.ndarray,
    grid: SamplingGrid,
    b: Bandlimit,
    p: QParams,
) -> float | np.ndarray:
    """Truncated sampling sum (1-q) sum_k q^{2k(v+1)} samples[k] k_z(q^k).

    ``samples[i]`` must hold f(q^k) for k = grid.k_min + i.  ``z`` is a
    float, which returns a float, or an array, which returns an array of
    its shape.  Emits a TailWarning for each z at which a boundary term of
    the sum is still significant; raises ValueError for non-finite
    samples or z.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.k_max - grid.k_min + 1,):
        raise ValueError("samples length does not match the grid")
    zs = np.asarray(z, dtype=float)
    if not (np.isfinite(samples).all() and np.isfinite(zs).all()):
        raise ValueError("reconstruct needs finite samples and a finite z")
    ks = grid.exponents().astype(float)
    weights = (1.0 - p.q) * p.q ** (2.0 * ks * (p.v + 1.0))
    terms = weights * samples * _kernel_rows(zs.reshape(-1), grid, b, p)
    totals = np.sum(terms, axis=1)
    for row, total in zip(terms, totals):
        warn_boundary((row[0], row[-1]), total, p.eps, "reconstruct")
    return float(totals[0]) if zs.ndim == 0 else totals.reshape(zs.shape)


def project(f: LatticeFunction, b: Bandlimit, plan: TransformPlan) -> LatticeFunction:
    """Projection f_a(x) = <f, k_x> onto the space bandlimited to [0, a]_q.

    Computed by transforming, chopping the spectrum at the band edge
    (exponents below a_exp), and transforming back.
    """
    if plan.in_window != plan.out_window:
        raise ValueError("project needs a square plan")
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
        fa = project(f, Bandlimit(a_exp, plan.in_window.n_max - a_exp + 1), plan)
        sup = float(np.max(np.abs(f.values - fa.values)[region]))
        out.append((a_exp, sup))
    return out
