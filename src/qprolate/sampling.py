"""q-sampling theorem: recovery of q-bandlimited functions from their
values at the lattice points q^k.

Any f in the q-Paley-Wiener space satisfies

    f(z) = (1-q) sum_k q^{2k(v+1)} f(q^k) k_z(q^k),

where k_z is the reproducing kernel; the sampling points q^k do not
depend on the band edge a.  This module provides the closed-form kernel
with a direct Jackson-sum fallback, the truncated reconstruction sum,
the projection onto the bandlimited space, and the projection-error
study driving the application experiment.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .pswf import Bandlimit
from .qbessel import _jv_exp_cached, _jv_order, jv_array, jv_at_exponent
from .qcalc import LatticeFunction, QParams, TailWarning
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
    """Reproducing kernel k_z(q^n) via its closed form.

    k_z(q^n) = (1-q) c^2 / (1-q^{2v+2}) a^{2v+2}
               [q^{2n} j_{v+1}(a q^n) j_v(a q^{-1} z) - z^2 j_{v+1}(a z) j_v(a q^{n-1})]
               / (q^{2n} - z^2);

    when q^{2n} and z^2 are too close for the difference quotient, the
    direct Jackson sum c^2 int_0^a j_v(zt) j_v(q^n t) t^{2v+1} d_q t is
    used instead.
    """
    q2n = p.q ** (2.0 * n)
    z2 = z * z
    a = p.q ** float(b.a_exp)
    if abs(q2n - z2) > 1e-9 * max(q2n, z2):
        v1 = p.v + 1.0
        pref = (1.0 - p.q) * p.c_qv**2 / (1.0 - p.q ** (2.0 * p.v + 2.0)) * a ** (
            2.0 * p.v + 2.0
        )
        num = q2n * _jv_order(a * p.q**n, p, v1) * _jv_order(a * z / p.q, p, p.v) - z2 * _jv_order(
            a * z, p, v1
        ) * _jv_order(a * p.q ** (n - 1.0), p, p.v)
        return pref * num / (q2n - z2)
    ms = np.arange(b.depth, dtype=float)
    prod = jv_array(z * a * p.q**ms, p) * jv_array(p.q**n * a * p.q**ms, p)
    weights = p.q ** (ms * (2.0 * p.v + 2.0))
    return float(
        p.c_qv**2 * (1.0 - p.q) * a ** (2.0 * p.v + 2.0) * np.dot(weights, prod)
    )


def _jv_lattice_order(s: int, p: QParams, v: float) -> float:
    """j at order v and lattice argument q^s (order-v+1 values are cached
    separately from the shared exponent cache, which is keyed on p.v)."""
    return _jv_exp_cached(p.q, v, p.eps, s)


def _kernel_row(z: float, grid: SamplingGrid, b: Bandlimit, p: QParams) -> np.ndarray:
    """k_z(q^k) over the whole grid; shares the two z-dependent series across k."""
    ks = grid.exponents()
    a = p.q ** float(b.a_exp)
    q2k = p.q ** (2.0 * ks.astype(float))
    z2 = z * z
    v1 = p.v + 1.0
    # lattice-dependent factors, cached at integer exponents
    j1_lat = np.array([_jv_lattice_order(b.a_exp + int(k), p, v1) for k in ks])
    j0_lat = np.array([jv_at_exponent(b.a_exp + int(k) - 1, p) for k in ks])
    jz_v = _jv_order(a * z / p.q, p, p.v)
    jz_v1 = _jv_order(a * z, p, v1)
    pref = (1.0 - p.q) * p.c_qv**2 / (1.0 - p.q ** (2.0 * p.v + 2.0)) * a ** (
        2.0 * p.v + 2.0
    )
    out = np.empty(ks.size)
    ok = np.abs(q2k - z2) > 1e-9 * np.maximum(q2k, z2)
    num = q2k * j1_lat * jz_v - z2 * jz_v1 * j0_lat
    out[ok] = pref * num[ok] / (q2k[ok] - z2)
    for i in np.flatnonzero(~ok):
        out[i] = sampling_kernel(z, int(ks[i]), b, p)
    return out


def reconstruct(
    samples: np.ndarray,
    z: float,
    grid: SamplingGrid,
    b: Bandlimit,
    p: QParams,
) -> float:
    """Truncated sampling sum (1-q) sum_k q^{2k(v+1)} samples[k] k_z(q^k).

    ``samples[i]`` must hold f(q^k) for k = grid.k_min + i.  Emits a
    TailWarning when a boundary term of the sum is still significant;
    raises ValueError for non-finite samples or z.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.k_max - grid.k_min + 1,):
        raise ValueError("samples length does not match the grid")
    if not (np.isfinite(samples).all() and np.isfinite(z)):
        raise ValueError("reconstruct needs finite samples and a finite z")
    ks = grid.exponents().astype(float)
    weights = (1.0 - p.q) * p.q ** (2.0 * ks * (p.v + 1.0))
    terms = weights * samples * _kernel_row(z, grid, b, p)
    total = float(np.sum(terms))
    boundary = max(abs(terms[0]), abs(terms[-1]))
    if boundary > p.eps * max(abs(total), 1e-300):
        warnings.warn(
            f"reconstruct: boundary term {boundary:.3e} is not negligible "
            f"against {total:.3e}; widen the sampling grid",
            TailWarning,
            stacklevel=2,
        )
    return total


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
