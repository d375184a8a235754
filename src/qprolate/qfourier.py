"""q-Bessel Fourier transform on the truncated lattice, with translation
and convolution.

The transform F f(q^m) = c_qv (1-q) sum_n q^{n(2v+2)} f(q^n) j_v(q^{m+n}, q^2)
only ever needs the kernel at integer lattice exponents m+n, so a plan
precomputes a one-dimensional table over that diagonal range: the row of
output m is one contiguous slice of it.  The transform is involutive,
self-adjoint and isometric up to window truncation; translation and
convolution are the transform of a product of spectra, as they are
defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qbessel import lattice_table
from .qcalc import LatticeFunction, LatticeWindow, QParams, lattice_weights, warn_boundary


@dataclass(frozen=True)
class TransformPlan:
    """Reusable kernel table for transforms on one window.

    ``kernel_table[i]`` holds j_v(q^{2 n_min + i}, q^2) for the diagonal
    exponents s = m + n of the window, so the row of output m is the slice
    ``kernel_table[m - n_min : m - n_min + window.size]``.  Construction is
    the one-time cost; the plan is immutable afterwards and safe to share
    across threads.
    """

    window: LatticeWindow
    params: QParams
    kernel_table: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        w = self.window
        object.__setattr__(
            self, "kernel_table", lattice_table(self.params, 2 * w.n_min, 2 * w.n_max)
        )


def make_plan(window: LatticeWindow, p: QParams) -> TransformPlan:
    """Build a transform plan on ``window``."""
    return TransformPlan(window, p)


def fqv_transform(f: LatticeFunction, plan: TransformPlan) -> LatticeFunction:
    """q-Bessel Fourier transform of f, tabulated on the plan's window.

    Emits a TailWarning when a boundary value of the weighted input is
    not negligible, since the transform then misses its truncated tails.
    Raises ValueError when the weighted input is not finite, since one NaN
    or inf would spread to every output value.
    """
    if f.window != plan.window:
        raise ValueError("function window does not match plan.window")
    h = lattice_weights(f.window, plan.params) * f.values
    scale = float(np.sum(np.abs(h)))
    if not np.isfinite(scale):
        raise ValueError("fqv_transform needs finite input values")
    warn_boundary((h[0], h[-1]), scale, "fqv_transform")
    c = plan.params.c_qv
    table, size = plan.kernel_table, h.size
    out = np.empty(size)
    for i in range(size):
        out[i] = c * np.dot(h, table[i : i + size])
    return LatticeFunction(plan.window, out)


def translate(x_exp: int, f: LatticeFunction, plan: TransformPlan) -> LatticeFunction:
    """q-Bessel translation T_{q,x} f at x = q^{x_exp}, by the spectral formula

    T_{q,x} f = F(j_v(q^{x_exp} .) Ff), that is
    T_{q,x} f(y) = c (1-q) sum_t q^{t(2v+2)} (Ff)(q^t) j_v(q^{x_exp+t}) j_v(q^{y+t}).

    Both transforms go through ``fqv_transform``, so each may emit a
    TailWarning.
    """
    spectrum = fqv_transform(f, plan)
    w = plan.window
    jx = lattice_table(plan.params, int(x_exp) + w.n_min, int(x_exp) + w.n_max)
    return fqv_transform(LatticeFunction(w, spectrum.values * jx), plan)


def convolve(f: LatticeFunction, g: LatticeFunction, plan: TransformPlan) -> LatticeFunction:
    """q-convolution product via the spectral route F(f *_q g) = Ff Fg,
    inverted by the transform itself (it is an involution)."""
    ff = fqv_transform(f, plan)
    fg = fqv_transform(g, plan)
    return fqv_transform(LatticeFunction(plan.window, ff.values * fg.values), plan)
