"""q-Bessel Fourier transform on the truncated lattice, with translation
and convolution.

The transform F f(q^m) = c_qv (1-q) sum_n q^{n(2v+2)} f(q^n) j_v(q^{m+n}, q^2)
only ever needs the kernel at integer lattice exponents m+n, so a plan
precomputes a one-dimensional table over that diagonal range.  The
transform is involutive, self-adjoint and isometric up to window
truncation; translation and convolution are implemented through their
spectral definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qbessel import jv_at_exponent, lattice_table
from .qcalc import LatticeFunction, LatticeWindow, QParams, lattice_weights, warn_boundary


@dataclass(frozen=True)
class TransformPlan:
    """Reusable kernel table for transforms between two windows.

    ``kernel_table[i]`` holds j_v(q^{s_min + i}, q^2) for the diagonal
    exponent range s = m + n covered by the two windows.  Construction is
    the one-time cost; the plan is immutable afterwards and safe to share
    across threads.
    """

    in_window: LatticeWindow
    out_window: LatticeWindow
    params: QParams
    s_min: int = field(init=False)
    kernel_table: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        s_min = self.in_window.n_min + self.out_window.n_min
        s_max = self.in_window.n_max + self.out_window.n_max
        object.__setattr__(self, "s_min", s_min)
        object.__setattr__(self, "kernel_table", lattice_table(self.params, s_min, s_max))

    def kernel_at(self, s: int) -> float:
        """j_v(q^s, q^2), from the table when covered, recomputed otherwise."""
        i = s - self.s_min
        if 0 <= i < self.kernel_table.size:
            return float(self.kernel_table[i])
        return jv_at_exponent(s, self.params)

    def kernel_row(self, offset: int, exps: np.ndarray) -> np.ndarray:
        """Vector of j_v(q^{offset + e}) over the integer exponents ``exps``."""
        idx = offset + exps - self.s_min
        if idx.min() >= 0 and idx.max() < self.kernel_table.size:
            return self.kernel_table[idx]
        return np.array([self.kernel_at(offset + int(e)) for e in exps])


def make_plan(
    window: LatticeWindow, p: QParams, out_window: LatticeWindow | None = None
) -> TransformPlan:
    """Build a transform plan; the output window defaults to the input one."""
    return TransformPlan(window, out_window if out_window is not None else window, p)


def fqv_transform(f: LatticeFunction, plan: TransformPlan) -> LatticeFunction:
    """q-Bessel Fourier transform of f, tabulated on the plan's output window.

    Emits a TailWarning when a boundary value of the weighted input is
    not negligible, since the transform then misses its truncated tails.
    Raises ValueError when the weighted input is not finite, since one NaN
    or inf would spread to every output value.
    """
    if f.window != plan.in_window:
        raise ValueError("function window does not match plan.in_window")
    h = lattice_weights(f.window, plan.params) * f.values
    scale = float(np.sum(np.abs(h)))
    if not np.isfinite(scale):
        raise ValueError("fqv_transform needs finite input values")
    warn_boundary((h[0], h[-1]), scale, plan.params.eps, "fqv_transform")
    in_exps = f.window.exponents()
    c = plan.params.c_qv
    out = np.empty(plan.out_window.size)
    for i, m in enumerate(plan.out_window.exponents()):
        out[i] = c * np.dot(h, plan.kernel_row(int(m), in_exps))
    return LatticeFunction(plan.out_window, out)


def _translate_from_spectrum(
    spectrum: LatticeFunction, x_exp: int, plan: TransformPlan
) -> LatticeFunction:
    """Translation given an already-computed transform on the output window."""
    t_exps = spectrum.window.exponents()
    h = lattice_weights(spectrum.window, plan.params) * spectrum.values
    hx = h * plan.kernel_row(int(x_exp), t_exps)
    c = plan.params.c_qv
    out = np.empty(spectrum.window.size)
    for i, y in enumerate(t_exps):
        out[i] = c * np.dot(hx, plan.kernel_row(int(y), t_exps))
    return LatticeFunction(spectrum.window, out)


def translate(x_exp: int, f: LatticeFunction, plan: TransformPlan) -> LatticeFunction:
    """q-Bessel translation T_{q,x} f at x = q^{x_exp}, by the spectral formula

    T_{q,x} f(y) = c (1-q) sum_t q^{t(2v+2)} (Ff)(q^t) j_v(q^{x_exp+t}) j_v(q^{y+t}).
    """
    return _translate_from_spectrum(fqv_transform(f, plan), x_exp, plan)


def convolve(f: LatticeFunction, g: LatticeFunction, plan: TransformPlan) -> LatticeFunction:
    """q-convolution product via the spectral route F(f *_q g) = Ff Fg.

    Requires a square plan (in_window == out_window) so the inverse
    transform (the transform itself, by involution) applies.
    """
    if plan.in_window != plan.out_window:
        raise ValueError("convolve needs a square plan")
    ff = fqv_transform(f, plan)
    fg = fqv_transform(g, plan)
    prod = LatticeFunction(plan.out_window, ff.values * fg.values)
    return fqv_transform(prod, plan)


def convolve_direct(
    f: LatticeFunction, g: LatticeFunction, plan: TransformPlan
) -> LatticeFunction:
    """Brute-force convolution c (1-q) sum_y q^{y(2v+2)} T_{q,x}f(q^y) g(q^y).

    Oracle twin of ``convolve``; quadratic in the window size.
    """
    if plan.in_window != plan.out_window:
        raise ValueError("convolve_direct needs a square plan")
    spectrum = fqv_transform(f, plan)
    wg = lattice_weights(g.window, plan.params) * g.values
    c = plan.params.c_qv
    out = np.empty(plan.out_window.size)
    for i, x in enumerate(plan.out_window.exponents()):
        tx = _translate_from_spectrum(spectrum, int(x), plan)
        out[i] = c * np.dot(wg, tx.values)
    return LatticeFunction(plan.out_window, out)
