"""Foundational q-calculus on the geometric lattice {q^n}.

Provides q-Pochhammer symbols, Jackson q-integrals over [0, a] and
[0, inf), and the weighted inner-product / norm structure used by every
other module.  Functions on the lattice are tabulated on a finite
exponent window; values outside a window count as exactly zero, and a
warning channel reports when that truncation is visible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext

import numpy as np


# relative tolerance of the q-Bessel float series and of the tail check
EPS = 1e-14
# digits past which the cancellation in Euler's series for an infinite
# q-Pochhammer symbol costs more than a second or so: it depends on q
# alone, whatever the context's precision, and passes this from about
# q = 0.99973 on
_QPOCH_MAX_EXTRA_DIGITS = 2000
_LN10 = math.log(10.0)


class WindowTooSmall(ValueError):
    """A lattice window does not cover the exponent range an operation needs."""


class TailWarning(UserWarning):
    """Boundary terms of a truncated lattice sum are not negligible."""


def qpochhammer(z: float, q: float, n) -> float:
    """q-Pochhammer symbol (z; q)_n = prod_{i<n} (1 - z q^i).

    Parameters
    ----------
    z : float
        Argument of the symbol.
    q : float
        Base, must lie in (0, 1).
    n : int or math.inf
        Number of factors; ``math.inf`` selects the convergent infinite
        product, truncated at the first index i with |z| q^i < EPS (1 - q),
        which keeps the relative error O(EPS).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0,1)")
    if n == math.inf:
        out = 1.0
        term = z
        cutoff = EPS * (1.0 - q)
        while abs(term) >= cutoff:
            out *= 1.0 - term
            term *= q
        return out
    n = int(n)
    if n < 0:
        raise ValueError("n must be a nonnegative integer or inf")
    out = 1.0
    zq = z
    for _ in range(n):
        out *= 1.0 - zq
        zq *= q
    return out


def _qpoch_inf(a: Decimal, x: Decimal) -> Decimal:
    """(a; x)_inf for 0 < a, x < 1 in the current context, by Euler's
    series sum_n (-1)^n x^{n(n-1)/2} a^n / (x;x)_n, whose terms fall like
    x^{n^2/2}.  Its terms exceed the result (by 10^7 at x = 0.9), which
    shrinks like 1 - a as a -> 1, so the sum carries as many more digits
    as the largest term lies above the result, both estimated in float64
    as sums of logs, plus a guard.  Raises ValueError, naming q = sqrt(x),
    where that would take more than _QPOCH_MAX_EXTRA_DIGITS digits beyond
    the context's, whatever its precision; each estimate stops once it
    passes them."""
    af, xf = float(a), float(x)
    budget = _QPOCH_MAX_EXTRA_DIGITS
    # log10 of the result, a sum of logs: the float product of the
    # factors lies below the float range for x above about 0.9976
    est, t = 0.0, af
    while t >= EPS * (1.0 - xf) and est >= -budget * _LN10:
        est, t = est + math.log1p(-t), t * xf
    est /= _LN10
    # log10 of the largest term: the ratio of successive terms,
    # a x^n / (1 - x^{n+1}), falls with n
    peak, n = 0.0, 0
    while peak - est <= budget and (r := af * xf**n / (1.0 - xf ** (n + 1))) > 1.0:
        peak, n = peak + math.log10(r), n + 1
    if peak - est > budget:
        raise ValueError(
            f"q = {math.sqrt(xf)!r} lies too close to 1: Euler's series for "
            f"(a; q^2)_inf would need more than {_QPOCH_MAX_EXTRA_DIGITS} "
            "digits beyond the working precision"
        )
    prec = getcontext().prec
    tol = Decimal(1).scaleb(math.floor(est) - prec - 1)  # below a unit of the result
    with localcontext() as ctx:
        ctx.prec = prec + math.ceil(peak - est) + 3  # 3 guard digits
        total, term, xn = Decimal(1), Decimal(1), Decimal(1)
        while True:
            r = a * xn / (1 - xn * x)
            term *= -r
            xn *= x
            total += term
            if abs(term) < tol and 2 * r < 1:  # the tail lies below |term|
                break
    return +total


def c_qv_decimal(q: float, v: float) -> Decimal:
    """c_qv = (q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf) in the current
    decimal context, from Euler's series for both symbols.  (q^2; q^2)_inf
    goes first: where q lies too close to 1 its estimates pass the digit
    cap within a few hundred terms, whatever v is."""
    qd = Decimal(q)
    q2 = qd * qd
    den = _qpoch_inf(q2, q2) * (1 - qd)
    return _qpoch_inf(qd ** (2 * Decimal(v) + 2), q2) / den


@dataclass(frozen=True)
class QParams:
    """Global deformation parameters q in (0,1) and order v > -1.

    The normalization constant of the q-Bessel Fourier transform,
    c_qv = (q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf), is derived in
    ``__post_init__`` by ``c_qv_decimal`` at 25 digits and rounded once
    to float64: correctly rounded unless it lies within about 1e-24
    relative of a point halfway between two floats.  Raises ValueError
    from about q = 0.99973 on, where that series would cancel more than
    2,000 digits.  Instances are immutable, so replacing q or v via
    ``dataclasses.replace`` recomputes it.
    """

    q: float
    v: float
    c_qv: float = field(init=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0,1)")
        if not self.v > -1.0:
            raise ValueError("v must exceed -1")
        with localcontext(Context(prec=25, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            object.__setattr__(self, "c_qv", float(c_qv_decimal(self.q, self.v)))


def lattice_points(q: float, exps) -> np.ndarray:
    """The points q^s for the integer exponents ``exps``, each a Python
    float power (numpy's array power can differ in the last bit); the
    lattice cache, the sampling grid and every window form their points
    here."""
    return np.array([q ** float(s) for s in exps])


@dataclass(frozen=True)
class LatticeWindow:
    """Exponent range [n_min, n_max]; lattice point k is q^k, decreasing in k."""

    n_min: int
    n_max: int

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ValueError("n_min must not exceed n_max")

    @property
    def size(self) -> int:
        return self.n_max - self.n_min + 1

    def exponents(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def points(self, q: float) -> np.ndarray:
        return lattice_points(q, self.exponents())

    def contains(self, k: int) -> bool:
        return self.n_min <= k <= self.n_max


@dataclass(eq=False)
class LatticeFunction:
    """An even function tabulated on a LatticeWindow.

    ``values[k - n_min]`` holds f(q^k).  Evenness means evaluation at
    -q^k is identified with the stored value at q^k; only the positive
    half lattice is ever tabulated.
    """

    window: LatticeWindow
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.window.size,):
            raise ValueError(
                f"values must have {self.window.size} entries, got {self.values.shape}"
            )

    @classmethod
    def zeros(cls, window: LatticeWindow) -> "LatticeFunction":
        return cls(window, np.zeros(window.size))

    @classmethod
    def delta(cls, window: LatticeWindow, k: int) -> "LatticeFunction":
        """Indicator of the single lattice point q^k."""
        if not window.contains(k):
            raise WindowTooSmall(f"exponent {k} outside window [{window.n_min}, {window.n_max}]")
        vals = np.zeros(window.size)
        vals[k - window.n_min] = 1.0
        return cls(window, vals)

    @classmethod
    def from_callable(cls, window: LatticeWindow, fn, q: float) -> "LatticeFunction":
        """Tabulate fn(q^k) over the window; fn receives the point x = q^k."""
        return cls(window, np.array([fn(x) for x in window.points(q).tolist()]))

    def value_at_exp(self, k: int) -> float:
        """f(q^k), exactly 0 outside the window."""
        if not self.window.contains(k):
            return 0.0
        return float(self.values[k - self.window.n_min])

    def __add__(self, other: "LatticeFunction") -> "LatticeFunction":
        if other.window != self.window:
            raise ValueError("windows differ")
        return LatticeFunction(self.window, self.values + other.values)

    def __sub__(self, other: "LatticeFunction") -> "LatticeFunction":
        if other.window != self.window:
            raise ValueError("windows differ")
        return LatticeFunction(self.window, self.values - other.values)

    def __mul__(self, scalar: float) -> "LatticeFunction":
        return LatticeFunction(self.window, self.values * float(scalar))

    __rmul__ = __mul__


DEFAULT_WINDOW = LatticeWindow(-15, 60)


def lattice_weights(window: LatticeWindow, p: QParams) -> np.ndarray:
    """Weights (1-q) q^{k(2v+2)} of the L_{q,2,v} inner product, descending in magnitude."""
    ks = window.exponents().astype(float)
    return (1.0 - p.q) * p.q ** (ks * (2.0 * p.v + 2.0))


def warn_boundary(ends, scale: float, label: str) -> None:
    """Emit a TailWarning when the largest of the boundary terms ``ends``
    of a truncated lattice sum exceeds EPS * |scale|; ``label`` names the
    operation, which must call this directly (the warning points at its
    caller)."""
    boundary = max(abs(t) for t in ends)
    if boundary > EPS * max(abs(scale), 1e-300):
        warnings.warn(
            f"{label}: boundary term {boundary:.3e} exceeds EPS * |scale| "
            f"({EPS:.1e} * {abs(scale):.3e}); widen the window",
            TailWarning,
            stacklevel=3,
        )


def jackson_integral_0a(f: LatticeFunction, a_exp: int, p: QParams) -> float:
    """Jackson q-integral of f over [0, a] with a = q^{a_exp}.

    Equals (1-q) a sum_m q^m f(a q^m) truncated at the window bottom.
    Raises WindowTooSmall when the window does not contain a_exp.  Emits
    a TailWarning when the deepest retained term is still significant.
    """
    win = f.window
    if not win.contains(a_exp):
        raise WindowTooSmall(
            f"a_exp={a_exp} outside window [{win.n_min}, {win.n_max}]"
        )
    ks = np.arange(a_exp, win.n_max + 1)
    vals = f.values[a_exp - win.n_min :]
    terms = (1.0 - p.q) * p.q ** ks.astype(float) * vals
    total = float(np.sum(terms))
    warn_boundary(terms[-1:], total, "jackson_integral_0a")
    return total


def jackson_integral_0inf(f: LatticeFunction, p: QParams) -> float:
    """Bilateral Jackson q-integral (1-q) sum_k q^k f(q^k) over the window.

    Emits a TailWarning when either boundary term exceeds EPS times the
    running sum, signalling visible truncation.
    """
    ks = f.window.exponents().astype(float)
    terms = (1.0 - p.q) * p.q ** ks * f.values
    total = float(np.sum(terms))
    warn_boundary((terms[0], terms[-1]), total, "jackson_integral_0inf")
    return total


def inner_product(f: LatticeFunction, g: LatticeFunction, p: QParams) -> float:
    """Weighted inner product <f,g> = (1-q) sum_k q^{k(2v+2)} f(q^k) g(q^k).

    Computed over the window intersection; values outside either window
    are treated as exactly zero.  The summand is formed as (f*g)*weight
    so the result is bitwise symmetric in f and g.
    """
    lo = max(f.window.n_min, g.window.n_min)
    hi = min(f.window.n_max, g.window.n_max)
    if lo > hi:
        return 0.0
    fv = f.values[lo - f.window.n_min : hi - f.window.n_min + 1]
    gv = g.values[lo - g.window.n_min : hi - g.window.n_min + 1]
    w = lattice_weights(LatticeWindow(lo, hi), p)
    return float(np.dot(w, fv * gv))


def norm_lqpv(f: LatticeFunction, p_exponent: float, p: QParams) -> float:
    """Weighted p-norm ||f||_{q,p,v} on the truncated lattice (p_exponent >= 1)."""
    if p_exponent < 1.0:
        raise ValueError("p_exponent must be >= 1")
    w = lattice_weights(f.window, p)
    return float(np.dot(w, np.abs(f.values) ** p_exponent) ** (1.0 / p_exponent))
