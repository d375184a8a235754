"""Foundational q-calculus on the geometric lattice {q^n}.

Provides q-Pochhammer symbols, Jackson q-integrals over [0, a] and
[0, inf), and the weighted inner-product / norm structure used by every
other module.  Every infinite q-Pochhammer symbol, in c_qv, the lattice
growth bound and ``qpochhammer``, is Euler's series in decimal,
``qpoch_inf_decimal``; every decimal q^{2v+2} is ``qv_power``.  Lattice
functions are tabulated on a finite exponent window; values outside a
window count as exactly zero, and a warning channel reports when that
truncation is visible.
"""

from __future__ import annotations

import functools
import math
import types
import warnings
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, getcontext, localcontext


class _Numpy(types.ModuleType):
    """Stand-in for numpy until its first attribute access, which imports
    numpy (under the import lock, so first use from several threads is
    safe), takes on its namespace and becomes a plain module: from then
    on ``np.x`` costs what it costs on numpy.  The package's one binding
    of numpy, so that the commands that never touch it (``eigen``) do not
    pay for its import; ``sys.modules`` only ever holds numpy itself."""

    def __getattr__(self, name):
        import numpy

        self.__dict__.update(numpy.__dict__)
        self.__class__ = types.ModuleType
        return getattr(numpy, name)


np = _Numpy("numpy")


# relative tolerance of the q-Bessel float series and of the tail check
EPS = 1e-14
# digits past which the cancellation in Euler's series for an infinite
# q-Pochhammer symbol costs more than a second or so: it depends on q
# alone, whatever the context's precision, and passes this from about
# q = 0.99973 on
_QPOCH_MAX_EXTRA_DIGITS = 2000
_LN10 = math.log(10.0)
# rounds nothing: forms 2v + 2, or 1 - a x^i, whatever the digits of the floats
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


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
        Number of factors.  A finite n takes the float product, stopped
        once |z q^i| <= 2^-54, past which every factor rounds to 1.0.
        ``math.inf`` selects the infinite product,
        ``qpoch_inf_decimal`` at 20 digits rounded once to float, with no
        cutoff: correctly rounded unless within 1e-19 of a tie, +0.0 where
        it is 0 or below the float range.  Raises ValueError for a z that
        is not finite, an n that is not a nonnegative integer or inf, or a
        series that would cancel too much, and OverflowError, naming z and
        q, where either product leaves the float range.  The
        decimal context spans just past the float range, so a value that
        the series' magnitude estimate puts far outside it is decided
        there, however much the series would cancel: (1/2; 0.9999)_inf,
        about 1e-2528, is +0.0.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0,1)")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if n == math.inf:
        with localcontext(Context(prec=20, Emax=309, Emin=-350)):
            value = qpoch_inf_decimal(Decimal(float(z)), Decimal(float(q)))
        return to_float(value, f"({z!r}; {q!r})_inf")
    if not (isinstance(n, int) or float(n).is_integer()) or n < 0:
        raise ValueError(f"n must be a nonnegative integer or inf, got {n!r}")
    out = 1.0
    for i in range(int(n)):
        x = z * q**i
        if abs(x) <= 2.0**-54:
            break
        out *= 1.0 - x
    if not math.isfinite(out):
        raise OverflowError(f"({z!r}; {q!r})_{n} lies beyond the float range")
    return out


def to_float(value: Decimal, name: str) -> float:
    """``value`` rounded once to float, +0.0 where it underflows; raises
    OverflowError, naming ``name``, beyond the float range."""
    out = float(value)
    if math.isinf(out):
        raise OverflowError(f"{name} = {value:.6e} lies beyond the float range")
    return out + 0.0  # turns -0.0 into +0.0


def qpoch_inf_decimal(a: Decimal, x: Decimal) -> Decimal:
    """(a; x)_inf for a finite real a and 0 < x < 1 in the current context,
    by Euler's series sum_n (-1)^n x^{n(n-1)/2} a^n / (x;x)_n (Gasper &
    Rahman, Basic Hypergeometric Series, 1.3), the one evaluation of an
    infinite q-Pochhammer symbol.  Its terms fall like x^{n^2/2} but can
    exceed the result (by 10^7 at x = 0.9 as a -> 1), so the sum carries
    as many more digits as the largest term lies above the result, both
    estimated in float64 as sums of logs, plus a guard.  A factor
    1 - a x^i within 2^-20 of 0 is formed exactly; if it is 0, so is the
    result.  The context's exponent range is read from the estimate
    first: a result it puts below 10^(Etiny - 1) is 0, and one above
    10^Emax raises OverflowError, naming a, x and the estimate.  Past
    that, raises ValueError, naming a and x, where the series would
    cancel more than _QPOCH_MAX_EXTRA_DIGITS digits beyond the context's,
    whatever its precision; each estimate stops once it passes them.
    The sum itself runs in the widest exponent range."""
    af, xf = float(a), float(x)
    budget = _QPOCH_MAX_EXTRA_DIGITS
    # log10 of the result, a sum of logs (the product underflows near x = 1),
    # and its sign; once the sum falls it only falls, so one cut short by
    # the budget lies above the result
    est, t, i, sign = 0.0, af, 0, 1
    while abs(t) >= EPS * (1.0 - xf) and est >= -budget * _LN10:
        if t < 1.0:
            est += math.log1p(-t)
        elif t > 1.0 + 2.0**-20:  # t carries i roundings: far below 2^-20
            est, sign = est + math.log(t - 1.0), -sign
        elif f := 1 - EXACT.multiply(a, EXACT.power(x, i)):
            est, sign = est + float(abs(f).ln(Context(prec=17))), -sign if f < 0 else sign
        else:
            return Decimal(0)
        t, i = t * xf, i + 1
    est /= _LN10
    ctx = getcontext()
    if est < ctx.Etiny() - 1:
        return Decimal(0)
    if est > ctx.Emax:
        approx = Decimal(sign * 10 ** (est % 1)).scaleb(math.floor(est), EXACT)
        raise OverflowError(f"({af!r}; {xf!r})_inf = {approx:.6e} (estimated) lies beyond "
                            f"the context's exponent range")
    # log10 of the largest term: the ratio of successive terms,
    # a x^n / (1 - x^{n+1}), falls with n
    peak, n = 0.0, 0
    while peak - est <= budget and (r := abs(af * xf**n / (1.0 - xf ** (n + 1)))) > 1.0:
        peak, n = peak + math.log10(r), n + 1
    if peak - est > budget:
        raise ValueError(f"Euler's series for (a; x)_inf at a = {af!r}, x = {xf!r} would "
                         f"cancel more than {budget} digits beyond the working precision")
    prec = ctx.prec
    with localcontext() as wide:
        wide.prec = prec + math.ceil(peak - est) + 3  # 3 guard digits
        wide.Emax, wide.Emin = MAX_EMAX, MIN_EMIN
        tol = Decimal(1).scaleb(math.floor(est) - prec - 1)  # below a unit of the result
        total, term, xn = Decimal(1), Decimal(1), Decimal(1)
        while True:
            r = a * xn / (1 - xn * x)
            term *= -r
            xn *= x
            total += term
            if abs(term) < tol and 2 * abs(r) < 1:  # the tail lies below |term|
                break
    return +total


@functools.lru_cache(maxsize=256)
def qv_power(q: float, v: float, digits: int) -> Decimal:
    """q^{2v+2} at ``digits`` digits, memoised per (q, v, digits) since a
    non-integer 2v+2 costs libmpdec an exp and a log (57 ms at 1,090
    digits); no other code raises a decimal q to a power built from v.  The
    exponent is exact, and a non-integer power is formed 20 digits wider
    and rounded once: correctly rounded unless within 10^-20 units of a tie."""
    e = EXACT.fma(2, Decimal(v), 2)
    ctx = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)
    if e == e.to_integral_value():
        return ctx.power(Decimal(q), e)
    return ctx.plus(Context(prec=digits + 20, Emax=MAX_EMAX, Emin=MIN_EMIN).power(Decimal(q), e))


def c_qv_decimal(q: float, v: float) -> Decimal:
    """c_qv = (q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf) in the current
    decimal context, q^{2v+2} by ``qv_power``.  (q^2; q^2)_inf goes first:
    where q lies too close to 1 its estimates pass the digit cap within a
    few hundred terms, whatever v is, and the ValueError then names q."""
    qd = Decimal(q)
    q2 = qd * qd
    try:
        den = qpoch_inf_decimal(q2, q2) * (1 - qd)
    except ValueError as exc:
        raise ValueError(f"q = {q!r} lies too close to 1: {exc}") from None
    return qpoch_inf_decimal(qv_power(q, v, getcontext().prec), q2) / den


@dataclass(frozen=True)
class QParams:
    """Global deformation parameters q in (0,1) and order v > -1.

    The normalization constant of the q-Bessel Fourier transform,
    c_qv = (q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf), is derived in
    ``__post_init__`` by ``c_qv_decimal`` at 25 digits and rounded once
    to float64: correctly rounded unless it lies within about 1e-24
    relative of a point halfway between two floats.  Raises ValueError
    from about q = 0.99973 on, where that series would cancel more than
    2,000 digits, and OverflowError, naming q and v, where c_qv lies
    beyond the float range (at q = 0.999, v = 1e6).  Instances are
    immutable, so replacing q or v via ``dataclasses.replace`` recomputes it.
    """

    q: float
    v: float
    c_qv: float = field(init=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0,1)")
        if not -1.0 < self.v < math.inf:
            raise ValueError(f"v must be finite and exceed -1, got {self.v!r}")
        with localcontext(Context(prec=25, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            c = c_qv_decimal(self.q, self.v)
        object.__setattr__(self, "c_qv", to_float(c, f"c_qv(q={self.q!r}, v={self.v!r})"))


def lattice_points(q: float, exps) -> np.ndarray:
    """The points q^s for the integer exponents ``exps``, each a Python
    float power (numpy's array power can differ in the last bit); the
    sampling grid and every window form their points here."""
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


def _finite_sum(total, label: str) -> float:
    """``total`` as a float; raises ValueError, naming the operation
    ``label``, where it is not finite, as it is whenever a summed sample is
    NaN or inf or the sum overflows.  Callers form the sum with numpy's
    overflow and invalid warnings off, so this error is the one signal."""
    total = float(total)
    if not math.isfinite(total):
        raise ValueError(f"{label} needs finite values and a finite sum, got {total!r}")
    return total


def jackson_integral_0a(f: LatticeFunction, a_exp: int, p: QParams) -> float:
    """Jackson q-integral of f over [0, a] with a = q^{a_exp}.

    Equals (1-q) a sum_m q^m f(a q^m) truncated at the window bottom.
    Raises WindowTooSmall when the window does not contain a_exp, and
    ValueError when a value it sums, or the sum, is not finite.  Emits a
    TailWarning when the deepest retained term is still significant.
    """
    win = f.window
    if not win.contains(a_exp):
        raise WindowTooSmall(
            f"a_exp={a_exp} outside window [{win.n_min}, {win.n_max}]"
        )
    ks = np.arange(a_exp, win.n_max + 1)
    vals = f.values[a_exp - win.n_min :]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (1.0 - p.q) * p.q ** ks.astype(float) * vals
        total = _finite_sum(np.sum(terms), "jackson_integral_0a")
    warn_boundary(terms[-1:], total, "jackson_integral_0a")
    return total


def jackson_integral_0inf(f: LatticeFunction, p: QParams) -> float:
    """Bilateral Jackson q-integral (1-q) sum_k q^k f(q^k) over the window.

    Emits a TailWarning when either boundary term exceeds EPS times the
    running sum, signalling visible truncation.  Raises ValueError when a
    value or the sum is not finite.
    """
    ks = f.window.exponents().astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (1.0 - p.q) * p.q ** ks * f.values
        total = _finite_sum(np.sum(terms), "jackson_integral_0inf")
    warn_boundary((terms[0], terms[-1]), total, "jackson_integral_0inf")
    return total


def inner_product(f: LatticeFunction, g: LatticeFunction, p: QParams) -> float:
    """Weighted inner product <f,g> = (1-q) sum_k q^{k(2v+2)} f(q^k) g(q^k).

    Computed over the window intersection; values outside either window
    are treated as exactly zero.  The summand is formed as (f*g)*weight
    so the result is bitwise symmetric in f and g.  Raises ValueError when
    a value it sums, or the sum, is not finite.
    """
    lo = max(f.window.n_min, g.window.n_min)
    hi = min(f.window.n_max, g.window.n_max)
    if lo > hi:
        return 0.0
    fv = f.values[lo - f.window.n_min : hi - f.window.n_min + 1]
    gv = g.values[lo - g.window.n_min : hi - g.window.n_min + 1]
    w = lattice_weights(LatticeWindow(lo, hi), p)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_sum(np.dot(w, fv * gv), "inner_product")


def norm_lqpv(f: LatticeFunction, p_exponent: float, p: QParams) -> float:
    """Weighted p-norm ||f||_{q,p,v} on the truncated lattice, for
    1 <= p_exponent < inf.  Raises ValueError for any other p_exponent, nan
    included, and when a value or the sum is not finite."""
    if not 1.0 <= p_exponent < math.inf:
        raise ValueError(f"p_exponent must lie in [1, inf), got {p_exponent!r}")
    w = lattice_weights(f.window, p)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.dot(w, np.abs(f.values) ** p_exponent) ** (1.0 / p_exponent)
        return _finite_sum(total, "norm_lqpv")
