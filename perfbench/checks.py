"""Output checks.  Each compares an output with an independent computation
(the mp oracles of ``tests/_oracles.py``, or the stored reference that
``reference.py`` recomputes from them) or with a property the method must
have, never with output the program saved earlier.  None depends on the
order of tied eigenvalues.  Every check returns the names of the
properties that fail, so an empty list means the output is right.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_eigs.json"

# relative tolerance of each eigenvalue against the reference solve
EIG_RTOL = 1e-9
GRAM_TOL = 1e-10
FROB_RTOL = 1e-12
CONTRACTION_TOL = 1e-12
# the tolerances of tests/test_acceptance.py and tests/test_qfourier.py
INVOLUTION_TOL = 1e-8
ADJOINT_RTOL = 1e-9
ISOMETRY_RTOL = 1e-8
CONVOLUTION_TOL = 1e-8
ORACLE_RTOL = 1e-11
ORACLE_POINTS = (-5, 0, 7, 20)
LATTICE_TOL = 1e-7
ROUNDTRIP_TOL = 1e-8
# eigvalsh error bound, in units of the spectral radius
FLOAT_EIG_ATOL = 1e-13


def oracles():
    """tests/_oracles.py, imported from the checkout."""
    tests = str(HERE.parent / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import _oracles

    return _oracles


def load_reference() -> list[dict]:
    return json.loads(REFERENCE.read_text())["requests"]


def _multiset_close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.sort(np.asarray(got, float)), np.sort(np.asarray(want, float))
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want) + atol))


# eigen-mp ------------------------------------------------------------------

def check_basis(basis, ref: dict, B: np.ndarray, weights: np.ndarray) -> list[str]:
    """Signed eigenvalues against the reference solve (as a sorted multiset),
    weighted Gram of the unit samples, sum of lambda^2 against ||B||_F^2,
    and the contraction bound |lambda_0| <= 1."""
    fails = []
    lams = np.asarray(basis.eigenvalues, float)
    if not _multiset_close(lams, [float(x) for x in ref["eigenvalues"]], EIG_RTOL):
        fails.append("eigenvalues vs reference")
    U = np.asarray(basis.unit_samples, float)
    if U.shape != (lams.size, weights.size) or not np.all(
        np.abs((U * weights) @ U.T - np.eye(lams.size)) <= GRAM_TOL
    ):
        fails.append("weighted Gram of unit_samples")
    # the pairs not kept carry less than 1e-90 of ||B||_F^2 on every request
    frob = float(np.sum(B * B))
    if not abs(float(np.sum(lams * lams)) - frob) <= FROB_RTOL * frob:
        fails.append("sum lambda^2 vs ||B||_F^2")
    if not (lams.size and np.max(np.abs(lams)) <= 1.0 + CONTRACTION_TOL):
        fails.append("|lambda_0| <= 1")
    return fails


# transform-warm ------------------------------------------------------------

def transform_oracle(f, p, support) -> list[float]:
    """Ff at ORACLE_POINTS from the term-by-term mp oracle (support terms only)."""
    o = oracles()
    exps = f.window.exponents()
    sel = (exps >= support[0]) & (exps <= support[1])
    return [float(o.transform_point(exps[sel], f.values[sel], m, p.q, p.v, dps=50))
            for m in ORACLE_POINTS]


def check_transform(inp, out, plan, oracle_vals, support) -> list[str]:
    """Involution, isometry, self-adjointness, the convolution theorem, the
    spectral form of projection and translation, and Ff at a few points
    against the mp oracle."""
    import qprolate as qp

    f, g, x_exp, band = inp
    ff, pf, conv, tx = out
    p = plan.params
    exps = f.window.exponents()
    measured = (exps >= support[0]) & (exps <= support[1])
    fails = []

    if np.abs((qp.fqv_transform(ff, plan).values - f.values)[measured]).max() > INVOLUTION_TOL:
        fails.append("involution")
    nf = qp.norm_lqpv(f, 2.0, p)
    if abs(qp.norm_lqpv(ff, 2.0, p) - nf) > ISOMETRY_RTOL * nf:
        fails.append("isometry")
    fg = qp.fqv_transform(g, plan)
    lhs, rhs = qp.inner_product(ff, g, p), qp.inner_product(f, fg, p)
    if abs(lhs - rhs) > ADJOINT_RTOL * max(abs(lhs), abs(rhs)):
        fails.append("self-adjointness")
    fconv = qp.fqv_transform(conv, plan).values
    if np.abs((fconv - ff.values * fg.values)[measured]).max() > CONVOLUTION_TOL:
        fails.append("convolution theorem")
    # F(P_a f) = 1[t >= a_exp] Ff and F(T_x f)(t) = j_v(q^{x+t}) Ff(t)
    chopped = np.where(exps >= band.a_exp, ff.values, 0.0)
    if np.abs((qp.fqv_transform(pf, plan).values - chopped)[measured]).max() > INVOLUTION_TOL:
        fails.append("projection spectrum")
    jx = np.array([qp.jv_at_exponent(int(x_exp + t), p) for t in exps])
    if np.abs((qp.fqv_transform(tx, plan).values - jx * ff.values)[measured]).max() > (
        INVOLUTION_TOL
    ):
        fails.append("translation spectrum")
    # scaled by max|Ff|: where the sum cancels (|Ff(q^-5)| ~ 1e-5) float64
    # round-off of its O(1) terms is ~1e-15 absolute
    scale = ORACLE_RTOL * np.abs(ff.values).max()
    got = [ff.value_at_exp(m) for m in ORACLE_POINTS]
    if not all(abs(a - b) <= scale for a, b in zip(got, oracle_vals)):
        fails.append("Ff vs mp oracle")
    return fails


# cli-cold ------------------------------------------------------------------

def scratch_eigvals(q: float, v: float, a_exp: int, depth: int, keep: int) -> np.ndarray:
    """Top-``keep`` eigenvalues (by magnitude) of eigvalsh of the operator
    matrix built from scratch: c_qv and j_v from the mp oracles, one
    series per anti-diagonal, weights from their defining formula."""
    o = oracles()
    c = float(o.c_qv(q, v))
    jd = [float(o.jv_series(q ** (2 * a_exp + s), q, v, dps=30)) for s in range(2 * depth - 1)]
    m = np.arange(depth)
    w = (1.0 - q) * q ** ((2.0 * v + 2.0) * (a_exp + m))
    B = c * np.sqrt(np.outer(w, w)) * np.array(jd)[m[:, None] + m[None, :]]
    lams = np.linalg.eigvalsh(B)
    return lams[np.argsort(-np.abs(lams))][:keep]


class CliReferences:
    """Independent in-process figures the CLI artifacts are checked against,
    computed once per (q, v)."""

    def __init__(self):
        self._proj: dict = {}
        self._eig: dict = {}

    def projected(self, q: float, v: float) -> dict[int, dict[int, float]]:
        """Runge projected onto each default band, at the lattice span [-1, 10]."""
        if (q, v) not in self._proj:
            import qprolate as qp

            p = qp.QParams(q, v)
            window = qp.LatticeWindow(-15, 60)
            plan = qp.make_plan(window, p)
            f = qp.LatticeFunction.from_callable(window, lambda x: 1.0 / (1.0 + x * x), q)
            self._proj[(q, v)] = {
                a: {n: qp.project(f, qp.Bandlimit(a, 60), plan).value_at_exp(n)
                    for n in range(-1, 11)}
                for a in (0, -1, -2)
            }
        return self._proj[(q, v)]

    def eigvals(self, q, v, a_exp, depth, keep) -> np.ndarray:
        key = (q, v, a_exp, depth, keep)
        if key not in self._eig:
            self._eig[key] = scratch_eigvals(*key)
        return self._eig[key]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_cli_reconstruct(out: Path, projected: dict) -> list[str]:
    """Artifacts present, the reconstruction at lattice points equals the
    projected samples, and sup_error falls strictly as the band widens."""
    fails = []
    tags = {0: "a0", -1: "am1", -2: "am2"}
    if not all((out / f"reconstruct_{t}.{e}").is_file() for t in tags.values()
               for e in ("csv", "svg")) or not (out / "manifest.json").is_file():
        return ["artifacts missing"]
    q = json.loads((out / "manifest.json").read_text())["q"]
    for a, tag in tags.items():
        rows = _rows(out / f"reconstruct_{tag}.csv")
        zs = np.array([float(r["z"]) for r in rows])
        for n, want in projected[a].items():
            j = int(np.argmin(np.abs(zs - q**n)))
            if not (abs(zs[j] - q**n) <= 1e-11 * q**n
                    and abs(float(rows[j]["f_reconstructed"]) - want) <= LATTICE_TOL):
                fails.append(f"lattice value a_exp={a}")
                break
    stdout = (out / "stdout.txt").read_text()
    sups = [float(line.split("sup_error=")[1]) for line in stdout.splitlines()
            if "sup_error=" in line]
    if not (len(sups) == 3 and sups[0] > sups[1] > sups[2] > 0):
        fails.append("sup_error not strictly falling")
    return fails


def check_cli_transform(out: Path, samples: dict[int, float], support) -> list[str]:
    """Artifacts present, the input read back exactly, and a round trip
    within ROUNDTRIP_TOL on the support."""
    if not all((out / n).is_file() for n in ("transform.csv", "roundtrip.csv", "manifest.json")):
        return ["artifacts missing"]
    fails = []
    dev = 0.0
    for r in _rows(out / "roundtrip.csv"):
        k, f, back = int(r["k"]), float(r["f"]), float(r["f_roundtrip"])
        if abs(f - samples.get(k, 0.0)) > 1e-11 * (1.0 + abs(f)):
            fails.append("input not read back")
            break
        if support[0] <= k <= support[1]:
            dev = max(dev, abs(back - f))
    if not dev <= ROUNDTRIP_TOL:
        fails.append("round-trip deviation")
    return fails


def check_cli_eigen(out: Path, want: np.ndarray) -> list[str]:
    """Artifacts present and the eigenvalues equal eigvalsh of the matrix
    built from scratch, compared as sorted multisets."""
    if not all((out / n).is_file() for n in ("eigen.json", "eigen.csv", "manifest.json")):
        return ["artifacts missing"]
    got = json.loads((out / "eigen.json").read_text())["eigenvalues"]
    atol = FLOAT_EIG_ATOL * float(np.max(np.abs(want)))
    if not _multiset_close(got, want, 0.0, atol):
        return ["eigenvalues vs scratch eigvalsh"]
    return []
