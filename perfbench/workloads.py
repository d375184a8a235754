"""The three workloads: their fixed input lists, the timed op, and the
output check applied to every op.

Constructing a workload is its set-up (what ``setup_s`` measures).  It
then exposes ``inputs``, ``op(i)`` (the timed call), ``check(i, out)``
(untimed; returns the names of the checks the output fails),
``min_passes`` and ``peak_rss_kb()``.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# eigen-mp: in-process compute_basis at depth 60.  Every request needs the
# mp path (a retained pair falls below float64 resolution of B); together
# they cover keep 8 and the CLI default 15, q in {0.05, 0.5, 0.7}, and a
# band edge above 1 (a_exp = -1, where three eigenvalues are +-1).
EIGEN_REQUESTS = [
    {"q": 0.05, "v": -0.5, "a_exp": 0, "depth": 60, "keep": 4},
    {"q": 0.5, "v": -0.5, "a_exp": -1, "depth": 60, "keep": 8},
    {"q": 0.7, "v": -0.5, "a_exp": 0, "depth": 60, "keep": 15},
]

# transform-warm: one warm plan; inputs supported on exponents [-3, 10].
TRANSFORM_WINDOW = (-15, 60)
TRANSFORM_QV = (0.5, -0.5)
TRANSFORM_SUPPORT = (-3, 10)
TRANSFORM_INPUTS = 16

# cli-cold: (q, v) of every command; each pass runs reconstruct, transform
# and eigen at each pair, one fresh process per command.
CLI_PAIRS = [(0.5, -0.5), (0.5, 0.0)]
CLI_TIMEOUT_S = 60.0


def _seeded(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, label))])


class _InProcess:
    min_passes = 1

    def peak_rss_kb(self) -> int:
        """Peak resident memory of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class EigenMp(_InProcess):
    name = "eigen-mp"
    # a pass takes 16-28 s; two give each request a second chance at the
    # host's fast state
    min_passes = 2

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        import qprolate as qp

        self.qp = qp
        # the mix is fixed; the seed does not change it
        self.inputs = [
            (qp.Bandlimit(r["a_exp"], r["depth"]), qp.QParams(r["q"], r["v"]), r["keep"])
            for r in EIGEN_REQUESTS
        ]
        self.reference = None  # read at the first check, outside set-up

    def op(self, i: int):
        band, p, keep = self.inputs[i]
        return self.qp.compute_basis(band, p, keep)

    def check(self, i: int, basis) -> list[str]:
        if self.reference is None:
            self.reference = checks.load_reference()
        band, p, _ = self.inputs[i]
        B = self.qp.build_operator_matrix(band, p)
        return checks.check_basis(basis, self.reference[i], B, band.weights(p))


class TransformWarm(_InProcess):
    name = "transform-warm"

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        import qprolate as qp

        self.qp = qp
        q, v = TRANSFORM_QV
        self.p = qp.QParams(q, v)
        window = qp.LatticeWindow(*TRANSFORM_WINDOW)
        self.plan = qp.make_plan(window, self.p)
        rng = _seeded(seed, self.name)
        lo, hi = TRANSFORM_SUPPORT
        sel = (window.exponents() >= lo) & (window.exponents() <= hi)
        self.inputs = []
        for _ in range(TRANSFORM_INPUTS):
            f = qp.LatticeFunction.zeros(window)
            g = qp.LatticeFunction.zeros(window)
            f.values[sel] = rng.standard_normal(sel.sum())
            g.values[sel] = rng.standard_normal(sel.sum())
            x_exp = int(rng.integers(lo, hi + 1))
            band = qp.Bandlimit(int(rng.integers(-2, 1)), 60)
            self.inputs.append((f, g, x_exp, band))
        self.oracle: dict[int, list] = {}

    def op(self, i: int):
        qp, plan = self.qp, self.plan
        f, g, x_exp, band = self.inputs[i]
        return (
            qp.fqv_transform(f, plan),
            qp.project(f, band, plan),
            qp.convolve(f, g, plan),
            qp.translate(x_exp, f, plan),
        )

    def check(self, i: int, out) -> list[str]:
        if i not in self.oracle:
            f = self.inputs[i][0]
            self.oracle[i] = checks.transform_oracle(f, self.p, TRANSFORM_SUPPORT)
        return checks.check_transform(self.inputs[i], out, self.plan, self.oracle[i],
                                      TRANSFORM_SUPPORT)


class CliCold:
    name = "cli-cold"
    min_passes = 1

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        self.workdir = workdir
        self.trace = trace
        self.traces: list[Path] = []
        workdir.mkdir(parents=True, exist_ok=True)
        rng = _seeded(seed, self.name)
        lo, hi = TRANSFORM_SUPPORT
        self.samples = {k: float(x) for k, x in zip(range(lo, hi + 1),
                                                     rng.standard_normal(hi - lo + 1))}
        self.sample_file = workdir / "samples.txt"
        self.sample_file.write_text(
            "# k value\n" + "".join(f"{k} {x!r}\n" for k, x in self.samples.items())
        )
        self.inputs = []
        for q, v in CLI_PAIRS:
            qv = [f"--q={q!r}", f"--v={v!r}"]
            self.inputs += [
                ("reconstruct", q, v, ["reconstruct", "--function", "runge", *qv]),
                ("transform", q, v,
                 ["transform", "--samples", str(self.sample_file), "--roundtrip", *qv]),
                ("eigen", q, v, ["eigen", "--keep", "4", *qv]),
            ]
        self.env = dict(os.environ)
        path = [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.child_rss_kb = 0
        self.runs = 0
        self.refs = None

    def op(self, i: int):
        """One fresh ``python -m qprolate.cli`` process; returns (exit code, output dir)."""
        kind, q, v, args = self.inputs[i]
        self.runs += 1
        out = self.workdir / f"op{self.runs}"
        argv = [*args, "--out", str(out)]
        if self.trace:
            trace = self.workdir / f"op{self.runs}.trace.json"
            self.traces.append(trace)
            cmd = [sys.executable, str(HERE / "clichild.py"), str(trace),
                   repr(time.monotonic()), *argv]
        else:
            cmd = [sys.executable, "-m", "qprolate.cli", *argv]
        out.mkdir(parents=True)
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=so, stderr=se)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def check(self, i: int, result) -> list[str]:
        if self.refs is None:
            self.refs = checks.CliReferences()
        kind, q, v, _ = self.inputs[i]
        rc, out = result
        if rc != 0:
            return [f"exit code {rc}"]
        if kind == "reconstruct":
            return checks.check_cli_reconstruct(out, self.refs.projected(q, v))
        if kind == "transform":
            return checks.check_cli_transform(out, self.samples, TRANSFORM_SUPPORT)
        return checks.check_cli_eigen(out, self.refs.eigvals(q, v, 0, 60, 4))

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the largest command process."""
        return self.child_rss_kb


WORKLOADS = {w.name: w for w in (EigenMp, TransformWarm, CliCold)}
