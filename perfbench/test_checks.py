"""The benchmark's own test: every output check accepts a right output and
rejects a corrupted one.

    PYTHONPATH=src python -m pytest perfbench/test_checks.py   # from the repository root
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, workloads  # noqa: E402


# eigen-mp ------------------------------------------------------------------

@pytest.fixture(scope="module")
def eigen():
    """The a_exp = -1 request, where three eigenvalues are +-1."""
    wl = workloads.EigenMp(0, None)
    i = next(j for j, r in enumerate(workloads.EIGEN_REQUESTS) if r["a_exp"] == -1)
    return wl, i, wl.op(i)


def _eigen_fails(eigen, mutate):
    wl, i, basis = eigen
    bad = copy.deepcopy(basis)
    mutate(bad)
    return wl.check(i, bad)


def test_eigen_accepts_right_output(eigen):
    assert _eigen_fails(eigen, lambda b: None) == []


def test_eigen_ignores_tie_order(eigen):
    def swap_ties(b):
        b.eigenvalues[:3] = b.eigenvalues[2::-1].copy()
        b.unit_samples[:3] = b.unit_samples[2::-1].copy()
        b.unit_samples[0] *= -1.0

    assert _eigen_fails(eigen, swap_ties) == []


def _scale_last(b):
    b.eigenvalues[-1] *= 1.0 + 1e-6


def _scale_sample(b):
    b.unit_samples[4] *= 1.0 + 1e-6


def _scale_lambda3(b):
    b.eigenvalues[3] *= 1.0 + 1e-2


def _exceed_one(b):
    b.eigenvalues[0] = np.copysign(1.0 + 1e-9, b.eigenvalues[0])


@pytest.mark.parametrize("mutate, name", [
    (_scale_last, "eigenvalues vs reference"),
    (_scale_sample, "weighted Gram of unit_samples"),
    (_scale_lambda3, "sum lambda^2 vs ||B||_F^2"),
    (_exceed_one, "|lambda_0| <= 1"),
])
def test_eigen_rejects_corruption(eigen, mutate, name):
    assert name in _eigen_fails(eigen, mutate)


# transform-warm ------------------------------------------------------------

@pytest.fixture(scope="module")
def transform():
    wl = workloads.TransformWarm(0, None)
    return wl, wl.op(0)


def _bump(fn, at=0, rel=1e-6):
    """Copy of a lattice function with f(q^at) raised by rel * max|f|."""
    out = copy.deepcopy(fn)
    out.values[at - out.window.n_min] += rel * np.abs(out.values).max()
    return out


def test_transform_accepts_right_output(transform):
    wl, out = transform
    assert wl.check(0, out) == []


@pytest.mark.parametrize("which, name", [
    (0, "involution"),
    (0, "Ff vs mp oracle"),
    (1, "projection spectrum"),
    (2, "convolution theorem"),
    (3, "translation spectrum"),
])
def test_transform_rejects_corruption(transform, which, name):
    wl, out = transform
    bad = list(out)
    bad[which] = _bump(out[which])
    assert name in wl.check(0, tuple(bad))


def test_transform_rejects_scaled_spectrum(transform):
    wl, out = transform
    scaled = copy.deepcopy(out[0])
    scaled.values *= 1.0 + 1e-6
    fails = wl.check(0, (scaled, *out[1:]))
    assert "isometry" in fails and "self-adjointness" in fails


# cli-cold ------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    """The three commands at the first (q, v), each run once."""
    wl = workloads.CliCold(0, tmp_path_factory.mktemp("cli"))
    return wl, {i: wl.op(i) for i in range(3)}


def _edit_csv(path, key, row_pick, col, delta):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if row_pick(cells[header.index(key)]):
            j = header.index(col)
            cells[j] = repr(float(cells[j]) + delta)
            lines[n] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def test_cli_accepts_right_output(cli):
    wl, runs = cli
    for i, result in runs.items():
        assert wl.check(i, result) == [], wl.inputs[i][0]


def test_cli_rejects_failed_process(cli):
    wl, runs = cli
    assert wl.check(0, (3, runs[0][1])) == ["exit code 3"]


def _copy_run(result, tmp_path):
    rc, out = result
    dst = tmp_path / out.name
    shutil.copytree(out, dst)
    return rc, dst


def test_cli_rejects_wrong_lattice_value(cli, tmp_path):
    wl, runs = cli
    rc, out = _copy_run(runs[0], tmp_path)
    q = json.loads((out / "manifest.json").read_text())["q"]
    _edit_csv(out / "reconstruct_am1.csv", "z",
              lambda z: abs(float(z) - q**3) <= 1e-11 * q**3, "f_reconstructed", 1e-6)
    assert "lattice value a_exp=-1" in wl.check(0, (rc, out))


def test_cli_rejects_sup_error_order(cli, tmp_path):
    wl, runs = cli
    rc, out = _copy_run(runs[0], tmp_path)
    lines = (out / "stdout.txt").read_text().splitlines()
    (out / "stdout.txt").write_text("\n".join([lines[1], lines[0], *lines[2:]]) + "\n")
    assert "sup_error not strictly falling" in wl.check(0, (rc, out))


def test_cli_rejects_missing_artifact(cli, tmp_path):
    wl, runs = cli
    rc, out = _copy_run(runs[0], tmp_path)
    (out / "reconstruct_am2.svg").unlink()
    assert wl.check(0, (rc, out)) == ["artifacts missing"]


def test_cli_rejects_roundtrip_deviation(cli, tmp_path):
    wl, runs = cli
    rc, out = _copy_run(runs[1], tmp_path)
    _edit_csv(out / "roundtrip.csv", "k", lambda k: k == "4", "f_roundtrip", 1e-6)
    assert "round-trip deviation" in wl.check(1, (rc, out))


def test_cli_rejects_wrong_eigenvalue(cli, tmp_path):
    wl, runs = cli
    rc, out = _copy_run(runs[2], tmp_path)
    report = json.loads((out / "eigen.json").read_text())
    report["eigenvalues"][0] *= 1.0 + 1e-6
    (out / "eigen.json").write_text(json.dumps(report))
    assert wl.check(2, (rc, out)) == ["eigenvalues vs scratch eigvalsh"]


def test_reference_holds_every_request():
    ref = checks.load_reference()
    assert [{k: r[k] for k in ("q", "v", "a_exp", "depth", "keep")} for r in ref] == (
        workloads.EIGEN_REQUESTS
    )
