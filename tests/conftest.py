from pathlib import Path

import pytest

import qprolate as qp
from qprolate.qbessel import product_integral_quotient

_HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # a TailWarning is an error in this suite: a test whose window cuts a
    # tail on purpose says so by a filterwarnings mark, which is applied
    # after this one and so wins, or asserts the warning by pytest.warns.
    # The ignore entry in pyproject.toml is kept for the benchmark
    # harness's own tests, whose workloads truncate on purpose
    strict = pytest.mark.filterwarnings("error::qprolate.qcalc.TailWarning")
    for item in items:
        if item.path.is_relative_to(_HERE):
            item.add_marker(strict, append=False)


@pytest.fixture(scope="session")
def p_half():
    """Application parameters q = 0.5, v = -1/2."""
    return qp.QParams(0.5, -0.5)


@pytest.fixture(scope="session")
def p_v0():
    return qp.QParams(0.5, 0.0)


@pytest.fixture(scope="session")
def window():
    return qp.LatticeWindow(-15, 60)


@pytest.fixture(scope="session")
def plan_half(window, p_half):
    return qp.make_plan(window, p_half)


@pytest.fixture(scope="session")
def plan_v0(window, p_v0):
    return qp.make_plan(window, p_v0)


@pytest.fixture(scope="session")
def bandlimit():
    return qp.Bandlimit(0, 60)


@pytest.fixture(scope="session")
def basis12(bandlimit, p_half):
    return qp.compute_basis(bandlimit, p_half, keep=12)


@pytest.fixture(scope="session")
def basis25(bandlimit, p_half):
    """keep=25 request; retention caps at the float64 representability floor."""
    with pytest.warns(qp.FewerPairsWarning, match="kept 13 of 25 eigenpairs"):
        return qp.compute_basis(bandlimit, p_half, keep=25)


@pytest.fixture(scope="session")
def psi_tabs(basis12, window):
    """All retained eigenfunctions tabulated over the default window."""
    return [qp.pswf_on_window(basis12, i, window) for i in range(basis12.count)]


def supported_function(window, lo, hi, rng, scale=1.0):
    """Random lattice function supported on exponents [lo, hi]."""
    f = qp.LatticeFunction.zeros(window)
    sel = (window.exponents() >= lo) & (window.exponents() <= hi)
    f.values[sel] = scale * rng.standard_normal(sel.sum())
    return f


def closed_form(y, z, a_exp, p):
    """Closed-form product integral at y, z, with its y-side values from
    ``jv_array``; returns (value, separated)."""
    a = p.q ** float(a_exp)
    jy = (qp.jv_array(a * y, p, p.v + 1.0), qp.jv_array(a * y / p.q, p))
    value, separated = product_integral_quotient(y, z, jy, a_exp, p)
    return float(value), bool(separated)


def direct_kernel(x, y, b, p):
    """Reproducing kernel by the direct Jackson sum alone."""
    return p.c_qv**2 * qp.product_integral_direct(x, y, b.a_exp, p, b.depth)


def eigen_series_kernel(basis, x, y):
    """Truncated eigen-expansion sum_i psi_i(x) psi_i(y) of the kernel."""
    return sum(qp.eval_pswf_at(basis, i, x) * qp.eval_pswf_at(basis, i, y)
               for i in range(basis.count))
