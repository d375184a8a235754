"""What the benchmark under ``perfbench/`` needs of the package, read from
its files: the functions it traces, the lattice cache's statistics, and
the public names its workloads and checks call.  A name that goes
missing would not fail loudly there: a traced function is skipped, a
traced run's result line loses its cache ratio, and a workload or a check
raises only once it runs, which ends the run without a result."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qprolate as qp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH.parent))
    try:
        return importlib.import_module("perfbench.tracing")
    finally:
        sys.path.remove(str(PERFBENCH.parent))


# functions the benchmark still traces that the package has deleted on
# purpose: the tracer skips a missing attribute, so their spans read 0
# until the benchmark's own list drops them
RETIRED = {("qprolate.pswf", "eigendecompose")}


@pytest.mark.parametrize("modname, attr, name", [
    entry for entry in _tracing().TRACED
    if entry[0].split(".")[0] == "qprolate" and entry[:2] not in RETIRED
])
def test_traced_functions_exist(modname, attr, name):
    fn = getattr(importlib.import_module(modname), attr, None)
    assert inspect.isfunction(fn), name
    assert fn.__module__.split(".")[0] == "qprolate", name


@pytest.mark.parametrize("modname, attr", sorted(RETIRED))
def test_retired_traced_functions_are_gone(modname, attr):
    # each entry is still traced and really gone; once the benchmark drops
    # it, this fails so that RETIRED is emptied with it
    assert not hasattr(importlib.import_module(modname), attr)
    assert (modname, attr) in {entry[:2] for entry in _tracing().TRACED}


def test_only_the_mpmath_entry_lies_outside_the_package():
    outside = [e for e in _tracing().TRACED if e[0].split(".")[0] != "qprolate"]
    assert [e[0] for e in outside] == ["mpmath"]


def test_lattice_cache_reports_its_statistics():
    from qprolate import qbessel

    qp.jv_at_exponent(3, qp.QParams(0.5, -0.5))
    info = qbessel._jv_exp_cached.cache_info()
    assert info.hits + info.misses >= 1


def test_lattice_cache_counts_each_table_read():
    # one hit or miss per table read, whether lattice_table reads a table
    # of 20 values or jv_at_exponent reads a single one
    from qprolate import qbessel

    p = qp.QParams(0.5, 0.3125)
    qbessel._jv_exp_cached.cache_clear()
    qbessel.lattice_table(p, -5, 14)
    qp.jv_at_exponent(3, p)
    qbessel.lattice_table(p, -5, 14)
    info = qbessel._jv_exp_cached.cache_info()
    assert type(info.hits) is int and type(info.misses) is int
    assert (info.misses, info.hits) == (2, 1)


def test_traced_result_holds_every_per_layer_name():
    # a fresh interpreter that only imports the package, as the eigen-mp
    # workload's set-up does, exposes the cache statistics, and the traced
    # result then names every per-layer figure the benchmark declares; a
    # traced result that lacks one is refused as malformed
    root = PERFBENCH.parent
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root)!r}]\n"
        "import qprolate\n"
        "from perfbench import tracing\n"
        "cache = tracing.cache_stats()\n"
        "print(json.dumps([cache is not None, sorted(tracing.layer_metrics({}, 1, cache, 0.0))]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    exposed, names = json.loads(done.stdout)
    assert exposed
    declared = {m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared <= set(names), sorted(declared - set(names))


def _package_names(path: Path) -> set[str]:
    """Attributes taken of the package (bound as ``qp``, ``self.qp`` or by
    ``import qprolate``) and names imported from it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {"qprolate"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "qprolate"}
        elif isinstance(node, ast.ImportFrom) and node.module == "qprolate":
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            names.add(node.attr)
        elif isinstance(base, ast.Attribute) and base.attr == "qp":
            names.add(node.attr)
    return names


@pytest.mark.parametrize("fname", ["workloads.py", "checks.py"])
def test_public_names_the_benchmark_calls_exist(fname):
    names = _package_names(PERFBENCH / fname)
    assert names, fname
    missing = sorted(n for n in names if not hasattr(qp, n))
    assert not missing, (fname, missing)


def test_oracles_the_checks_call_exist():
    # checks.py binds tests/_oracles.py as ``o = oracles()``
    import _oracles

    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    bound = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "oracles"
             for t in node.targets if isinstance(t, ast.Name)}
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in bound}
    assert names
    assert not sorted(n for n in names if not hasattr(_oracles, n))
