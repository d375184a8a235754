"""Module boundaries of the package: no module imports another's private
names, so each object is used through the one public function that codes
it.  Tests may still import private names.  The package also keeps off
mpmath altogether: its extended precision is the standard library's
decimal and the fixed-point kernels of ``fixedla``, and mpmath is a
test-only dependency, for the oracles.  numpy is bound once, by
``qcalc.np``, which imports it at its first use."""

import ast
from pathlib import Path

import qprolate as qp

PACKAGE = Path(qp.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "qprolate"
        if internal:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


# mpmath names the package must not use: mp.matrix, and mp.qr and
# mp.eigsy, which work on it
SLOW_MP = {"matrix", "qr", "eigsy"}


def _slow_mp_uses(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in SLOW_MP
                and isinstance(node.value, ast.Name) and node.value.id in ("mp", "mpmath")):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
            found += [f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                      for alias in node.names if alias.name in SLOW_MP]
    return found


def _mpmath_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name.split(".")[0] == "mpmath"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "mpmath":
            found.append(f"{path.name}:{node.lineno} imports from {node.module}")
    return found


def _numpy_imports(path: Path) -> list[tuple[str, str, int]]:
    """(file, enclosing function or <module>, line) of each import of numpy."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append((path.name, scope, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_numpy_is_imported_only_by_the_qcalc_stand_in():
    # every module takes numpy as ``from .qcalc import np``, whose first
    # attribute access imports it, so a command that never touches numpy
    # (eigen) never loads it; an ``import numpy`` anywhere else, even with
    # the stand-in in place, would load numpy at the package's import
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _numpy_imports(path)]
    assert [(name, scope) for name, scope, _ in found] == [("qcalc.py", "__getattr__")], found


def test_numpy_import_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numpy as np\nfrom numpy.linalg import qr\nfrom .qcalc import np\n"
        "import os, numpy.ma\nimport numpyish\n"
        "class K:\n    def f(self):\n        import numpy\n"
    )
    assert _numpy_imports(module) == [
        ("mod.py", "<module>", 1), ("mod.py", "<module>", 2), ("mod.py", "<module>", 4),
        ("mod.py", "f", 8)]


# the closed form and the Jackson sum of the reproducing kernel: only
# ``sampling`` chooses between them (``__init__`` merely re-exports)
KERNEL_FORMS = {"product_integral_quotient", "product_integral_direct"}


def _kernel_form_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name in KERNEL_FORMS]
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_FORMS:
            found.append(f"{path.name}:{node.lineno} uses .{node.attr}")
    return found


def test_modules_import_no_private_names():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offences = [line for path in sources for line in _private_imports(path)]
    assert not offences, "\n".join(offences)


def test_all_lists_exactly_the_imported_names():
    # the package's export list is the names ``__init__`` imports, each once
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert sorted(qp.__all__) == sorted(imported)
    assert len(set(qp.__all__)) == len(qp.__all__)


def test_private_import_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .qbessel import _jv_order, jv\nfrom qprolate.qcalc import _x\n")
    assert len(_private_imports(module)) == 2


def test_no_mpmath_matrix_solvers():
    sources = sorted(PACKAGE.glob("*.py"))
    offences = [line for path in sources for line in _slow_mp_uses(path)]
    assert not offences, "\n".join(offences)


def test_mpmath_matrix_use_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import mpmath as mp\nfrom mpmath import eigsy\n"
        "g = mp.matrix(2, 2)\nq, r = mp.qr(g)\nmp.mpf(1)\n"
    )
    assert len(_slow_mp_uses(module)) == 3


def test_package_does_not_import_mpmath():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offences = [line for path in sources for line in _mpmath_imports(path)]
    assert not offences, "\n".join(offences)


def test_mpmath_import_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numpy as np\nimport mpmath as mp\nfrom mpmath import mpf\n"
        "from mpmath.libmp import BACKEND\nfrom .mpmath_like import x\n"
        "def f():\n    import os, mpmath\n"
    )
    assert len(_mpmath_imports(module)) == 4


def test_only_sampling_chooses_the_kernel_form():
    importers = {path.name: _kernel_form_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(importers.pop("sampling.py")) == len(KERNEL_FORMS)
    importers.pop("__init__.py")
    offences = [line for lines in importers.values() for line in lines]
    assert not offences, "\n".join(offences)


def test_kernel_form_import_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from .qbessel import jv_array, product_integral_quotient\n"
        "from qprolate.qbessel import product_integral_direct as direct\n"
        "from .qbessel import product_integral_closed\nimport qprolate.qbessel\n"
        "v = qprolate.qbessel.product_integral_quotient(1, 2, (1, 1), 0, p)\n"
    )
    assert len(_kernel_form_imports(module)) == 3


# calls that build a Decimal; decimal arithmetic refuses float operands,
# so a decimal power whose exponent is built from v needs one of them to
# be given v
DECIMAL_MAKERS = {"Decimal", "from_float", "create_decimal", "create_decimal_from_float"}


def _mentions_v(node: ast.AST) -> bool:
    return any((isinstance(n, ast.Name) and n.id == "v")
               or (isinstance(n, ast.Attribute) and n.attr == "v") for n in ast.walk(node))


def _decimals_from_v(path: Path) -> list[tuple[str, str, int]]:
    """(file, top-level scope, line) of each Decimal built from v or p.v."""
    found = []
    for scope in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            if callee in DECIMAL_MAKERS and any(map(_mentions_v, [*node.args, *node.keywords])):
                found.append((path.name, getattr(scope, "name", "<module>"), node.lineno))
    return found


def test_one_function_forms_q_to_the_2v_plus_2_in_decimal():
    # q^{2v+2} in decimal is ``qcalc.qv_power`` alone: no other code builds
    # a Decimal from v, so none raises a decimal q to a power built from v
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _decimals_from_v(path)]
    assert {(name, scope) for name, scope, _ in found} == {("qcalc.py", "qv_power")}, found


def test_decimal_built_from_v_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from decimal import Context, Decimal\n"
        "def f(q, v, p):\n"
        "    a = Decimal(q) ** (2 * Decimal(v) + 2)\n"
        "    b = Decimal(q) ** Decimal(2.0 * p.v + 2.0)\n"
        "    c = Context(prec=9).create_decimal_from_float(v)\n"
        "    d = Decimal(q) ** 2 * q ** (2.0 * v + 2.0)\n"
        "class K:\n"
        "    e = Decimal.from_float(x=p.v)\n"
    )
    assert sorted((scope, line) for _, scope, line in _decimals_from_v(module)) == [
        ("K", 8), ("f", 3), ("f", 4), ("f", 5)]


def _reached(path: Path, start: str) -> set[str]:
    """Names of the module's own functions that ``start`` calls, directly
    or through others of them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = {node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        for name in uses[todo.pop()] & uses.keys() - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_compute_basis_never_builds_the_operator_matrix():
    # the eigenpairs come from the extended-precision solve alone, which
    # starts from the moment matrix; B stays a public check on them
    reached = _reached(PACKAGE / "pswf.py", "compute_basis")
    assert "_mp_eigensystem" in reached
    assert "build_operator_matrix" not in reached


def test_reached_functions_are_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def top(x):\n    return _mid(x) + len(x)\n"
        "def _mid(x):\n    def inner():\n        return leaf(x)\n    return inner()\n"
        "def leaf(x):\n    return x\n"
        "def other(x):\n    return top(x)\n"
    )
    assert _reached(module, "top") == {"_mid", "leaf"}
