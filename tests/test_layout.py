"""Module boundaries of the package: no module imports another's private
names, so each object is used through the one public function that codes
it.  Tests may still import private names."""

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


def test_modules_import_no_private_names():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offences = [line for path in sources for line in _private_imports(path)]
    assert not offences, "\n".join(offences)


def test_private_import_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .qbessel import _jv_order, jv\nfrom qprolate.qcalc import _x\n")
    assert len(_private_imports(module)) == 2
