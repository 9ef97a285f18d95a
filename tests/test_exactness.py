"""No check uses floating point: a lint over the package source."""

import ast
from pathlib import Path

import simsun

SOURCES = sorted(Path(simsun.__file__).parent.glob("*.py"))


def _imported(node: ast.AST) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module] if isinstance(node, ast.ImportFrom) else []


def test_no_module_divides_or_imports_fractions():
    # every module stays in integers, the root certificates' dyadic points
    # n/2^e too, kept as integer pairs (n, e): no / (nor /=), no float or
    # complex literal, no fractions import
    assert "roots.py" in [path.name for path in SOURCES]
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{where} true division")
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{where} constant {node.value!r}")
            if "fractions" in _imported(node):
                found.append(f"{where} imports fractions")
    assert found == []


def test_polynomial_modules_import_no_numpy():
    # coefficients pass 2^63, where a fixed-width integer row would wrap
    # silently; Poly and Series rows and the Stirling row weights of
    # triangles stay Python ints
    checked = [path for path in SOURCES if path.name in ("poly.py", "series.py", "triangles.py")]
    assert len(checked) == 3
    found = []
    for path in checked:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if any(name.split(".")[0] == "numpy" for name in _imported(node) if name):
                found.append(f"{path.name}:{node.lineno} imports numpy")
    assert found == []
