"""No check uses floating point: a lint over the package source."""

import ast
from pathlib import Path

import simsun

SOURCES = sorted(Path(simsun.__file__).parent.glob("*.py"))


def _imported(node: ast.AST) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module] if isinstance(node, ast.ImportFrom) else []


def test_only_roots_divides_or_imports_fractions():
    # roots.py alone holds rationals, its Fraction certificate points; every
    # other module stays in integers: no / (nor /=), no float or complex
    # literal, no fractions import
    assert "roots.py" in [path.name for path in SOURCES]
    found = []
    for path in SOURCES:
        if path.name == "roots.py":
            continue
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


# the checker, the conversions between its rationals and the proposer's
# (n, e) pairs, the certificate that carries rationals and certify_rz, which
# moves the last point of a certificate to 0; no proposer function among them
FRACTION_ALLOWED = {"_alternates", "_rationals", "_dyadics", "RzCertificate", "certify_rz"}
PROPOSER = {"_horner", "_sign", "_halve", "_cauchy", "_search", "_dyadic", "_place",
            "_seeded", "_merge", "_mid", "_dyad", "_less", "_ceil"}


def test_roots_names_fraction_only_in_the_checker_and_its_boundary():
    path = next(path for path in SOURCES if path.name == "roots.py")
    tree = ast.parse(path.read_text(), str(path))
    defined = {node.name: node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert FRACTION_ALLOWED | PROPOSER <= defined.keys() and not FRACTION_ALLOWED & PROPOSER
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            continue  # the one import
        name = getattr(node, "name", None)
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Name) and inner.id == "Fraction"
                    or isinstance(inner, ast.alias) and inner.name == "Fraction"
                    or isinstance(inner, ast.Attribute) and inner.attr == "Fraction"):
                if name not in FRACTION_ALLOWED:
                    found.append(f"roots.py:{inner.lineno} Fraction in {name or 'module level'}")
    assert found == []
