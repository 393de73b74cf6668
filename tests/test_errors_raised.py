"""Every error type the package declares is raised somewhere in it."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "newform_products"


def _declared_errors():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _raised_names(path):
    """Names raised in a module: `raise X`, `raise X(...)`, `raise mod.X(...)`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_type_is_raised():
    declared = _declared_errors()
    assert "NewformError" in declared and len(declared) > 1
    raised = {name for path in PACKAGE.glob("*.py") for name in _raised_names(path)}
    assert sorted(declared - {"NewformError"} - raised) == []
