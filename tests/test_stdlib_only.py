"""The package is pure Python on the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "newform_products"


def _absolute_imports(path):
    """Top-level names of every absolute import, function-local ones included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_only_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = [
        (path.name, name)
        for path in modules
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_cold_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter, since tests/oracles.py uses dataclasses itself
    slow = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, newform_products.cli; print(*(m for m in {slow!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
