"""Checks on the package as source: no definition that only tests use, and
README's Python examples run as written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import zipperlift

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "zipperlift").glob("*.py"))


def _definitions(tree):
    """Every function, method, property and class defined in ``tree``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in ast.walk(tree) if isinstance(node, kinds)]


def _references(tree):
    """Every name ``tree`` loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def unreferenced_definitions():
    """``file:line name`` of each definition in ``src`` that nothing in
    ``src`` names, that is no dunder and that ``zipperlift.__all__`` leaves
    out: code that only tests could reach."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = set().union(*map(_references, trees.values()), zipperlift.__all__)
    return [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
            for node in _definitions(tree)
            if node.name not in used
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions() == []


def test_readme_python_examples_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        # each block runs as written, in an empty directory outside the repository
        result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                                cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
