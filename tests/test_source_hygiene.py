"""Static checks on src/qcpn with the stdlib ast: no unused imports, no dead private names, no dead definitions;
and no line of src/qcpn longer than 120 characters.

An import counts as used when its bound name appears as a name anywhere in
the module, string annotations included.  A private module-level name (one
leading underscore) counts as referenced when any module of the package
loads it, imports it or reads it as an attribute.  The names that
``__init__`` re-exports in ``__all__`` are exempt from the import check.
A function, method or class of the package (dunders exempt) counts as used
when the package, the tests or the benchmark name it the same way, or hold
it as a whole string constant: the benchmark's tracer wraps methods by name.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qcpn"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Every identifier the module reads: names, attribute names, and names in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imports(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _private_definitions(tree):
    """(name, line) for every module-level def, class or assignment with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _definitions(tree):
    """(name, line) for every function, method and class, nested ones included, dunders left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _references(paths):
    """Every name the modules at paths load, import or read as an attribute."""
    refs = set()
    for path in paths:
        tree = _tree(path)
        refs |= _used_names(tree)
        refs |= {name for name, _ in _imports(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                refs |= {alias.name for alias in node.names}
    return refs


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree) | _exports(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imports(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_unreferenced_private_names():
    refs = _references(MODULES)
    dead = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in _private_definitions(_tree(path))
        if name not in refs
    ]
    assert not dead, "private names nothing references: " + ", ".join(dead)


def test_every_definition_is_named_elsewhere():
    """A function, method or class that nothing names is dead code, whatever its visibility."""
    refs = _references(CALLERS)
    refs |= {node.value for path in CALLERS for node in ast.walk(_tree(path))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    dead = [f"{path.name}:{line} {name}" for path in MODULES for name, line in _definitions(_tree(path)) if name not in refs]
    assert not dead, "definitions nothing names: " + ", ".join(dead)


def test_no_line_longer_than_120_characters():
    long = [f"{path.name}:{i}" for path in MODULES for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 120]
    assert not long, "lines longer than 120 characters: " + ", ".join(long)


def test_cli_import_leaves_out_slow_scipy_modules():
    """Importing the CLI loads neither scipy.sparse.linalg nor scipy.sparse.csgraph, which dominate start-up."""
    slow = ("scipy.sparse.linalg", "scipy.sparse.csgraph")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, qcpn.cli; print([m for m in {slow!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        check=True,
    )
    assert proc.stdout.strip() == "[]"
