"""No module of the library imports a name it never uses.

A small stand-in for a linter's F401 check, by `ast`: a module-level
import binds names, and each must be read somewhere in the module, in
an annotation written as a string, or listed in `__all__`.  An import
line that carries `# noqa: F401` is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "skewplus"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree, lines):
    """(name, line) for every name a module-level import binds, except
    `__future__` imports and lines marked `# noqa: F401`."""
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "noqa: F401" in lines[alias.lineno - 1]:
                continue
            yield (alias.asname or alias.name).split(".")[0], alias.lineno


def _used(tree):
    """Every name the module reads, in code or in a string annotation,
    plus the entries of `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                              if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = _used(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported(tree, text.splitlines()) if name not in used]
    assert not unused, f"imported but unused: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    text = ("from .fields import Field, Scalar\n"
            "from .matrices import Matrix  # noqa: F401\n"
            "def f(x: 'Scalar'):\n    return x\n")
    tree = ast.parse(text)
    used = _used(tree)
    assert [n for n, _ in _imported(tree, text.splitlines()) if n not in used] == ["Field"]
