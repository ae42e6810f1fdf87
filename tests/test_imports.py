"""No module of the library imports a name it never uses, and no
private helper of the library is left unreferenced.

A small stand-in for a linter's F401 check, by `ast`: a module-level
import binds names, and each must be read somewhere in the module, in
an annotation written as a string, or listed in `__all__`.  An import
line that carries `# noqa: F401` is exempt.  Likewise, every private
function, class or method of `src/skewplus` must be named, as a name or
an attribute, somewhere in `src/skewplus` outside its own definition.
"""

import ast
from collections import Counter
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


# -- private helpers nothing calls ------------------------------------------

def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, node) for each module-level private function or class and
    each private method of a module-level class; dunder names are public."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_private(item.name)):
                    yield item.name, item


def _referenced_names(node) -> Counter:
    """How often each name is read or written as a name or an attribute
    in the subtree of node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreferenced(trees):
    """(module, name) of every private definition that no code of the
    modules names outside the definition itself."""
    names = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    return [(module, name) for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if names[name] == _referenced_names(node)[name]]


def test_no_private_helper_is_left_unreferenced():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    dead = [f"{module}: {name}" for module, name in _unreferenced(trees)]
    assert not dead, f"private helpers nothing references: {', '.join(dead)}"


def test_the_check_sees_a_dead_helper():
    trees = {"a.py": ast.parse("def _used(x):\n    return _used(x - 1) if x else 0\n"
                               "def _dead(x):\n    return _dead(x)\n"
                               "class _Box:\n    def _peek(self):\n        return self._get()\n"
                               "    def _get(self):\n        return 1\n"),
             "b.py": ast.parse("from a import _used, _Box\nprint(_used(3), _Box()._peek())\n")}
    assert _unreferenced(trees) == [("a.py", "_dead")]
