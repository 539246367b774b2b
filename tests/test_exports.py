"""Every public name the package exports, and every public method,
property and dataclass field of an exported class, has a user outside the
tests: a module of src/ (outside the name's own definition), a demo or
the benchmark. A name that only tests reach is test scaffolding and
belongs in the tests."""

import ast
import dataclasses
from pathlib import Path
from types import FunctionType

import locbound

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "locbound"


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    }


class _Uses(ast.NodeVisitor):
    """Names a file reads (bare or as an attribute), skipping a name inside
    its own def or class, so a recursive call does not count as a use.
    Stores are not reads: a field declaration or an assignment to an
    attribute does not count."""

    def __init__(self):
        self.names: set = set()
        self._inside: list = []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.attr)
        self.generic_visit(node)


def _uses(path: Path) -> set:
    visitor = _Uses()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.names


def _used_outside_the_tests() -> set:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return set().union(*(_uses(path) for path in files))


def _members(cls) -> set:
    """Public methods, properties and dataclass fields declared on a class."""
    kinds = (FunctionType, classmethod, staticmethod, property)
    names = {name for name, value in vars(cls).items() if isinstance(value, kinds)}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return {name for name in names if not name.startswith("_")}


def test_every_export_has_a_user_outside_the_tests():
    exports = _exports()
    assert len(exports) > 50
    assert sorted(exports - _used_outside_the_tests()) == []


def test_every_member_of_an_exported_class_has_a_user_outside_the_tests():
    # a name-based scan: a member whose name another name shares passes
    classes = [getattr(locbound, name) for name in sorted(_exports())]
    classes = [cls for cls in classes if isinstance(cls, type)]
    assert len(classes) > 20
    used = _used_outside_the_tests()
    unread = [f"{cls.__name__}.{member}" for cls in classes
              for member in sorted(_members(cls) - used)]
    assert unread == []
