"""Every public name the package exports has a user outside the tests: a
module of src/ (outside the name's own definition), a demo or the
benchmark. A name that only tests reach is test scaffolding and belongs
in the tests."""

import ast
from pathlib import Path

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
    its own def or class, so a recursive call does not count as a use."""

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
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _uses(path: Path) -> set:
    visitor = _Uses()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.names


def test_every_export_has_a_user_outside_the_tests():
    exports = _exports()
    assert len(exports) > 50
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(_uses(path) for path in files))
    assert sorted(exports - used) == []
