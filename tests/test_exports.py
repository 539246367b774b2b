"""Every public name the package exports, and every public method,
property and dataclass field of an exported class, has a user outside the
tests: a module of src/ (outside the name's own definition), a demo or
the benchmark. A dataclass field also has a user when a method of its
own class reads every field through ``asdict(self)``. So does every
parameter with a default of an exported function or of an exported
class's constructor. A name that only tests reach is test scaffolding
and belongs in the tests."""

import ast
import dataclasses
import functools
import importlib.util
import inspect
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
    """Names a file reads: ``names`` holds bare and attribute reads,
    ``attributes`` the ``obj.name`` reads alone. A name inside its own def
    or class is skipped, so a recursive call does not count as a use.
    Stores are not reads: a field declaration or an assignment to an
    attribute does not count."""

    def __init__(self):
        self.names: set = set()
        self.attributes: set = set()
        self._inside: list = []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._inside:
            self.names.add(node.attr)
            self.attributes.add(node.attr)
        self.generic_visit(node)


@functools.cache
def _files_outside_the_tests() -> tuple:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return tuple(ast.parse(path.read_text(encoding="utf-8")) for path in files)


def _used_outside_the_tests() -> _Uses:
    uses = _Uses()
    for tree in _files_outside_the_tests():
        uses.visit(tree)
    return uses


@functools.cache
def _calls_outside_the_tests() -> tuple:
    return tuple(node for tree in _files_outside_the_tests() for node in ast.walk(tree)
                 if isinstance(node, ast.Call))


def _arguments_set_outside_the_tests(name: str, params: list) -> set:
    """The parameters among ``params`` (in signature order) that some call
    of ``name`` or ``obj.name`` outside the tests sets: by keyword, by
    position, or all of them through a ``*`` or ``**`` argument."""
    given: set = set()
    for node in _calls_outside_the_tests():
        func = node.func
        if getattr(func, "id", None) != name and getattr(func, "attr", None) != name:
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(kw.arg is None for kw in node.keywords):
            return set(params)
        given.update(params[:len(node.args)])
        given.update(kw.arg for kw in node.keywords)
    return given


def _serialized_classes() -> set:
    """Names of the classes outside the tests that call ``asdict(self)``
    in a method of their own, which reads every field."""
    def reads_every_field(node):
        func = getattr(node, "func", None)
        return (getattr(func, "id", getattr(func, "attr", None)) == "asdict"
                and len(node.args) == 1 and getattr(node.args[0], "id", None) == "self")

    return {node.name for tree in _files_outside_the_tests() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(reads_every_field, ast.walk(node)))}


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
    assert sorted(exports - _used_outside_the_tests().names) == []


def test_every_member_of_an_exported_class_has_a_user_outside_the_tests():
    # only obj.member reads count, so a local variable of the same name does
    # not hide an unread member; an attribute read on another class's member
    # of that name still does (the scan resolves no owners)
    classes = [getattr(locbound, name) for name in sorted(_exports())]
    classes = [cls for cls in classes if isinstance(cls, type)]
    assert len(classes) > 20
    used = _used_outside_the_tests().attributes
    serialized = _serialized_classes()
    assert serialized == {"VerificationReport"}
    unread = [f"{cls.__name__}.{member}" for cls in classes
              for member in sorted(_members(cls) - used)
              if not (cls.__name__ in serialized
                      and member in {f.name for f in dataclasses.fields(cls)})]
    assert unread == []


# verify_depth_bound(scenarios) is the harness's input, the cases it runs,
# like verify_overhead_consistency(modules), which the benchmark sets
_PARAMETER_EXEMPT = {("verify_depth_bound", "scenarios")}


def _unset_defaults(name: str, func) -> list:
    """The defaulted parameters of ``func``, called as ``name``, that no
    call outside the tests sets and that are not exempt."""
    params = list(inspect.signature(func).parameters.values())
    names = [p.name for p in params]
    defaulted = {p.name for p in params if p.default is not inspect.Parameter.empty}
    return [f"{name}({param})"
            for param in sorted(defaulted - _arguments_set_outside_the_tests(name, names))
            if (name, param) not in _PARAMETER_EXEMPT]


def test_every_defaulted_parameter_of_an_export_is_set_outside_the_tests():
    exports = [(name, getattr(locbound, name)) for name in sorted(_exports())]
    unset = [param for name, func in exports if isinstance(func, FunctionType)
             for param in _unset_defaults(name, func)]
    assert unset == []


def test_every_defaulted_constructor_parameter_of_an_exported_class_is_set_outside_the_tests():
    # a class is constructed by calling its name; a constructor inherited
    # from a builtin (an exception's) takes no parameters of ours
    exports = [(name, getattr(locbound, name)) for name in sorted(_exports())]
    classes = [(name, cls) for name, cls in exports
               if isinstance(cls, type) and isinstance(cls.__init__, FunctionType)]
    assert len(classes) > 20
    unset = [param for name, cls in classes for param in _unset_defaults(name, cls)]
    assert unset == []


def test_every_benchmark_target_resolves():
    # the benchmark's tracer wraps these names and looks each one up as
    # below; without this test only the benchmark's own selftest would
    # notice a deleted or renamed one
    spec = importlib.util.spec_from_file_location("worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert len(worker.TARGETS) > 20
    for layer, qualname, on_result in worker.TARGETS:
        owner = importlib.import_module(f"locbound.{layer}")
        *classes, attr = qualname.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(owner.__dict__[attr]), f"{layer}.{qualname}"
        assert on_result is None or callable(on_result)
