"""Source hygiene: every module-level import and private name in the package is used,
and every error class in errors.py is raised somewhere."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "laguerre_spacings"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as -> "ScaledValue" reads its name too
    read |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [name for name in bound if name not in read]


def test_scan_finds_a_dead_import():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nx = math.pi\n"
    assert unused_imports(source) == ["np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Private module-level functions, classes and constants no module reads."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):  # module._name
                read.add(node.attr)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_scan_finds_a_dead_private_name():
    used = "from .b import _shared\n_LIMIT = 3\ndef f():\n    return _LIMIT + _shared()\n"
    other = "def _shared():\n    return 1\ndef _left_behind():\n    return 2\n__version__ = '1'\n"
    assert unread_private_names([used, other]) == ["_left_behind"]


def test_private_names_are_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Exception classes of errors_source that no raise statement in sources names."""
    defined = [node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)]
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return [name for name in defined if name not in raised]


def test_scan_finds_an_error_raised_nowhere():
    errors = "class UsedError(ValueError):\n    pass\nclass HandledOnly(RuntimeError):\n    pass\n"
    user = ("from . import errors\n"
            "def f(x):\n"
            "    try:\n"
            "        raise errors.UsedError(x)\n"
            "    except HandledOnly:\n"  # a handler alone keeps no error alive
            "        return 0\n")
    assert unraised_errors(errors, [user]) == ["HandledOnly"]


def test_every_error_class_is_raised():
    errors = (PACKAGE / "errors.py").read_text()
    sources = [path.read_text() for path in MODULES if path.name != "errors.py"]
    assert unraised_errors(errors, sources) == []
