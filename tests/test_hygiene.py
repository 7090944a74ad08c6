"""Source hygiene: every module-level import in the package is used."""

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
