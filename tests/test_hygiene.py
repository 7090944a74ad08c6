"""Source hygiene: every module-level import and private name in the package is used,
every error class in errors.py is raised somewhere, every span the benchmark
requires names a public function of the package, and a failing hypothesis test
is reported without ending the test session."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "laguerre_spacings"
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


def required_spans(source: str) -> list[str]:
    """The span names of every `required_spans` tuple assigned in source."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "required_spans" for t in targets):
            spans += [elt.value for elt in node.value.elts]
    return spans


def unknown_spans(spans: list[str], sources: dict[str, str]) -> list[str]:
    """Span names `module.function` that name no public top-level function of sources
    (keyed by module name): the benchmark's tracer wraps only those."""
    public = {f"{module}.{node.name}" for module, source in sources.items()
              for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    return [span for span in spans if span not in public]


def test_scan_finds_a_span_naming_no_public_function():
    harness = ("class Workload:\n"
               "    required_spans: tuple = ()\n"
               "class Probe(Workload):\n"
               "    required_spans = ('solver.refine', 'solver.polish',\n"
               "                      'solver._step', 'cli.main')\n")
    solver = ("def refine(p, a):\n"
              "    return _step(p, a)\n"
              "def _step(p, a):\n"
              "    return a\n"
              "class polish:\n"  # a class is no function the tracer wraps
              "    pass\n")
    sources = {"solver": solver, "cli": "def main():\n    pass\n"}
    assert unknown_spans(required_spans(harness), sources) == ["solver.polish", "solver._step"]


def test_benchmark_required_spans_name_public_functions():
    spans = required_spans((ROOT / "bench" / "run.py").read_text())
    sources = {path.stem: path.read_text() for path in MODULES}
    assert "solver.refine" in spans
    assert unknown_spans(spans, sources) == []


FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(i):
    assert i != i


def test_runs_after():
    pass
'''


def test_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    # Reporting a failing @given test imports libcst, whose DeprecationWarning the
    # repository's filterwarnings = ["error"] would turn into an INTERNALERROR that
    # ends the session.
    (tmp_path / "test_demo.py").write_text(FAILING_GIVEN)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          str(tmp_path / "test_demo.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1 and "1 failed, 1 passed" in run.stdout
