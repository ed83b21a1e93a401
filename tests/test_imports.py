"""The package's module graph is one-way: every import sits at the top of
its module, so no module defers an import to get round a cycle, and
importing the package itself loads no submodule."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "foxcalc"


def test_no_import_inside_a_function_or_class():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    nested = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not nested, f"imports inside a function or class body: {sorted(set(nested))}"


def test_importing_the_package_loads_no_submodule():
    code = "import foxcalc, sys; print(sorted(m for m in sys.modules if m.startswith('foxcalc.')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
