"""The package's module graph is one-way: every import sits at the top of
its module, so no module defers an import to get round a cycle, and
importing the package itself loads no submodule.  And the package holds
only code that something outside the tests names."""
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


ROOT = SRC.parent.parent

# Functions and classes of the package that no module of the package, no
# script and no benchmark module names, each with the reason it is kept.
ORPHANS_ALLOWED = {
    # the paper's distinguished free generating set with separating tags;
    # tested in tests/test_freiheit.py, and given a command by a later
    # `fox lie freiheit` option rather than dropped
    "free_generating_set": "paper construct awaiting its CLI path",
}


def _names_used(path: Path) -> set:
    """Every name a module uses: Name ids, Attribute attrs, imported names
    and their aliases, and the parts of dotted-name string constants (the
    benchmark tracer names what it wraps as "module.function" strings)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
            if node.asname:
                used.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                used.update(node.value.split("."))
    return used


def test_every_function_and_class_is_named_by_a_caller():
    """No function or class of src/foxcalc/ is an orphan: its name must be
    used somewhere in the package, in scripts/*.py or in perfbench/*.py;
    code that only tests call belongs in tests/ (see tests/oracles.py).
    Dunder methods are exempt, and ORPHANS_ALLOWED names the exceptions.

    The match is by name only, so a definition that shares its name with
    a used one is not caught: Echelon.reduce would have passed as
    words.reduce."""
    modules = sorted(SRC.glob("*.py"))
    callers = modules + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_names_used(path) for path in callers))
    orphans = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
        and node.name not in ORPHANS_ALLOWED
    )
    assert not orphans, f"defined in src/foxcalc/ but named by no caller: {orphans}"
    stale = sorted(name for name in ORPHANS_ALLOWED if name in used)
    assert not stale, f"allowed as orphans but named by a caller: {stale}"
