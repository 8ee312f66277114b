"""Smoke tests: every example script parses, documents itself, and the
fast ones run end to end; every script's ``repro`` imports resolve."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
BENCHMARKS = sorted((EXAMPLES_DIR.parent / "benchmarks").glob("*.py"))


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 5  # the deliverable floor, with margin


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_parses_with_docstring_and_main(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} missing a docstring"
    names = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "main" in names, f"{path.name} missing main()"


def test_quickstart_runs_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sum of squares" in proc.stdout
    assert "top words" in proc.stdout


def test_fault_tolerance_example_runs_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "fault_tolerance.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "recovery overhead" in proc.stdout
    assert "validated=True" in proc.stdout


def _repro_imports(path):
    """``(module, name)`` for every ``repro`` import in a script, at any
    depth (``name`` is None for a plain ``import repro.x``)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "repro":
                for alias in node.names:
                    yield module, alias.name


@pytest.mark.parametrize(
    "path",
    EXAMPLES + BENCHMARKS,
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_script_repro_imports_resolve(path):
    """Most scripts never run in the suite; a deleted or renamed library
    name would otherwise only surface when someone runs them."""
    missing = []
    for module, name in _repro_imports(path):
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports missing names {missing}"
