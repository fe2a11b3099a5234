"""Source checks that need no linter: every module uses each name it imports,
only ``reports`` writes CSV, and records that hold arrays compare by identity."""
import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import matwalk

# __init__.py imports names to export them
_MODULES = sorted(p for p in Path(matwalk.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_only_reports_imports_csv():
    importers = set()
    for path in _MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "csv" in names or isinstance(node, ast.ImportFrom) and node.module == "csv":
                importers.add(path.name)
    assert importers == {"reports.py"}


def test_a_cold_import_loads_no_pool_and_no_statistics():
    # both are imported on first use: a thread pool for more than one block,
    # NormalDist for a Gaussian quantile
    code = ("import sys, matwalk; "
            "print(sorted(m for m in ('statistics', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_records_holding_arrays_are_equal_and_hashed_by_identity():
    # a generated __eq__ would compare arrays elementwise and raise, and the
    # generated __hash__ of a frozen record would hash an array and raise
    holding = []
    for path in _MODULES:
        module = importlib.import_module(f"matwalk.{path.stem}")
        for cls in vars(module).values():
            if (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))):
                holding.append(cls)
                assert not cls.__dataclass_params__.eq, f"{cls.__qualname__} needs eq=False"
    assert len(holding) >= 15
