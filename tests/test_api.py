"""Public-API consistency of the package modules."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import darboux3

PACKAGE_DIR = Path(darboux3.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(darboux3.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"darboux3.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_cross_module_imports_are_exported():
    """Every public name one module (or ``__init__``) imports from another
    is listed in that module's ``__all__``."""
    unlisted = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            exported = importlib.import_module(f"darboux3.{node.module}").__all__
            unlisted += [
                f"{path.stem} imports {node.module}.{alias.name}"
                for alias in node.names
                if not alias.name.startswith("_") and alias.name not in exported
            ]
    assert not unlisted


def _benchmark_names(path):
    """(module, name) pairs a benchmark file reads from the package: string
    pairs such as the tracer's ``("quadrature", "momentum_profile", ...)``,
    attributes of imported package modules and ``from darboux3.x import y``."""
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "darboux3"
        for alias in node.names
    }
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            first, second = node.elts[:2]
            if (
                isinstance(first, ast.Constant) and first.value in MODULES
                and isinstance(second, ast.Constant) and isinstance(second.value, str)
            ):
                pairs.append((first.value, second.value))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                pairs.append((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("darboux3."):
            pairs += [(node.module.split(".")[1], alias.name) for alias in node.names]
    return pairs


def test_benchmark_names_resolve():
    """Every function the benchmark traces (``perfbench/tracing.py``) or
    calls (``perfbench/workloads.py``) exists under its name."""
    bench = PACKAGE_DIR.parents[1] / "perfbench"
    traced = _benchmark_names(bench / "tracing.py")
    called = _benchmark_names(bench / "workloads.py")
    missing = [
        f"{module}.{name}"
        for module, name in traced + called
        if not hasattr(importlib.import_module(f"darboux3.{module}"), name)
    ]
    assert traced and called and not missing


def test_traced_cli_smoke(tmp_path, capsys):
    """Cheap CLI requests under the benchmark's tracer: every traced call
    whose tracer reads its arguments (such as ``fourier_transform``'s
    fourth positional ``p``) records its detail."""
    path = PACKAGE_DIR.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"darboux3.{name}") for name in MODULES}
    modules["darboux3"] = darboux3
    cli = modules["cli"]
    requests = [
        ["profile", "density-momentum", "--lambda", "0.4", "--n", "1",
         "--grid-points", "33", "--out", str(tmp_path / "profile.csv")],
        ["renyi", "--space", "momentum", "--alpha", "0.7", "--lambda", "0.4", "--n", "1"],
        ["shannon", "--space", "momentum", "--lambda", "0.4", "--n", "1"],
        ["moment", "--space", "position", "--alpha", "0.5", "--lambda", "0.4", "--n", "1"],
        ["critical-points", "--lambda", "2", "--n", "3"],
        ["threshold", "--n", "0,2"],
    ]
    tracer = tracing.Tracer(modules)
    tracer.install(0)
    try:
        codes = [cli.main(argv) for argv in requests]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(requests)
    readers = {f"{owner}.{name}" for owner, name, detail in tracing.TRACED if detail}
    spans = [s for s in tracer.spans if s.name in readers]
    assert {s.name for s in spans} >= {
        "quadrature.fourier_transform", "quadrature.momentum_profile",
        "quadrature.entropic_moment_numeric", "model.wavefunction",
    }
    assert [s.name for s in spans if s.detail is None] == []
