"""The benchmark's workload script still finds every library name it uses.

``perfbench/workload.py`` imports pkwbench functions and private constants
by name and calls them with fixed arguments.  A rename, a prune or a changed
signature in ``src/`` would otherwise only show as a failed
``perfbench/run.py`` run.  ``pointcloud.subsample``, for one, has no caller
in ``src/`` and is kept for the workload.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pkwbench.cli as cli

_WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"


def _tree():
    return ast.parse(_WORKLOAD.read_text(), filename=str(_WORKLOAD))


def _library_names():
    """Local name -> object for every ``from pkwbench... import`` name, and
    ``cli.<attr>`` -> object for every attribute read off the cli module."""
    names = {}
    tree = _tree()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("pkwbench"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = getattr(module, alias.name)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "cli"):
            assert hasattr(cli, node.attr), f"pkwbench.cli.{node.attr}"
            names[f"cli.{node.attr}"] = getattr(cli, node.attr)
    return names


def test_every_imported_library_name_resolves():
    names = _library_names()
    for expected in ("attach_discharge", "subsample", "fit_pointnet_mini",
                     "_LAYER_DIMS", "_POOL_AFTER", "read_cloud", "cli.MANIFEST_NAME",
                     "cli.main"):
        assert expected in names


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def test_every_library_call_binds_to_its_signature():
    names = _library_names()
    calls = 0
    for node in ast.walk(_tree()):
        if not isinstance(node, ast.Call) or _callee(node.func) not in names:
            continue
        target = names[_callee(node.func)]
        if not callable(target) or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        keywords = [k.arg for k in node.keywords]
        if None in keywords:  # a ** argument
            continue
        inspect.signature(target).bind(*node.args, **dict.fromkeys(keywords))
        calls += 1
    assert calls >= 10


def test_workload_module_loads(monkeypatch):
    # it puts src/ and perfbench/ on the path and imports the tracer
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_workload", _WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in set(sys.modules) - before:
            if name in ("tracer", "perfbench_workload"):
                del sys.modules[name]
    assert set(module.WORKLOADS) == {"forest-matrix", "gbm-matrix", "geometry-pointnet"}

