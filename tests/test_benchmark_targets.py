"""The benchmark calls into the package by name; those names must exist.

The benchmark's files are fixed while the package changes under them, so
a renamed function, a moved re-export or a dropped keyword would only
show as a failed benchmark run.  These checks read the benchmark's
source and fail at once instead.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from modefisher import analysis, optimize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
# package callables the benchmark passes keywords to
KEYWORD_TARGETS = {
    "OptimizerConfig": optimize.OptimizerConfig,
    "optimize_preparation": optimize.optimize_preparation,
    "sweep_continuous": analysis.sweep_continuous,
    "sweep_theta": analysis.sweep_theta,
}


def _benchmark_trees():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PERFBENCH.glob("*.py"))]


def test_tracer_targets_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_benchmark_imports_resolve_in_the_package():
    imported, missing = [], []
    for name, tree in _benchmark_trees():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "modefisher"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported.append(f"{node.module}.{alias.name}")
                if not hasattr(module, alias.name):
                    missing.append(f"{name}: from {node.module} import {alias.name}")
    assert "modefisher.optimize.load_params" in imported
    assert missing == []


def test_benchmark_keywords_are_in_the_signatures():
    called, unknown = set(), []
    for name, tree in _benchmark_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            target = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if target not in KEYWORD_TARGETS:
                continue
            called.add(target)
            accepted = inspect.signature(KEYWORD_TARGETS[target]).parameters
            unknown += [f"{name}:{node.lineno}: {target}({kw.arg}=...)"
                        for kw in node.keywords if kw.arg is not None and kw.arg not in accepted]
    assert called == set(KEYWORD_TARGETS)
    assert unknown == []
