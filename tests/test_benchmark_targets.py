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

import numpy as np

from modefisher import analysis, optimize
from modefisher.dynamics import coherent_input_state
from modefisher.encoding import encoded_family
from modefisher.hilbert import default_cutoff

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


def _stamp(monkeypatch, module, attr):
    """Count the calls made through ``module.attr``, as the benchmark's item
    stamps do by rebinding that one name."""
    calls = []
    original = getattr(module, attr)

    def stamped(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, stamped)
    return calls


def test_preparation_stamps_once_per_evaluation(monkeypatch):
    """A preparation item is one objective evaluation, stamped at the QFI."""
    for kind, seeds, depths, iters in (("kerr", 2, [1, 2], 20), ("jc", 1, [1], 15)):
        calls = _stamp(monkeypatch, optimize, "qfi_fidelity")
        config = optimize.OptimizerConfig(max_iters=iters, tol=1e-300, seeds=seeds)
        records = optimize.optimize_preparation(kind, 4.0, depths, config)
        assert len(calls) == sum(r.iters_used for r in records) == seeds * len(depths) * iters
        monkeypatch.undo()


def test_sweep_stamps_once_per_point_and_angle(monkeypatch):
    """A sweep item is one point, a theta item one angle, stamped at the CFI."""
    calls = _stamp(monkeypatch, analysis, "cfi")
    times = np.linspace(0.3, 2.1, 7)
    assert len(analysis.sweep_continuous("jc", 4.0, time_grid=times,
                                         include_cfi_counting=True)) == len(calls) == 7
    calls.clear()
    samples, _ = analysis.sweep_theta("jc", 4.0, 1.0, theta_grid=np.linspace(0.0, 2.0, 5))
    assert len(samples) == len(calls) == 5


def test_traced_family_layout_resolves():
    """The tracer sizes a homodyne call from ``family.state.layout``."""
    probe = coherent_input_state("jc", 4.0, default_cutoff(4.0))
    assert encoded_family(probe).state.layout == probe.layout
