"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each modefisher layer from
outside the package and rebinds every module-level name that refers to
them.  ``apply`` in particular is bound separately in ``dynamics``,
``circuits``, ``encoding`` and ``metrology`` (they use ``from .dynamics
import apply``), so patching one module would miss most calls.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and
written out once the timed passes are over.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Labels that get their own apply span; every other label is "other".
_APPLY_LABELS = {"tunnel", "bs", "jc", "kerr"}


def _const(name):
    return lambda args, kwargs: name


def _apply_name(args, kwargs):
    label = args[0].label
    return "dynamics.apply." + (label if label in _APPLY_LABELS else "other")


def _cfi_name(args, kwargs):
    return "metrology.cfi." + args[1].kind


def gate_bytes(gate) -> int:
    """Gate operand bytes one apply call reads, computed from array sizes.

    An identity gate is skipped by ``apply`` and reads nothing.  A
    factored ``basis`` is read twice (V^T, then V).
    """
    if gate.identity:
        return 0
    total = 0
    for name, value in vars(gate).items():
        if isinstance(value, np.ndarray):
            total += value.nbytes * (2 if name == "basis" else 1)
    return total


def _count_apply(counts, run_id, args, kwargs):
    counts[run_id, "dynamics.apply.bytes_computed"] += gate_bytes(args[0])


def _count_cfi(counts, run_id, args, kwargs):
    family, model = args[0], args[1]
    if model.kind != "homodyne":
        return
    layout = family.state.layout
    outcomes = 1
    if model.include_emitters:
        for q in layout.qubit_indices:
            outcomes *= layout.dims[q]
    points = len(model.grid.axis(layout.cutoff))
    counts[run_id, "metrology.cfi.homodyne.table_cells"] += outcomes * points * points


# (module, attribute, span name, counter).  Gate builders of both the
# dynamics and the encoding module count as ``dynamics.gate_build``;
# ``hilbert`` has no span of its own and is charged to its callers,
# chiefly ``dynamics.apply``, which builds a CompositeState per call.
TARGETS = (
    ("modefisher.dynamics", "apply", _apply_name, _count_apply),
    ("modefisher.dynamics", "tunnel_gate", _const("dynamics.gate_build"), None),
    ("modefisher.dynamics", "jc_gate", _const("dynamics.gate_build"), None),
    ("modefisher.dynamics", "kerr_gate", _const("dynamics.gate_build"), None),
    ("modefisher.dynamics", "detune_gate", _const("dynamics.gate_build"), None),
    ("modefisher.encoding", "beam_splitter_gate", _const("dynamics.gate_build"), None),
    ("modefisher.encoding", "phase_diff_gate", _const("dynamics.gate_build"), None),
    ("modefisher.dynamics", "evolve_continuous", _const("dynamics.evolve_continuous"), None),
    ("modefisher.dynamics", "coherent_input_state",
     _const("dynamics.coherent_input_state"), None),
    ("modefisher.circuits", "run_circuit", _const("circuits.run_circuit"), None),
    ("modefisher.encoding", "encoded_family", _const("encoding.encoded_family"), None),
    ("modefisher.metrology", "qfi_fidelity", _const("metrology.qfi_fidelity"), None),
    ("modefisher.metrology", "cfi", _cfi_name, _count_cfi),
    ("modefisher.optimize", "minimize", _const("optimize.minimize"), None),
    ("modefisher.optimize", "optimize_preparation",
     _const("optimize.optimize_preparation"), None),
    ("modefisher.analysis", "sweep_continuous", _const("analysis.sweep"), None),
    ("modefisher.analysis", "sweep_theta", _const("analysis.sweep"), None),
)


class Tracer:
    """Records nested spans around the wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_of, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name_of(args, kwargs), clock(), 0.0,
                          stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(counts, self.run_id, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every module-level reference to each target function."""
        modules = [m for name, m in sys.modules.items()
                   if name == "modefisher" or name.startswith("modefisher.")]
        for module_name, attr, name_of, count in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name_of, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _child_seconds(self) -> list[float]:
        """Per span, the seconds spent in its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def root_self_seconds(self) -> float:
        """Self seconds of the outermost spans: time inside the traced
        entry points that no wrapped function below them accounts for."""
        child = self._child_seconds()
        return sum(end - start - child[i]
                   for i, (_, start, end, parent, _) in enumerate(self.spans) if parent < 0)

    def self_times(self) -> dict[int, dict[str, list[float]]]:
        """Per run id and span name: [calls, self seconds, total seconds]."""
        child = self._child_seconds()
        out: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            row = out[run_id][name]
            row[0] += 1
            row[1] += end - start - child[i]
            row[2] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
