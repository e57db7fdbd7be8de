"""Dense reference operators and overlaps for the tests.

The package never builds a dense operator; these reference forms exist
only so that tests can check the structured kernels against textbook
matrices.
"""

from dataclasses import replace

import numpy as np

from modefisher.dynamics import LocalGate, _apply_stack
from modefisher.hilbert import (QUBIT_DIM, CompositeState, LayoutError, coherent_state, jc_layout,
                               kerr_layout)


def destroy(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator at the given cutoff."""
    a = np.zeros((cutoff, cutoff))
    idx = np.arange(1, cutoff)
    a[idx - 1, idx] = np.sqrt(idx)
    return a


def number_op(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff, dtype=float))


def inner_product(a: CompositeState, b: CompositeState) -> complex:
    """<a|b> with the conjugate on the first argument."""
    if a.layout != b.layout:
        raise LayoutError("inner product between different layouts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def gate_matrix(gate: LocalGate) -> np.ndarray:
    """Dense joint-space matrix of a gate.

    Column j is the gate applied to basis state j of its target factors.
    A rabi gate is applied to emitter 0 and mode 0 of the emitter
    layout, the other pair held in |g, 0>.
    """
    if gate.diag is not None:
        return np.diag(gate.diag)
    if gate.rabi is None:
        c = gate.basis.shape[1]
        eye = np.eye(c * c, dtype=complex).reshape(-1, c, c)
        out = _apply_stack(replace(gate, targets=None), kerr_layout(c), eye)
    else:
        c = gate.rabi.shape[1]
        eye = np.zeros((2 * c, *jc_layout(c).dims), dtype=complex)
        eye[:, :, 0, :, 0] = np.eye(2 * c).reshape(-1, QUBIT_DIM, c)
        out = _apply_stack(replace(gate, targets=(0, 2)), jc_layout(c), eye)[:, :, 0, :, 0]
    return out.reshape(len(out), -1).T


def kron_input_amplitudes(kind: str, n_mean: float, cutoff: int) -> np.ndarray:
    """Amplitudes of the standard input |alpha, alpha> (emitters in |g, g> for
    ``kind="jc"``), as repeated ``np.kron`` products of the factor vectors."""
    mode = coherent_state(np.sqrt(n_mean / 2.0), cutoff)
    ground = np.array([1.0, 0.0], dtype=complex)
    out = np.ones(1, dtype=np.complex128)
    for vec in ([ground, ground] if kind == "jc" else []) + [mode, mode]:
        out = np.kron(out, vec)
    return out
