"""Dense reference operators, overlaps and probability tables for the tests.

The package never builds a dense operator or a full outcome table; these
reference forms exist only so that tests can check the structured
kernels against textbook matrices.
"""

from dataclasses import replace

import numpy as np

from modefisher.dynamics import LocalGate, _apply_stack
from modefisher.hilbert import (QUBIT_DIM, CompositeState, LayoutError, coherent_state, jc_layout,
                               kerr_layout)
from modefisher.metrology import _hermite_functions


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


def counting_probabilities(state: CompositeState, include_emitters: bool = False) -> np.ndarray:
    """Fock-basis outcome probabilities |amplitude|^2, one axis per measured
    factor; emitter axes are summed out unless ``include_emitters`` is set."""
    p = np.abs(state.tensor()) ** 2
    return p if include_emitters or not state.layout.emitters else p.sum(axis=(0, 1))


def quadrature_amplitudes(state: CompositeState, theta: float, x: np.ndarray) -> np.ndarray:
    """Amplitudes in the x^(theta) quadrature basis of both modes on the grid ``x``:
    each mode axis rotated with M[i, n] = e^{i n theta} psi_n(x_i)."""
    cutoff = state.layout.cutoff
    m = _hermite_functions(cutoff, float(x[-1]), len(x)).T * np.exp(1j * theta * np.arange(cutoff))
    amps = state.tensor()
    for axis in state.layout.mode_indices:
        amps = np.moveaxis(np.tensordot(m, amps, axes=(1, axis)), 0, axis)
    return amps
