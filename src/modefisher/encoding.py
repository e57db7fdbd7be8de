"""Mach-Zehnder phase encoding on the two mode factors.

The interferometer is U(phi) = BS . PD(phi) . BS with a symmetric beam
splitter BS = exp(-i (pi/4)(a2†a1 + a1†a2)) and a differential phase
PD(phi) = exp(-i (phi/2)(n2 - n1)).  Emitter factors, when present, ride
along untouched.  Both beam splitters conserve n1 + n2 and are applied
sector by sector (see :mod:`modefisher.dynamics`).  Only PD depends on
phi, so the QFI and the encoded family of a probe share one chi = BS |psi_P>
(:func:`beam_split`), and the family's state and tangent pass the outer
beam splitter as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import LocalGate, apply, tunnel_gate
from .hilbert import CompositeState, LayoutError, SubsystemLayout

DEFAULT_PHI = np.pi / 3


@dataclass(frozen=True)
class PhaseFamily:
    """Encoded state and its exact phase derivative at one phase point."""

    state: CompositeState
    derivative: CompositeState
    phi: float

    @classmethod
    def from_stack(cls, layout: SubsystemLayout, stack: np.ndarray, phi: float) -> "PhaseFamily":
        """Family from a ``(2, *dims)`` stack of state and derivative tensors."""
        state, deriv = (CompositeState(layout, s.reshape(-1), check_norm=False) for s in stack)
        return cls(state, deriv, phi)


@lru_cache(maxsize=None)
def beam_splitter_gate(cutoff: int) -> LocalGate:
    """Symmetric beam splitter: tunneling at j = pi/4 (cached, read-only)."""
    gate = tunnel_gate(np.pi / 4, cutoff)
    gate.phases.setflags(write=False)
    return LocalGate("bs", None, basis=gate.basis, phases=gate.phases)


@lru_cache(maxsize=32)
def phase_diff_gate(phi: float, cutoff: int) -> LocalGate:
    """Differential phase exp(-i (phi/2)(n2 - n1)) on the mode pair (cached, read-only)."""
    n = np.arange(cutoff)
    diag = np.exp(-0.5j * phi * (n[None, :] - n[:, None])).ravel()
    diag.setflags(write=False)
    return LocalGate("phase_diff", None, diag=diag, identity=(phi == 0.0))


def _diff_number(layout: SubsystemLayout) -> np.ndarray:
    """n2 - n1 shaped to broadcast against a tensor of ``layout``."""
    m1, m2 = layout.mode_indices
    n = np.arange(layout.cutoff)
    shape = [1] * len(layout.dims)
    shape[m1], shape[m2] = layout.cutoff, layout.cutoff
    return (n[None, :] - n[:, None]).reshape(shape)


_last_split: list = []  # [(copy of the last probe's amplitudes, its chi)]


def beam_split(state: CompositeState) -> CompositeState:
    """chi = BS |psi_P>, the probe as the phase stage sees it (read-only).

    The last probe's chi is kept, so the QFI and the encoded family of one
    probe take a single beam splitter between them.
    """
    if len(state.layout.mode_indices) != 2:
        raise LayoutError("phase encoding needs a layout with exactly two modes")
    for amps, chi in _last_split:
        if chi.layout == state.layout and np.array_equal(amps, state.amplitudes):
            return chi
    chi = apply(beam_splitter_gate(state.layout.cutoff), state)
    chi.amplitudes.setflags(write=False)
    _last_split[:] = [(state.amplitudes.copy(), chi)]
    return chi


def encoded_family(state: CompositeState, phi: float = DEFAULT_PHI) -> PhaseFamily:
    """|psi_E(phi)> = BS . PD(phi) . BS |psi_P> and its exact phase derivative.

    Only PD depends on phi, so the derivative is BS (-i/2)(n2 - n1) PD(phi) chi
    and the outer beam splitter takes the phased state and that tangent as
    one stack.
    """
    chi = beam_split(state)
    layout = chi.layout
    phased = apply(phase_diff_gate(phi, layout.cutoff), chi).tensor()
    stack = np.stack((phased, phased * (-0.5j * _diff_number(layout))))
    stack = apply(beam_splitter_gate(layout.cutoff), stack, layout)
    return PhaseFamily.from_stack(layout, stack, phi)
