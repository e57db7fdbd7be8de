"""Mach-Zehnder phase encoding on the two mode factors.

The interferometer is U(phi) = BS . PD(phi) . BS with a symmetric beam
splitter BS = exp(-i (pi/4)(a2†a1 + a1†a2)) and a differential phase
PD(phi) = exp(-i (phi/2)(n2 - n1)).  Emitter factors, when present, ride
along untouched.  Both beam splitters conserve n1 + n2 and are applied
sector by sector (see :mod:`modefisher.dynamics`).  Only PD depends on
phi, so the first beam splitter can be shared: the encoded family
computes it once for the state and the derivative together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LocalGate, apply, tunnel_gate
from .hilbert import CompositeState, LayoutError

DEFAULT_PHI = np.pi / 3


@dataclass(frozen=True)
class PhaseFamily:
    """Encoded state and its exact phase derivative at one phase point."""

    state: CompositeState
    derivative: CompositeState
    phi: float


def beam_splitter_gate(cutoff: int, modes: tuple[int, int] | None = None) -> LocalGate:
    """Symmetric beam splitter: tunneling at j = pi/4."""
    gate = tunnel_gate(np.pi / 4, cutoff, modes)
    return LocalGate("bs", gate.targets, basis=gate.basis, phases=gate.phases)


def phase_diff_gate(phi: float, cutoff: int,
                    modes: tuple[int, int] | None = None) -> LocalGate:
    """Differential phase exp(-i (phi/2)(n2 - n1)) on the mode pair."""
    n = np.arange(cutoff)
    diag = np.exp(-0.5j * phi * (n[None, :] - n[:, None])).ravel()
    return LocalGate("phase_diff", modes, diag=diag, identity=(phi == 0.0))


def _diff_number(state: CompositeState) -> np.ndarray:
    """n2 - n1 shaped to broadcast against ``state.tensor()``."""
    layout = state.layout
    m1, m2 = layout.mode_indices
    n = np.arange(layout.cutoff)
    shape = [1] * len(layout.dims)
    shape[m1], shape[m2] = layout.cutoff, layout.cutoff
    return (n[None, :] - n[:, None]).reshape(shape)


def _require_two_modes(state: CompositeState) -> int:
    if len(state.layout.mode_indices) != 2:
        raise LayoutError("phase encoding needs a layout with exactly two modes")
    return state.layout.cutoff


def _phased(state: CompositeState, phi: float) -> CompositeState:
    """PD(phi) . BS |psi_P>, the part the state and its derivative share."""
    cutoff = _require_two_modes(state)
    return apply(phase_diff_gate(phi, cutoff), apply(beam_splitter_gate(cutoff), state))


def _tangent(phased: CompositeState) -> CompositeState:
    """(-i/2)(n2 - n1) |phased>, the generator insertion for d/dphi."""
    amps = (phased.tensor() * (-0.5j * _diff_number(phased))).reshape(-1)
    return CompositeState(phased.layout, amps, check_norm=False)


def encode(state: CompositeState, phi: float) -> CompositeState:
    """|psi_E(phi)> = BS . PD(phi) . BS |psi_P>."""
    phased = _phased(state, phi)
    return apply(beam_splitter_gate(phased.layout.cutoff), phased)


def encode_derivative(state: CompositeState, phi: float) -> CompositeState:
    """Exact d/dphi of the encoded state (unnormalized tangent vector).

    Equals BS . (-i/2)(n2 - n1) . PD(phi) . BS |psi_P> because only the
    differential phase depends on phi.
    """
    phased = _phased(state, phi)
    return apply(beam_splitter_gate(phased.layout.cutoff), _tangent(phased))


def encoded_family(state: CompositeState, phi: float = DEFAULT_PHI) -> PhaseFamily:
    """Encoded state together with its phase derivative at ``phi``.

    The first beam splitter and the phase stage are shared between the
    two branches, so the family costs three beam splitters, not four.
    """
    phased = _phased(state, phi)
    bs = beam_splitter_gate(phased.layout.cutoff)
    return PhaseFamily(apply(bs, phased), apply(bs, _tangent(phased)), phi)
