"""Mach-Zehnder phase encoding on the two modes.

The interferometer is U(phi) = BS . PD(phi) . BS with a symmetric beam
splitter BS = exp(-i (pi/4)(a2†a1 + a1†a2)) and a differential phase
PD(phi) = exp(-i (phi/2)(n2 - n1)).  Emitters, when present, ride along
untouched.  The modes are the last two axes of every state, so n2 - n1
is one ``(c, c)`` table that broadcasts over the emitters.  Both beam
splitters conserve n1 + n2, so they act on the skew blocks of
photon-number sectors (see :mod:`modefisher.dynamics`).

In that layout the beam splitter is one real rotation: with
Q = diag(i^n1), Q (a2†a1 + a1†a2) Q† = i K with K real antisymmetric, so
BS = Q† R Q with R = exp(pi K / 4) real orthogonal in every skew block.
This holds exactly at the per-mode cutoff, partial sectors included,
because the truncated generator is still tridiagonal in n1 within each
sector.  PD is diagonal, so U(phi) = Q† R P R Q with P the phase stage in
skew-block order.  The encoded family of a probe reads the rotated probe
y = R Q psi_P, kept in skew-block order and never scattered.  The
family's state and tangent take the second rotation as one stack
z = R [P y, tangent], in skew-block order.  Q† multiplies both members
of slot n1 by (-i)^n1, so photon counting reads z as it is; homodyne
readout and the Fock-order views take z back to Fock order with one
``take`` and Q†.  The family also keeps y and the probe's norm squared,
so the QFI of its probe (:func:`~modefisher.metrology.qfi_fidelity`)
reads them without a second rotation; nothing is kept between calls.
The QFI of the exchange representatives that the Kerr preparation
search holds takes neither R nor y: it applies BS on the symmetric half
of the space (:func:`~modefisher.metrology.qfi_fidelity`), so a Kerr
preparation search never builds R.  :func:`beam_splitter_gate` and
:func:`beam_split` stay as the independent gate route.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .dynamics import (LocalGate, _plan, _sector_eigensystems, _sector_index, apply,
                       tunnel_gate)
from .hilbert import CompositeState, SubsystemLayout

DEFAULT_PHI = np.pi / 3


class PhaseFamily:
    """Encoded state and its exact phase derivative at one phase point.

    The family holds one array, ``skew``: the read-only
    ``(c, c, spectators, 2)`` stack z in skew-block order, state at
    ``[..., 0]`` and derivative at ``[..., 1]``, before the Q† phase
    (slot n1 times (-i)^n1).  :func:`encoded_family` builds z directly
    and also keeps its probe's rotated amplitudes y = R Q psi_P
    (``rotated``, ``(c, c, spectators)``) and norm squared (``norm2``),
    which the QFI reads; a family given in Fock order enters through
    :meth:`from_fock` and has neither (both ``None``).  ``state`` and
    ``derivative`` are read-only Fock-order views, each built on its
    first read.
    """

    def __init__(self, layout: SubsystemLayout, skew: np.ndarray, phi: float,
                 rotated: np.ndarray | None = None, norm2: float | None = None) -> None:
        self.layout, self.skew, self.phi = layout, skew, phi
        self.rotated, self.norm2 = rotated, norm2

    @classmethod
    def from_fock(cls, layout: SubsystemLayout, stack: np.ndarray, phi: float) -> "PhaseFamily":
        """Family from a Fock-order ``(2, *dims)`` stack of state and derivative.

        The stack is put into skew-block order and multiplied by Q, a power
        of i per slot, so ``fock()`` gives it back bit for bit.
        """
        c = layout.cutoff
        z = np.empty((c, c, layout.total_dim // (c * c), 2), dtype=np.complex128)
        np.put(z, _family_scatter(layout), stack)
        _slot_phase(z, _slot_tables(c)[0])
        z.setflags(write=False)
        return cls(layout, z, phi)

    def fock(self, member=...) -> np.ndarray:
        """Q† z in Fock order, a fresh array: the ``(2, *dims)`` stack, or
        one member's ``dims`` tensor (0 state, 1 derivative).  One ``take``,
        then the Q† phase along n1."""
        out = np.take(self.skew, _family_scatter(self.layout)[member])
        out *= _slot_tables(self.layout.cutoff)[0].conj()[:, None]
        return out

    @cached_property
    def state(self) -> CompositeState:
        return self._view(0)

    @cached_property
    def derivative(self) -> CompositeState:
        return self._view(1)

    def _view(self, member: int) -> CompositeState:
        amps = self.fock(member).reshape(-1)
        amps.setflags(write=False)
        return CompositeState(self.layout, amps, check_norm=False)


@lru_cache(maxsize=None)
def beam_splitter_gate(cutoff: int) -> LocalGate:
    """Symmetric beam splitter: tunneling at j = pi/4 (cached, read-only)."""
    gate = tunnel_gate(np.pi / 4, cutoff)
    gate.phases.setflags(write=False)
    return LocalGate("bs", None, basis=gate.basis, phases=gate.phases)


@lru_cache(maxsize=32)
def phase_diff_gate(phi: float, cutoff: int) -> LocalGate:
    """Differential phase exp(-i (phi/2)(n2 - n1)) on the mode pair (cached, read-only)."""
    diag = np.exp(-0.5j * phi * _diff_number(cutoff)).ravel()
    diag.setflags(write=False)
    return LocalGate("phase_diff", None, diag=diag, identity=(phi == 0.0))


def _diff_number(cutoff: int) -> np.ndarray:
    """The ``(c, c)`` table n2 - n1; it broadcasts against any state tensor,
    whose last two axes are the modes."""
    n = np.arange(cutoff)
    return n[None, :] - n[:, None]


def beam_split(state: CompositeState) -> CompositeState:
    """chi = BS |psi_P> through the beam-splitter gate (the independent route).

    The QFI and the encoded family take the rotated probe instead; this
    gate route backs :func:`~modefisher.metrology.qfi_variance_oracle`.
    """
    return apply(beam_splitter_gate(state.layout.cutoff), state)


@lru_cache(maxsize=None)
def _slot_tables(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, -(i/2)(n2 - n1), R) in skew-block order, read-only.

    ``q[n1] = i^n1`` is the diagonal of Q (slot n1 of every block is mode-1
    occupation n1), ``tangent[b, n1]`` is -(i/2)(n2 - n1) of slot n1 in
    block b, the factor PD(phi)'s phi-derivative brings down, and
    ``rotation[b] = Q U_b Q†`` is the real ``(c, c, c)`` table of the beam
    splitter's skew blocks U_b, built sector by sector from the
    eigensystems rather than from the tunnel gate's cached basis, which
    processes that never build a tunnel gate then do not hold.
    """
    n1, n2 = np.divmod(_sector_index(cutoff), cutoff)
    q = np.array([1, 1j, -1, -1j])[np.arange(cutoff) % 4]
    rotation = np.zeros((cutoff, cutoff, cutoff))
    for b, slots, w, v in _sector_eigensystems(cutoff):
        u = (v * np.exp(-0.25j * np.pi * w)) @ v.T
        rotation[b, slots, slots] = (q[slots, None] * u * q[slots].conj()).real
    tables = (q, -0.5j * (n2 - n1), rotation)
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=4)
def _family_tables(phi: float, cutoff: int, spectators: int) -> tuple[np.ndarray, np.ndarray]:
    """PD(phi)'s diagonal and the tangent factor -(i/2)(n2 - n1), each in
    skew-block order and spread over ``spectators`` columns,
    ``(c, c, spectators)`` (cached, read-only)."""
    phase = phase_diff_gate(phi, cutoff).diag[_sector_index(cutoff)]
    tables = (_spread(phase, spectators), _spread(_slot_tables(cutoff)[1], spectators))
    for table in tables:
        table.setflags(write=False)
    return tables


def _spread(table: np.ndarray, columns: int) -> np.ndarray:
    """``table`` with each entry repeated ``columns`` times along a new last axis.

    Multiplying a ``(..., columns)`` array by the spread table runs as one
    contiguous pass; broadcasting a short last axis runs many short ones.
    """
    return np.repeat(table, columns).reshape(*table.shape, columns)


def _slot_phase(x: np.ndarray, phases: np.ndarray) -> None:
    """x[b, n1, :] *= phases[n1] in place, for a ``(c, c, columns)`` array."""
    c = x.shape[0]
    flat = x.reshape(c, -1)
    flat *= _spread(phases, flat.shape[1] // c).reshape(-1)


def _rotate(x: np.ndarray) -> np.ndarray:
    """R x for a complex ``(c, c, columns)`` array in skew-block order."""
    rotation = _slot_tables(x.shape[0])[2]
    return np.matmul(rotation, x.view(np.float64)).view(np.complex128)


def _rotated_probe(state: CompositeState) -> tuple[np.ndarray, float]:
    """(y, |psi_P|^2): y = R Q psi_P in skew-block order, ``(c, c, spectators)``.

    ``y[b, n1, s]`` is i^n1 times the amplitude of chi = BS |psi_P> at
    slot n1 of block b and spectator index s (the emitter factors).  The
    norm squared is summed pairwise over the probe's own amplitudes, not
    over y: the rotation keeps the norm only to a few ulps.
    """
    layout = state.layout
    gather, _ = _plan("basis", layout.cutoff, None, layout, (1, *layout.dims))
    x = np.take(state.amplitudes, gather)
    _slot_phase(x, _slot_tables(layout.cutoff)[0])
    y = _rotate(x)
    y.setflags(write=False)
    return y, float(np.square(np.ascontiguousarray(state.amplitudes).view(np.float64)).sum())


@lru_cache(maxsize=8)
def _family_scatter(layout: SubsystemLayout) -> np.ndarray:
    """Flat index of each entry of the ``(2, *dims)`` family stack in the
    ``(block, slot, spectator, k)`` order that :func:`encoded_family`
    rotates (read-only).

    Entry p of the probe's skew-block order (the basis plan's scatter)
    holds the state at 2p and the tangent at 2p + 1.
    """
    _, scatter = _plan("basis", layout.cutoff, None, layout, (1, *layout.dims))
    table = 2 * scatter + np.arange(2).reshape(2, *[1] * len(layout.dims))
    table.setflags(write=False)
    return table


def encoded_family(state: CompositeState, phi: float = DEFAULT_PHI) -> PhaseFamily:
    """|psi_E(phi)> = BS . PD(phi) . BS |psi_P> and its exact phase derivative.

    Only PD depends on phi, so the derivative is BS (-i/2)(n2 - n1) PD(phi) chi.
    In skew-block order, with y = R Q psi_P (:func:`_rotated_probe`), the
    pair is Q† z with z = R [P y, -(i/2) D P y], D = n2 - n1: both are
    written as the columns of one stack and rotated by R once.  The family
    is z, ``(c, c, spectators, 2)`` in
    ``(block, slot n1, spectator, state or derivative)`` order
    (:class:`PhaseFamily`), and it keeps y and |psi_P|^2 for the QFI.
    """
    y, norm2 = _rotated_probe(state)
    layout = state.layout
    c, spectators = layout.cutoff, y.shape[2]
    phase, tangent = _family_tables(phi, c, spectators)
    # state and tangent interleaved per spectator, so both are written in
    # one contiguous pass against tables repeated over the spectators
    stack = np.empty((*y.shape, 2), dtype=np.complex128)
    np.multiply(y, phase, out=stack[..., 0])
    np.multiply(stack[..., 0], tangent, out=stack[..., 1])
    z = _rotate(stack.reshape(c, c, -1)).reshape(stack.shape)
    z.setflags(write=False)
    return PhaseFamily(layout, z, phi, y, norm2)
