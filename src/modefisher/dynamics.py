"""Local gates and unitary evolution on truncated composite states.

Every propagator exp(-i t H) is built from a Hermitian eigendecomposition
of its local generator (or written down directly when diagonal), so gates
are exact at the truncation and never materialize full-space operators.
Application touches only the target axes.

The two-mode tunnel generator a2†a1 + a1†a2 conserves n1 + n2, so the
tunnel gate (and the beam splitter built from it) is stored and applied
sector by sector: the two mode axes are gathered into the 2c-1 sectors of
fixed total photon number, each sector is rotated by its own small
eigenbasis, and the result is scattered back.  This is exact at the
per-mode truncation, because the truncated generator is still
block-diagonal in n1 + n2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hilbert import (
    QUBIT_DIM,
    CompositeState,
    LayoutError,
    SubsystemLayout,
    coherent_state,
    destroy,
    jc_layout,
    kerr_layout,
    product_state,
)

UNITARITY_ATOL = 1e-10


@dataclass(frozen=True)
class LocalGate:
    """Unitary acting on a subset of layout factors.

    Exactly one representation is populated:

    - ``matrix``: dense unitary on the joint target space;
    - ``diag``: diagonal phases on the joint target space (targets must be
      in increasing factor order);
    - ``basis`` + ``phases``: a two-mode gate that conserves n1 + n2, held
      per photon-number sector.  ``basis[s]`` is the real orthogonal
      eigenbasis V_s of sector s = n1 + n2 and ``phases[s]`` its
      eigenphases, so U = V_s diag(phases[s]) V_s^T on that sector.  The
      2c-1 sectors are padded to shapes ``(2c-1, c, c)`` and
      ``(2c-1, c)``; padding slots carry the identity.

    ``targets`` lists factor indices; ``None`` means "the two mode factors
    of whatever layout the gate is applied to", which lets mode-pair gates
    be built without knowing the layout.
    """

    label: str
    targets: tuple[int, ...] | None
    matrix: np.ndarray | None = None
    diag: np.ndarray | None = None
    basis: np.ndarray | None = None
    phases: np.ndarray | None = None
    identity: bool = field(default=False)

    def as_matrix(self) -> np.ndarray:
        """Dense joint-space matrix (test and inspection use only)."""
        if self.matrix is not None:
            return self.matrix
        if self.diag is not None:
            return np.diag(self.diag)
        assert self.basis is not None and self.phases is not None
        cutoff = self.basis.shape[1]
        gather, _ = _sector_index(cutoff)
        u = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
        for rows, v, ph in zip(gather, self.basis, self.phases):
            rows = rows[rows < cutoff * cutoff]
            d = len(rows)
            u[np.ix_(rows, rows)] = (v[:d, :d] * ph[:d]) @ v[:d, :d].T
        return u

    @property
    def joint_dim(self) -> int:
        if self.matrix is not None:
            return self.matrix.shape[0]
        if self.diag is not None:
            return self.diag.shape[0]
        assert self.basis is not None
        return self.basis.shape[1] ** 2


@lru_cache(maxsize=None)
def _sector_index(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather and scatter indices between (n1, n2) and sector order.

    ``gather[s, k]`` is the flat index n1*c + n2 of the k-th state (n1
    ascending) of sector s = n1 + n2; padding slots point at c², one past
    the end, where the caller keeps a zero row.  ``scatter[n1*c + n2]`` is
    the inverse: the flat position s*c + k in the sector-major array.
    """
    c = cutoff
    gather = np.full((2 * c - 1, c), c * c)
    for s in range(2 * c - 1):
        n1 = np.arange(max(0, s - c + 1), min(s, c - 1) + 1)
        gather[s, :len(n1)] = n1 * c + (s - n1)
    valid = gather < c * c
    scatter = np.empty(c * c, dtype=np.intp)
    scatter[gather[valid]] = np.flatnonzero(valid)
    gather.setflags(write=False)
    scatter.setflags(write=False)
    return gather, scatter


@lru_cache(maxsize=None)
def _tunnel_sectors(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sector eigensystems of a2†a1 + a1†a2, padded to a common size.

    Within sector s = n1 + n2 the generator is tridiagonal in n1, with
    <n1+1, n2-1| a1†a2 |n1, n2> = sqrt((n1+1) n2).  It is real symmetric,
    so each eigenbasis is real orthogonal and independent of the tunneling
    strength; per-call gates only rescale the eigenphases.  Returns the
    eigenvalues ``(2c-1, c)`` and eigenbases ``(2c-1, c, c)`` in the
    sector order of :func:`_sector_index`.
    """
    c = cutoff
    w = np.zeros((2 * c - 1, c))
    v = np.zeros((2 * c - 1, c, c))
    for s, rows in enumerate(_sector_index(c)[0]):
        n1 = rows[rows < c * c] // c
        d = len(n1)
        off = np.sqrt((n1[:-1] + 1.0) * (s - n1[:-1]))
        w[s, :d], v[s, :d, :d] = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        v[s, d:, d:] = np.eye(c - d)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


@lru_cache(maxsize=None)
def _jc_eigensystem(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of sigma† a + sigma a† on one (qubit, mode) pair.

    Qubit basis order is (|g>, |e>), qubit axis slowest.
    """
    a = destroy(cutoff)
    raise_q = np.zeros((QUBIT_DIM, QUBIT_DIM))
    raise_q[1, 0] = 1.0  # |e><g|
    gen = np.kron(raise_q, a) + np.kron(raise_q.T, a.T)
    w, v = np.linalg.eigh(gen)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def jc_gate(g: float, cutoff: int, pair: tuple[int, int] = (0, 2)) -> LocalGate:
    """exp(-i g (sigma† a + sigma a†)) on one emitter-mode pair.

    ``g`` is the adimensional interaction time (coupling times duration).
    ``pair`` gives the (emitter, mode) factor indices; the defaults match
    the first pair of the emitter layout.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    if g == 0.0:
        return LocalGate("jc", tuple(pair), matrix=np.eye(QUBIT_DIM * cutoff, dtype=complex),
                         identity=True)
    w, v = _jc_eigensystem(cutoff)
    u = (v * np.exp(-1j * g * w)) @ v.T
    return LocalGate("jc", tuple(pair), matrix=u)


def kerr_gate(k: float, cutoff: int, mode: int = 0) -> LocalGate:
    """Self-Kerr phase exp(-i k n^2) on one mode factor.

    ``k`` is the adimensional Kerr strength times duration.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    n = np.arange(cutoff)
    return LocalGate("kerr", (mode,), diag=np.exp(-1j * k * n * n), identity=(k == 0.0))


def tunnel_gate(j: float, cutoff: int, modes: tuple[int, int] | None = None) -> LocalGate:
    """Photon tunneling exp(-i j (a2†a1 + a1†a2)) between the two modes."""
    w, v = _tunnel_sectors(cutoff)
    return LocalGate("tunnel", modes, basis=v, phases=np.exp(-1j * j * w),
                     identity=(j == 0.0))


def detune_gate(delta: float, emitter: int) -> LocalGate:
    """Free emitter evolution: phase exp(-i delta) on |e>, identity on |g>."""
    return LocalGate("detune", (emitter,),
                     diag=np.array([1.0, np.exp(-1j * delta)]), identity=(delta == 0.0))


def _resolve_targets(gate: LocalGate, layout: SubsystemLayout) -> tuple[int, ...]:
    targets = gate.targets if gate.targets is not None else layout.mode_indices
    if len(set(targets)) != len(targets):
        raise LayoutError(f"gate targets {targets} are not distinct")
    for t in targets:
        if not 0 <= t < len(layout.factors):
            raise LayoutError(f"gate target {t} outside layout of {len(layout.factors)} factors")
    joint = 1
    for t in targets:
        joint *= layout.dims[t]
    if joint != gate.joint_dim:
        raise LayoutError(
            f"gate acts on dim {gate.joint_dim}, targets {targets} span dim {joint}"
        )
    return targets


def apply(gate: LocalGate, state: CompositeState) -> CompositeState:
    """Apply a local gate, contracting only the target axes."""
    if gate.identity:
        return state
    layout = state.layout
    targets = _resolve_targets(gate, layout)
    psi = state.tensor()
    ndim = psi.ndim

    if gate.diag is not None:
        # Broadcast the joint diagonal over the (sorted) target axes.
        if list(targets) != sorted(targets):
            raise LayoutError("diagonal gates need targets in increasing order")
        shape = [1] * ndim
        for t in targets:
            shape[t] = layout.dims[t]
        out = psi * gate.diag.reshape(shape)
        return CompositeState(layout, out.reshape(-1), check_norm=False)

    if gate.basis is not None:
        # Gather the mode pair into sector-major order (a zero row backs
        # the padding slots), rotate every sector by its eigenbasis with
        # batched real matmuls on stacked re/im, and scatter back.
        # Emitter factors ride along as extra columns.
        cutoff = gate.basis.shape[1]
        if any(layout.dims[t] != cutoff for t in targets):
            raise LayoutError(f"sector gate needs two mode factors of cutoff {cutoff}")
        gather, scatter = _sector_index(cutoff)
        moved = np.moveaxis(psi, targets, (0, 1))
        cols = moved.reshape(cutoff * cutoff, -1)
        padded = np.concatenate((cols, np.zeros((1, cols.shape[1]), dtype=cols.dtype)))
        x = padded[gather].view(np.float64)
        y = np.matmul(gate.basis.transpose(0, 2, 1), x).view(np.complex128)
        y *= gate.phases[:, :, None]
        z = np.matmul(gate.basis, y.view(np.float64)).view(np.complex128)
        out = z.reshape(-1, cols.shape[1])[scatter].reshape(moved.shape)
        out = np.moveaxis(out, (0, 1), targets)
        return CompositeState(layout, np.ascontiguousarray(out).reshape(-1), check_norm=False)

    assert gate.matrix is not None
    tdims = [layout.dims[t] for t in targets]
    u = gate.matrix.reshape(*tdims, *tdims)
    contracted = np.tensordot(u, psi, axes=(list(range(len(targets), 2 * len(targets))),
                                            list(targets)))
    out = np.moveaxis(contracted, range(len(targets)), targets)
    return CompositeState(layout, np.ascontiguousarray(out).reshape(-1), check_norm=False)


def evolve_continuous(kind: str, time: float, psi0: CompositeState) -> CompositeState:
    """Continuous nonlinear evolution at an adimensional time.

    ``kind="jc"`` applies the emitter-mode propagator to both pairs of the
    emitter layout; ``kind="kerr"`` applies the self-Kerr phase to both
    modes.  The two pairs act on disjoint factors, so per-pair gates
    compose to the exact joint propagator.
    """
    layout = psi0.layout
    if kind == "jc":
        if len(layout.qubit_indices) != 2 or len(layout.mode_indices) != 2:
            raise LayoutError("jc evolution needs the (qubit, qubit, mode, mode) layout")
        cutoff = layout.cutoff
        q0, q1 = layout.qubit_indices
        m0, m1 = layout.mode_indices
        state = apply(jc_gate(time, cutoff, (q0, m0)), psi0)
        return apply(jc_gate(time, cutoff, (q1, m1)), state)
    if kind == "kerr":
        if len(layout.mode_indices) != 2 or layout.qubit_indices:
            raise LayoutError("kerr evolution needs the (mode, mode) layout")
        cutoff = layout.cutoff
        m0, m1 = layout.mode_indices
        state = apply(kerr_gate(time, cutoff, m0), psi0)
        return apply(kerr_gate(time, cutoff, m1), state)
    raise ValueError(f"unknown evolution kind {kind!r}")


def coherent_input_state(kind: str, n_mean: float, cutoff: int) -> CompositeState:
    """Standard input: coherent light split over both modes, emitters down.

    ``n_mean`` is the total mean photon number; each mode gets
    alpha = sqrt(n_mean / 2).
    """
    alpha = np.sqrt(n_mean / 2.0)
    mode_vec = coherent_state(alpha, cutoff)
    if kind == "jc":
        ground = np.array([1.0, 0.0], dtype=complex)
        return product_state(jc_layout(cutoff), [ground, ground, mode_vec, mode_vec])
    if kind == "kerr":
        return product_state(kerr_layout(cutoff), [mode_vec, mode_vec])
    raise ValueError(f"unknown evolution kind {kind!r}")
