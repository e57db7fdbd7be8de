"""Local gates and unitary evolution on truncated composite states.

Every propagator exp(-i t H) is written in the structure of its local
generator, so gates are exact at the truncation and none is held as a
dense matrix.  :func:`apply` acts on one state or on a ``(k, *dims)``
stack of tensors, such as a state and its phase derivative.  The axis
bookkeeping is done once per gate representation, layout, stack shape
and targets: a cached plan checks the targets and holds read-only flat
indices into the stack, so a call only gathers, multiplies and scatters.

The Jaynes-Cummings generator sigma† a + sigma a† couples only |g,n> and
|e,n-1>, with strength sqrt(n), so its propagator rotates each such pair
by g sqrt(n): out = cos x + (-i sin) x[partner], the plan's partner index
swapping the two.  |g,0> and the truncation edge |e,c-1> stay put: they
are their own partners, at angle 0.

The two-mode tunnel generator a2†a1 + a1†a2 conserves n1 + n2, so the
tunnel gate (and the beam splitter built from it) is stored and applied
sector by sector.  Sector s = n1 + n2 of the truncated pair has
min(s, 2c-2-s) + 1 states, so sectors b and b + c (b < c) together fill
exactly c slots: the c² basis states are permuted into c skew blocks,
block b holding every (n1, n2) with n1 + n2 = b mod c, slot n1 of it the
state (n1, (b - n1) mod c).  One gather takes the stack into (block,
slot, column) order, the stack axis and every spectator factor folded
into the columns; each block is rotated by its eigenbasis, which is
block-diagonal over its two sectors, and the inverse permutation
scatters the result back.  This is exact at the per-mode truncation,
because the truncated generator is still block-diagonal in n1 + n2.

Exchanging the two modes maps slot n1 of block b to slot (b - n1) mod c
of the same block, reversing each sector.  A Kerr ansatz on a symmetric
input stays symmetric, so it needs one amplitude per orbit of the
exchange: c(c+1)/2 of the c² (820 of 1,600 at c = 40).  The tunnel
spectrum of a sector has no repeated eigenvalue, so every eigenvector is
even or odd under the reversal, and the even ones rotate that half
(:func:`_exchange_sectors`, :func:`_exchange_tunnel`).  Only the callers
that build the symmetric input |alpha, alpha> themselves take this half:
the Kerr preparation search, :func:`~modefisher.circuits.prepare_probe`
and :func:`~modefisher.optimize.best_by_qfi`.  A :class:`CompositeState`
handed in by any other caller takes the gates of this module, whatever
its symmetry, so no route is chosen by inspecting a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hilbert import (
    CompositeState,
    LayoutError,
    SubsystemLayout,
    coherent_state,
    jc_layout,
    kerr_layout,
    product_state,
)


@dataclass(frozen=True)
class LocalGate:
    """Unitary acting on a subset of layout factors.

    Exactly one representation is populated:

    - ``rabi``: the (emitter, mode) Jaynes-Cummings rotation of each pair
      {|g,n>, |e,n-1>}, as ``rabi = (cos(g sqrt(n)), sin(g sqrt(n)))``;
    - ``diag``: diagonal phases on the joint target space (targets must be
      in increasing factor order);
    - ``basis`` + ``phases``: a two-mode gate that conserves n1 + n2, held
      per skew block of photon-number sectors (see :func:`_sector_index`).
      ``basis[b]`` is the real orthogonal eigenbasis V_b of block b, the
      sectors n1 + n2 = b and b + c on its diagonal, and ``phases[b]`` its
      eigenphases, so U = V_b diag(phases[b]) V_b^T on that block.  The
      shapes are ``(c, c, c)`` and ``(c, c)``, with no padding.

    ``targets`` lists factor indices; ``None`` means "the two mode factors
    of whatever layout the gate is applied to", which lets mode-pair gates
    be built without knowing the layout.  :func:`apply` checks them once,
    when it builds the cached index plan for a layout and stack shape.
    """

    label: str
    targets: tuple[int, ...] | None
    rabi: np.ndarray | None = None
    diag: np.ndarray | None = None
    basis: np.ndarray | None = None
    phases: np.ndarray | None = None
    identity: bool = field(default=False)


@lru_cache(maxsize=None)
def _sector_index(cutoff: int) -> np.ndarray:
    """Gather index from (n1, n2) into skew-block order.

    Block b < c holds the sectors n1 + n2 = b (slots n1 = 0..b) and
    n1 + n2 = b + c (slots n1 = b+1..c-1), so ``gather[b, n1]`` is the
    flat index n1*c + (b - n1) mod c, a permutation of the c² basis states.
    """
    c = cutoff
    b, n1 = np.ogrid[:c, :c]
    gather = n1 * c + (b - n1) % c
    gather.setflags(write=False)
    return gather


def _sector_eigensystems(cutoff: int):
    """Eigensystems of a2†a1 + a1†a2, one per sector s = n1 + n2.

    Within sector s the generator is tridiagonal in n1, with
    <n1+1, n2-1| a1†a2 |n1, n2> = sqrt((n1+1) n2).  It is real symmetric,
    so each eigenbasis is real orthogonal.  Yields ``(block, slots, w, v)``
    for s = 0 .. 2c-2: the sector fills ``slots`` (a range of n1) of skew
    block ``s mod c`` (:func:`_sector_index`), with eigenvalues ``w`` and
    eigenvectors the columns of ``v``.
    """
    c = cutoff
    for s in range(2 * c - 1):
        n1 = np.arange(max(0, s - c + 1), min(s, c - 1) + 1)
        off = np.sqrt((n1[:-1] + 1.0) * (s - n1[:-1]))
        w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        yield s % c, slice(n1[0], n1[-1] + 1), w, v


@lru_cache(maxsize=None)
def _tunnel_sectors(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of a2†a1 + a1†a2, one per skew block of two sectors.

    Each eigenbasis is independent of the tunneling strength; per-call
    gates only rescale the eigenphases.  Each sector's eigensystem
    (:func:`_sector_eigensystems`) is written into its diagonal sub-block.
    Returns the eigenvalues ``(c, c)`` and eigenbases ``(c, c, c)``; each
    basis is exactly zero between its block's two sectors.
    """
    c = cutoff
    w = np.zeros((c, c))
    v = np.zeros((c, c, c))
    for b, slots, ws, vs in _sector_eigensystems(cutoff):
        w[b, slots], v[b, slots, slots] = ws, vs
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


@lru_cache(maxsize=None)
def _exchange_sectors(cutoff: int) -> tuple[np.ndarray, ...]:
    """Tunnel eigensystems on the exchange-symmetric half of each skew block.

    Exchange maps slot n1 of block b to slot (b - n1) mod c, so it reverses
    the slots of each sector.  Each orbit is kept once, by its smaller slot:
    a sector of L states keeps its first ceil(L/2) slots, and block b keeps
    m_b = c/2 + 1 (c and b even), c/2 (c even, b odd) or (c + 1)/2 (c odd),
    padded to m = c//2 + 1.  A sector's spectrum has no repeated eigenvalue,
    so each eigenvector is even or odd under the reversal, and the
    ceil(L/2) even ones span the sector's symmetric states.  Built from
    :func:`_sector_eigensystems`, the eigensystems :func:`_tunnel_sectors`
    holds, so that a process that never builds a tunnel gate never holds
    the full basis either.  Returns, all read-only:

    - ``w`` ``(c, m)``: the even eigenvectors' eigenvalues, the same
      numbers as in :func:`_tunnel_sectors`;
    - ``basis`` ``(c, m, m)``: ``basis[b, r, k]`` is even eigenvector k of
      block b at representative r, the mean of its two entries on the orbit;
    - ``weight`` ``(c, m)``: orbit size, 2 or 1 (a sector's middle slot),
      0 on padding.  For a symmetric x the even eigenvector coefficients
      are ``basis[b]^T (weight x)``;
    - ``gather`` ``(c, m)``: flat Fock index of each representative;
    - ``scatter`` ``(c*c,)``: for each Fock state, the flat ``(c, m)`` index
      of its orbit's representative;
    - ``occupation`` ``(2, c, m)``: (n1, n2) of each representative.
    """
    c, m = cutoff, cutoff // 2 + 1
    w, weight = np.zeros((c, m)), np.zeros((c, m))
    basis = np.zeros((c, m, m))
    reps = np.zeros((c, m), dtype=np.intp)
    scatter = np.empty((c, c), dtype=np.intp)  # skew-block order
    kept = [0] * c  # representatives placed in each block so far
    for b, slots, ws, vs in _sector_eigensystems(c):
        size = len(ws)
        half, mirror = (size + 1) // 2, vs[::-1]
        (even,) = np.nonzero(np.einsum("sk,sk->k", mirror, vs) > 0)
        at = slice(kept[b], kept[b] + half)
        # an even eigenvector is symmetric only to rounding; the mean over
        # each orbit keeps the weighted rotation norm-preserving to second order
        basis[b, at, at] = 0.5 * (vs[:half, even] + mirror[:half, even])
        w[b, at] = ws[even]
        weight[b, at] = 2.0
        weight[b, at.stop - 1] = 2.0 - size % 2  # an odd sector's middle slot is fixed
        reps[b, at] = np.arange(slots.start, slots.start + half)
        i = np.arange(size)
        scatter[b, slots] = b * m + kept[b] + np.minimum(i, size - 1 - i)
        kept[b] += half
    index = _sector_index(c)
    gather = np.take_along_axis(index, reps, axis=1)
    fock_scatter = np.empty(c * c, dtype=np.intp)
    fock_scatter[index] = scatter
    tables = (w, basis, weight, gather, fock_scatter, np.stack(np.divmod(gather, c)))
    for table in tables:
        table.setflags(write=False)
    return tables


def _exchange_tunnel(x: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """A tunnel-type gate on the representatives ``x`` ``(c, m)`` of a symmetric state.

    ``phases`` ``(c, m)`` are the gate's eigenphases on the even
    eigenvectors of :func:`_exchange_sectors`; the result is
    basis diag(phases) basis^T (weight x), zero on the padding.
    """
    _, basis, weight, *_ = _exchange_sectors(x.shape[0])
    y = np.matmul(basis.transpose(0, 2, 1), (x * weight)[..., None].view(np.float64))
    y = y.view(np.complex128)[..., 0]
    y *= phases
    return np.matmul(basis, y[..., None].view(np.float64)).view(np.complex128)[..., 0]


def jc_gate(g: float, cutoff: int, pair: tuple[int, int] = (0, 2)) -> LocalGate:
    """exp(-i g (sigma† a + sigma a†)) on one emitter-mode pair.

    ``g`` is the adimensional interaction time (coupling times duration).
    ``pair`` gives the (emitter, mode) factor indices; the defaults match
    the first pair of the emitter layout.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    angle = g * np.sqrt(np.arange(cutoff))
    return LocalGate("jc", tuple(pair), rabi=np.stack((np.cos(angle), np.sin(angle))),
                     identity=(g == 0.0))


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


@lru_cache(maxsize=64)
def _plan(kind: str, size: int, targets: tuple[int, ...] | None, layout: SubsystemLayout,
          shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only flat indices that apply one gate kind to a ``(k, *layout.dims)`` stack.

    ``size`` is the gate's dimension; the targets are checked here, once.
    diag: ``(index,)`` into the joint diagonal, broadcast over the stack.
    rabi: ``(partner, angle)``, the pair swap and the rabi column, n for
    |g,n> and |e,n-1>, 0 for the unpaired states.  basis: ``(gather,
    scatter)``, ``gather[b, n1, col]`` in skew-block order
    (:func:`_sector_index`) and its inverse, shaped like the stack.
    """
    targets = targets if targets is not None else layout.mode_indices
    if shape[1:] != layout.dims or not all(0 <= t < len(layout.dims) for t in targets):
        raise LayoutError(f"gate targets {targets} on a {shape} stack do not fit {layout}")
    if kind == "rabi":  # an emitter, then a mode: the angle table is (qubit, mode)
        fits = (len(targets) == 2 and targets[0] in layout.qubit_indices
                and targets[1] in layout.mode_indices and size == layout.cutoff)
    elif kind == "basis":
        fits = targets == layout.mode_indices and size == layout.cutoff
    else:  # a joint diagonal broadcasts over targets in increasing order
        fits = (all(a < b for a, b in zip(targets, targets[1:]))
                and math.prod(layout.dims[t] for t in targets) == size)
    if not fits:
        raise LayoutError(f"{kind} gate of size {size} does not act on factors {targets} "
                          f"of {layout}")
    axes = [t + 1 for t in targets]
    local = [shape[a] if a in axes else 1 for a in range(len(shape))]
    flat = np.arange(math.prod(shape)).reshape(shape)
    if kind == "diag":
        tables = (np.arange(size).reshape(local),)
    elif kind == "rabi":
        partner = flat.copy()
        swap, moved = (np.moveaxis(a, axes, (0, 1)) for a in (partner, flat))
        swap[0, 1:], swap[1, :-1] = moved[1, :-1], moved[0, 1:]
        n = np.arange(size)
        tables = (partner, np.stack((n, (n + 1) % size)).reshape(local))
    else:  # the modes are the last two axes
        gather = np.take(flat.reshape(-1, size * size).T, _sector_index(size), axis=0)
        tables = (gather, np.argsort(gather, axis=None).reshape(shape))
    for table in tables:
        table.setflags(write=False)
    return tables


def _apply_stack(gate: LocalGate, layout: SubsystemLayout, stack: np.ndarray) -> np.ndarray:
    """Apply a local gate to each tensor of a ``(k, *layout.dims)`` stack.

    The gate's cached :func:`_plan` does the axis bookkeeping.  The result
    is C-contiguous (``stack`` itself for an identity gate).
    """
    if gate.identity:
        return stack
    if gate.diag is not None:
        (index,) = _plan("diag", gate.diag.size, gate.targets, layout, stack.shape)
        return stack * gate.diag[index]
    if gate.rabi is not None:
        # out = cos x + (-i sin) x[partner] over every (|g,n>, |e,n-1>) pair
        partner, angle = _plan("rabi", gate.rabi.shape[1], gate.targets, layout, stack.shape)
        cos, sin = gate.rabi[:, angle]
        out = cos * stack
        swapped = np.take(stack, partner)
        swapped *= -1j * sin
        out += swapped
        return out
    # Gather the stack into skew-block order, rotate every block by its
    # eigenbasis with batched real matmuls on stacked re/im, scatter back.
    gather, scatter = _plan("basis", gate.basis.shape[1], gate.targets, layout, stack.shape)
    x = np.take(stack, gather).view(np.float64)
    y = np.matmul(gate.basis.transpose(0, 2, 1), x).view(np.complex128)
    y *= gate.phases[:, :, None]
    z = np.matmul(gate.basis, y.view(np.float64)).view(np.complex128)
    return np.take(z, scatter)


def apply(gate: LocalGate, state, layout: SubsystemLayout | None = None):
    """Apply a local gate, contracting only the target axes.

    ``state`` is a :class:`CompositeState`, or, with ``layout`` given, a
    ``(k, *layout.dims)`` stack of tensors that is pushed through as one
    array (returned as an array of the same shape).
    """
    if layout is not None:
        return _apply_stack(gate, layout, state)
    if gate.identity:
        return state
    out = _apply_stack(gate, state.layout, state.tensor()[None])
    return CompositeState(state.layout, out.reshape(-1), check_norm=False)


def evolve_continuous(kind: str, time: float, psi0: CompositeState) -> CompositeState:
    """Continuous nonlinear evolution at an adimensional time.

    ``kind="jc"`` applies the emitter-mode propagator to both pairs of the
    emitter layout; ``kind="kerr"`` applies the self-Kerr phase to both
    modes.  The two pairs act on disjoint factors, so per-pair gates
    compose to the exact joint propagator.
    """
    layout = psi0.layout
    if kind not in ("jc", "kerr"):
        raise ValueError(f"unknown evolution kind {kind!r}")
    if layout.emitters != (kind == "jc"):
        raise LayoutError(f"{kind} evolution does not run on {layout}")
    if kind == "jc":
        gates = [jc_gate(time, layout.cutoff, pair)
                 for pair in zip(layout.qubit_indices, layout.mode_indices)]
    else:
        gates = [kerr_gate(time, layout.cutoff, m) for m in layout.mode_indices]
    for gate in gates:
        psi0 = apply(gate, psi0)
    return psi0


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
