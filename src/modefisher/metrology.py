"""Fisher information, measurement models, and phase-estimation bounds.

Quantum Fisher information is a property of the probe alone: for the
pure unitary family it does not depend on the operating phase, so both
QFI routes take only the probe.  The fidelity drop over a fixed small
phase step is the estimator.  The route follows the type of the probe,
not its contents.  The callers that build |alpha, alpha> themselves (the
Kerr preparation search and :func:`~modefisher.optimize.best_by_qfi`)
hold an exchange-symmetric Kerr probe as its exchange representatives
(:mod:`modefisher.circuits`) and hand those over; they are read in one
half-size kernel.  A :class:`CompositeState` may have any symmetry, so it
is read from the rotated probe that the encoded family also uses
(:mod:`modefisher.encoding`).
An independent variance-of-generator oracle cross-checks it on
chi = BS |psi_P> from the beam-splitter gate.
Classical Fisher information is computed from analytic probability
derivatives for photon counting and for double homodyne readout,
optionally including projective emitter outcomes.  The modes are the
last two axes of every state (:mod:`modefisher.hilbert`), so amplitudes
reshape to (emitter outcome, n1, n2) and every probability table keeps
that order: emitter axes first, then the two modes or quadratures.

Homodyne readout has one transform path, in :func:`cfi`.  The
quadrature angle is applied as the Fock-side phase e^{i theta (n1 + n2)}
on the amplitudes, so the cached oscillator-eigenfunction table stays
real.  Both modes then contract with it as real GEMMs, one block of x1
rows at a time, and no full complex (outcome, x1, x2) table is ever
built.

:func:`cfi` contracts only a support window of the grid.  After the
mode-1 GEMM each outcome's amplitude is
a_q(x1, x2) = sum_n half_q[x1, n] psi_n(x2), so by Cauchy-Schwarz
p(x1, x2) <= sum_q |half_q[x1, :]|^2 K(x2) <= R(x1), with
K(x) = sum_n psi_n(x)^2, Kmax its largest value on the grid and
R(x1) = Kmax sum_q |half_q[x1, :]|^2 = Kmax h(x1)^T (sum_p P_p P_p^T) h(x1),
P_p running over the real and imaginary (n1, n2) planes of every outcome
and h(x) = (psi_n(x))_n; C(x2) is the same form with P_p^T P_p.  Both
come from c x c Gram matrices, with rounding below c eps Kmax.  Every
cell outside the contiguous rows x columns where R and C reach
PROBABILITY_FLOOR/2 has p below the floor, so it adds exactly 0 to the
Fisher sum; the factor 1/2 leaves room for rounding.  The window only
reorders the Fisher sum and drops less than PROBABILITY_FLOOR/2 per cell
from the normalization total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import _exchange_sectors, _exchange_tunnel
from .encoding import (PhaseFamily, _diff_number, _phase_in_slots, _rotated_probe, _spread,
                       beam_split)
from .hilbert import CompositeState, LayoutError, check_unit_norm

PROBABILITY_FLOOR = 1e-12
_DENSITY_NORM_ATOL = 1e-4
# phase step of the fidelity estimator
_FIDELITY_DELTA = 1e-2
# x1 rows per homodyne GEMM block: at cutoff 40, 579 points and four
# emitter outcomes the block's mode-2 buffer of state and derivative
# planes is 2.4 MB (3.3 MB at 801 points; less once cfi narrows the
# columns to the window)
_ROW_BLOCK = 32


class GridError(ValueError):
    """Quadrature grid violates its resolution or extent requirements."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Symmetric homodyne grid: ``points`` samples on [-x_max, x_max].

    ``x_max=None`` resolves to sqrt(2*cutoff)+4 at use time, comfortably
    past the classical turning point of the highest kept Fock state.

    The default of 579 points keeps homodyne CFI within 3e-3 relative of
    a 2401-point grid on the probes and measurement circuits of the
    stored Kerr N=20 runs and on the JC and Kerr theta-sweep probes at
    N = 8..20.  The error does not fall monotonically with the count: it
    oscillates over 15 to 30 points, so below 579 some counts pass and
    their neighbours fail.  579 is the smallest count from which every
    odd count up to 801 meets the tolerance.  The spacing
    2 x_max / (points - 1) grows with the cutoff, so a fixed count is
    validated only up to cutoff 40.
    """

    x_max: float | None = None
    points: int = 579

    def axis(self, cutoff: int) -> np.ndarray:
        x_max = self.x_max if self.x_max is not None else float(np.sqrt(2 * cutoff) + 4)
        if self.points < 201 or self.points % 2 == 0:
            raise GridError(f"grid needs >= 201 odd points, got {self.points}")
        if not math.isfinite(x_max) or x_max < np.sqrt(2 * cutoff) + 3:
            raise GridError(
                f"x_max {x_max:.2f} must be finite and >= sqrt(2*cutoff)+3 = "
                f"{np.sqrt(2*cutoff)+3:.2f}"
            )
        return np.linspace(-x_max, x_max, self.points)


@dataclass(frozen=True)
class MeasurementModel:
    """Readout description: photon counting or double homodyne.

    ``include_emitters`` adds the projective emitter outcomes to the
    probability table (meaningful only for layouts with qubit factors);
    otherwise emitter outcomes are marginalized out.
    """

    kind: str = "counting"
    include_emitters: bool = False
    theta: float = 0.0
    grid: QuadratureGrid = QuadratureGrid()

    def __post_init__(self) -> None:
        if self.kind not in ("counting", "homodyne"):
            raise ValueError(f"unknown measurement kind {self.kind!r}")


@dataclass(frozen=True)
class FisherResult:
    value: float


@dataclass(frozen=True)
class FisherBounds:
    """Inverse-Fisher reference levels at mean photon number N."""

    n_mean: float
    sql_inv_fi: float
    tfs_inv_fi: float
    hl_inv_fi: float


def bounds(n_mean: float) -> FisherBounds:
    """Shot-noise (1/N), twin-Fock (2/(N(N+2))), and Heisenberg (1/N^2) levels."""
    if not (math.isfinite(n_mean) and n_mean > 0):
        raise ValueError(f"n_mean must be positive and finite, got {n_mean}")
    n = float(n_mean)
    return FisherBounds(n, 1.0 / n, 2.0 / (n * (n + 2.0)), 1.0 / n**2)


def inverse_fisher(f: float) -> float:
    """1/F, the phase variance bound; ``inf`` when F is not positive."""
    return 1.0 / f if f > 0 else float("inf")


@lru_cache(maxsize=32)
def _hermite_functions(cutoff: int, x_max: float, points: int) -> np.ndarray:
    """Matrix H[n, i] = psi_n(x_i) of oscillator eigenfunctions on the grid.

    Unit mass and frequency, so X(0) = (a† + a)/sqrt(2); upward recurrence
    psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2} is stable here.
    """
    x = np.linspace(-x_max, x_max, points)
    h = np.empty((cutoff, points))
    h[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if cutoff > 1:
        h[1] = np.sqrt(2.0) * x * h[0]
    for n in range(2, cutoff):
        h[n] = np.sqrt(2.0 / n) * x * h[n - 1] - np.sqrt((n - 1) / n) * h[n - 2]
    h.setflags(write=False)
    return h


def _angle_phase(cutoff: int, theta: float) -> np.ndarray:
    """The ``(c, c)`` Fock-side phase e^{i theta (n1 + n2)} of the x^(theta) basis."""
    n = np.arange(cutoff)
    return np.exp(1j * theta * (n[:, None] + n[None, :]))


def _counting_table(amps: np.ndarray, drop: tuple[int, ...]) -> np.ndarray:
    """|amps|^2 summed over the axes ``drop``, checked to total 1."""
    p = np.abs(amps) ** 2
    if drop:
        p = p.sum(axis=drop)
    check_unit_norm(math.sqrt(p.sum()), "counting table")
    return p


@lru_cache(maxsize=32)
def _hermite_kmax(cutoff: int, x_max: float, points: int) -> float:
    """max_i K(x_i) with K(x) = sum_n psi_n(x)^2, the support window's factor."""
    h = _hermite_functions(cutoff, x_max, points)
    return float(np.einsum("ni,ni->i", h, h).max())


def _support(weight: np.ndarray) -> slice | None:
    """Smallest slice holding every index whose bound reaches PROBABILITY_FLOOR/2."""
    (kept,) = np.nonzero(weight >= 0.5 * PROBABILITY_FLOOR)
    return slice(kept[0], kept[-1] + 1) if len(kept) else None


def _aligned(size: int) -> np.ndarray:
    """Empty float64 buffer on a 64-byte boundary (GEMMs into it ran faster)."""
    buf = np.empty(size + 8)
    return buf[(-buf.ctypes.data % 64) // 8:][:size]


def _quadrature_blocks(tables: np.ndarray, x: np.ndarray):
    """Quadrature amplitudes of Fock-order tables, one block of x1 rows at a time.

    ``tables[k, q, n1, n2]`` is the amplitude of state k and outcome q,
    already rotated to the x^(theta) basis by the Fock-side phase
    e^{i theta (n1 + n2)} (:func:`_angle_phase`), so both modes contract
    with the real table H[n, i] = psi_n(x_i), block by block of x1 rows:
    mode 1 as one batched real GEMM over every state, real or imaginary
    part and outcome, mode 2 as one tall GEMM.  Yields
    ``(rows, cols, amps)`` with ``amps[k, part, q, r, j]`` the real
    (part 0) or imaginary (part 1) amplitude of state k and outcome q at
    (x1, x2) = (x[rows][r], x[cols][j]).  ``amps`` is one buffer reused by
    every block, so it is valid only until the next block is drawn.

    Rows and columns span the support window of state 0, outside which
    its density is certified below PROBABILITY_FLOOR/2 (see the module
    docstring); no block is yielded when the window is empty.
    """
    cutoff = tables.shape[-1]
    planes = np.stack((tables.real, tables.imag), axis=1)    # (k, part, q, n1, n2)
    lead = planes.shape[:3]
    planes = planes.reshape(-1, cutoff, cutoff)
    h = _hermite_functions(cutoff, float(x[-1]), len(x))
    first = planes[:2 * lead[2]]                              # planes of the first state
    kmax = _hermite_kmax(cutoff, float(x[-1]), len(x))
    # p(x1, x2) <= K(x2) h_x1^T (sum_p P_p P_p^T) h_x1 <= row bound, and
    # likewise for columns with P_p^T P_p
    by_n1, by_n2 = (np.moveaxis(first, a, 0).reshape(cutoff, -1) for a in (1, 2))
    row_bound = kmax * np.einsum("ni,ni->i", h, (by_n1 @ by_n1.T) @ h)
    col_bound = kmax * np.einsum("ni,ni->i", h, (by_n2 @ by_n2.T) @ h)
    rows, cols = _support(row_bound), _support(col_bound)
    if rows is None or cols is None:
        return
    h_cols = h[:, cols]
    # one mode-1 and one mode-2 buffer, sized by the first (largest) block
    size = planes.shape[0] * min(_ROW_BLOCK, rows.stop - rows.start)
    half, out = _aligned(size * cutoff), _aligned(size * h_cols.shape[1])
    for start in range(rows.start, rows.stop, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, rows.stop)
        n = planes.shape[0] * (stop - start)                 # planes x rows
        block = np.matmul(h[:, start:stop].T, planes,    # (planes, rows, n2)
                          out=half[:n * cutoff].reshape(planes.shape[0], -1, cutoff))
        amps = np.matmul(block.reshape(n, cutoff), h_cols,
                         out=out[:n * h_cols.shape[1]].reshape(n, -1))
        yield slice(start, stop), cols, amps.reshape(*lead, stop - start, -1)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    dx = x[1] - x[0]
    w = np.full(len(x), dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def _check_density(total: float) -> None:
    if not abs(total - 1.0) <= _DENSITY_NORM_ATOL:
        raise GridError(f"density integrates to {total:.6f}; grid too small")


def cfi(family: PhaseFamily, model: MeasurementModel) -> FisherResult:
    """Classical Fisher information of the measured encoded family.

    Probability derivatives are analytic: dP = 2 Re[conj(amp) damp] with
    ``damp`` the exact phase derivative propagated through the (phase-
    independent) measurement transform.  Outcomes below the probability
    floor are skipped.

    Photon counting sums over every cell, so it reads the cells in any
    order: it reads the family's skew-block stack z as it is, emitter
    outcomes on axis 2.  z lacks only the phase Q†, which is the same on
    a cell's amplitude and its derivative, so |amp|^2 and
    Re[conj(amp) damp] are those of Fock order.  The kernel checks that
    the probabilities total 1 and applies the floor.

    Homodyne angles are referenced to the local-oscillator frame locked
    to the carrier leaving the phase stage: a physical plate shifts one
    arm by the full phi, so the carrier picks up the common-mode half
    on top of the differential encoding.  The quadrature transform
    therefore runs at ``model.theta - phi/2``, with phi frozen at the
    operating point (the frame does not rotate with the infinitesimal
    phase deviation being estimated).

    Homodyne readout takes z to Fock order with one ``take``
    (:meth:`~modefisher.encoding.PhaseFamily.fock`), then multiplies by
    Q† and by the angle phase e^{i theta (n1 + n2)}, in that order; the
    family's ``state`` and ``derivative`` views are never built.  The
    kernel never builds a full complex quadrature table.  The angle is a
    Fock-side phase, so the state and its derivative contract with the
    real Hermite table as real GEMMs (:func:`_quadrature_blocks`), mode 2
    in blocks of x1 rows, over the support window only: the cells
    outside it are certified by Cauchy-Schwarz to lie below
    PROBABILITY_FLOOR/2 (see the module docstring), so they add nothing.
    Each block forms p and dp in place in its amplitude buffer, sums the
    emitter outcomes when they are marginalized, and adds its trapezoid-
    weighted share of the Fisher sum and of the normalization total.  An
    empty window leaves a total of 0, which fails the density check.
    """
    layout = family.layout
    marginal = layout.emitters and not model.include_emitters
    if model.kind == "counting":
        amp, damp = family.skew[..., 0], family.skew[..., 1]
        drop = (2,) if marginal else ()
        p = _counting_table(amp, drop)
        dp = 2.0 * (amp.conj() * damp).real
        if drop:
            dp = dp.sum(axis=drop)
        mask = p > PROBABILITY_FLOOR
        value = float((dp[mask] ** 2 / p[mask]).sum())
        return FisherResult(max(value, 0.0))

    cutoff = layout.cutoff
    x = model.grid.axis(cutoff)
    w = _trapezoid_weights(x)
    tables = family.fock().reshape(2, -1, cutoff, cutoff)
    tables *= _angle_phase(cutoff, model.theta - 0.5 * family.phi)
    value = total = 0.0
    for rows, cols, ((a, b), (c, d)) in _quadrature_blocks(tables, x):
        # p and dp/2 overwrite the block's amplitude planes in place; the
        # factor 2 of dp enters the finished sum as 4, an exact scaling
        c *= a
        d *= b
        dp = np.add(c, d, out=c)
        a *= a
        b *= b
        p = np.add(a, b, out=a)
        if marginal:
            p = np.sum(p, axis=0, out=b[0])
            dp = np.sum(dp, axis=0, out=d[0])
        dp *= dp
        kept = p > PROBABILITY_FLOOR
        quot = np.divide(dp, p, out=dp, where=kept)
        quot *= kept
        # trapezoid over both quadrature axes, plain sum over emitter outcomes
        value += float(np.sum(quot @ w[cols] @ w[rows]))
        total += float(np.sum(p @ w[cols] @ w[rows]))
    _check_density(total)
    return FisherResult(max(4.0 * value, 0.0))


@lru_cache(maxsize=None)
def _symmetric_tables(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(split, drop) at the exchange representatives of
    :func:`~modefisher.dynamics._exchange_sectors` (cached, read-only).

    ``split`` ``(c, m)`` holds the beam splitter's eigenphases
    exp(-i (pi/4) w) on the even tunnel eigenvectors.  ``drop`` ``(c, m, 2)``
    holds weight (1 - cos(delta (n2 - n1)/2)), written as 2 sin^2 so that no
    digits cancel, once for the real and once for the imaginary part, and
    0 on the padding.
    """
    w, _, weight, _, _, (n1, n2) = _exchange_sectors(cutoff)
    split = np.exp(-1j * (np.pi / 4) * w)
    drop = 2.0 * weight * np.sin(0.25 * _FIDELITY_DELTA * (n2 - n1)) ** 2
    tables = (split, np.repeat(drop, 2).reshape(*drop.shape, 2))
    for table in tables:
        table.setflags(write=False)
    return tables


def _symmetric_deficit(x: np.ndarray) -> tuple[float, float]:
    """(1 - overlap, |psi|^2) of the exchange-symmetric state whose
    representatives are ``x`` ``(c, m)``.

    BS is the tunnel gate at j = pi/4, which commutes with the exchange, so
    chi is one half-size rotation of x.  |psi|^2 is summed over the state
    in Fock order, which one take rebuilds from x.
    """
    cutoff = x.shape[0]
    split, drop = _symmetric_tables(cutoff)
    amps = np.take(x, _exchange_sectors(cutoff)[4]).view(np.float64)
    norm2 = np.square(amps, out=amps).sum()
    chi = _exchange_tunnel(x, split).view(np.float64)
    return (1.0 - norm2) + np.vdot(chi * chi, drop), norm2


def qfi_fidelity(probe: CompositeState | np.ndarray) -> FisherResult:
    """QFI of the probe from the fidelity drop between nearby encoded states.

    F_Q = 8 (1 - |<psi_E(phi)|psi_E(phi+delta)>|) / delta^2 for the pure
    encoded family, with the fixed step delta = 1e-2.  With chi = BS |psi_P>,
    the overlap is <chi| PD(delta) |chi> = sum |chi|^2 exp(-i delta (n2 - n1)/2):
    the outer beam splitter and the phase stage at phi cancel, so the value
    is the same at every operating phase.  chi is never scattered back to
    Fock order, and the probe's norm squared is checked against 1.

    - Exchange representatives, the complex ``(c, c//2 + 1)`` array that
      the callers building |alpha, alpha> hold, are read at one amplitude
      per exchange orbit (:func:`_symmetric_deficit`).  BS is the tunnel
      gate at j = pi/4, which commutes with the exchange, so it runs as a
      half-size rotation there (:func:`~modefisher.dynamics._exchange_tunnel`)
      and chi is symmetric.  The two members of an orbit share |chi|^2,
      and their phases add to cos(delta (n2 - n1)/2), so the overlap is
      real and 1 - overlap = (1 - |psi_P|^2) + sum |chi|^2 (1 - cos(...)),
      each orbit counted by its size.  The norm is summed over the probe
      in Fock order and the sum from a table without cancellation, so the
      rotation's rounding enters only that sum, of order F delta^2 / 8.
    - A :class:`CompositeState` reads |chi|^2 from the rotated probe
      y = Q chi in skew-block order (:func:`_rotated_probe`; Q is a phase,
      so |y| = |chi|), weighted by PD(delta) in the same order.  The
      rotation is unitary, so the total of |y|^2 is the probe's norm
      squared.
    """
    if isinstance(probe, np.ndarray):
        c = probe.shape[0] if probe.ndim == 2 else 0
        if probe.dtype != np.complex128 or probe.shape != (c, c // 2 + 1):
            raise LayoutError(f"a {probe.dtype} array of shape {probe.shape} is not the "
                              "complex (c, c//2 + 1) table of exchange representatives")
        deficit, norm2 = _symmetric_deficit(probe)
    else:
        p = np.abs(_rotated_probe(probe)) ** 2
        norm2 = p.sum()
        phases = _phase_in_slots(_FIDELITY_DELTA, probe.layout.cutoff)
        deficit = 1.0 - abs(np.sum(p * _spread(phases, p.shape[2])))
    check_unit_norm(math.sqrt(norm2), "probe")
    value = 8.0 * deficit / _FIDELITY_DELTA**2
    return FisherResult(max(value, 0.0))


def qfi_variance_oracle(probe: CompositeState) -> FisherResult:
    """Independent QFI route: 4 Var(G) on the beam-split probe.

    For unitary encoding with generator G = (n2 - n1)/2 conjugated by the
    first beam splitter, the QFI of the pure family is exactly
    4 (<G^2> - <G>^2); no finite difference is involved.
    """
    chi = beam_split(probe)
    g = 0.5 * _diff_number(chi.layout.cutoff)
    p = np.abs(chi.tensor()) ** 2
    mean = float((g * p).sum())
    second = float((g * g * p).sum())
    return FisherResult(max(4.0 * (second - mean * mean), 0.0))
