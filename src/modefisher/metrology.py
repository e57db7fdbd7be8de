"""Fisher information, measurement models, and phase-estimation bounds.

Quantum Fisher information comes from the finite-difference fidelity of
the encoded pure-state family; an independent variance-of-generator
oracle cross-checks it.  Classical Fisher information is computed from
analytic probability derivatives for photon counting and for double
homodyne readout, optionally including projective emitter outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import apply
from .encoding import DEFAULT_PHI, PhaseFamily, _diff_number, beam_splitter_gate
from .hilbert import CompositeState

DEFAULT_DELTA = 1e-2
PROBABILITY_FLOOR = 1e-12
_COUNT_NORM_ATOL = 1e-6
_DENSITY_NORM_ATOL = 1e-4


class GridError(ValueError):
    """Quadrature grid violates its resolution or extent requirements."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Symmetric homodyne grid: ``points`` samples on [-x_max, x_max].

    ``x_max=None`` resolves to sqrt(2*cutoff)+4 at use time, comfortably
    past the classical turning point of the highest kept Fock state.
    """

    x_max: float | None = None
    points: int = 801

    def axis(self, cutoff: int) -> np.ndarray:
        x_max = self.x_max if self.x_max is not None else float(np.sqrt(2 * cutoff) + 4)
        if self.points < 201 or self.points % 2 == 0:
            raise GridError(f"grid needs >= 201 odd points, got {self.points}")
        if x_max < np.sqrt(2 * cutoff) + 3:
            raise GridError(
                f"x_max {x_max:.2f} below sqrt(2*cutoff)+3 = {np.sqrt(2*cutoff)+3:.2f}"
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
    kind: str
    phi: float
    delta_used: float | None = None


@dataclass(frozen=True)
class FisherBounds:
    """Inverse-Fisher reference levels at mean photon number N."""

    n_mean: float
    sql_inv_fi: float
    tfs_inv_fi: float
    hl_inv_fi: float


def bounds(n_mean: float) -> FisherBounds:
    """Shot-noise (1/N), twin-Fock (2/(N(N+2))), and Heisenberg (1/N^2) levels."""
    if n_mean <= 0:
        raise ValueError("n_mean must be positive")
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


def _quadrature_transform(cutoff: int, theta: float, x: np.ndarray) -> np.ndarray:
    """M[i, n] = <x_i|n>_theta = e^{i n theta} psi_n(x_i)."""
    h = _hermite_functions(cutoff, float(x[-1]), len(x))
    if theta == 0.0:
        return h.T.copy()
    return h.T * np.exp(1j * theta * np.arange(cutoff))[None, :]


def _mode_axes(state: CompositeState) -> tuple[int, ...]:
    return state.layout.mode_indices


def _marginal_axes(state: CompositeState, include_emitters: bool) -> tuple[int, ...]:
    if include_emitters:
        return ()
    return state.layout.qubit_indices


def counting_probabilities(state: CompositeState, include_emitters: bool = False) -> np.ndarray:
    """Fock-basis outcome probabilities, one axis per measured factor.

    Axes follow the layout order; emitter axes are summed out unless
    ``include_emitters`` is set.
    """
    p = np.abs(state.tensor()) ** 2
    drop = _marginal_axes(state, include_emitters)
    if drop:
        p = p.sum(axis=drop)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total:.12f}, expected 1")
    return p


def _homodyne_amplitudes(state: CompositeState, theta: float,
                         x: np.ndarray) -> np.ndarray:
    """Amplitude table with each mode axis rotated to the x^(theta) basis."""
    cutoff = state.layout.cutoff
    m = _quadrature_transform(cutoff, theta, x)
    amps = state.tensor()
    for axis in _mode_axes(state):
        amps = np.moveaxis(np.tensordot(m, amps, axes=(1, axis)), 0, axis)
    return amps


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    dx = x[1] - x[0]
    w = np.full(len(x), dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def homodyne_probabilities(state: CompositeState, theta: float,
                           grid: QuadratureGrid = QuadratureGrid(),
                           include_emitters: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Joint quadrature density on the grid, per emitter outcome if kept.

    Returns ``(x_axis, table)``; the table's mode axes are quadrature
    samples and it trapezoid-integrates to 1.  Raises :class:`GridError`
    when the grid leaves a normalization deficit above 1e-4.
    """
    x = grid.axis(state.layout.cutoff)
    amps = _homodyne_amplitudes(state, theta, x)
    p = np.abs(amps) ** 2
    drop = _marginal_axes(state, include_emitters)
    if drop:
        p = p.sum(axis=drop)
    w = _trapezoid_weights(x)
    total = _integrate_modes(p, w, n_leading=p.ndim - 2)
    if abs(total - 1.0) > _DENSITY_NORM_ATOL:
        raise GridError(f"density integrates to {total:.6f}; grid too small")
    return x, p


def _integrate_modes(table: np.ndarray, w: np.ndarray, n_leading: int) -> float:
    """Sum leading outcome axes, trapezoid the two trailing mode axes."""
    out = np.tensordot(table, w, axes=(table.ndim - 1, 0))
    out = np.tensordot(out, w, axes=(out.ndim - 1, 0))
    return float(out.sum()) if n_leading else float(out)


def cfi(family: PhaseFamily, model: MeasurementModel) -> FisherResult:
    """Classical Fisher information of the measured encoded family.

    Probability derivatives are analytic: dP = 2 Re[conj(amp) damp] with
    ``damp`` the exact phase derivative propagated through the (phase-
    independent) measurement transform.  Outcomes below the probability
    floor are skipped.

    Homodyne angles are referenced to the local-oscillator frame locked
    to the carrier leaving the phase stage: a physical plate shifts one
    arm by the full phi, so the carrier picks up the common-mode half
    on top of the differential encoding.  The quadrature transform
    therefore runs at ``model.theta - phi/2``, with phi frozen at the
    operating point (the frame does not rotate with the infinitesimal
    phase deviation being estimated).
    """
    state, deriv = family.state, family.derivative
    if model.kind == "counting":
        amp = state.tensor()
        damp = deriv.tensor()
        p = np.abs(amp) ** 2
        dp = 2.0 * (amp.conj() * damp).real
        drop = _marginal_axes(state, model.include_emitters)
        if drop:
            p = p.sum(axis=drop)
            dp = dp.sum(axis=drop)
        total = p.sum()
        if abs(total - 1.0) > _COUNT_NORM_ATOL:
            raise ValueError(f"probabilities sum to {total:.9f}, expected 1")
        mask = p > PROBABILITY_FLOOR
        value = float((dp[mask] ** 2 / p[mask]).sum())
        return FisherResult(max(value, 0.0), "cfi", family.phi)

    x = model.grid.axis(state.layout.cutoff)
    theta_frame = model.theta - 0.5 * family.phi
    amp = _homodyne_amplitudes(state, theta_frame, x)
    damp = _homodyne_amplitudes(deriv, theta_frame, x)
    p = np.abs(amp) ** 2
    dp = 2.0 * (amp.conj() * damp).real
    drop = _marginal_axes(state, model.include_emitters)
    if drop:
        p = p.sum(axis=drop)
        dp = dp.sum(axis=drop)
    w = _trapezoid_weights(x)
    total = _integrate_modes(p, w, n_leading=p.ndim - 2)
    if abs(total - 1.0) > _DENSITY_NORM_ATOL:
        raise GridError(f"density integrates to {total:.6f}; grid too small")
    mask = p > PROBABILITY_FLOOR
    quot = np.zeros_like(p)
    quot[mask] = dp[mask] ** 2 / p[mask]
    # Trapezoid over both quadrature axes, plain sum over emitter outcomes.
    weighted = np.tensordot(np.tensordot(quot, w, axes=(quot.ndim - 1, 0)),
                            w, axes=(-1, 0))
    value = float(np.sum(weighted))
    return FisherResult(max(value, 0.0), "cfi", family.phi)


def qfi_fidelity(probe: CompositeState, phi: float = DEFAULT_PHI,
                 delta: float = DEFAULT_DELTA) -> FisherResult:
    """QFI from the fidelity drop between nearby encoded states.

    F_Q = 8 (1 - |<psi_E(phi)|psi_E(phi+delta)>|) / delta^2 for the pure
    encoded family.  With chi = BS |psi_P>, the overlap is
    <chi| PD(delta) |chi> = sum |chi|^2 exp(-i delta (n2 - n1)/2): the
    outer beam splitter and the phase stage at phi cancel, so it takes one
    beam splitter and a diagonal sum, and it does not depend on phi
    (``phi`` only labels the result).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if abs(np.linalg.norm(probe.amplitudes) - 1.0) > 1e-6:
        raise ValueError("probe must be unit norm")
    chi = apply(beam_splitter_gate(probe.layout.cutoff), probe)
    p = np.abs(chi.tensor()) ** 2
    overlap = abs(np.sum(p * np.exp(-0.5j * delta * _diff_number(chi))))
    value = 8.0 * (1.0 - overlap) / delta**2
    return FisherResult(max(value, 0.0), "qfi", phi, delta_used=delta)


def qfi_variance_oracle(probe: CompositeState, phi: float = DEFAULT_PHI) -> FisherResult:
    """Independent QFI route: 4 Var(G) on the beam-split probe.

    For unitary encoding with generator G = (n2 - n1)/2 conjugated by the
    first beam splitter, the QFI of the pure family is exactly
    4 (<G^2> - <G>^2); no finite difference is involved.
    """
    chi = apply(beam_splitter_gate(probe.layout.cutoff), probe)
    g = 0.5 * _diff_number(chi)
    p = np.abs(chi.tensor()) ** 2
    mean = float((g * p).sum())
    second = float((g * g * p).sum())
    return FisherResult(max(4.0 * (second - mean * mean), 0.0), "qfi", phi)
