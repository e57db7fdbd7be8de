"""Truncated composite Hilbert spaces of two modes, with or without two emitters.

States are dense complex amplitude vectors, row-major with the leftmost
factor slowest.  Two layouts cover the protocols in this package: two
modes alone (Kerr), and two emitters followed by two modes
(Jaynes-Cummings), emitter i coupling to mode i.  Both modes share one
Fock cutoff and are always the last two factors, so a tensor reshapes
to (spectators, n1, n2) with no axis bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache

import numpy as np

QUBIT_DIM = 2
# the one unit-norm tolerance: on |psi| for states and factor vectors, on
# the square root of the total for probability tables
NORM_ATOL = 1e-6


class LayoutError(ValueError):
    """Operation applied to a state whose factor layout does not fit."""


class CutoffError(ValueError):
    """Requested amplitudes carry non-negligible weight above the cutoff."""


def check_unit_norm(norm: float, what: str = "state") -> None:
    """Raise ValueError unless ``norm`` is 1 within :data:`NORM_ATOL`; NaN never is."""
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise ValueError(f"{what} norm {norm:.9f} is not 1 within {NORM_ATOL:g}")


@dataclass(frozen=True)
class SubsystemLayout:
    """Two modes at Fock cutoff ``cutoff``, behind two emitters when ``emitters``.

    The factors are (mode, mode), or (qubit, qubit, mode, mode) with
    ``emitters``; dimension ``cutoff`` means occupations ``0 .. cutoff-1``.
    The derived properties are computed once per layout.
    """

    cutoff: int
    emitters: bool

    def __post_init__(self) -> None:
        if self.cutoff < 2:
            raise LayoutError(f"mode cutoff must be >= 2, got {self.cutoff}")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return (QUBIT_DIM,) * len(self.qubit_indices) + (self.cutoff, self.cutoff)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def mode_indices(self) -> tuple[int, ...]:
        return (len(self.qubit_indices), len(self.qubit_indices) + 1)

    @cached_property
    def qubit_indices(self) -> tuple[int, ...]:
        return (0, 1) if self.emitters else ()


def jc_layout(cutoff: int) -> SubsystemLayout:
    """Two emitters and two modes: (qubit, qubit, mode, mode)."""
    return SubsystemLayout(cutoff, emitters=True)


def kerr_layout(cutoff: int) -> SubsystemLayout:
    """Two modes: (mode, mode)."""
    return SubsystemLayout(cutoff, emitters=False)


@dataclass
class CompositeState:
    """Dense pure state over a :class:`SubsystemLayout`.

    ``amplitudes`` is a flat complex vector of length ``layout.total_dim``
    in row-major order (leftmost factor slowest).  Unit norm is checked
    at construction time; operations in this package preserve it.  Pass
    ``check_norm=False`` only for derivative vectors, which are honest
    tangent vectors rather than states.
    """

    layout: SubsystemLayout
    amplitudes: np.ndarray
    check_norm: InitVar[bool] = True

    def __post_init__(self, check_norm: bool) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.layout.total_dim,):
            raise LayoutError(
                f"amplitude vector has shape {amps.shape}, "
                f"layout needs ({self.layout.total_dim},)"
            )
        self.amplitudes = amps
        if check_norm:
            check_unit_norm(float(np.linalg.norm(amps)))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor (a view when possible)."""
        return self.amplitudes.reshape(self.layout.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def coherent_truncation_tail(alpha: complex, cutoff: int) -> float:
    """Photon-number weight of a coherent state above ``cutoff - 1``.

    Computed from the Poisson tail in log space so large ``|alpha|^2``
    does not overflow.
    """
    nbar = abs(alpha) ** 2
    if nbar == 0.0:
        return 0.0
    n = np.arange(cutoff)
    logp = -nbar + n * math.log(nbar) - np.array([math.lgamma(k + 1) for k in range(cutoff)])
    kept = float(np.exp(logp).sum())
    return max(0.0, 1.0 - kept)


@lru_cache(maxsize=64)
def default_cutoff(n_mean: float) -> int:
    """Smallest cutoff that is both >= 2N and truncation-clean.

    The working truncation is twice the mean photon number.  For small N
    that cutoff leaves a coherent-state tail above the 1e-6 guard, so it
    is raised to the first value the guard accepts.  Cached: each step of
    the search sums a Poisson tail, and sweeps ask once per call.
    """
    cutoff = max(int(math.ceil(2 * n_mean)), 4)
    alpha = math.sqrt(n_mean / 2.0)
    while coherent_truncation_tail(alpha, cutoff) > 1e-6:
        cutoff += 1
    return cutoff


def coherent_state(alpha: complex, cutoff: int, tail_tol: float = 1e-6) -> np.ndarray:
    """Truncated, renormalized coherent state amplitudes on one mode.

    Raises :class:`CutoffError` when the discarded tail weight exceeds
    ``tail_tol``; the caller should raise the cutoff instead of silently
    biasing photon-number moments.
    """
    tail = coherent_truncation_tail(alpha, cutoff)
    if tail > tail_tol:
        raise CutoffError(
            f"coherent state with |alpha|^2 = {abs(alpha)**2:.4g} keeps only "
            f"{1 - tail:.6f} of its weight below cutoff {cutoff}"
        )
    n = np.arange(cutoff)
    # amp_n = alpha^n / sqrt(n!) * e^{-|alpha|^2/2}, evaluated stably.
    log_mag = n * np.log(np.maximum(abs(alpha), 1e-300)) - 0.5 * np.array(
        [math.lgamma(k + 1) for k in range(cutoff)]
    ) - 0.5 * abs(alpha) ** 2
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(log_mag) * phase
    if abs(alpha) == 0.0:
        amps = np.zeros(cutoff, dtype=np.complex128)
        amps[0] = 1.0
    return amps / np.linalg.norm(amps)


def product_state(layout: SubsystemLayout, factor_vectors: list[np.ndarray]) -> CompositeState:
    """Tensor product of one unit-norm vector per layout factor."""
    if len(factor_vectors) != len(layout.dims):
        raise LayoutError(f"{len(factor_vectors)} factor vectors for {len(layout.dims)} factors")
    out = np.ones(1, dtype=np.complex128)
    for i, (vec, dim) in enumerate(zip(factor_vectors, layout.dims)):
        v = np.asarray(vec, dtype=np.complex128).ravel()
        if v.shape != (dim,):
            raise LayoutError(f"factor {i} needs dim {dim}, got {v.shape}")
        check_unit_norm(float(np.linalg.norm(v)), f"factor {i} vector")
        out = np.multiply.outer(out, v).ravel()
    return CompositeState(layout, out)


def reduce_to_mode(state: CompositeState, mode_index: int) -> np.ndarray:
    """Reduced density matrix of one mode, tracing out everything else.

    ``mode_index`` is 0 for the first mode and 1 for the second.  The
    result is validated: Hermitian, unit trace, and free of negative
    eigenvalues beyond numerical noise.
    """
    if mode_index not in (0, 1):
        raise LayoutError(f"mode index {mode_index} is not 0 or 1")
    # rho = Tr_rest |psi><psi|: move the kept axis first, flatten the rest.
    psi = np.moveaxis(state.tensor(), state.layout.mode_indices[mode_index], 0)
    d = psi.shape[0]
    mat = psi.reshape(d, -1)
    rho = mat @ mat.conj().T
    # each guard is written so that NaN fails it
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-10:
        raise ValueError("reduced density matrix is not Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= 1e-9:
        raise ValueError("reduced density matrix trace is not 1")
    if not np.linalg.eigvalsh(rho).min() >= -1e-9:
        raise ValueError("reduced density matrix has a negative eigenvalue")
    return rho
