"""Truncated composite Hilbert spaces for qubit and oscillator factors.

States are dense complex amplitude vectors over an ordered factor list,
row-major with the leftmost factor slowest.  Two layouts cover the
protocols in this package: two emitters followed by two modes, and two
modes alone.
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
    """Raise ValueError unless ``norm`` is 1 within :data:`NORM_ATOL`."""
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"{what} norm {norm:.9f} is not 1 within {NORM_ATOL:g}")


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered factor list defining a composite space.

    Each factor is a ``(kind, dim)`` pair with ``kind`` one of
    ``"qubit"`` or ``"mode"``.  Qubits always have dimension 2; modes
    carry the Fock cutoff (dimension ``cutoff`` means occupations
    ``0 .. cutoff-1``).  The derived properties are computed once per
    layout; equality and hashing depend on ``factors`` alone.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for kind, dim in self.factors:
            if kind not in ("qubit", "mode"):
                raise LayoutError(f"unknown factor kind {kind!r}")
            if kind == "qubit" and dim != QUBIT_DIM:
                raise LayoutError(f"qubit factor must have dim 2, got {dim}")
            if kind == "mode" and dim < 2:
                raise LayoutError(f"mode cutoff must be >= 2, got {dim}")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def mode_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (kind, _) in enumerate(self.factors) if kind == "mode")

    @cached_property
    def qubit_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (kind, _) in enumerate(self.factors) if kind == "qubit")

    @cached_property
    def cutoff(self) -> int:
        """Common Fock cutoff of the mode factors."""
        cuts = {dim for kind, dim in self.factors if kind == "mode"}
        if len(cuts) != 1:
            raise LayoutError("layout has no single mode cutoff")
        return cuts.pop()


def jc_layout(cutoff: int) -> SubsystemLayout:
    """Two emitters and two modes: (qubit, qubit, mode, mode)."""
    return SubsystemLayout(
        (("qubit", QUBIT_DIM), ("qubit", QUBIT_DIM), ("mode", cutoff), ("mode", cutoff))
    )


def kerr_layout(cutoff: int) -> SubsystemLayout:
    """Two modes: (mode, mode)."""
    return SubsystemLayout((("mode", cutoff), ("mode", cutoff)))


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
    if len(factor_vectors) != len(layout.factors):
        raise LayoutError(
            f"{len(factor_vectors)} factor vectors for {len(layout.factors)} factors"
        )
    out = np.ones(1, dtype=np.complex128)
    for vec, (kind, dim) in zip(factor_vectors, layout.factors):
        v = np.asarray(vec, dtype=np.complex128).ravel()
        if v.shape != (dim,):
            raise LayoutError(f"{kind} factor needs dim {dim}, got {v.shape}")
        check_unit_norm(float(np.linalg.norm(v)), f"{kind} factor vector")
        out = np.kron(out, v)
    return CompositeState(layout, out)


def inner_product(a: CompositeState, b: CompositeState) -> complex:
    """<a|b> with the conjugate on the first argument."""
    if a.layout != b.layout:
        raise LayoutError("inner product between different layouts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def reduce_to_mode(state: CompositeState, mode_index: int) -> np.ndarray:
    """Reduced density matrix of one mode, tracing out everything else.

    ``mode_index`` counts mode factors only (0 is the first mode in the
    layout).  The result is validated: Hermitian, unit trace, and free of
    negative eigenvalues beyond numerical noise.
    """
    modes = state.layout.mode_indices
    if not 0 <= mode_index < len(modes):
        raise LayoutError(f"mode index {mode_index} out of range for {len(modes)} modes")
    axis = modes[mode_index]
    psi = state.tensor()
    # rho = Tr_rest |psi><psi|: move the kept axis first, flatten the rest.
    psi = np.moveaxis(psi, axis, 0)
    d = psi.shape[0]
    mat = psi.reshape(d, -1)
    rho = mat @ mat.conj().T
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("reduced density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("reduced density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("reduced density matrix has a negative eigenvalue")
    return rho


def destroy(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator at the given cutoff."""
    a = np.zeros((cutoff, cutoff))
    idx = np.arange(1, cutoff)
    a[idx - 1, idx] = np.sqrt(idx)
    return a


def number_op(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff, dtype=float))
