"""Single-mode Wigner quasiprobability grids from density matrices.

Convention matches the quadrature X(0) = (a† + a)/sqrt(2), hbar = 1:
a coherent state alpha peaks at (x, p) = (sqrt(2) Re alpha, sqrt(2) Im alpha)
and the vacuum is W(x, p) = (1/pi) exp(-x^2 - p^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre

from .metrology import GridError

_IMAG_RESIDUE_ATOL = 1e-10


@dataclass(frozen=True)
class WignerGrid:
    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray  # values[i, j] = W(x_axis[j], p_axis[i])

    def integral(self) -> float:
        dx = self.x_axis[1] - self.x_axis[0]
        dp = self.p_axis[1] - self.p_axis[0]
        return float(np.trapezoid(np.trapezoid(self.values, dx=dx, axis=1), dx=dp))


def default_axes(half_width: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """The same ``points`` samples of [-half_width, half_width] for x and p."""
    axis = np.linspace(-half_width, half_width, points)
    return axis, axis.copy()


def wigner(rho: np.ndarray, x_axis: np.ndarray, p_axis: np.ndarray) -> WignerGrid:
    """Wigner function of a single-mode density matrix on a cartesian grid.

    Uses the Fock-basis kernel: for m >= n,

        W_mn = (1/pi) (-1)^n sqrt(2^(m-n) n!/m!) (x - ip)^(m-n)
               e^{-(x^2+p^2)} L_n^{(m-n)}(2(x^2+p^2))

    and Hermiticity for m < n, so only the upper triangle is summed.
    Raises :class:`GridError` when the grid misses more than 1e-2 of the
    distribution's weight.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if rho.shape != (dim, dim):
        raise ValueError("density matrix must be square")
    x = np.asarray(x_axis, dtype=float)
    p = np.asarray(p_axis, dtype=float)
    beta = x[None, :] - 1j * p[:, None]
    r2 = (x[None, :] ** 2 + p[:, None] ** 2)
    grid = WignerGrid(x, p, _accumulate(rho, beta, 2.0 * r2, np.exp(-r2) / np.pi))
    deficit = abs(grid.integral() - float(np.trace(rho).real))
    if deficit > 1e-2:
        raise GridError(f"Wigner grid misses {deficit:.3e} of the weight; enlarge it")
    return grid


def _accumulate(rho: np.ndarray, beta: np.ndarray, lag_arg: np.ndarray,
                envelope: np.ndarray) -> np.ndarray:
    dim = rho.shape[0]
    acc = np.zeros(beta.shape, dtype=complex)
    beta_pow = np.ones_like(beta)
    for k in range(dim):
        if k > 0:
            beta_pow = beta_pow * beta
        for n in range(dim - k):
            m = n + k
            entry = rho[m, n]
            if entry == 0 and (k == 0 or rho[n, m] == 0):
                continue
            coef = (-1.0) ** n * math.exp(
                0.5 * (k * math.log(2.0) + math.lgamma(n + 1) - math.lgamma(m + 1))
            )
            lag = eval_genlaguerre(n, k, lag_arg)
            if k == 0:
                acc += entry * coef * lag
            else:
                # rho_mn W_mn + rho_nm W_nm with W_nm = conj(W_mn)
                acc += (entry * beta_pow + rho[n, m] * beta_pow.conj()) * (coef * lag)
    acc *= envelope
    if np.max(np.abs(acc.imag)) > _IMAG_RESIDUE_ATOL:
        raise ValueError("Wigner sum left an imaginary residue; input not Hermitian?")
    return acc.real
