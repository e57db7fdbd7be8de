"""Sweeps over continuous evolution, extremum detection, and fits.

This module reproduces the survey side of the study: inverse-QFI curves
against interaction time, locations of their minima, the interaction time
needed to match the twin-Fock benchmark, scaling fits, and quadrature-
angle sweeps for homodyne readout.  A sweep point that reads a CFI builds
the encoded family of its probe and takes the QFI from that family, which
carries the rotated probe (:mod:`modefisher.encoding`), so the probe is
rotated once per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import coherent_input_state, evolve_continuous
from .encoding import DEFAULT_PHI, encoded_family
from .hilbert import default_cutoff
from .metrology import MeasurementModel, cfi, inverse_fisher, qfi_fidelity

# (tmax, tstep) of each kind's default sweep grid
TIME_GRID_BOUNDS = {"jc": (30.0, 0.1), "kerr": (2 * np.pi, np.pi / 200)}
# angles of the default quadrature-angle grid on [0, 2 pi]
THETA_POINTS = 257

# Allowance below the twin-Fock QFI, in Fisher units, that counts as
# reaching it.  The evolved QFI approaches the twin-Fock value from below
# without touching it (the gap closes like the squared pair coherence of
# the single-mode state), so a strict threshold has no crossing at any
# photon number.  One Fisher unit is 0.45% of the target at N=20 and also
# absorbs the small negative bias of the finite-difference estimator.
TFS_MARGIN = 1.0
# width of the bracket at which time_to_tfs stops bisecting
TFS_REFINE_TOL = 1e-4


class NoCrossingError(RuntimeError):
    """The swept range never reaches the target Fisher information."""


@dataclass(frozen=True)
class SweepRecord:
    kind: str
    n_mean: float
    time: float
    inv_qfi: float
    inv_cfi_counting: float | None = None
    inv_cfi_homodyne: float | None = None


@dataclass(frozen=True)
class FitResult:
    model: str
    coefficients: tuple[float, ...]
    r_squared: float


def time_grid_from(tmax: float, tstep: float) -> np.ndarray:
    """Times 0, tstep, 2 tstep, ... up to ``tmax`` (within 1e-9 of a step).

    Time i is computed as i / (1/tstep), so a decimal step such as 0.1
    lands on the decimal times.
    """
    if not tstep > 0:
        raise ValueError("time step must be positive")
    return np.arange(math.floor(tmax / tstep + 1e-9) + 1) / (1.0 / tstep)


def _grid_for(kind: str, time_grid=None) -> np.ndarray:
    if time_grid is not None:
        grid = np.asarray(time_grid, dtype=float)
    else:
        grid = time_grid_from(*TIME_GRID_BOUNDS[kind])
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be 1-D and strictly increasing")
    return grid


def sweep_continuous(kind: str, n_mean: float, time_grid=None,
                     include_cfi_counting: bool = False,
                     include_cfi_homodyne: bool = False,
                     theta: float = 0.0,
                     phi: float = DEFAULT_PHI,
                     cutoff: int | None = None) -> list[SweepRecord]:
    """Inverse QFI (optionally CFI at phase ``phi``) of continuously evolved probes."""
    times = _grid_for(kind, time_grid)
    cut = cutoff if cutoff is not None else default_cutoff(n_mean)
    psi0 = coherent_input_state(kind, n_mean, cut)
    with_emitters = kind == "jc"
    counting = MeasurementModel("counting", include_emitters=with_emitters)
    homodyne = MeasurementModel("homodyne", include_emitters=with_emitters, theta=theta)
    records = []
    for t in times:
        probe = evolve_continuous(kind, float(t), psi0)
        family = (encoded_family(probe, phi)
                  if include_cfi_counting or include_cfi_homodyne else None)
        # a family carries its rotated probe, so the QFI takes no second rotation
        fq = qfi_fidelity(family if family is not None else probe).value
        inv_counting = inv_homodyne = None
        if include_cfi_counting:
            inv_counting = inverse_fisher(cfi(family, counting).value)
        if include_cfi_homodyne:
            inv_homodyne = inverse_fisher(cfi(family, homodyne).value)
        records.append(SweepRecord(kind, n_mean, float(t), inverse_fisher(fq),
                                   inv_counting, inv_homodyne))
    return records


def _dip_prominence(y: np.ndarray, i: int) -> float:
    """Prominence of the strict minimum ``y[i]``, as scipy.signal defines it for -y.

    Walk out on each side while the series stays at or above ``y[i]``;
    the prominence is the lower of the two highest values met, less ``y[i]``.
    """
    def highest(side: np.ndarray) -> float:  # side runs outwards from i
        below = np.flatnonzero(side < y[i])
        return side[: below[0] if below.size else side.size].max()

    return float(min(highest(y[i - 1::-1]), highest(y[i + 1:])) - y[i])


def find_minima(records: list[SweepRecord],
                min_prominence: float = 0.01) -> list[tuple[float, float]]:
    """Interior strict local minima of inverse QFI, parabolically refined.

    Swept Fisher curves ripple on top of their large-scale dips, so raw
    strict minima include grid-scale noise.  ``min_prominence`` keeps
    only dips whose prominence (see ``_dip_prominence``) reaches the
    given fraction of the series range; the default 0.01 separates the
    physical dips from ripple on the default grids.  Pass 0.0 for every
    strict local minimum.

    Each surviving minimum is sharpened by fitting a parabola through
    the three bracketing samples, giving sub-grid-step locations
    without denser sweeps.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 sweep points")
    t = np.array([r.time for r in records])
    y = np.array([r.inv_qfi for r in records])
    span = float(y.max() - y.min())
    floor = min_prominence * span if span > 0 and min_prominence > 0 else None
    out = []
    for i in range(1, len(records) - 1):
        if not (y[i] < y[i - 1] and y[i] < y[i + 1]):
            continue
        if floor is not None and _dip_prominence(y, i) < floor:
            continue
        denom = (y[i + 1] - 2 * y[i] + y[i - 1])
        if denom <= 0:
            out.append((float(t[i]), float(y[i])))
            continue
        h = 0.5 * (t[i + 1] - t[i - 1])
        shift = 0.5 * h * (y[i - 1] - y[i + 1]) / denom
        t_min = t[i] + shift
        y_min = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift / h
        out.append((float(t_min), float(y_min)))
    return out


def time_to_tfs(kind: str, n_mean: float, time_grid=None,
                cutoff: int | None = None) -> float:
    """First interaction time whose QFI reaches the twin-Fock value.

    Scans the grid for the first crossing of F_Q >= N(N+2)/2 - TFS_MARGIN,
    then bisects the bracketing interval down to ``TFS_REFINE_TOL``.  The
    QFI is a property of the evolved probe alone, so no operating phase
    enters.
    """
    times = _grid_for(kind, time_grid)
    cut = cutoff if cutoff is not None else default_cutoff(n_mean)
    psi0 = coherent_input_state(kind, n_mean, cut)
    target = n_mean * (n_mean + 2.0) / 2.0 - TFS_MARGIN
    if target <= 0.0:
        raise NoCrossingError(
            f"twin-Fock target for N={n_mean:g} sits below the margin"
        )

    def fisher(t: float) -> float:
        return qfi_fidelity(evolve_continuous(kind, t, psi0)).value

    prev_t, prev_f = float(times[0]), fisher(float(times[0]))
    if prev_f >= target:
        return prev_t
    for t in times[1:]:
        f = fisher(float(t))
        if f >= target:
            lo, hi = prev_t, float(t)
            while hi - lo > TFS_REFINE_TOL:
                mid = 0.5 * (lo + hi)
                if fisher(mid) >= target:
                    hi = mid
                else:
                    lo = mid
            return hi
        prev_t, prev_f = float(t), f
    raise NoCrossingError(
        f"QFI never reaches the twin-Fock threshold {target:g} on the swept range"
    )


def fit(model: str, xs, ys) -> FitResult:
    """Least-squares fit of a named scaling model.

    Models: ``sqrt`` y = a*sqrt(x+b)+c (nonlinear) and ``powerlaw``
    y = a*x^mu (linear in log-log).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if model == "sqrt":
        import scipy.optimize  # deferred: importing it costs about a second
        if len(xs) < 3:
            raise ValueError("sqrt fit needs at least 3 points")

        def f(x, a, b, c):
            return a * np.sqrt(x + b) + c

        # b is kept above -min(x) so the square root stays real on the data
        bounds = ([-np.inf, -float(xs.min()) + 1e-9, -np.inf], [np.inf, np.inf, np.inf])
        popt, _ = scipy.optimize.curve_fit(f, xs, ys, p0=[1.0, 1.0, 0.0],
                                           bounds=bounds, maxfev=20000)
        resid = ys - f(xs, *popt)
        coeffs = tuple(float(v) for v in popt)
    elif model == "powerlaw":
        if len(xs) < 2:
            raise ValueError("powerlaw fit needs at least 2 points")
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise ValueError("powerlaw fit needs positive data")
        slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
        coeffs = (float(np.exp(intercept)), float(slope))
        resid = ys - coeffs[0] * xs ** coeffs[1]
    else:
        raise ValueError(f"unknown fit model {model!r}")
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(model, coeffs, max(0.0, min(1.0, r2)))


def sweep_theta(kind: str, n_mean: float, probe_time: float, theta_grid=None,
                phi: float = DEFAULT_PHI,
                cutoff: int | None = None) -> tuple[list[tuple[float, float]], float]:
    """Homodyne inverse CFI versus quadrature angle for one fixed probe.

    Angles are quoted in the frame of the evolved carrier.  A physical
    Kerr medium imparts no rotation on a single photon, while the
    ``exp(-i K n^2)`` gate convention used here rotates every photon by
    K on top of the photon-pair phases; quoting angles against the
    carrier removes that bookkeeping rotation, so reported minima line
    up with what a local oscillator locked to the transmitted beam
    would measure.  Returns the (theta, 1/F_C) samples and the angle of
    the first global minimum on the grid.
    """
    thetas = (np.asarray(theta_grid, dtype=float) if theta_grid is not None
              else np.linspace(0, 2 * np.pi, THETA_POINTS))
    cut = cutoff if cutoff is not None else default_cutoff(n_mean)
    psi0 = coherent_input_state(kind, n_mean, cut)
    probe = evolve_continuous(kind, probe_time, psi0)
    family = encoded_family(probe, phi)
    with_emitters = kind == "jc"
    frame = -probe_time if kind == "kerr" else 0.0
    samples = []
    for theta in thetas:
        model = MeasurementModel("homodyne", include_emitters=with_emitters,
                                 theta=float(theta) + frame)
        samples.append((float(theta), inverse_fisher(cfi(family, model).value)))
    values = np.array([v for _, v in samples])
    # symmetric profiles tie to rounding; take the first angle that
    # reaches the global minimum within a relative whisker
    floor = values.min() * (1.0 + 1e-9)
    theta_min = samples[int(np.argmax(values <= floor))][0]
    return samples, theta_min
