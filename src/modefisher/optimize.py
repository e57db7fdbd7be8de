"""Derivative-free optimization of preparation and measurement circuits.

Preparation maximizes the QFI of the encoded probe; pre-measurement
maximizes the CFI of a fixed encoded probe under a readout model.  Every
search runs one seed/depth loop, ``_search``: draw each seed's start
within ``INIT_SCALE`` of a base point, run a Nelder-Mead search, then
grow the circuit one layer at a time, warm-starting from the previous
optimum.  Each new layer enters at zero, so growing cannot change the
objective and the per-seed best is non-increasing in depth by
construction.  The loop has three callers:

- preparation (``optimize_preparation``), Kerr and JC;
- pre-measurement (``optimize_measurement``);
- ``paired_depth_scan``, which reports the identity circuit at a depth
  where it beats the local optimum.

The base point is the identity circuit, except for emitter (JC)
preparation: there the identity is a local maximum of the QFI, so layer
1 starts at the first dip of the continuous inverse-QFI curve instead.
Every stage except Kerr preparation opens its simplex at
``INITIAL_STEP`` along each coordinate, so the search can leave the
start's basin and move the layer that entered at zero.  Kerr preparation
keeps the default simplex: a wide one only moves the Kerr strengths to
their aliases pi - k, which have the same QFI and a larger interaction
budget.

Every preparation search scores a circuit on the route that
:func:`~modefisher.circuits._preparation` chooses for its kind, the one
place that choice is made: a Kerr circuit runs on the exchange
representatives of |alpha, alpha> from input to QFI, a JC circuit
applies its gates.  :func:`~modefisher.circuits.prepare_probe` and
``best_by_qfi`` run the same route on the same input, so a stored
optimum's probe and its best-by-QFI score are the search's, bit for bit.

A seed whose objective turns non-finite is logged and dropped; when no
seed finishes, the search raises ``OptimizationError``.

The search itself, ``minimize``, is a port of scipy.optimize's
Nelder-Mead that visits the same points, so no search process imports
scipy.optimize.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import default_cutoff, find_minima, sweep_continuous
from .artifacts import load_params
from .circuits import (LAYER_WIDTH, AnsatzParams, _preparation, build_circuit,
                       interaction_budget, prepare_probe)
from .dynamics import apply
from .encoding import DEFAULT_PHI, PhaseFamily, encoded_family
from .hilbert import LayoutError
from .metrology import MeasurementModel, cfi, inverse_fisher, qfi_fidelity

log = logging.getLogger(__name__)

# Edge of the opened Nelder-Mead simplex, in radians: the natural scale of
# the periodic gates.
INITIAL_STEP = 1.0
# Half-width of each seed's uniform draw around its start, in radians.
INIT_SCALE = 1e-2


class OptimizationError(RuntimeError):
    """Objective returned a non-finite value or inputs were unusable."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Protocol knobs for the layer-growing optimization.

    Every search shares one seed/depth loop, so these knobs mean the same
    in preparation, pre-measurement and the paired scan.  ``max_iters``
    caps objective evaluations per (seed, depth) stage; ``tol`` is the
    Nelder-Mead stopping tolerance on both the simplex size and its
    objective spread, which the CLI keeps at its default.
    ``seed_indices`` restricts a run to an explicit subset of the seed
    pool; the random stream of seed k is the same whether it runs alone
    or in the full batch, which lets a scheduler farm seeds out and merge
    records.  A seed that aborts is dropped; a search in which every seed
    aborts raises ``OptimizationError``.
    """

    max_iters: int = 1000
    tol: float = 1e-10
    seeds: int = 10
    master_seed: int = 11
    seed_indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.seed_indices is not None and any(s < 0 for s in self.seed_indices):
            raise ValueError("seed indices must be non-negative")
        if not self.seed_pool:
            raise ValueError("the seed pool is empty")

    @property
    def seed_pool(self) -> tuple[int, ...]:
        if self.seed_indices is not None:
            return tuple(self.seed_indices)
        return tuple(range(self.seeds))


@dataclass(frozen=True, eq=False)
class OptRecord:
    """Outcome of one (seed, depth) optimization stage."""

    kind: str
    n_mean: float
    seed: int
    d: int
    best_params: np.ndarray
    best_objective: float
    iters_used: int
    budget: float
    wall_time: float

    @property
    def best_fisher(self) -> float:
        return -self.best_objective

    @property
    def inv_fisher(self) -> float:
        return inverse_fisher(self.best_fisher)


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is one fixed 128-bit Philox key.

    Philox takes its key from ``generate_state(2, uint64)``, two
    little-endian words, as ``Philox(key=k)`` splits k.  ``Philox(key=k)``
    also draws OS entropy for a seed sequence that it never reads; this
    one draws nothing.
    """

    def __init__(self, key: int) -> None:
        if not 0 <= key < 1 << 128:
            raise ValueError("key must be positive and less than 2**128.")
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return np.array([self.key & 0xFFFF_FFFF_FFFF_FFFF, self.key >> 64], dtype=np.uint64)


def seed_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator per worker: one keyed counter-based stream.

    Philox is counter-based, so starting each index at its own 2^64 block
    of the counter gives non-overlapping streams for any worker index
    without handshaking.
    """
    return np.random.Generator(np.random.Philox(_PhiloxKey(master_seed), counter=index << 64))


# Nelder-Mead coefficients (reflection, expansion, contraction, shrink) and
# the default simplex's steps (relative along nonzero coordinates, absolute
# along zero ones), as in scipy.optimize.
_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
_NONZERO_STEP, _ZERO_STEP = 0.05, 0.00025


class _BudgetSpent(Exception):
    """The next objective evaluation would exceed ``max_iters``."""


def minimize(objective, x0: np.ndarray, config: OptimizerConfig,
             open_wide: bool = False) -> tuple[np.ndarray, float, int]:
    """Nelder-Mead minimization; returns (x_best, f_best, evals).

    A port of scipy.optimize's Nelder-Mead, checked against scipy 1.17.1:
    the same coefficients, simplex, centroid, ordering and
    ``xatol``/``fatol`` test (both at ``tol``), so the objective sees the
    same points bit for bit.  The search stops before the evaluation that
    would exceed ``max_iters``, also inside the initial simplex, an
    expansion or a shrink.  The reported optimum is the best point ever
    evaluated, not the method's final iterate, so it can never regress
    below the start.  A non-finite objective value raises
    ``OptimizationError``.  ``open_wide`` opens the simplex at
    ``INITIAL_STEP`` along every coordinate; the default steps 5% of each
    nonzero coordinate and 2.5e-4 along zero ones, which cannot leave a
    basin or move a layer that starts at zero.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise OptimizationError("starting point contains non-finite entries")
    n = x0.size
    best_x, best_f, nfev = x0, np.inf, 0

    def f(x: np.ndarray) -> float:
        nonlocal best_x, best_f, nfev
        if nfev >= config.max_iters:
            raise _BudgetSpent
        nfev += 1
        point = x.copy()
        value = float(objective(point))
        if not math.isfinite(value):
            raise OptimizationError(f"objective returned {value!r} at evaluation {nfev}")
        if value < best_f:
            best_x, best_f = point, value
        return value

    def ordered(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = fsim.argsort()
        return sim.take(order, 0), fsim.take(order)

    if open_wide:
        sim = np.vstack([x0, x0 + INITIAL_STEP * np.eye(n)])
    else:
        sim = np.tile(x0, (n + 1, 1))
        sim[1:][np.diag_indices(n)] = np.where(x0 != 0, (1 + _NONZERO_STEP) * x0, _ZERO_STEP)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
        # scipy orders the first simplex twice, and argsort need not keep ties
        sim, fsim = ordered(sim, fsim)
        while True:
            sim, fsim = ordered(sim, fsim)
            if (np.abs(sim[1:] - sim[0]).max() <= config.tol
                    and np.abs(fsim[0] - fsim[1:]).max() <= config.tol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + _RHO) * xbar - _RHO * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
    except _BudgetSpent:
        pass
    return best_x, best_f, nfev


def _search(kind: str, n_mean: float, objective_at, d_schedule, config: OptimizerConfig,
            first_layer=None, open_wide: bool = True, floor_at=None) -> list[OptRecord]:
    """The seed/depth loop. ``objective_at(d)`` returns the stage objective.

    Each seed starts at the identity, with ``first_layer`` (if given) as
    layer 1, plus its own uniform draw of half-width ``INIT_SCALE``.
    Growing appends zero layers.  ``floor_at(d)``, if given, is the
    objective of the all-zero vector at depth d; a stage that ends above
    it reports that vector instead.
    """
    d_schedule = list(d_schedule)
    if not d_schedule or any(b <= a for a, b in zip(d_schedule, d_schedule[1:])):
        raise ValueError("d_schedule must be non-empty and strictly increasing")
    width = LAYER_WIDTH[kind]
    records: list[OptRecord] = []
    for seed in config.seed_pool:
        rng = seed_stream(config.master_seed, seed)
        x = rng.uniform(-INIT_SCALE, INIT_SCALE, size=width * d_schedule[0])
        if first_layer is not None:
            x[:width] += first_layer
        try:
            for d in d_schedule:
                x = np.concatenate([x, np.zeros(width * d - x.size)])
                start = time.perf_counter()
                x, f_best, nfev = minimize(objective_at(d), x, config, open_wide)
                if floor_at is not None and floor_at(d) < f_best:
                    # the all-zero circuit beats the local optimum; keep the honest best
                    x, f_best = np.zeros(x.size), floor_at(d)
                elapsed = time.perf_counter() - start
                records.append(OptRecord(
                    kind=kind, n_mean=n_mean, seed=seed, d=d, best_params=x,
                    best_objective=f_best, iters_used=nfev,
                    budget=interaction_budget(kind, x), wall_time=elapsed,
                ))
        except OptimizationError as err:
            log.warning("seed %d aborted: %s", seed, err)
    if not records:
        raise OptimizationError("every seed aborted")
    return records


@functools.lru_cache(maxsize=None)
def jc_first_dip(n_mean: float, cutoff: int) -> float:
    """Coupling time g of the first dip of the continuous JC inverse-QFI curve.

    A single JC layer with no tunneling or detuning is the continuous
    evolution, so this is the one-layer optimum along g alone.
    """
    minima = find_minima(sweep_continuous("jc", n_mean, cutoff=cutoff))
    if not minima:
        raise OptimizationError(f"continuous jc sweep at N={n_mean:g} has no dip")
    return minima[0][0]


def optimize_preparation(kind: str, n_mean: float, d_schedule, config: OptimizerConfig,
                         cutoff: int | None = None) -> list[OptRecord]:
    """Maximize QFI over preparation-circuit parameters, growing layers.

    JC seeds start with layer 1 at the continuous first dip and open
    their simplex wide; Kerr seeds start at the identity with the
    default simplex (see the module docstring).
    """
    cut = cutoff if cutoff is not None else default_cutoff(n_mean)
    run, width = _preparation(kind, n_mean, cut), LAYER_WIDTH[kind]

    def objective(x: np.ndarray) -> float:
        return -qfi_fidelity(run(x.reshape(-1, width).tolist())).value

    first_layer = (0.0, 0.0, jc_first_dip(float(n_mean), cut)) if kind == "jc" else None
    return _search(kind, n_mean, lambda _d: objective, d_schedule, config,
                   first_layer=first_layer, open_wide=kind == "jc")


def _measured_family(params: AnsatzParams, family: PhaseFamily) -> PhaseFamily:
    """Push the encoded state and its derivative, as one Fock-order stack
    (:meth:`PhaseFamily.fock`, one take), through the measurement circuit."""
    layout = family.layout
    stack = family.fock()
    for gate in build_circuit(params, layout):
        stack = apply(gate, stack, layout)
    return PhaseFamily.from_fock(layout, stack, family.phi)


def _cfi_objective(kind: str, family: PhaseFamily, model: MeasurementModel):
    """Negative CFI of ``family`` read out through a measurement circuit."""
    def objective(x: np.ndarray) -> float:
        measured = _measured_family(AnsatzParams.from_vector(kind, x), family)
        return -cfi(measured, model).value
    return objective


def optimize_measurement(kind: str, prepared_params: AnsatzParams, model: MeasurementModel,
                         n_mean: float, d_schedule, config: OptimizerConfig,
                         phi: float = DEFAULT_PHI,
                         cutoff: int | None = None) -> list[OptRecord]:
    """Maximize CFI over pre-measurement parameters for a fixed probe.

    The probe is rebuilt from ``prepared_params``, encoded once, and the
    analytic phase derivative is propagated through the (phase-
    independent) measurement circuit at every objective call.
    """
    family = encoded_family(prepare_probe(prepared_params, n_mean, cutoff), phi)
    objective = _cfi_objective(kind, family, model)
    return _search(kind, n_mean, lambda _d: objective, d_schedule, config)


def paired_depth_scan(kind: str, prep_best_by_d: dict[int, AnsatzParams],
                      model: MeasurementModel, n_mean: float, config: OptimizerConfig,
                      phi: float = DEFAULT_PHI, cutoff: int | None = None,
                      ) -> tuple[dict[int, float], list[OptRecord]]:
    """Grow probe and measurement circuits together across depths.

    For each depth d the probe is the best prepared circuit at d; the
    measurement circuit is warm-started from the previous depth and its
    identity setting is always evaluated, so the reported CFI at every
    depth is at least the circuit-free value.  Returns the circuit-free
    CFI per depth and the optimization records.
    """
    depths = sorted(prep_best_by_d)
    if depths != list(range(depths[0], depths[0] + len(depths))):
        raise ValueError("paired scan needs consecutive depths")
    families = {d: encoded_family(prepare_probe(prep_best_by_d[d], n_mean, cutoff), phi)
                for d in depths}
    plain = {d: cfi(families[d], model).value for d in depths}
    records = _search(kind, n_mean, lambda d: _cfi_objective(kind, families[d], model),
                      depths, config, floor_at=lambda d: -plain[d])
    return plain, records


def best_record(records: list[OptRecord], d: int | None = None) -> OptRecord:
    """Record with the largest Fisher information, optionally at one depth."""
    pool = [r for r in records if d is None or r.d == d]
    if not pool:
        raise ValueError(f"no records at depth {d}")
    return min(pool, key=lambda r: r.best_objective)


def best_by_qfi(paths, n_mean: float, cutoff: int) -> AnsatzParams:
    """Stored circuit whose probe has the largest QFI (the first on ties).

    Each probe is scored as the search scores it (:func:`~modefisher.circuits._preparation`).
    """
    candidates = [load_params(path) for path in paths]
    if not candidates:
        raise ValueError("no stored parameters to choose from")
    kinds = {params.kind for params in candidates}
    if len(kinds) > 1:
        raise LayoutError(f"stored parameters mix {sorted(kinds)} circuits")
    run = _preparation(kinds.pop(), n_mean, cutoff)
    return max(candidates, key=lambda params: qfi_fidelity(run(params.layers)).value)
