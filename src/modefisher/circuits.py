"""Layered programmable circuits for probe preparation and pre-measurement.

A layer is tunneling, then (emitter ansatz only) a shared detuning phase
on both emitters, then the nonlinearity on both emitter-mode pairs or
both modes.  The same structure serves preparation and pre-measurement;
only the parameter vector differs.

:func:`_preparation` is the one place that chooses how a preparation
circuit runs on the standard input; the preparation search,
:func:`prepare_probe` and :func:`~modefisher.optimize.best_by_qfi` all
call it, so every search objective, prepared probe and best-by-QFI score
comes from the same route, bit for bit.  A JC circuit applies its gates
to the coherent input.  The Kerr ansatz (one tunneling strength, one
Kerr strength on both modes) commutes with exchanging the two modes, and
|alpha, alpha> is the outer product of one vector with itself, so it is
exchange-symmetric by construction: a Kerr circuit runs on one amplitude
per exchange orbit, in skew-block order from start to end
(:func:`_run_representatives`).  A layer there is a half-size rotation
into the even tunnel eigenvectors, their eigenphases, the rotation back,
and the Kerr phases t[n1] t[n2].  :func:`~modefisher.metrology.qfi_fidelity`
reads the representatives as they are, and only :func:`prepare_probe`
scatters them to Fock order.  :func:`run_circuit` takes a state from its
caller, whose symmetry it does not know, and applies the gates one by
one; on |alpha, alpha> it agrees with the half-size route to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    LocalGate,
    _exchange_sectors,
    _exchange_tunnel,
    apply,
    coherent_input_state,
    detune_gate,
    jc_gate,
    kerr_gate,
    tunnel_gate,
)
from .hilbert import (CompositeState, LayoutError, SubsystemLayout, default_cutoff,
                      kerr_layout)

LAYER_WIDTH = {"jc": 3, "kerr": 2}


@dataclass(frozen=True)
class AnsatzParams:
    """Parameters of a layered ansatz.

    ``layers`` holds one record per layer: ``(j, delta, g)`` for the
    emitter ansatz or ``(j, k)`` for the Kerr ansatz, all unbounded
    reals (the gates are periodic, so boxes buy nothing).  Flat vectors
    serialize in layer-major order (j1, delta1, g1, j2, ...).
    """

    kind: str
    layers: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in LAYER_WIDTH:
            raise ValueError(f"unknown ansatz kind {self.kind!r}")
        if len(self.layers) < 1:
            raise ValueError("ansatz needs at least one layer")
        width = LAYER_WIDTH[self.kind]
        for layer in self.layers:
            if len(layer) != width:
                raise ValueError(
                    f"{self.kind} layer has {len(layer)} parameters, needs {width}"
                )

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def to_vector(self) -> np.ndarray:
        return np.array([p for layer in self.layers for p in layer], dtype=float)

    @classmethod
    def from_vector(cls, kind: str, vector: np.ndarray) -> "AnsatzParams":
        width = LAYER_WIDTH[kind]
        vec = np.asarray(vector, dtype=float).ravel()
        if vec.size == 0 or vec.size % width:
            raise ValueError(f"vector of {vec.size} values is not a whole number of layers")
        layers = tuple(tuple(vec[i:i + width]) for i in range(0, vec.size, width))
        return cls(kind, layers)

    @classmethod
    def zeros(cls, kind: str, d: int) -> "AnsatzParams":
        return cls(kind, tuple((0.0,) * LAYER_WIDTH[kind] for _ in range(d)))


def interaction_budget(kind: str, vector: np.ndarray) -> float:
    """Total accumulated nonlinear interaction time, sum of |g_j| or |k_j|,
    of the layers a flat, layer-major vector holds: each layer's last
    entry is its g or k."""
    width = LAYER_WIDTH[kind]
    return float(np.abs(vector[width - 1::width]).sum())


def build_circuit(params: AnsatzParams, layout: SubsystemLayout) -> list[LocalGate]:
    """Gate list in application order: tunnel, detune (emitter ansatz), nonlinearity."""
    if layout.emitters != (params.kind == "jc"):
        raise LayoutError(f"{params.kind} ansatz does not run on {layout}")
    cutoff = layout.cutoff
    m0, m1 = layout.mode_indices
    gates: list[LocalGate] = []
    for layer in params.layers:
        gates.append(tunnel_gate(layer[0], cutoff, (m0, m1)))
        if params.kind == "jc":
            j, delta, g = layer
            q0, q1 = layout.qubit_indices
            gates.append(detune_gate(delta, q0))
            gates.append(detune_gate(delta, q1))
            gates.append(jc_gate(g, cutoff, (q0, m0)))
            gates.append(jc_gate(g, cutoff, (q1, m1)))
        else:
            gates.append(kerr_gate(layer[1], cutoff, m0))
            gates.append(kerr_gate(layer[1], cutoff, m1))
    return gates


def _run_representatives(layers, x: np.ndarray) -> np.ndarray:
    """Kerr ansatz layers ``(j, k)`` on the representatives ``x`` of an
    exchange-symmetric state.

    A tunnel layer is one half-size rotation into the even eigenvectors,
    their eigenphases and one rotation back, and a Kerr layer is
    t[n1] t[n2] with t = exp(-i k n^2); the result stays in skew-block
    order.  ``x`` is not written to, so a search can hold one input.
    """
    w, _, _, _, _, (n1, n2) = _exchange_sectors(x.shape[0])
    # complex already, so the Kerr phases below need no cast: the same bits
    n = np.arange(x.shape[0], dtype=np.complex128)
    phases = np.empty((*w.shape, 2))
    for j, k in layers:
        if j != 0.0:
            # exp(-i j w), written as cos and sin: the same bits as np.exp of
            # the complex angle in about half the time
            angle = w * -j
            np.cos(angle, out=phases[..., 0])
            np.sin(angle, out=phases[..., 1])
            x = _exchange_tunnel(x, phases.view(np.complex128)[..., 0])
        if k != 0.0:
            t = np.exp(-1j * k * n * n)
            x = x * t[n1]  # out of place: the input may be the caller's
            x *= t[n2]
    return x


def run_circuit(params: AnsatzParams, state: CompositeState) -> CompositeState:
    """Apply the gates of :func:`build_circuit` to a state (zero-parameter
    gates are skipped)."""
    for gate in build_circuit(params, state.layout):
        state = apply(gate, state)
    return state


def _preparation(kind: str, n_mean: float, cutoff: int):
    """``run(layers)``: a preparation circuit of ``kind`` on the standard
    coherent input, in the form :func:`~modefisher.metrology.qfi_fidelity` scores.

    A JC circuit gives the probe, by :func:`run_circuit`.  A Kerr circuit
    gives the probe's exchange representatives ``(c, c//2 + 1)``
    (:func:`_run_representatives`); its input is gathered onto them once,
    here, so a search pays for that once.
    """
    psi0 = coherent_input_state(kind, n_mean, cutoff)
    if kind == "jc":
        return lambda layers: run_circuit(AnsatzParams(kind, tuple(layers)), psi0)
    x0 = np.take(psi0.amplitudes, _exchange_sectors(cutoff)[3])
    return lambda layers: _run_representatives(layers, x0)


def prepare_probe(params: AnsatzParams, n_mean: float,
                  cutoff: int | None = None) -> CompositeState:
    """Run the preparation ansatz on the standard coherent input.

    ``cutoff=None`` uses :func:`~modefisher.hilbert.default_cutoff`, the
    rule the optimizer and the CLI use.  The circuit runs on the route of
    the search (:func:`_preparation`); a Kerr result is scattered from its
    exchange representatives to Fock order once.
    """
    if cutoff is None:
        cutoff = default_cutoff(n_mean)
    probe = _preparation(params.kind, n_mean, cutoff)(params.layers)
    if params.kind == "jc":
        return probe
    return CompositeState(kerr_layout(cutoff), np.take(probe, _exchange_sectors(cutoff)[4]),
                          check_norm=False)
