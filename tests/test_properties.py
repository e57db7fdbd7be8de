"""Randomized invariant checks, at least 100 cases per invariant.

Each test draws its cases from one seeded generator so failures
reproduce exactly.  The whole file is budgeted to stay well under ten
minutes on one core.
"""

import math

import numpy as np
import pytest

import modefisher.circuits
import modefisher.metrology
from modefisher.circuits import (AnsatzParams, _preparation, build_circuit, prepare_probe,
                                 run_circuit)
from modefisher.dynamics import (
    _sector_index,
    apply,
    coherent_input_state,
    detune_gate,
    evolve_continuous,
    jc_gate,
    kerr_gate,
    tunnel_gate,
)
from modefisher.encoding import _rotated_probe, beam_split, beam_splitter_gate, encoded_family
from modefisher.hilbert import (
    CompositeState,
    default_cutoff,
    jc_layout,
    kerr_layout,
    reduce_to_mode,
)
from modefisher.analysis import SweepRecord, find_minima, sweep_continuous
from modefisher.metrology import (
    _FIDELITY_DELTA,
    MeasurementModel,
    QuadratureGrid,
    cfi,
    qfi_fidelity,
    qfi_variance_oracle,
)
from modefisher.optimize import OptimizerConfig, optimize_preparation
from modefisher.wigner import default_axes, wigner

from dense_reference import counting_probabilities, destroy, gate_matrix, quadrature_amplitudes


def _random_state(layout, rng):
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return CompositeState(layout, amps / np.linalg.norm(amps))


def _random_gate(rng, cutoff):
    which = rng.integers(4)
    value = float(rng.uniform(-3.0, 3.0))
    if which == 0:
        return tunnel_gate(value, cutoff, (2, 3))
    if which == 1:
        return kerr_gate(value, cutoff, int(rng.integers(2, 4)))
    if which == 2:
        return jc_gate(value, cutoff, (int(rng.integers(2)), int(rng.integers(2, 4))))
    return detune_gate(value, int(rng.integers(2)))


def test_every_built_gate_is_unitary():
    rng = np.random.default_rng(100)
    for _ in range(120):
        gate = _random_gate(rng, int(rng.integers(3, 8)))
        u = gate_matrix(gate)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-10)


def test_pipelines_preserve_norm():
    rng = np.random.default_rng(101)
    for _ in range(110):
        kind = "jc" if rng.integers(2) else "kerr"
        cutoff = int(rng.integers(4, 9))
        layout = jc_layout(cutoff) if kind == "jc" else kerr_layout(cutoff)
        state = _random_state(layout, rng)
        width = 3 if kind == "jc" else 2
        d = int(rng.integers(1, 4))
        params = AnsatzParams.from_vector(kind, rng.uniform(-2, 2, size=width * d))
        out = encoded_family(run_circuit(params, state), float(rng.uniform(0, np.pi))).state
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


def test_counting_tables_sum_to_one():
    rng = np.random.default_rng(102)
    for _ in range(120):
        kind = "jc" if rng.integers(2) else "kerr"
        cutoff = int(rng.integers(3, 9))
        layout = jc_layout(cutoff) if kind == "jc" else kerr_layout(cutoff)
        p = counting_probabilities(_random_state(layout, rng),
                                   include_emitters=bool(rng.integers(2)) and kind == "jc")
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) < 1e-6


def test_homodyne_tables_integrate_to_one():
    rng = np.random.default_rng(103)
    for _ in range(100):
        cutoff = int(rng.integers(3, 8))
        x = QuadratureGrid().axis(cutoff)
        amps = quadrature_amplitudes(_random_state(kerr_layout(cutoff), rng),
                                     float(rng.uniform(0, 2 * np.pi)), x)
        p = np.abs(amps) ** 2
        w = np.gradient(x)
        assert p.min() >= 0.0
        assert abs(float(np.sum(p * np.outer(w, w))) - 1.0) < 1e-6


def test_cramer_rao_hierarchy_counting():
    rng = np.random.default_rng(104)
    for _ in range(110):
        cutoff = int(rng.integers(3, 9))
        kind = "jc" if rng.integers(2) else "kerr"
        layout = jc_layout(cutoff) if kind == "jc" else kerr_layout(cutoff)
        probe = _random_state(layout, rng)
        family = encoded_family(probe, float(rng.uniform(0.2, 2.8)))
        fq = qfi_variance_oracle(probe).value
        fc = cfi(family, MeasurementModel("counting",
                                          include_emitters=kind == "jc")).value
        assert fc <= fq * (1 + 1e-6)


def test_cramer_rao_hierarchy_homodyne():
    rng = np.random.default_rng(105)
    for _ in range(100):
        cutoff = int(rng.integers(3, 7))
        probe = _random_state(kerr_layout(cutoff), rng)
        family = encoded_family(probe, float(rng.uniform(0.2, 2.8)))
        fq = qfi_variance_oracle(probe).value
        model = MeasurementModel("homodyne", theta=float(rng.uniform(0, np.pi)))
        assert cfi(family, model).value <= fq * (1 + 1e-6)


def test_qfi_is_phase_point_independent():
    """The two-encoding fidelity QFI is the same at every phase point and
    equals the probe-only qfi_fidelity."""
    delta = 1e-2
    rng = np.random.default_rng(106)
    for _ in range(100):
        probe = _random_state(kerr_layout(int(rng.integers(3, 8))), rng)
        values = []
        for phi in (0.3, np.pi / 3, 1.9):
            left = encoded_family(probe, phi).state.amplitudes
            right = encoded_family(probe, phi + delta).state.amplitudes
            values.append(8.0 * (1.0 - abs(np.vdot(left, right))) / delta**2)
        spread = (max(values) - min(values)) / max(values)
        assert spread < 1e-6
        fq = qfi_fidelity(probe).value
        assert abs(fq - values[0]) / fq < 1e-6


def test_fidelity_estimator_tracks_variance_oracle():
    rng = np.random.default_rng(107)
    for _ in range(100):
        probe = _random_state(kerr_layout(int(rng.integers(4, 10))), rng)
        est = qfi_fidelity(probe).value
        exact = qfi_variance_oracle(probe).value
        assert abs(est - exact) / exact <= 1e-3


def test_homodyne_grid_refinement_is_converged():
    rng = np.random.default_rng(108)
    for _ in range(100):
        cutoff = int(rng.integers(3, 6))
        probe = _random_state(kerr_layout(cutoff), rng)
        family = encoded_family(probe)
        theta = float(rng.uniform(0, np.pi))
        coarse = cfi(family, MeasurementModel("homodyne", theta=theta)).value
        fine = cfi(family, MeasurementModel(
            "homodyne", theta=theta, grid=QuadratureGrid(points=403))).value
        assert abs(fine - coarse) / max(fine, 1e-12) < 1e-3


def test_wigner_normalization_purity_and_range():
    rng = np.random.default_rng(109)
    x, p = default_axes(half_width=7.5, points=161)
    dx = x[1] - x[0]
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        if rng.integers(2):  # mix in a second pure state
            other = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            other /= np.linalg.norm(other)
            lam = float(rng.uniform(0.2, 0.8))
            rho = lam * rho + (1 - lam) * np.outer(other, other.conj())
        grid = wigner(rho, x, p)
        assert abs(grid.integral() - 1.0) < 1e-3
        purity = 2 * np.pi * float(np.trapezoid(
            np.trapezoid(grid.values ** 2, dx=dx, axis=1), dx=dx))
        assert abs(purity - float(np.trace(rho @ rho).real)) < 1e-2
        assert grid.values.min() >= -1.0 / np.pi - 1e-6
        assert grid.values.max() <= 1.0 / np.pi + 1e-6


_PROP_OPT = dict(max_iters=25, master_seed=23)


def test_warm_start_never_regresses():
    config = OptimizerConfig(seeds=34, **_PROP_OPT)
    records = optimize_preparation("kerr", 2.0, [1, 2, 3, 4], config, cutoff=10)
    by_seed = {}
    for r in records:
        by_seed.setdefault(r.seed, []).append(r)
    transitions = 0
    for rs in by_seed.values():
        rs.sort(key=lambda r: r.d)
        for prev, nxt in zip(rs, rs[1:]):
            assert nxt.best_objective <= prev.best_objective + 1e-12
            transitions += 1
    assert transitions >= 100


def test_optimizer_records_are_deterministic():
    config = OptimizerConfig(seeds=50, **_PROP_OPT)
    a = optimize_preparation("kerr", 2.0, [1, 2], config, cutoff=10)
    b = optimize_preparation("kerr", 2.0, [1, 2], config, cutoff=10)
    assert len(a) == len(b) == 100
    for ra, rb in zip(a, b):
        assert (ra.seed, ra.d) == (rb.seed, rb.d)
        assert ra.best_objective == rb.best_objective
        assert ra.iters_used == rb.iters_used
        np.testing.assert_array_equal(ra.best_params, rb.best_params)


def test_stored_optima_reevaluate():
    config = OptimizerConfig(seeds=50, **_PROP_OPT)
    records = optimize_preparation("kerr", 2.0, [1, 2], config, cutoff=10)
    psi0 = coherent_input_state("kerr", 2.0, 10)
    assert len(records) >= 100
    for r in records:
        probe = run_circuit(AnsatzParams.from_vector("kerr", r.best_params), psi0)
        fresh = -qfi_fidelity(probe).value
        assert abs(fresh - r.best_objective) <= 1e-9 * abs(r.best_objective)


def test_zero_layer_leaves_state_unchanged():
    rng = np.random.default_rng(110)
    for _ in range(100):
        kind = "jc" if rng.integers(2) else "kerr"
        cutoff = int(rng.integers(4, 8))
        layout = jc_layout(cutoff) if kind == "jc" else kerr_layout(cutoff)
        state = _random_state(layout, rng)
        width = 3 if kind == "jc" else 2
        params = AnsatzParams.from_vector(kind, rng.uniform(-2, 2, size=width))
        a = run_circuit(params, state)
        b = run_circuit(AnsatzParams(kind, params.layers + ((0.0,) * width,)), state)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)


def test_circuit_conservation_laws():
    rng = np.random.default_rng(111)
    for case in range(100):
        kind = "jc" if case % 2 else "kerr"
        cutoff = int(rng.integers(4, 9))
        n_grid = np.arange(cutoff)
        if kind == "kerr":
            state = _random_state(kerr_layout(cutoff), rng)
            charge = n_grid[:, None] + n_grid[None, :]
        else:
            state = _random_state(jc_layout(cutoff), rng)
            q = np.array([0.0, 1.0])
            charge = (q[:, None, None, None] + q[None, :, None, None]
                      + n_grid[None, None, :, None] + n_grid[None, None, None, :])
        params = AnsatzParams.from_vector(
            kind, rng.uniform(-2, 2, size=(3 if kind == "jc" else 2) * 2))
        out = run_circuit(params, state)
        p_in = counting_probabilities(state, include_emitters=kind == "jc")
        p_out = counting_probabilities(out, include_emitters=kind == "jc")
        before = float(np.sum(p_in * charge))
        after = float(np.sum(p_out * charge))
        assert abs(after - before) < 1e-9


def test_partial_trace_is_order_independent():
    rng = np.random.default_rng(112)
    for _ in range(100):
        cutoff = int(rng.integers(3, 7))
        state = _random_state(jc_layout(cutoff), rng)
        got = reduce_to_mode(state, 0)
        # oracle: trace factors one at a time in a different order
        # (mode 1, then qubit 0, then qubit 1)
        psi = state.amplitudes.reshape(2, 2, cutoff, cutoff)
        rho = np.einsum("abcd,ABCd->abcABC", psi, psi.conj())
        rho = np.einsum("abcaBC->bcBC", rho)
        rho = np.einsum("bcbC->cC", rho)
        np.testing.assert_allclose(got, rho, atol=1e-12)
        assert abs(np.trace(got).real - 1.0) < 1e-10


def test_evolution_composes_additively():
    rng = np.random.default_rng(113)
    for _ in range(100):
        kind = "jc" if rng.integers(2) else "kerr"
        cutoff = int(rng.integers(4, 9))
        layout = jc_layout(cutoff) if kind == "jc" else kerr_layout(cutoff)
        state = _random_state(layout, rng)
        t1, t2 = rng.uniform(0.0, 2.0, size=2)
        stepped = evolve_continuous(kind, float(t2),
                                    evolve_continuous(kind, float(t1), state))
        direct = evolve_continuous(kind, float(t1 + t2), state)
        np.testing.assert_allclose(stepped.amplitudes, direct.amplitudes, atol=1e-10)


def test_zero_phase_encoding_is_a_double_splitter():
    rng = np.random.default_rng(114)
    for _ in range(100):
        cutoff = int(rng.integers(3, 9))
        state = _random_state(kerr_layout(cutoff), rng)
        got = encoded_family(state, 0.0).state
        bs = beam_splitter_gate(cutoff)
        want = apply(bs, apply(bs, state))
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-12)


def test_zero_time_sweep_sits_at_shot_noise():
    rng = np.random.default_rng(115)
    for _ in range(100):
        kind = "jc" if rng.integers(2) else "kerr"
        n_mean = float(rng.uniform(0.5, 8.0))
        records = sweep_continuous(kind, n_mean, time_grid=[0.0, 0.05])
        assert abs(records[0].inv_qfi - 1.0 / n_mean) / (1.0 / n_mean) < 5e-3


def test_find_minima_outputs_bracket_grid_dips():
    rng = np.random.default_rng(116)
    for _ in range(100):
        t = np.linspace(0.0, 6.0, int(rng.integers(40, 120)))
        freqs = rng.uniform(0.5, 3.0, size=3)
        amps = rng.uniform(0.2, 1.0, size=3)
        y = 2.0 + sum(a * np.sin(f * t + rng.uniform(0, 2 * np.pi))
                      for a, f in zip(amps, freqs))
        records = [SweepRecord("kerr", 4.0, tt, vv) for tt, vv in zip(t, y)]
        for t_min, y_min in find_minima(records, min_prominence=0.0):
            assert t[0] < t_min < t[-1]
            i = int(np.argmin(np.abs(t - t_min)))
            lo, hi = max(i - 1, 0), min(i + 1, len(t) - 1)
            assert t[lo] <= t_min <= t[hi]
            # the bracketing sample is a strict discrete minimum
            assert y[i] < y[i - 1] and y[i] < y[i + 1]
            assert y_min <= y[i] + 1e-12


def _gate_route(params, state):
    for gate in build_circuit(params, state.layout):
        state = apply(gate, state)
    return state


def _exchanged(state):
    """The state with the two arms exchanged: the modes and, for JC, the emitters."""
    axes = list(range(len(state.layout.dims)))
    for pair in (state.layout.mode_indices, state.layout.qubit_indices):
        if pair:
            axes[pair[0]], axes[pair[1]] = pair[1], pair[0]
    return state.tensor().transpose(axes)


def _mean_jy(state):
    """<J_y> = Im <a1† a2>, with J_y = (a1† a2 - a2† a1)/2i."""
    t = np.moveaxis(state.tensor(), state.layout.mode_indices, (-2, -1))
    a = destroy(state.layout.cutoff)
    return float(np.vdot(t, a.T @ t @ a.T).imag)


def test_preparation_circuits_are_exchange_symmetric():
    # |alpha, alpha> (emitters in |g, g>) and every ansatz gate commute with
    # exchanging the arms, so every probe is symmetric and <J_y> = 0
    rng = np.random.default_rng(117)
    cases = [("kerr", 20.0, 6, 40), ("jc", 20.0, 8, 40), ("kerr", 8.0, 4, 18)]
    for kind, n_mean, d, cutoff in cases:
        psi0 = coherent_input_state(kind, n_mean, cutoff)
        for _ in range(34):
            params = AnsatzParams.from_vector(
                kind, rng.uniform(-2, 2, size=(3 if kind == "jc" else 2) * d))
            probes = [_gate_route(params, psi0)]
            if kind == "kerr":
                probes.append(prepare_probe(params, n_mean, cutoff))
            for probe in probes:
                assert np.abs(_exchanged(probe) - probe.tensor()).max() < 1e-13
                assert abs(_mean_jy(probe)) < 1e-13


# 1 - overlap is scaled by 8/delta^2, so one rounding step of an overlap
# just below 1 (eps/2) is 8.9e-12 of F: 1.1e-12 relative at F = 8
_OVERLAP_STEP = 8.0 / _FIDELITY_DELTA**2 * np.finfo(float).eps / 2


def test_symmetric_kerr_route_matches_the_gate_route(monkeypatch):
    # prepare_probe runs on the exchange representatives of |alpha, alpha>,
    # run_circuit applies the gates to the state it is given; the two QFI
    # routes read the representatives and the CompositeState
    def no_gates(gate, state, layout=None):
        raise AssertionError("the symmetric route applied a gate")

    rng = np.random.default_rng(118)
    for case in range(100):
        n_mean = float(rng.integers(4, 21))
        cutoff = default_cutoff(n_mean) + case % 2
        x = rng.uniform(-2, 2, size=2 * int(rng.integers(1, 5)))
        x[rng.uniform(size=x.size) < 0.1] = 0.0   # skipped gates
        if case % 3 == 0:
            x[0] = 1.0e6                            # where stored searches drifted
        params = AnsatzParams.from_vector("kerr", x)
        want = run_circuit(params, coherent_input_state("kerr", n_mean, cutoff))
        with monkeypatch.context() as patch:
            patch.setattr(modefisher.circuits, "apply", no_gates)
            got = prepare_probe(params, n_mean, cutoff)
            representatives = _preparation("kerr", n_mean, cutoff)(params.layers)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-13)
        # the two routes round differently, which can move F by a few
        # overlap steps; 1e-12 of F = 20 is only about two of them
        fq = qfi_fidelity(want).value
        assert qfi_fidelity(representatives).value == pytest.approx(
            fq, rel=1e-12, abs=8 * _OVERLAP_STEP)


def test_asymmetric_inputs_take_the_gate_route(monkeypatch):
    # run_circuit never inspects its state: symmetric or not, it applies the gates
    def no_symmetric_route(layers, x):
        raise AssertionError("run_circuit took the symmetric route")

    monkeypatch.setattr(modefisher.circuits, "_run_representatives", no_symmetric_route)
    rng = np.random.default_rng(119)
    for case in range(100):
        cutoff = int(rng.integers(8, 14))
        psi0 = coherent_input_state("kerr", 1.0, cutoff)
        if case % 3 == 0:
            state = _random_state(kerr_layout(cutoff), rng)
        elif case % 3 == 1:  # a symmetric input, one amplitude off by one ulp
            amps = psi0.amplitudes.copy()
            amps[1] = np.nextafter(amps[1].real, 1.0) + 1j * amps[1].imag
            state = CompositeState(psi0.layout, amps)
        else:  # |alpha, alpha> itself
            state = psi0
        params = AnsatzParams.from_vector("kerr", rng.uniform(-2, 2, size=4))
        np.testing.assert_array_equal(run_circuit(params, state).amplitudes,
                                      _gate_route(params, state).amplitudes)


def _full_route_qfi(probe):
    """qfi_fidelity's skew-block route, written out: (1 - |psi|^2) plus |R Q psi|^2
    against 2 sin^2(delta (n2 - n1)/4), less the overlap's imaginary part."""
    y, norm2 = _rotated_probe(probe)
    p = y.view(np.float64) ** 2
    c = probe.layout.cutoff
    n1, n2 = np.divmod(_sector_index(c), c)
    drop, tilt = (np.repeat(table, p.shape[2]).reshape(p.shape) for table in
                  (2.0 * np.sin(0.25 * _FIDELITY_DELTA * (n2 - n1)) ** 2,
                   np.sin(0.5 * _FIDELITY_DELTA * (n2 - n1))))
    lost = np.vdot(p, drop)
    re, im = norm2 - lost, np.vdot(p, tilt)
    deficit = (1.0 - norm2) + lost - im * im / (re + math.hypot(re, im))
    return max(8.0 * deficit / _FIDELITY_DELTA**2, 0.0)


# bound on the overlap's imaginary part, sum |chi|^2 sin(delta (n2 - n1)/2),
# for a probe with <J_y> = 0: each mirrored pair of |chi|^2 cancels up to a few
# ulps of itself, and symmetric Kerr and JC probes at cutoffs 18 to 41 read at
# most 0.5 eps; the QFI term it would feed, Im^2 / (Re + |overlap|),
# is below 1.3e-29, far under an overlap step; random probes read 3e-5 or more
_TILT_ATOL = 16 * np.finfo(float).eps


def _exactly_summed_qfi(probe):
    """8 ((1 - |psi|^2) + sum |chi|^2 (1 - cos(delta (n2 - n1)/2))) / delta^2,
    with chi from the beam-splitter gate and both sums rounded once.

    Exact only for a probe with <J_y> = 0, such as every circuit on the
    symmetric input: there the overlap's imaginary part,
    sum |chi|^2 sin(delta (n2 - n1)/2), is 0, and asserted to be within
    ``_TILT_ATOL``.  On any other probe the formula reads <D^2> where the
    QFI is Var(D).
    """
    n = np.arange(probe.layout.cutoff)
    half_angle = 0.5 * _FIDELITY_DELTA * (n[None, :] - n[:, None])
    weights = np.abs(beam_split(probe).tensor()) ** 2
    tilt = math.fsum((weights * np.sin(half_angle)).ravel())
    assert abs(tilt) <= _TILT_ATOL, f"<J_y> != 0: the overlap's imaginary part is {tilt!r}"
    deficit = ((1.0 - math.fsum(np.abs(probe.amplitudes) ** 2))
               + math.fsum((weights * (2.0 * np.sin(0.5 * half_angle) ** 2)).ravel()))
    return 8.0 * deficit / _FIDELITY_DELTA**2


def test_symmetric_kerr_probes_take_the_half_size_qfi_route():
    # The full route's rotation keeps the norm only to a few ulps, and each
    # ulp of the norm moves F by one or two overlap steps; the symmetric route
    # reads the norm from the probe and the drop without cancellation.
    rng = np.random.default_rng(120)
    for cutoff, n_mean in ((18, 8.0), (40, 20.0), (41, 20.0)):
        run = _preparation("kerr", n_mean, cutoff)
        for case in range(30):
            x = rng.uniform(-2, 2, size=2 * int(rng.integers(1, 7)))
            x[rng.uniform(size=x.size) < 0.2] = 0.0   # skipped gates
            if case % 3 == 0:
                x[0] = 1.0e6                            # where stored searches drifted
            params = AnsatzParams.from_vector("kerr", x)
            fq = qfi_fidelity(run(params.layers)).value
            probe = prepare_probe(params, n_mean, cutoff)
            assert fq == pytest.approx(_full_route_qfi(probe), rel=1e-12,
                                       abs=8 * _OVERLAP_STEP)
            assert fq == pytest.approx(_exactly_summed_qfi(probe), rel=1e-13,
                                       abs=4 * _OVERLAP_STEP)


def test_full_qfi_route_reads_the_norm_from_the_probe():
    # the skew-block route sums |psi|^2 over the probe's own amplitudes, as
    # the exchange route does, so it lands within a few overlap steps of the
    # exactly summed value; a norm read from the rotated probe is off by up
    # to a few ulps, each worth one or two steps
    rng = np.random.default_rng(122)
    for kind in ("kerr", "jc"):
        for cutoff, n_mean in ((18, 8.0), (40, 20.0)):
            psi0 = coherent_input_state(kind, n_mean, cutoff)
            for case in range(25):
                x = rng.uniform(-2, 2, size=(3 if kind == "jc" else 2) * int(rng.integers(1, 5)))
                probe = run_circuit(AnsatzParams.from_vector(kind, x), psi0)
                fq, want = qfi_fidelity(probe).value, _exactly_summed_qfi(probe)
                assert abs(fq - want) <= 4 * _OVERLAP_STEP, (kind, cutoff, case, fq - want)
    # the reference holds only where <J_y> = 0, and says so on any other probe
    for layout in (kerr_layout(8), jc_layout(8)):
        with pytest.raises(AssertionError, match="J_y"):
            _exactly_summed_qfi(_random_state(layout, rng))


def test_asymmetric_and_jc_probes_keep_the_full_qfi_route(monkeypatch):
    def no_symmetric_route(x, phases):
        raise AssertionError("the symmetric QFI route ran")

    monkeypatch.setattr(modefisher.metrology, "_exchange_tunnel", no_symmetric_route)
    rng = np.random.default_rng(121)
    kerr_probe = run_circuit(AnsatzParams.from_vector("kerr", rng.uniform(-2, 2, size=6)),
                             coherent_input_state("kerr", 8.0, 18))
    jc_input = coherent_input_state("jc", 8.0, 18)
    for case in range(120):
        cutoff = int(rng.integers(8, 14))
        which = case % 6
        if which == 0:
            state = _random_state(kerr_layout(cutoff), rng)
        elif which == 1:  # a symmetric input, one amplitude off by one ulp
            psi0 = coherent_input_state("kerr", 1.0, cutoff)
            amps = psi0.amplitudes.copy()
            amps[1] = np.nextafter(amps[1].real, 1.0) + 1j * amps[1].imag
            state = CompositeState(psi0.layout, amps)
        elif which == 2:
            state = encoded_family(kerr_probe, float(rng.uniform(0.1, 3.0))).state
        elif which == 3:
            state = _random_state(jc_layout(cutoff), rng)
        elif which == 4:  # a JC preparation probe: symmetric under exchanging the arms
            state = run_circuit(AnsatzParams.from_vector("jc", rng.uniform(-2, 2, size=6)),
                                jc_input)
        else:  # a Kerr preparation probe, handed over as a CompositeState
            state = prepare_probe(AnsatzParams.from_vector("kerr", rng.uniform(-2, 2, size=4)),
                                  1.0, cutoff)
        assert qfi_fidelity(state).value == _full_route_qfi(state)
