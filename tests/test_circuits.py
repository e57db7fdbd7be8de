import numpy as np
import pytest

from modefisher.circuits import (
    AnsatzParams,
    build_circuit,
    interaction_budget,
    prepare_probe,
    run_circuit,
)
from modefisher.dynamics import apply, coherent_input_state, kerr_gate, tunnel_gate
from modefisher.hilbert import LayoutError, jc_layout, kerr_layout

from dense_reference import counting_probabilities


def test_vector_round_trip():
    for kind, width in (("kerr", 2), ("jc", 3)):
        rng = np.random.default_rng(3)
        for d in (1, 2, 5):
            vec = rng.normal(size=d * width)
            params = AnsatzParams.from_vector(kind, vec)
            assert params.n_layers == d
            np.testing.assert_array_equal(params.to_vector(), vec)


def test_params_validation():
    with pytest.raises(ValueError):
        AnsatzParams("squeezer", ((0.0, 0.0),))
    with pytest.raises(ValueError):
        AnsatzParams("kerr", ())
    with pytest.raises(ValueError):
        AnsatzParams("kerr", ((0.1, 0.2, 0.3),))
    with pytest.raises(ValueError):
        AnsatzParams.from_vector("jc", np.zeros(4))
    with pytest.raises(ValueError):
        AnsatzParams.from_vector("kerr", np.zeros(0))


def test_zero_parameters_act_as_identity():
    state = coherent_input_state("kerr", 6.0, 16)
    out = run_circuit(AnsatzParams.zeros("kerr", 3), state)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)
    state_jc = coherent_input_state("jc", 6.0, 16)
    out_jc = run_circuit(AnsatzParams.zeros("jc", 2), state_jc)
    np.testing.assert_array_equal(out_jc.amplitudes, state_jc.amplitudes)


def test_zero_layer_extension_preserves_action():
    rng = np.random.default_rng(7)
    params = AnsatzParams.from_vector("kerr", rng.normal(scale=0.3, size=4))
    grown = AnsatzParams("kerr", params.layers + ((0.0, 0.0),))
    state = coherent_input_state("kerr", 5.0, 14)
    a = run_circuit(params, state)
    b = run_circuit(grown, state)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)


def test_interaction_budget_sums_magnitudes():
    assert interaction_budget("kerr", np.array([0.5, -0.3, 1.0, 0.2])) == pytest.approx(0.5)
    assert interaction_budget("jc", np.array([0.1, 9.0, -2.0, 0.0, 0.0, 0.5])) == pytest.approx(2.5)
    assert interaction_budget("jc", AnsatzParams.zeros("jc", 4).to_vector()) == 0.0


def test_layout_mismatch_rejected():
    kerr_params = AnsatzParams.zeros("kerr", 1)
    jc_params = AnsatzParams.zeros("jc", 1)
    with pytest.raises(LayoutError):
        build_circuit(kerr_params, jc_layout(4))
    with pytest.raises(LayoutError):
        build_circuit(jc_params, kerr_layout(4))


def test_single_layer_matches_manual_gate_sequence():
    state = coherent_input_state("kerr", 4.0, 13)
    params = AnsatzParams("kerr", ((0.7, 0.25),))
    got = run_circuit(params, state)
    want = apply(tunnel_gate(0.7, 13, (0, 1)), state)
    want = apply(kerr_gate(0.25, 13, 0), want)
    want = apply(kerr_gate(0.25, 13, 1), want)
    np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-14)


def test_kerr_circuit_conserves_photon_number():
    # tunneling and self-phase modulation both commute with n1 + n2
    rng = np.random.default_rng(21)
    state = coherent_input_state("kerr", 5.0, 16)
    n_grid = np.arange(16)
    totals = n_grid[:, None] + n_grid[None, :]
    before = float(np.sum(counting_probabilities(state) * totals))
    for _ in range(5):
        params = AnsatzParams.from_vector("kerr", rng.normal(scale=0.8, size=6))
        out = run_circuit(params, state)
        after = float(np.sum(counting_probabilities(out) * totals))
        assert abs(after - before) < 1e-9
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_prepare_probe_runs_on_standard_input():
    params = AnsatzParams("jc", ((0.3, 0.1, 0.9),))
    probe = prepare_probe(params, 4.0, cutoff=13)
    assert probe.layout.cutoff == 13
    assert len(probe.layout.qubit_indices) == 2
    assert abs(np.linalg.norm(probe.amplitudes) - 1.0) < 1e-10
    # emitters start in the ground state, so a zero-interaction circuit
    # leaves them there
    trivial = prepare_probe(AnsatzParams.zeros("jc", 1), 4.0, cutoff=13)
    p = counting_probabilities(trivial, include_emitters=True)
    assert p[0, 0].sum() == pytest.approx(1.0)
    assert p[1].sum() == pytest.approx(0.0, abs=1e-12)
