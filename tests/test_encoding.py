import numpy as np
import pytest

from modefisher.dynamics import _sector_index, apply, coherent_input_state
from modefisher.encoding import (
    DEFAULT_PHI,
    _diff_number,
    _rotated_probe,
    _slot_tables,
    beam_split,
    beam_splitter_gate,
    encoded_family,
    phase_diff_gate,
)
from modefisher.hilbert import (
    CompositeState,
    jc_layout,
    kerr_layout,
    product_state,
)
from modefisher.metrology import _FIDELITY_DELTA, qfi_fidelity

from dense_reference import inner_product


def _random_two_mode(cutoff, seed):
    rng = np.random.default_rng(seed)
    layout = kerr_layout(cutoff)
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return CompositeState(layout, amps / np.linalg.norm(amps))


def test_phase_diff_gate_diagonal():
    phi = 0.77
    cutoff = 5
    gate = phase_diff_gate(phi, cutoff)
    n = np.arange(cutoff)
    expected = np.exp(-0.5j * phi * (n[None, :] - n[:, None])).ravel()
    np.testing.assert_allclose(gate.diag, expected, atol=1e-15)
    # vacuum and equal occupations pick up no phase
    assert gate.diag[0] == 1.0
    assert abs(gate.diag[np.ravel_multi_index((3, 3), (5, 5))] - 1.0) < 1e-15


def test_encode_unitary_and_composition():
    state = _random_two_mode(6, 0)
    phi = 1.1
    out = encoded_family(state, phi).state
    assert abs(out.norm() - 1.0) < 1e-10
    # step-by-step composition matches the one-call version
    chi = apply(beam_splitter_gate(6), state)
    chi = apply(phase_diff_gate(phi, 6), chi)
    chi = apply(beam_splitter_gate(6), chi)
    np.testing.assert_allclose(out.amplitudes, chi.amplitudes, atol=1e-12)


def test_encode_zero_phase_is_double_beamsplitter():
    state = _random_two_mode(5, 1)
    out = encoded_family(state, 0.0).state
    chi = apply(beam_splitter_gate(5), apply(beam_splitter_gate(5), state))
    np.testing.assert_allclose(out.amplitudes, chi.amplitudes, atol=1e-12)


def test_single_photon_transmission_law():
    """One photon exits the second port with probability cos^2(phi/2)."""
    cutoff = 3
    layout = kerr_layout(cutoff)
    one = np.zeros(cutoff)
    one[1] = 1.0
    vac = np.zeros(cutoff)
    vac[0] = 1.0
    psi = product_state(layout, [one, vac])
    for phi in np.linspace(0, 2 * np.pi, 9):
        out = encoded_family(psi, phi).state
        p01 = abs(out.tensor()[0, 1]) ** 2
        assert abs(p01 - np.cos(phi / 2.0) ** 2) < 1e-10, phi


def test_derivative_matches_finite_difference():
    state = _random_two_mode(7, 2)
    phi = DEFAULT_PHI
    h = 1e-6
    exact = encoded_family(state, phi).derivative
    plus = encoded_family(state, phi + h).state.amplitudes
    minus = encoded_family(state, phi - h).state.amplitudes
    np.testing.assert_allclose(exact.amplitudes, (plus - minus) / (2 * h),
                               atol=1e-8)


def test_derivative_is_tangent():
    # d/dphi preserves norm: Re<psi|dpsi> = 0
    state = _random_two_mode(6, 3)
    family = encoded_family(state, 0.9)
    overlap = inner_product(family.state, family.derivative)
    assert abs(overlap.real) < 1e-10


def test_encoded_family_carries_phi():
    probe = coherent_input_state("kerr", 2.0, 12)
    family = encoded_family(probe)
    assert family.phi == DEFAULT_PHI
    assert abs(family.state.norm() - 1.0) < 1e-10


def test_stacked_family_equals_unstacked_applies():
    # the state and its tangent, rotated as one stack, equal the gate route
    rng = np.random.default_rng(4)
    for layout in (kerr_layout(6), jc_layout(5)):
        amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
        state = CompositeState(layout, amps / np.linalg.norm(amps))
        phi = 0.7
        cutoff = layout.cutoff
        phased = apply(phase_diff_gate(phi, cutoff), apply(beam_splitter_gate(cutoff), state))
        m1, m2 = layout.mode_indices
        n = np.arange(cutoff)
        shape = [1] * len(layout.dims)
        shape[m1] = shape[m2] = cutoff
        tangent = CompositeState(
            layout, (phased.tensor() * (-0.5j * (n[None, :] - n[:, None]).reshape(shape)))
            .reshape(-1), check_norm=False)
        family = encoded_family(state, phi)
        bs = beam_splitter_gate(cutoff)
        np.testing.assert_allclose(family.state.amplitudes, apply(bs, phased).amplitudes,
                                   atol=1e-15, rtol=0)
        np.testing.assert_allclose(family.derivative.amplitudes,
                                   apply(bs, tangent).amplitudes, atol=1e-15, rtol=0)
        np.testing.assert_array_equal(beam_split(state).amplitudes,
                                      apply(bs, state).amplitudes)


def test_cached_beam_splitter_is_read_only():
    gate = beam_splitter_gate(7)
    assert beam_splitter_gate(7) is gate
    for array in (gate.basis, gate.phases):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert not phase_diff_gate(0.4, 7).diag.flags.writeable


def test_beam_split_is_shared_by_equal_probes_only():
    # equal probes share the rotated probe y; the gate route keeps no memo
    layout = kerr_layout(6)
    amps = coherent_input_state("kerr", 0.5, 6).amplitudes
    state = CompositeState(layout, amps.copy())
    y = _rotated_probe(state)
    assert not y.flags.writeable
    assert _rotated_probe(CompositeState(layout, amps.copy())) is y
    state.amplitudes[:] = apply(phase_diff_gate(0.9, 6), state).amplitudes  # changed in place
    fresh = _rotated_probe(state)
    assert fresh is not y
    chi = apply(beam_splitter_gate(6), state).amplitudes
    q = _slot_tables(6)[0]
    np.testing.assert_allclose(fresh[:, :, 0], q * chi[_sector_index(6)], atol=1e-15, rtol=0)
    split = beam_split(state)
    assert beam_split(state) is not split
    np.testing.assert_array_equal(split.amplitudes, chi)
    assert _rotated_probe(state) is fresh


@pytest.mark.parametrize("cutoff", [3, 12, 40])
def test_beam_splitter_factors_into_one_real_rotation(cutoff):
    """BS = Q† R Q per skew block, R real orthogonal, Q = diag(i^n1)."""
    q, _, rotation = _slot_tables(cutoff)
    assert rotation.dtype == np.float64 and rotation.shape == (cutoff,) * 3
    assert not rotation.flags.writeable
    np.testing.assert_allclose(rotation.transpose(0, 2, 1) @ rotation,
                               np.broadcast_to(np.eye(cutoff), rotation.shape),
                               atol=1e-14, rtol=0)
    gate = beam_splitter_gate(cutoff)
    blocks = (gate.basis * gate.phases[:, None, :]) @ gate.basis.transpose(0, 2, 1)
    # block b < c - 1 holds the full sector b and the partial sector b + c
    n1 = np.arange(cutoff)
    for b in range(cutoff):
        for sector in (n1 <= b, n1 > b):
            got = q.conj()[sector, None] * rotation[b][np.ix_(sector, sector)] * q[sector]
            np.testing.assert_allclose(got, blocks[b][np.ix_(sector, sector)],
                                       atol=1e-14, rtol=0)
        np.testing.assert_array_equal(rotation[b][np.ix_(n1 <= b, n1 > b)], 0.0)


_ROUTE_LAYOUTS = {
    "jc": jc_layout(5),
    "kerr": kerr_layout(7),
}


@pytest.mark.parametrize("name", list(_ROUTE_LAYOUTS))
def test_rotated_route_matches_the_gate_route(name):
    """QFI and family from y equal BS, PD, BS applied gate by gate."""
    layout = _ROUTE_LAYOUTS[name]
    cutoff = layout.cutoff
    bs = beam_splitter_gate(cutoff)
    rng = np.random.default_rng(21)
    for _ in range(3):
        amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
        state = CompositeState(layout, amps / np.linalg.norm(amps))
        phi = float(rng.uniform(-np.pi, np.pi))
        chi = apply(bs, state)
        phased = apply(phase_diff_gate(phi, cutoff), chi)
        tangent = CompositeState(layout, (phased.tensor() * (-0.5j * _diff_number(cutoff)))
                                 .reshape(-1), check_norm=False)
        family = encoded_family(state, phi)
        np.testing.assert_allclose(family.state.amplitudes, apply(bs, phased).amplitudes,
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(family.derivative.amplitudes, apply(bs, tangent).amplitudes,
                                   atol=1e-12, rtol=0)
        # the fidelity overlap from |chi|^2 in Fock order; the estimator
        # divides 1 - overlap by delta^2 / 8, so compare the overlap itself
        p = np.abs(chi.tensor()) ** 2
        overlap = abs(np.sum(p * np.exp(-0.5j * _FIDELITY_DELTA * _diff_number(cutoff))))
        got = 1.0 - qfi_fidelity(state).value * _FIDELITY_DELTA**2 / 8.0
        assert abs(got - overlap) < 1e-12
