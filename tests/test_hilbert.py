import math

import numpy as np
import pytest

from modefisher.hilbert import (
    CompositeState,
    CutoffError,
    LayoutError,
    SubsystemLayout,
    check_unit_norm,
    coherent_state,
    coherent_truncation_tail,
    jc_layout,
    kerr_layout,
    product_state,
    reduce_to_mode,
)

from dense_reference import destroy, inner_product, number_op


def test_layout_shapes():
    jc = jc_layout(12)
    assert jc.dims == (2, 2, 12, 12)
    assert jc.total_dim == 4 * 144
    assert jc.qubit_indices == (0, 1)
    assert jc.mode_indices == (2, 3)
    assert jc.cutoff == 12

    kerr = kerr_layout(7)
    assert kerr.dims == (7, 7)
    assert kerr.qubit_indices == ()
    assert kerr.mode_indices == (0, 1)
    assert kerr.cutoff == 7


def test_layout_rejects_bad_factors():
    for emitters in (False, True):
        with pytest.raises(LayoutError):
            SubsystemLayout(1, emitters)
    assert SubsystemLayout(12, True) == jc_layout(12) != kerr_layout(12)


def test_state_norm_guard():
    layout = kerr_layout(3)
    good = np.zeros(9, dtype=complex)
    good[0] = 1.0
    CompositeState(layout, good)
    with pytest.raises(ValueError):
        CompositeState(layout, 2.0 * good)
    with pytest.raises(LayoutError):
        CompositeState(layout, np.ones(4) / 2.0)
    # derivative vectors skip the norm check on request
    CompositeState(layout, 2.0 * good, check_norm=False)


@pytest.mark.parametrize("norm", [math.nan, math.inf, -math.inf])
def test_norm_guard_rejects_non_finite_norms(norm):
    # abs(nan - 1) > tol is False, so a guard written that way lets NaN through
    with pytest.raises(ValueError, match="is not 1"):
        check_unit_norm(norm)
    layout = kerr_layout(3)
    amps = np.zeros(9, dtype=complex)
    amps[0] = norm
    with pytest.raises(ValueError):
        CompositeState(layout, amps)
    with pytest.raises(ValueError):
        product_state(layout, [np.array([norm, 0, 0]), np.array([1.0, 0, 0])])


def test_tensor_ordering_row_major():
    # amplitude of |q0 q1 n0 n1> must sit at the row-major flat index
    layout = jc_layout(3)
    vecs = [np.array([0, 1.0]), np.array([1.0, 0]),
            np.array([0, 0, 1.0]), np.array([0, 1.0, 0])]
    state = product_state(layout, vecs)
    flat_index = np.ravel_multi_index((1, 0, 2, 1), layout.dims)
    assert state.amplitudes[flat_index] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert state.tensor()[1, 0, 2, 1] == 1.0


def test_coherent_state_against_formula():
    alpha = 1.3 - 0.4j
    amps = coherent_state(alpha, 40)
    direct = np.array([alpha**n / math.sqrt(math.factorial(n)) for n in range(40)])
    direct *= np.exp(-abs(alpha) ** 2 / 2)
    np.testing.assert_allclose(amps, direct / np.linalg.norm(direct), atol=1e-12)
    # mean photon number of the truncation-clean state
    nbar = float(np.sum(np.arange(40) * np.abs(amps) ** 2))
    assert abs(nbar - abs(alpha) ** 2) < 1e-5


def test_coherent_state_vacuum_and_guard():
    vac = coherent_state(0.0, 5)
    assert vac[0] == 1.0 and np.all(vac[1:] == 0)
    with pytest.raises(CutoffError):
        coherent_state(2.0, 8)  # |alpha|^2 = 4 needs far more than 8 levels
    # the tail estimate itself is a Poisson survival function
    tail = coherent_truncation_tail(2.0, 8)
    n = np.arange(8)
    kept = np.sum(np.exp(-4.0) * 4.0**n / np.array([math.factorial(k) for k in n]))
    assert abs(tail - (1 - kept)) < 1e-12


def test_inner_product_conjugation_and_layout_check():
    layout = kerr_layout(4)
    a = product_state(layout, [coherent_state(0.5, 4, tail_tol=1e-2)] * 2)
    b = product_state(layout, [coherent_state(0.5j, 4, tail_tol=1e-2)] * 2)
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    assert abs(ab - np.conj(ba)) < 1e-12
    assert abs(inner_product(a, a) - 1.0) < 1e-12
    with pytest.raises(LayoutError):
        inner_product(a, product_state(kerr_layout(5),
                                       [coherent_state(0.5, 5, tail_tol=1e-2)] * 2))


def test_reduce_to_mode_product_state_is_pure():
    layout = kerr_layout(6)
    f0 = coherent_state(0.8, 6, tail_tol=1e-2)
    f1 = coherent_state(-0.3, 6, tail_tol=1e-2)
    state = product_state(layout, [f0, f1])
    rho0 = reduce_to_mode(state, 0)
    np.testing.assert_allclose(rho0, np.outer(f0, f0.conj()), atol=1e-12)
    rho1 = reduce_to_mode(state, 1)
    np.testing.assert_allclose(rho1, np.outer(f1, f1.conj()), atol=1e-12)


def test_reduce_to_mode_entangled_pair():
    """(|01> + |10>)/sqrt(2) reduces to a maximally mixed qubit block."""
    layout = kerr_layout(2)
    amps = np.zeros(4, dtype=complex)
    amps[np.ravel_multi_index((0, 1), (2, 2))] = 1 / np.sqrt(2)
    amps[np.ravel_multi_index((1, 0), (2, 2))] = 1 / np.sqrt(2)
    state = CompositeState(layout, amps)
    rho = reduce_to_mode(state, 0)
    np.testing.assert_allclose(rho, 0.5 * np.eye(2), atol=1e-12)
    with pytest.raises(LayoutError):
        reduce_to_mode(state, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_reduce_to_mode_rejects_non_finite_states(bad):
    """NaN fails every guard, so the error names the density matrix rather
    than coming from the eigensolver."""
    layout = jc_layout(3)
    amps = np.full(layout.total_dim, 1 / np.sqrt(layout.total_dim), dtype=complex)
    amps[5] = bad
    state = CompositeState(layout, amps, check_norm=False)
    for mode in (0, 1):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="reduced density matrix"):
            reduce_to_mode(state, mode)


def test_reduce_traces_out_emitters_too():
    layout = jc_layout(3)
    up = np.array([0, 1.0])
    mode = coherent_state(0.4, 3, tail_tol=1e-1)
    state = product_state(layout, [up, up, mode, mode])
    rho = reduce_to_mode(state, 1)
    np.testing.assert_allclose(rho, np.outer(mode, mode.conj()), atol=1e-12)


def test_ladder_operators():
    a = destroy(6)
    n = number_op(6)
    np.testing.assert_allclose(a.T @ a, n, atol=1e-12)
    comm = a @ a.T - a.T @ a
    # canonical commutator holds below the truncation corner
    np.testing.assert_allclose(comm[:5, :5], np.eye(5), atol=1e-12)
    assert comm[5, 5] == pytest.approx(-5.0)
