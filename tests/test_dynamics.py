import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import modefisher
from modefisher.dynamics import (
    LocalGate,
    _exchange_sectors,
    _plan,
    _sector_index,
    _tunnel_sectors,
    apply,
    coherent_input_state,
    detune_gate,
    evolve_continuous,
    jc_gate,
    kerr_gate,
    tunnel_gate,
)
from modefisher.encoding import beam_splitter_gate, phase_diff_gate
from modefisher.hilbert import (
    CompositeState,
    LayoutError,
    coherent_state,
    jc_layout,
    kerr_layout,
    product_state,
)

from dense_reference import destroy, gate_matrix, kron_input_amplitudes


def _random_state(layout, rng):
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return CompositeState(layout, amps / np.linalg.norm(amps))


def test_gate_matrices_are_unitary():
    for gate in (jc_gate(0.7, 6), kerr_gate(1.3, 6), tunnel_gate(-0.4, 6),
                 detune_gate(2.1, 0)):
        u = gate_matrix(gate)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)


def test_zero_parameter_gates_are_identity_shortcuts():
    layout = kerr_layout(5)
    state = _random_state(layout, np.random.default_rng(1))
    for gate in (kerr_gate(0.0, 5, 0), tunnel_gate(0.0, 5), detune_gate(0.0, 0)):
        assert gate.identity
    out = apply(kerr_gate(0.0, 5, 0), state)
    assert out is state


def test_kerr_gate_phases_quadratic_in_number():
    k = 0.37
    gate = kerr_gate(k, 7, 0)
    n = np.arange(7)
    np.testing.assert_allclose(gate.diag, np.exp(-1j * k * n**2), atol=1e-15)


def test_kerr_pi_flips_coherent_sign():
    # exp(-i pi n^2) phases even/odd levels like exp(-i pi n), sending
    # |alpha> to |-alpha>; a normally-ordered pair interaction would not.
    alpha = 0.9
    vec = coherent_state(alpha, 14, tail_tol=1e-4)
    layout = kerr_layout(14)
    state = product_state(layout, [vec, vec])
    out = apply(kerr_gate(np.pi, 14, 0), state)
    flipped = coherent_state(-alpha, 14, tail_tol=1e-4)
    expected = product_state(layout, [flipped, vec])
    overlap = abs(np.vdot(expected.amplitudes, out.amplitudes))
    assert overlap > 1 - 1e-9


def test_jc_gate_against_dense_expm():
    cutoff = 6
    a = destroy(cutoff)
    raise_q = np.array([[0.0, 0.0], [1.0, 0.0]])
    h = np.kron(raise_q, a) + np.kron(raise_q.T, a.T)
    for g in (0.3, 1.7, -2.2):
        u_ref = scipy.linalg.expm(-1j * g * h)
        np.testing.assert_allclose(gate_matrix(jc_gate(g, cutoff)), u_ref, atol=1e-12)


def test_jc_apply_matches_dense_expm_contraction():
    """Closed-form 2x2 rotations equal the dense propagator contracted on (q, m)."""
    cutoff = 6
    a = destroy(cutoff)
    raise_q = np.array([[0.0, 0.0], [1.0, 0.0]])
    h = np.kron(raise_q, a) + np.kron(raise_q.T, a.T)
    layout = jc_layout(cutoff)
    rng = np.random.default_rng(12)
    state = _random_state(layout, rng)
    # most of the weight on |e, c-1> of both pairs, the truncation edge
    edge = state.tensor().copy()
    edge[1, 1, cutoff - 1, cutoff - 1] += 5.0
    states = (state, CompositeState(layout, (edge / np.linalg.norm(edge)).reshape(-1)))
    for g in (0.3, 7.9, 50.0):
        u = scipy.linalg.expm(-1j * g * h).reshape(2, cutoff, 2, cutoff)
        for pair in ((0, 2), (1, 3)):
            for psi in states:
                expected = np.moveaxis(
                    np.tensordot(u, psi.tensor(), axes=((2, 3), pair)), (0, 1), pair)
                out = apply(jc_gate(g, cutoff, pair), psi)
                np.testing.assert_allclose(out.tensor(), expected, atol=1e-12, rtol=0)


def test_jc_gate_needs_emitter_then_mode():
    state = _random_state(jc_layout(4), np.random.default_rng(13))
    with pytest.raises(LayoutError):
        apply(jc_gate(0.5, 4, (2, 0)), state)


def test_stacked_apply_equals_one_state_at_a_time():
    rng = np.random.default_rng(14)
    cutoff = 5
    for layout, gates in (
        (jc_layout(cutoff), (jc_gate(1.3, cutoff, (0, 2)), jc_gate(-0.6, cutoff, (1, 3)),
                             tunnel_gate(0.8, cutoff), detune_gate(0.4, 1),
                             beam_splitter_gate(cutoff))),
        (kerr_layout(cutoff), (kerr_gate(0.9, cutoff, 1), tunnel_gate(-1.7, cutoff))),
    ):
        states = [_random_state(layout, rng) for _ in range(3)]
        stack = np.stack([s.tensor() for s in states])
        for gate in gates:
            out = apply(gate, stack, layout)
            assert out.flags.c_contiguous
            for k, s in enumerate(states):
                np.testing.assert_allclose(out[k], apply(gate, s).tensor(), atol=1e-15, rtol=0)


def test_jc_gate_excitation_exchange():
    """|e,0> oscillates to |g,1> with amplitude sin(g) (one-excitation Rabi)."""
    cutoff = 4
    layout = jc_layout(cutoff)
    excited = np.array([0, 1.0])
    ground = np.array([1.0, 0])
    vac = np.zeros(cutoff)
    vac[0] = 1.0
    one = np.zeros(cutoff)
    one[1] = 1.0
    psi0 = product_state(layout, [excited, ground, vac, vac])
    for g in np.linspace(0.1, 2.5, 7):
        out = apply(jc_gate(g, cutoff, (0, 2)), psi0)
        target = product_state(layout, [ground, ground, one, vac])
        amp = np.vdot(target.amplitudes, out.amplitudes)
        assert abs(abs(amp) - abs(np.sin(g))) < 1e-10


def test_tunnel_gate_against_dense_expm():
    rng = np.random.default_rng(4)
    for cutoff, j in ((5, 0.8), (2, -1.3), (3, 2.6), (7, 0.45)):
        a = destroy(cutoff)
        h = np.kron(a, a.T) + np.kron(a.T, a)
        u_ref = scipy.linalg.expm(-1j * j * h)
        gate = tunnel_gate(j, cutoff)
        np.testing.assert_allclose(gate_matrix(gate), u_ref, atol=1e-12)
        # applied on both layouts, emitter factors riding along
        for layout in (kerr_layout(cutoff), jc_layout(cutoff)):
            state = _random_state(layout, rng)
            psi = state.tensor()
            lead = psi.shape[:-2]
            expected = (psi.reshape(-1, cutoff * cutoff) @ u_ref.T).reshape(*lead, cutoff,
                                                                            cutoff)
            np.testing.assert_allclose(apply(gate, state).tensor(), expected, atol=1e-12)


@pytest.mark.parametrize("cutoff", [*range(2, 10), 40])
def test_skew_blocks_pack_the_sectors_without_padding(cutoff):
    c = cutoff
    gather = _sector_index(c)
    w, v = _tunnel_sectors(c)
    assert gather.shape == w.shape == (c, c) and v.shape == (c, c, c)
    assert np.array_equal(np.sort(gather, axis=None), np.arange(c * c))  # a permutation
    n1, n2 = np.divmod(gather, c)
    assert np.array_equal(n1, np.broadcast_to(np.arange(c), (c, c)))  # slot n1 holds n1
    total, block = n1 + n2, np.arange(c)[:, None]
    assert np.all((total == block) | (total == block + c))
    # each basis is orthogonal and exactly zero between its block's two sectors
    np.testing.assert_allclose(v @ v.transpose(0, 2, 1), np.broadcast_to(np.eye(c), v.shape),
                               atol=1e-12)
    assert np.all(v[total[:, :, None] != total[:, None, :]] == 0.0)
    for table in (gather, w, v):
        assert not table.flags.writeable


@pytest.mark.parametrize("cutoff", [*range(2, 10), 40, 41])
def test_exchange_tables_hold_one_slot_per_orbit(cutoff):
    c, m = cutoff, cutoff // 2 + 1
    w, basis, weight, gather, scatter, (n1, n2) = _exchange_sectors(c)
    assert w.shape == weight.shape == gather.shape == n1.shape == (c, m)
    assert basis.shape == (c, m, m) and scatter.shape == (c * c,)
    kept = weight > 0
    assert kept.sum() == c * (c + 1) // 2 and weight.sum() == c * c
    # a representative's orbit is itself and its exchange image
    fock = np.arange(c * c)
    image = (fock % c) * c + fock // c
    rep = gather.ravel()[scatter]
    assert np.all((rep == fock) | (rep == image))
    assert np.array_equal(np.bincount(scatter, minlength=c * m).reshape(c, m), weight)
    assert np.array_equal(np.divmod(gather, c), (n1, n2))
    # the even eigenvectors are orthonormal under the orbit weights
    gram = basis.transpose(0, 2, 1) @ (weight[..., None] * basis)
    np.testing.assert_allclose(gram, kept[:, None, :] * np.eye(m), atol=1e-13)
    # eigenphase arguments are the full tables' entries, bit for bit
    w_full, v_full = _tunnel_sectors(c)
    slot_image = (np.arange(c)[:, None] - np.arange(c)) % c
    for b in range(c):
        parity = np.einsum("sk,sk->k", v_full[b, slot_image[b]], v_full[b])
        assert np.allclose(np.abs(parity), 1.0)
        assert w[b, kept[b]].tobytes() == w_full[b, parity > 0].tobytes()
    for table in (w, basis, weight, gather, scatter, n1):
        assert not table.flags.writeable


def _dense_apply(u, targets, layout, stack):
    """Contract a dense joint-space matrix with the target axes of the stack."""
    dims = [layout.dims[t] for t in targets]
    axes = [t + 1 for t in targets]
    out = np.tensordot(u.reshape(*dims, *dims), stack,
                       axes=(range(len(dims), 2 * len(dims)), axes))
    return np.moveaxis(out, range(len(dims)), axes)


def _dense_gates(c, pairs, modes, qubits):
    """(gate, targets, dense matrix) per gate kind, the matrices from expm."""
    a, raise_q = destroy(c), np.array([[0.0, 0.0], [1.0, 0.0]])
    rabi = np.kron(raise_q, a) + np.kron(raise_q.T, a.T)
    hop = np.kron(a, a.T) + np.kron(a.T, a)
    n = np.arange(c)
    gates = [(jc_gate(g, c, pair), pair, scipy.linalg.expm(-1j * g * rabi))
             for g, pair in zip((1.3, -0.6, 2.2), pairs)]
    gates += [(tunnel_gate(-1.7, c), modes, scipy.linalg.expm(1.7j * hop)),
              (beam_splitter_gate(c), modes, scipy.linalg.expm(-0.25j * np.pi * hop)),
              (phase_diff_gate(0.8, c), modes,
               np.diag(np.exp(-0.4j * (n[None, :] - n[:, None])).ravel()))]
    gates += [(kerr_gate(k, c, m), (m,), np.diag(np.exp(-1j * k * n * n)))
              for k, m in zip((0.9, -2.3), modes)]
    gates += [(detune_gate(d, q), (q,), np.diag([1.0, np.exp(-1j * d)]))
              for d, q in zip((0.7, -1.1), qubits)]
    return gates


@pytest.mark.parametrize("layout, pairs", [
    (kerr_layout(5), ()),
    (jc_layout(5), ((0, 2), (1, 3), (0, 3))),
], ids=["kerr", "jc"])
def test_plans_match_the_dense_contraction(layout, pairs):
    rng = np.random.default_rng(15)
    gates = _dense_gates(5, pairs, layout.mode_indices, layout.qubit_indices)
    for k in (1, 2, 3):
        stack = rng.normal(size=(k, *layout.dims)) + 1j * rng.normal(size=(k, *layout.dims))
        for gate, targets, u in gates:
            out = apply(gate, stack, layout)
            assert out.shape == stack.shape and out.flags.c_contiguous
            np.testing.assert_allclose(out, _dense_apply(u, targets, layout, stack), atol=1e-12,
                                       rtol=0, err_msg=f"{gate.label} {targets} k={k}")


def test_plan_tables_are_read_only_and_built_once():
    layout, shape = jc_layout(6), (2, 2, 2, 6, 6)
    for args in (("rabi", 6, (0, 2)), ("basis", 6, None)):
        tables = _plan(*args, layout, shape)
        assert all(not table.flags.writeable for table in tables)
        assert all(a is b for a, b in zip(tables, _plan(*args, layout, shape)))
    # a diagonal gate needs no index, only its broadcast shape
    for args, local in ((("diag", 2, (1,)), (1, 1, 2, 1, 1)),
                        (("diag", 6, (3,)), (1, 1, 1, 1, 6))):
        assert _plan(*args, layout, shape) == (local,)
        assert _plan(*args, layout, shape) is _plan(*args, layout, shape)
    partner, _ = _plan("rabi", 6, (0, 2), layout, shape)
    assert np.array_equal(partner.ravel()[partner.ravel()], np.arange(partner.size))
    gather, scatter = _plan("basis", 6, None, layout, shape)
    assert np.array_equal(np.take(gather, scatter), np.arange(gather.size).reshape(shape))


def test_mismatched_gates_raise_layout_error_on_every_call():
    layout = jc_layout(5)
    state = _random_state(layout, np.random.default_rng(16))
    stack = state.tensor()[None]
    for gate, on in ((tunnel_gate(0.3, 4), stack),          # cutoff 4 on cutoff-5 modes
                     (jc_gate(0.3, 5, (2, 0)), stack),      # (mode, emitter) order
                     (jc_gate(0.3, 5, (0, 1)), stack),      # two emitters
                     (kerr_gate(0.3, 5, 0), stack),         # a qubit factor
                     (detune_gate(0.3, 0), stack[..., :4])):  # stack does not fit the layout
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(LayoutError):
                apply(gate, on, layout)


def test_stored_optima_do_not_depend_on_the_blas_thread_count():
    runs = Path(__file__).resolve().parents[1] / "runs"
    sidecars = [str(runs / f"prep_{name.split('_')[0]}_n20" / "params" / f"{name}.json")
                for name in ("kerr_N20_d1_seed0", "kerr_N20_d6_seed4",
                             "jc_N20_d2_seed0", "jc_N20_d8_seed0")]
    code = ("import json, sys; from modefisher.artifacts import load_params; "
            "from modefisher.circuits import prepare_probe; "
            "from modefisher.metrology import qfi_fidelity; "
            "print(json.dumps([qfi_fidelity(prepare_probe(load_params(p), 20.0)).value.hex() "
            "for p in sys.argv[1:]]))")
    values = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", code, *sidecars], capture_output=True,
                             text=True, env=env, check=True,
                             cwd=Path(modefisher.__file__).parents[1]).stdout
        values.append(json.loads(out))
    assert values[0] == values[1]


def test_mode_pair_gates_conserve_total_photon_number():
    """|12,7> keeps exactly zero weight outside the n1 + n2 = 19 sector."""
    cutoff = 14
    n = np.arange(cutoff)
    outside = (n[:, None] + n[None, :]) != 19
    fock12, fock7 = np.eye(cutoff)[12], np.eye(cutoff)[7]
    ground = np.array([1.0, 0.0])
    for layout, factors in ((kerr_layout(cutoff), [fock12, fock7]),
                            (jc_layout(cutoff), [ground, ground, fock12, fock7])):
        state = product_state(layout, factors)
        for gate in (tunnel_gate(0.37, cutoff), tunnel_gate(-2.9, cutoff),
                     beam_splitter_gate(cutoff)):
            out = apply(gate, state).tensor()
            p = (np.abs(out) ** 2).reshape(-1, cutoff, cutoff).sum(axis=0)
            assert p[outside].sum() == 0.0
            assert abs(p.sum() - 1.0) < 1e-12


def test_tunnel_gate_single_photon_beamsplitter():
    # at j = pi/4 a single photon splits evenly between the modes
    cutoff = 3
    layout = kerr_layout(cutoff)
    one = np.zeros(cutoff)
    one[1] = 1.0
    vac = np.zeros(cutoff)
    vac[0] = 1.0
    psi0 = product_state(layout, [one, vac])
    out = apply(tunnel_gate(np.pi / 4, cutoff), psi0)
    p10 = abs(out.tensor()[1, 0]) ** 2
    p01 = abs(out.tensor()[0, 1]) ** 2
    assert abs(p10 - 0.5) < 1e-12 and abs(p01 - 0.5) < 1e-12


def test_apply_preserves_norm_and_checks_targets():
    rng = np.random.default_rng(7)
    layout = jc_layout(5)
    state = _random_state(layout, rng)
    for gate in (jc_gate(0.9, 5, (0, 2)), jc_gate(0.9, 5, (1, 3)),
                 detune_gate(0.5, 1), tunnel_gate(1.1, 5)):
        state = apply(gate, state)
    assert abs(state.norm() - 1.0) < 1e-10
    with pytest.raises(LayoutError):
        apply(jc_gate(1.0, 5, (0, 0)), state)
    with pytest.raises(LayoutError):
        apply(jc_gate(1.0, 5, (0, 7)), state)
    with pytest.raises(LayoutError):
        apply(kerr_gate(1.0, 4, 2), state)  # dim mismatch on a qubit-adjacent axis


def test_gate_application_matches_dense_kron():
    """Axis bookkeeping: local application equals the full kron matrix."""
    rng = np.random.default_rng(3)
    cutoff = 4
    layout = jc_layout(cutoff)
    state = _random_state(layout, rng)
    gate = jc_gate(0.6, cutoff, (1, 3))
    # dense operator: I_2 x U permuted onto axes (1, 3) of (2,2,c,c)
    u = gate_matrix(gate).reshape(2, cutoff, 2, cutoff)
    psi = state.tensor()
    expected = np.einsum("bdac,xayc->xbyd", u, psi)
    out = apply(gate, state)
    np.testing.assert_allclose(out.tensor(), expected, atol=1e-12)


def test_evolve_continuous_composes_pairs():
    layout = jc_layout(4)
    rng = np.random.default_rng(11)
    state = _random_state(layout, rng)
    t = 0.9
    direct = evolve_continuous("jc", t, state)
    g0 = apply(jc_gate(t, 4, (0, 2)), state)
    both = apply(jc_gate(t, 4, (1, 3)), g0)
    np.testing.assert_allclose(direct.amplitudes, both.amplitudes, atol=1e-12)
    with pytest.raises(LayoutError):
        evolve_continuous("jc", 1.0, _random_state(kerr_layout(4), rng))
    with pytest.raises(ValueError):
        evolve_continuous("squeeze", 1.0, state)


@pytest.mark.parametrize("kind", ["kerr", "jc"])
@pytest.mark.parametrize("n_mean, cutoff", [(4.0, 13), (20.0, 40)])
def test_coherent_input_state_is_the_kron_product_bit_for_bit(kind, n_mean, cutoff):
    amps = coherent_input_state(kind, n_mean, cutoff).amplitudes
    assert amps.tobytes() == kron_input_amplitudes(kind, n_mean, cutoff).tobytes()


def test_coherent_input_state_shapes_and_mean():
    state = coherent_input_state("kerr", 8.0, 18)
    assert state.layout.dims == (18, 18)
    tensor = state.tensor()
    n = np.arange(18)
    marg = np.sum(np.abs(tensor) ** 2, axis=1)
    assert abs(np.dot(n, marg) - 4.0) < 1e-4  # half the photons per mode

    jc = coherent_input_state("jc", 8.0, 18)
    assert jc.layout.dims == (2, 2, 18, 18)
    # emitters start in the ground state
    assert np.allclose(jc.tensor()[1], 0) and np.allclose(jc.tensor()[:, 1], 0)
