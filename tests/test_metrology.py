import numpy as np
import pytest

from modefisher.analysis import sweep_continuous
from modefisher.circuits import AnsatzParams, prepare_probe
from modefisher.dynamics import coherent_input_state, coherent_state, evolve_continuous
from modefisher.encoding import (PhaseFamily, _family_scatter, _family_tables, _rotate,
                                 _rotated_probe, _slot_phase, _slot_tables, encoded_family)
from modefisher.hilbert import (CompositeState, LayoutError, default_cutoff, jc_layout,
                                kerr_layout, product_state)
from modefisher.metrology import (
    PROBABILITY_FLOOR,
    GridError,
    MeasurementModel,
    QuadratureGrid,
    bounds,
    cfi,
    qfi_fidelity,
    qfi_variance_oracle,
)
from modefisher.metrology import (_ROW_BLOCK, _angle_phase, _check_density, _counting_table,
                                  _hermite_functions, _quadrature_blocks)
from modefisher.optimize import jc_first_dip

from dense_reference import quadrature_amplitudes


def _random_probe(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return CompositeState(layout, amps / np.linalg.norm(amps))


def _fock_family(state, derivative, phi):
    """A family given by its Fock-order state and derivative."""
    stack = np.stack((state.tensor(), derivative.tensor()))
    return PhaseFamily.from_fock(state.layout, stack, phi)


def test_bounds_closed_forms():
    b = bounds(20.0)
    assert b.sql_inv_fi == 0.05
    assert b.tfs_inv_fi == 2.0 / 440.0
    assert b.hl_inv_fi == 0.0025
    b2 = bounds(2.0)
    assert b2.tfs_inv_fi == b2.hl_inv_fi == 0.25
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="n_mean"):
            bounds(bad)


def test_coherent_probe_sits_at_shot_noise():
    # independent photons: F_Q = N regardless of how the light is split
    # (tolerance reflects the 1e-6 truncation-tail guard, which perturbs
    # the photon-number variance at the 1e-5 level)
    for n_mean in (1.0, 4.0, 9.0):
        probe = coherent_input_state("kerr", n_mean, max(14, int(3 * n_mean)))
        fq = qfi_variance_oracle(probe).value
        assert abs(fq - n_mean) / n_mean < 2e-4, n_mean


def test_qfi_estimator_agrees_with_variance_route():
    probe = _random_probe(kerr_layout(10), 5)
    est = qfi_fidelity(probe)
    oracle = qfi_variance_oracle(probe)
    assert abs(est.value - oracle.value) / oracle.value < 1e-3


def test_qfi_matches_fidelity_of_two_encodings():
    """The probe-only QFI equals the overlap of two encodings at every phase point."""
    delta = 1e-2
    rng = np.random.default_rng(12)
    for kind, width in (("kerr", 2), ("jc", 3)):
        for _ in range(3):
            params = AnsatzParams.from_vector(kind, rng.normal(size=2 * width))
            probe = prepare_probe(params, 6.0)
            value = qfi_fidelity(probe).value
            for phi in (0.3, np.pi / 3, 1.9):
                left = encoded_family(probe, phi).state
                right = encoded_family(probe, phi + delta).state
                ref = 8.0 * (1.0 - abs(np.vdot(left.amplitudes, right.amplitudes))) / delta**2
                assert abs(value - ref) <= 1e-10 * ref, (kind, phi, value, ref)


def test_qfi_input_guards():
    layout = kerr_layout(6)
    bad = CompositeState(layout, 0.5 * np.eye(36)[0], check_norm=False)
    with pytest.raises(ValueError):
        qfi_fidelity(bad)
    # exchange representatives are a complex (c, c//2 + 1) table of unit norm
    x = np.zeros((6, 4), dtype=complex)
    x[0, 0] = 0.5
    with pytest.raises(ValueError, match="probe"):
        qfi_fidelity(x)
    for table in (np.zeros((6, 6), dtype=complex), np.zeros((6, 4)), np.zeros(24, dtype=complex)):
        with pytest.raises(LayoutError):
            qfi_fidelity(table)


def test_one_unit_norm_tolerance():
    """Constructor, QFI and the counting CFI accept and reject the same norms."""
    family = encoded_family(_random_probe(kerr_layout(6), 3))
    model = MeasurementModel("counting")
    for norm, accepted in ((1 - 0.9e-6, True), (1 + 0.9e-6, True), (1 + 1.1e-6, False)):
        amps = norm * family.state.amplitudes
        state = CompositeState(family.state.layout, amps, check_norm=False)
        checks = (lambda: CompositeState(state.layout, amps),
                  lambda: qfi_fidelity(state),
                  lambda: cfi(_fock_family(state, family.derivative, family.phi), model))
        for check in checks:
            if accepted:
                check()
            else:
                with pytest.raises(ValueError):
                    check()


def _fock_stack(probe, phi):
    """The encoded (state, derivative) pair built straight to Fock order: the
    rotated stack with Q† applied in place, then one scatter."""
    y, _ = _rotated_probe(probe)
    c, spectators = probe.layout.cutoff, y.shape[2]
    phase, tangent = _family_tables(phi, c, spectators)
    stack = np.empty((*y.shape, 2), dtype=np.complex128)
    np.multiply(y, phase, out=stack[..., 0])
    np.multiply(stack[..., 0], tangent, out=stack[..., 1])
    z = _rotate(stack.reshape(c, c, -1))
    _slot_phase(z, _slot_tables(c)[0].conj())
    return np.take(z, _family_scatter(probe.layout))


def _skew_probes(cutoff):
    """Evolved JC and Kerr probes and random asymmetric states at one cutoff."""
    n_mean = {13: 4.0, 18: 6.0, 40: 20.0}[cutoff]
    probes = [evolve_continuous(kind, t, coherent_input_state(kind, n_mean, cutoff))
              for kind, t in (("jc", 0.9), ("jc", 2.6), ("kerr", 0.3))]
    return probes + [_random_probe(layout(cutoff), cutoff) for layout in (jc_layout, kerr_layout)]


@pytest.mark.parametrize("cutoff", [13, 18, 40])
def test_from_fock_gives_the_stack_back_bit_for_bit(cutoff):
    rng = np.random.default_rng(cutoff)
    for layout in (jc_layout(cutoff), kerr_layout(cutoff)):
        stack = rng.normal(size=(2, *layout.dims)) + 1j * rng.normal(size=(2, *layout.dims))
        family = PhaseFamily.from_fock(layout, stack, 0.4)
        assert family.layout == family.state.layout == family.derivative.layout == layout
        assert family.state.tensor().tobytes() == stack[0].tobytes()
        assert family.derivative.tensor().tobytes() == stack[1].tobytes()
        assert family.fock().tobytes() == stack.tobytes()


def _dense_counting(state, derivative, include_emitters):
    """Counting CFI summed cell by cell in Fock order."""
    amp, damp = state.tensor(), derivative.tensor()
    p = np.abs(amp) ** 2
    dp = 2.0 * (amp.conj() * damp).real
    if not include_emitters and state.layout.qubit_indices:
        p = p.sum(axis=state.layout.qubit_indices)
        dp = dp.sum(axis=state.layout.qubit_indices)
    mask = p > PROBABILITY_FLOOR
    return float((dp[mask] ** 2 / p[mask]).sum())


@pytest.mark.parametrize("cutoff", [13, 18, 40])
def test_counting_on_fock_order_families_matches_a_dense_sum(cutoff):
    """Families given in Fock order, as a measurement circuit leaves them:
    counting reads their skew-block stack and agrees with the Fock-order sum
    up to the order of the sum."""
    for probe in _skew_probes(cutoff):
        for phi in (0.4, np.pi / 3):
            encoded = encoded_family(probe, phi)
            family = _fock_family(encoded.state, encoded.derivative, phi)
            for keep in (False, True):
                value = cfi(family, MeasurementModel("counting", include_emitters=keep)).value
                ref = _dense_counting(encoded.state, encoded.derivative, keep)
                assert abs(value - ref) <= 1e-14 * ref, (probe.layout, phi, keep)


def test_cfi_never_builds_the_fock_order_views(monkeypatch):
    probe = _random_probe(jc_layout(8), 6)
    encoded = encoded_family(probe, 0.9)
    families = (encoded, _fock_family(encoded.state, encoded.derivative, 0.9))

    def refuse(self):
        raise AssertionError("cfi built a Fock-order view")

    monkeypatch.setattr(PhaseFamily, "state", property(refuse))
    monkeypatch.setattr(PhaseFamily, "derivative", property(refuse))
    for family in families:
        for model in (MeasurementModel("counting"),
                      MeasurementModel("homodyne", include_emitters=True,
                                       grid=QuadratureGrid(points=201))):
            assert cfi(family, model).value > 0


@pytest.mark.parametrize("cutoff", [13, 18, 40])
def test_encoded_family_builds_the_fock_order_bit_for_bit(cutoff):
    for probe in _skew_probes(cutoff):
        family = encoded_family(probe, 0.7)
        ref = _fock_stack(probe, 0.7)
        assert family.state.layout == family.derivative.layout == probe.layout
        assert np.array_equal(family.state.tensor(), ref[0])
        assert np.array_equal(family.derivative.tensor(), ref[1])
        assert family.state is family.state  # built once per family


def test_counting_on_the_skew_stack_keeps_the_norm_check():
    probe = _random_probe(jc_layout(13), 2)
    scaled = CompositeState(probe.layout, (1 + 1.1e-6) * probe.amplitudes, check_norm=False)
    with pytest.raises(ValueError, match="counting table"):
        cfi(encoded_family(scaled), MeasurementModel("counting"))


def _fock_orders_built() -> int:
    info = _family_scatter.cache_info()
    return info.hits + info.misses


def test_counting_sweep_never_builds_the_fock_order():
    before = _fock_orders_built()
    sweep_continuous("jc", 4.0, time_grid=(0.3, 0.9, 1.4), include_cfi_counting=True)
    assert _fock_orders_built() == before
    # the count is live: homodyne readout builds it once per point
    sweep_continuous("jc", 4.0, time_grid=(0.3, 0.9, 1.4), include_cfi_homodyne=True)
    assert _fock_orders_built() == before + 3


def test_counting_probabilities_normalized():
    state = _random_probe(jc_layout(6), 9)
    p = _counting_table(state.tensor(), (0, 1))
    assert p.shape == (6, 6)
    assert abs(p.sum() - 1.0) < 1e-10
    p_full = _counting_table(state.tensor(), ())
    assert p_full.shape == (2, 2, 6, 6)
    np.testing.assert_allclose(p_full.sum(axis=(0, 1)), p, atol=1e-12)


def test_homodyne_density_normalized_and_grid_guards():
    state = _random_probe(kerr_layout(8), 11)
    x = QuadratureGrid().axis(8)
    p = np.abs(quadrature_amplitudes(state, 0.4, x)) ** 2
    w = np.gradient(x)
    assert abs(np.sum(p * np.outer(w, w)) - 1.0) < 1e-6
    with pytest.raises(GridError):
        QuadratureGrid(points=100).axis(8)
    for x_max in (2.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(GridError, match="x_max"):
            QuadratureGrid(x_max=x_max).axis(8)
    # a NaN state is rejected as such, not as a grid too small for it
    nan_family = PhaseFamily.from_fock(state.layout, np.full((2, 8, 8), np.nan, complex), 0.9)
    with pytest.raises(ValueError, match="not finite") as raised:
        cfi(nan_family, MeasurementModel("homodyne", theta=0.4))
    assert not isinstance(raised.value, GridError)
    # a NaN total is no total: abs(nan - 1) > tol is False
    with pytest.raises(GridError, match="nan"):
        _check_density(float("nan"))


# the default grid's stated accuracy: within GRID_RTOL of a REFERENCE_POINTS grid
GRID_RTOL = 3e-3
REFERENCE_POINTS = 2401
# best-by-QFI d=5 probe of runs/prep_kerr_n20 (seed 4), the state whose
# homodyne CFI moves most with the grid count
KERR_N20_D5 = [571729.8032784504, -0.0895766535526332, -1.1897872178301796,
               0.5102796684275328, 0.005759276123320912, -0.2738412904194,
               -0.03119250087944472, -0.16562701989343967, -0.18233232495705295,
               -0.06762566005373925]


def test_default_grid_meets_its_stated_tolerance():
    """The theta-sweep probes at N=20, cutoff 40: the JC probe g=5 with
    emitter outcomes kept, and the Kerr probe K=pi/4 in its carrier frame."""
    for kind, t, keep, frame in (("jc", 5.0, True, 0.0),
                                 ("kerr", np.pi / 4, False, -np.pi / 4)):
        family = encoded_family(evolve_continuous(kind, t, coherent_input_state(kind, 20.0, 40)))
        for theta in (0.0, np.pi / 2, 2 * np.pi / 3):
            f, ref = (cfi(family, MeasurementModel("homodyne", include_emitters=keep,
                                                   theta=theta + frame, grid=grid)).value
                      for grid in (QuadratureGrid(), QuadratureGrid(points=REFERENCE_POINTS)))
            assert abs(f / ref - 1.0) <= GRID_RTOL, (kind, theta, f, ref)


def test_every_grid_count_above_the_default_meets_the_tolerance():
    """The error oscillates with the count, so a count that passes can sit
    among counts that fail; every odd count from the default up to 801 must pass."""
    family = encoded_family(prepare_probe(AnsatzParams.from_vector("kerr", KERR_N20_D5),
                                          20.0, cutoff=40))
    f = {points: cfi(family, MeasurementModel("homodyne", grid=QuadratureGrid(points=points))).value
         for points in (REFERENCE_POINTS, *range(QuadratureGrid().points, 801 + 2, 2))}
    for points, value in f.items():
        assert abs(value / f[REFERENCE_POINTS] - 1.0) <= GRID_RTOL, (points, value)


def test_homodyne_vacuum_marginal_is_gaussian():
    layout = kerr_layout(6)
    amps = np.zeros(36)
    amps[0] = 1.0
    vac = CompositeState(layout, amps)
    x = QuadratureGrid().axis(6)
    p = np.abs(quadrature_amplitudes(vac, 0.0, x)) ** 2
    marginal = np.trapezoid(p, x, axis=1)
    np.testing.assert_allclose(marginal, np.exp(-x * x) / np.sqrt(np.pi), atol=1e-9)


def _dense_homodyne(family, theta, x, include_emitters):
    """Reference kernel: full complex quadrature tables of state and derivative.

    Rotates each mode axis to the quadrature basis
    (:func:`dense_reference.quadrature_amplitudes`), then forms p and dp
    on the whole grid and trapezoid-weights dp^2/p.
    Returns (p, cfi).
    """
    amp, damp = (quadrature_amplitudes(s, theta, x) for s in (family.state, family.derivative))
    p = np.abs(amp) ** 2
    dp = 2.0 * (amp.conj() * damp).real
    if not include_emitters and family.state.layout.qubit_indices:
        p = p.sum(axis=family.state.layout.qubit_indices)
        dp = dp.sum(axis=family.state.layout.qubit_indices)
    w = np.full(len(x), x[1] - x[0])
    w[0] = w[-1] = 0.5 * (x[1] - x[0])
    mask = p > PROBABILITY_FLOOR
    quot = np.zeros_like(p)
    quot[mask] = dp[mask] ** 2 / p[mask]
    return p, float(np.sum(quot @ w @ w))


@pytest.mark.parametrize("points", [201, 403, 801])
def test_homodyne_kernel_matches_dense_tables(points):
    """Row-blocked real kernel against the full complex tables.

    None of the sizes is a multiple of the row block (403 leaves 19 rows),
    so the last block is short.
    """
    grid = QuadratureGrid(points=points)
    phi = 0.9
    for layout, seed in ((kerr_layout(12), 3), (jc_layout(8), 4)):
        family = encoded_family(_random_probe(layout, seed), phi)
        x = grid.axis(layout.cutoff)
        for theta in (0.0, 1.3):
            for keep in (False, True):
                model = MeasurementModel("homodyne", include_emitters=keep,
                                         theta=theta, grid=grid)
                _, f_ref = _dense_homodyne(family, theta - 0.5 * phi, x, keep)
                f = cfi(family, model).value
                assert abs(f - f_ref) <= 1e-12 * f_ref, (layout.dims, theta, keep)


def _support_window(family, theta, x):
    """Rows and columns that the windowed homodyne kernel contracts."""
    cutoff = family.layout.cutoff
    tables = family.fock().reshape(2, -1, cutoff, cutoff) * _angle_phase(cutoff, theta)
    spans = [(rows, cols) for rows, cols, _ in _quadrature_blocks(tables, x)]
    return slice(spans[0][0].start, spans[-1][0].stop), spans[0][1]


def _mode_one_window(family, theta, x):
    """Support window from the full mode-1 and mode-2 contractions of the state.

    R(x1) = Kmax sum |sum_n1 psi_n1(x1) a[q, n1, n2]|^2 over (q, n2), and
    C(x2) the same with n2 contracted; the kernel gets both from Gram
    matrices instead.
    """
    layout = family.state.layout
    cutoff = layout.cutoff
    n = np.arange(cutoff)
    amps = np.moveaxis(family.state.tensor(), layout.mode_indices, (-2, -1))
    amps = amps.reshape(-1, cutoff, cutoff) * np.exp(1j * theta * (n[:, None] + n[None, :]))
    h = _hermite_functions(cutoff, float(x[-1]), len(x))
    kmax = (h * h).sum(axis=0).max()
    row = kmax * (np.abs(np.einsum("ni,qnm->iqm", h, amps)) ** 2).sum(axis=(1, 2))
    col = kmax * (np.abs(np.einsum("mj,qnm->jqn", h, amps)) ** 2).sum(axis=(1, 2))
    spans = [np.nonzero(bound >= 0.5 * PROBABILITY_FLOOR)[0] for bound in (row, col)]
    return tuple(slice(kept[0], kept[-1] + 1) for kept in spans)


def test_homodyne_window_is_certified():
    """Cells outside the support window hold p <= floor/2, and cfi skips them.

    Both probes have compact quadrature support at the default cutoff,
    so the window lies strictly inside the grid.  The kernel's Gram-matrix
    bounds select the same window as the fully contracted amplitudes.
    """
    cutoff = default_cutoff(8.0)
    jc = evolve_continuous("jc", jc_first_dip(8.0, cutoff),
                           coherent_input_state("jc", 8.0, cutoff))
    kerr = coherent_input_state("kerr", 8.0, cutoff)
    grid = QuadratureGrid()
    x = grid.axis(cutoff)
    phi = 0.9
    for probe in (jc, kerr):
        family = encoded_family(probe, phi)
        for theta in (0.0, 1.3):
            frame = theta - 0.5 * phi
            rows, cols = _support_window(family, frame, x)
            assert (rows, cols) == _mode_one_window(family, frame, x)
            assert 0 < rows.start < rows.stop < len(x), rows
            assert 0 < cols.start < cols.stop < len(x), cols
            outside = np.ones((len(x), len(x)), dtype=bool)
            outside[rows, cols] = False
            for keep in (False, True):
                p_ref, f_ref = _dense_homodyne(family, frame, x, keep)
                assert p_ref[..., outside].max() <= 0.5 * PROBABILITY_FLOOR
                model = MeasurementModel("homodyne", include_emitters=keep,
                                         theta=theta, grid=grid)
                f = cfi(family, model).value
                assert abs(f - f_ref) <= 1e-12 * f_ref, (probe.layout.dims, theta, keep)


def test_homodyne_window_edges():
    """Asymmetric, short-block and full-grid windows against the dense kernel."""
    cutoff = 20
    vacuum = np.eye(cutoff)[0]
    # at phi = 0 the interferometer swaps the modes: light in mode 1 only,
    # displaced along the quadrature measured at theta = pi/2
    displaced = encoded_family(
        product_state(kerr_layout(cutoff), [vacuum, coherent_state(1.5, cutoff)]), 0.0)
    wide = QuadratureGrid(points=403)
    x = wide.axis(cutoff)
    rows, cols = _support_window(displaced, np.pi / 2, x)
    assert rows.start - (len(x) - rows.stop) > 50, rows
    assert cols.start == len(x) - cols.stop > 50, cols
    assert (rows.stop - rows.start) % _ROW_BLOCK != 0
    # a random probe over the whole cutoff on the narrowest allowed grid
    # keeps density at both ends, where the trapezoid weights are halved
    tight = QuadratureGrid(x_max=np.sqrt(12.0) + 3.0, points=403)
    spread = encoded_family(_random_probe(kerr_layout(6), 21), 0.9)
    assert _support_window(spread, 0.3 - 0.45, tight.axis(6)) == (slice(0, 403),) * 2
    for family, grid, theta in ((displaced, wide, np.pi / 2), (displaced, wide, 0.0),
                                (spread, tight, 0.3)):
        frame = theta - 0.5 * family.phi
        _, f_ref = _dense_homodyne(family, frame, grid.axis(family.state.layout.cutoff), False)
        f = cfi(family, MeasurementModel("homodyne", theta=theta, grid=grid)).value
        assert abs(f - f_ref) <= 1e-12 * f_ref, theta
    # no cell reaches the floor: the empty window fails the density check
    faint = CompositeState(spread.state.layout, 1e-7 * spread.state.amplitudes,
                           check_norm=False)
    assert not list(_quadrature_blocks(faint.amplitudes.reshape(1, 1, 6, 6), tight.axis(6)))
    with pytest.raises(GridError):
        cfi(_fock_family(faint, spread.derivative, spread.phi), MeasurementModel("homodyne"))


def test_cfi_upper_bounded_by_qfi():
    for seed in range(6):
        probe = _random_probe(kerr_layout(8), seed)
        family = encoded_family(probe)
        fq = qfi_variance_oracle(probe).value
        for model in (MeasurementModel("counting"),
                      MeasurementModel("homodyne", theta=0.3)):
            fc = cfi(family, model).value
            assert fc <= fq * (1 + 1e-6), (seed, model.kind)


def test_counting_cfi_on_twin_fock_probe():
    """A two-photon Hong-Ou-Mandel pair: closed-form Fisher check.

    A 50:50 splitter maps |1,1> onto (|2,0> - |0,2>)/sqrt(2), an equal
    superposition of generator eigenvalues -1 and +1, so Var(G) = 1 and
    F_Q = 4.  Photon counting extracts all of it at every phase.
    """
    layout = kerr_layout(4)
    amps = np.zeros(16)
    amps[np.ravel_multi_index((1, 1), (4, 4))] = 1.0
    probe = CompositeState(layout, amps)
    fq = qfi_variance_oracle(probe).value
    assert abs(fq - 4.0) < 1e-12
    for phi in (0.3, 0.6, 1.0):
        fc = cfi(encoded_family(probe, phi), MeasurementModel("counting")).value
        assert abs(fc - fq) < 1e-9, phi


def test_jc_emitter_outcomes_matter_after_interaction():
    probe = evolve_continuous("jc", 1.2, coherent_input_state("jc", 4.0, 13))
    family = encoded_family(probe)
    with_q = cfi(family, MeasurementModel("counting", include_emitters=True)).value
    without = cfi(family, MeasurementModel("counting", include_emitters=False)).value
    fq = qfi_variance_oracle(probe).value
    assert without <= with_q * (1 + 1e-9)
    assert with_q <= fq * (1 + 1e-6)


def test_measurement_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel("heterodyne")
