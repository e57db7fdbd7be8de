import numpy as np
import pytest

from modefisher.analysis import default_cutoff
from modefisher.cli import main
from modefisher.dynamics import coherent_input_state, evolve_continuous
from modefisher.hilbert import coherent_state, reduce_to_mode
from modefisher.metrology import GridError
from modefisher.wigner import default_axes, wigner


def _fock_rho(dim, n):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def test_vacuum_is_the_standard_gaussian():
    x, p = default_axes(half_width=6.0, points=161)
    grid = wigner(_fock_rho(5, 0), x, p)
    expected = np.exp(-(x[None, :] ** 2 + p[:, None] ** 2)) / np.pi
    np.testing.assert_allclose(grid.values, expected, atol=1e-12)
    assert abs(grid.values[80, 80] - 1.0 / np.pi) < 1e-12
    assert abs(grid.integral() - 1.0) < 1e-9


def test_coherent_state_is_a_displaced_gaussian():
    alpha = 1.3 - 0.6j
    vec = coherent_state(alpha, 30)
    rho = np.outer(vec, vec.conj())
    x, p = default_axes(half_width=8.0, points=201)
    grid = wigner(rho, x, p)
    x0, p0 = np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag
    expected = np.exp(-((x[None, :] - x0) ** 2 + (p[:, None] - p0) ** 2)) / np.pi
    np.testing.assert_allclose(grid.values, expected, atol=1e-8)


def test_single_photon_negative_at_origin():
    x, p = default_axes(half_width=6.0, points=161)
    grid = wigner(_fock_rho(5, 1), x, p)
    # W(0,0) = -1/pi for the one-photon state
    i0 = 80
    assert abs(grid.values[i0, i0] + 1.0 / np.pi) < 1e-12
    assert abs(grid.integral() - 1.0) < 1e-9


def test_cat_state_interference_fringes():
    a = 2.0
    vec = coherent_state(a, 30) + coherent_state(-a, 30)
    vec = vec / np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    x, p = default_axes(half_width=8.0, points=241)
    grid = wigner(rho, x, p)
    assert abs(grid.integral() - 1.0) < 1e-6
    assert grid.values.min() < -0.05  # fringes go deeply negative
    # purity through phase space: 2 pi integral of W^2 equals 1
    dx = x[1] - x[0]
    purity = 2 * np.pi * np.trapezoid(
        np.trapezoid(grid.values ** 2, dx=dx, axis=1), dx=dx)
    assert abs(purity - 1.0) < 1e-6


def test_mixed_state_purity_below_one():
    rho = 0.5 * _fock_rho(6, 0) + 0.5 * _fock_rho(6, 2)
    x, p = default_axes(half_width=6.0, points=201)
    grid = wigner(rho, x, p)
    dx = x[1] - x[0]
    purity = 2 * np.pi * np.trapezoid(
        np.trapezoid(grid.values ** 2, dx=dx, axis=1), dx=dx)
    assert abs(purity - 0.5) < 1e-6


def test_reduced_mode_of_evolved_state():
    state = evolve_continuous("kerr", 0.5, coherent_input_state("kerr", 4.0, 14))
    rho = reduce_to_mode(state, 0)
    x, p = default_axes(9.0, 201)
    grid = wigner(rho, x, p)
    assert abs(grid.integral() - 1.0) < 1e-6
    assert grid.values.min() < -1e-4  # Kerr evolution is non-Gaussian


def test_small_grid_rejected():
    vec = coherent_state(2.5, 30)
    rho = np.outer(vec, vec.conj())
    x, p = default_axes(half_width=2.0, points=201)
    with pytest.raises(GridError):
        wigner(rho, x, p)
    with pytest.raises(ValueError):
        wigner(np.zeros((3, 4)), *default_axes(9.0, 201))


def test_wigner_csv_layout(tmp_path):
    out = tmp_path / "wig"
    assert main(["wigner", "--kind", "kerr", "--n", "1", "--time", "0.3",
                 "--half-width", "6", "--grid-points", "101", "--outdir", str(out)]) == 0
    x, p = default_axes(half_width=6.0, points=101)
    psi = evolve_continuous("kerr", 0.3, coherent_input_state("kerr", 1.0, default_cutoff(1.0)))
    grid = wigner(reduce_to_mode(psi, 0), x, p)
    lines = (out / "wigner.csv").read_text().splitlines()
    assert lines[0].startswith("# schema=modefisher-csv/1 manifest=")
    top = lines[1].split(",")
    assert top[0] == "" and float(top[1]) == -6.0
    row = lines[2].split(",")
    assert float(row[0]) == -6.0
    assert len(row) == len(x) + 1
    # row i holds W(x_j, p_i) after its p value
    table = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[2:]])
    np.testing.assert_allclose(table, grid.values, atol=1e-12)
