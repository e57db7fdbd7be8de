import math
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import modefisher
import modefisher.encoding
from modefisher.analysis import (
    NoCrossingError,
    SweepRecord,
    default_cutoff,
    find_minima,
    fit,
    sweep_continuous,
    sweep_theta,
    time_to_tfs,
)
from modefisher.artifacts import read_csv_rows, write_csv
from modefisher.dynamics import apply, coherent_input_state, evolve_continuous
from modefisher.encoding import encoded_family
from modefisher.metrology import MeasurementModel, bounds, cfi, inverse_fisher, qfi_fidelity


def test_default_cutoff_values():
    # 2N is enough once the coherent tail clears the 1e-6 guard
    assert default_cutoff(20.0) == 40
    assert default_cutoff(12.0) == 24
    # small N needs head room beyond 2N
    assert default_cutoff(4.0) == 13
    assert default_cutoff(8.0) == 18
    for n in (2.0, 4.0, 8.0, 20.0):
        assert default_cutoff(n) >= 2 * n


def _records(times, values):
    return [SweepRecord("kerr", 4.0, t, v) for t, v in zip(times, values)]


def test_find_minima_single_parabola():
    t = np.linspace(0.0, 2.0, 21)
    y = (t - 0.93) ** 2 + 0.5
    minima = find_minima(_records(t, y))
    assert len(minima) == 1
    t_min, y_min = minima[0]
    assert abs(t_min - 0.93) < 1e-12  # parabolic refinement is exact here
    assert abs(y_min - 0.5) < 1e-12


def test_find_minima_prominence_filters_ripple():
    t = np.linspace(0.0, 4.0 * np.pi, 400)
    y = np.cos(t) + 0.004 * np.sin(41 * t)
    records = _records(t, y + 2.0)
    strict = find_minima(records, min_prominence=0.0)
    assert len(strict) > 2  # ripple shows up
    filtered = find_minima(records)
    assert len(filtered) == 2
    for t_min, _ in filtered:
        assert min(abs(t_min - np.pi), abs(t_min - 3 * np.pi)) < 0.1


def test_find_minima_needs_three_points():
    with pytest.raises(ValueError):
        find_minima(_records([0.0, 1.0], [1.0, 2.0]))


def test_fit_recovers_synthetic_curves():
    x = np.arange(4, 25, 2, dtype=float)
    res = fit("sqrt", x, 2.0 * np.sqrt(x + 1.0) + 3.0)
    assert res.model == "sqrt"
    np.testing.assert_allclose(res.coefficients, [2.0, 1.0, 3.0], atol=1e-6)
    assert res.r_squared > 1.0 - 1e-12

    res = fit("powerlaw", x, 5.0 * x ** -0.31)
    np.testing.assert_allclose(res.coefficients, [5.0, -0.31], atol=1e-9)

    for unknown in ("linear", "cubic"):
        with pytest.raises(ValueError, match="unknown fit model"):
            fit(unknown, x, x)
    with pytest.raises(ValueError):
        fit("sqrt", x[:2], x[:2])


def test_sweep_includes_zero_time_shot_noise():
    records = sweep_continuous("kerr", 4.0, time_grid=[0.0, 0.1, 0.2],
                               include_cfi_counting=True)
    assert [r.time for r in records] == [0.0, 0.1, 0.2]
    sql = bounds(4.0).sql_inv_fi
    assert abs(records[0].inv_qfi - sql) / sql < 1e-3
    for r in records:
        assert r.inv_cfi_counting >= r.inv_qfi * (1 - 1e-6)
        assert r.inv_cfi_homodyne is None


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        sweep_continuous("kerr", 4.0, time_grid=[0.3, 0.2, 0.1])
    with pytest.raises(ValueError):
        sweep_continuous("kerr", 4.0, time_grid=[0.5])


def test_time_to_tfs_reaches_target():
    t = time_to_tfs("kerr", 4.0)
    fq_target = 4.0 * 6.0 / 2.0 - 1.0
    records = sweep_continuous("kerr", 4.0, time_grid=[t, t + 1e-3])
    assert 1.0 / records[0].inv_qfi >= fq_target - 0.05
    with pytest.raises(NoCrossingError):
        time_to_tfs("kerr", 4.0, time_grid=list(np.linspace(0.0, 1e-4, 8)))


def test_theta_sweep_relabels_kerr_frame():
    from modefisher.dynamics import apply, coherent_input_state, evolve_continuous
    from modefisher.encoding import encoded_family
    from modefisher.metrology import MeasurementModel, cfi

    thetas = [0.0, 0.5, 1.0]
    samples, theta_min = sweep_theta("kerr", 4.0, 0.3, thetas)
    assert [s[0] for s in samples] == thetas
    assert theta_min in thetas
    # a lab angle theta is evaluated at model angle theta - t: the gate
    # convention rotates the carrier by the interaction time, and the
    # local oscillator tracks the carrier
    probe = evolve_continuous("kerr", 0.3, coherent_input_state("kerr", 4.0, 13))
    family = encoded_family(probe)
    fc = cfi(family, MeasurementModel("homodyne", theta=0.5 - 0.3)).value
    assert abs(samples[1][1] - 1.0 / fc) < 1e-12


def test_sweep_csv_round_trip(tmp_path):
    records = [
        SweepRecord("kerr", 4.0, 0.1, 0.25, 0.3, None),
        SweepRecord("kerr", 4.0, 0.2, 0.2, 0.28, None),
    ]
    path = tmp_path / "sweep.csv"
    header = ["kind", "N", "time", "inv_qfi", "inv_cfi_counting", "inv_cfi_homodyne"]
    write_csv(path, "0", header, [astuple(r) for r in records])
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=modefisher-csv/1 manifest=0"
    assert lines[1].split(",")[:4] == ["kind", "N", "time", "inv_qfi"]
    row = lines[2].split(",")
    assert row[0] == "kerr"
    assert float(row[2]) == 0.1
    assert row[-1] == ""  # absent homodyne column stays empty

    _, rows = read_csv_rows(path)
    back = [SweepRecord(r["kind"], float(r["N"]), float(r["time"]), float(r["inv_qfi"]),
                        float(r["inv_cfi_counting"]), r["inv_cfi_homodyne"] or None)
            for r in rows]
    assert back == records


@pytest.mark.parametrize("kind, times", [("jc", (0.0, 0.7, 2.3)), ("kerr", (0.0, 0.05, 0.4))])
def test_sweep_values_equal_the_standalone_calls(kind, times):
    # one shared beam-split probe: the same bits as the two standalone routes
    records = sweep_continuous(kind, 4.0, time_grid=times, include_cfi_counting=True)
    psi0 = coherent_input_state(kind, 4.0, default_cutoff(4.0))
    model = MeasurementModel("counting", include_emitters=kind == "jc")
    for r in records:
        probe = evolve_continuous(kind, r.time, psi0)
        assert r.inv_qfi == inverse_fisher(qfi_fidelity(probe).value)
        assert r.inv_cfi_counting == inverse_fisher(cfi(encoded_family(probe), model).value)


def test_sweep_point_splits_its_probe_once(monkeypatch):
    # the QFI and the encoded family share the rotated probe: one rotation
    # of the probe and one of the (state, tangent) stack per point, no gate
    rotations, applied = [], []

    def counting_rotate(x):
        rotations.append(x.shape[2] // 4)  # 4 spectator columns per probe here
        return rotate(x)

    def counting_apply(gate, state, layout=None):
        applied.append(gate.label)
        return apply(gate, state, layout)

    rotate = modefisher.encoding._rotate
    monkeypatch.setattr(modefisher.encoding, "_rotate", counting_rotate)
    monkeypatch.setattr(modefisher.encoding, "apply", counting_apply)
    sweep_continuous("jc", 4.0, time_grid=(0.3, 0.9, 1.4), include_cfi_counting=True)
    assert rotations == [1, 2] * 3
    assert applied == []


def test_package_import_leaves_scipy_solvers_unloaded():
    # the CLI and one tiny Kerr and JC preparation stage need neither solver
    code = ("import sys, modefisher, modefisher.cli; "
            "from modefisher.optimize import OptimizerConfig, optimize_preparation; "
            "[optimize_preparation(kind, 2.0, [1], OptimizerConfig(seeds=1, max_iters=5)) "
            "for kind in ('kerr', 'jc')]; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=Path(modefisher.__file__).parents[1], check=True).stdout
    assert out.strip() == "[]"


def _minima_kept_by_find_peaks(y, min_prominence):
    """find_minima's output, filtered by scipy.signal.find_peaks as the reference."""
    import scipy.signal  # the reference only: the package never imports it

    records = _records(np.arange(len(y), dtype=float), y)
    strict = [i for i in range(1, len(y) - 1) if y[i] < y[i - 1] and y[i] < y[i + 1]]
    every = find_minima(records, min_prominence=0.0)
    assert len(every) == len(strict)
    span = float(y.max() - y.min())
    if span == 0:
        return every
    peaks = set(scipy.signal.find_peaks(-y, prominence=min_prominence * span)[0].tolist())
    return [m for i, m in zip(strict, every) if i in peaks]


@pytest.mark.parametrize("min_prominence", [0.01, 0.1, 0.3])
def test_find_minima_prominence_matches_scipy_signal(min_prominence):
    rng = np.random.default_rng(5)
    # rounded random walks: plateaus, ties and dips of every depth
    series = [np.round(np.cumsum(rng.normal(size=rng.integers(3, 120))) * 3)
              for _ in range(300)]
    series += [np.cumsum(rng.normal(size=200)) for _ in range(100)]
    series += [np.array([r.inv_qfi for r in sweep_continuous("jc", float(n))])
               for n in (4, 8, 12, 16, 20)]
    for y in series:
        records = _records(np.arange(len(y), dtype=float), y)
        assert find_minima(records, min_prominence) == \
            _minima_kept_by_find_peaks(y, min_prominence)
