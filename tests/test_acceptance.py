"""End-to-end requirement gate.

Every test appends one PASS/FAIL line to the session report (printed in
the terminal summary) and then asserts at the stated tolerance, so a
red test always comes with the measured number next to it.

The optimizer requirements cover multi-hour searches.  By default those
tests re-evaluate the stored artifacts under runs/ through a fresh
pipeline (every stored optimum must reproduce its objective to 1e-9
relative before a requirement is judged).  Run ``pytest --bench`` to
recompute the searches from scratch instead.
"""

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from modefisher.analysis import (
    find_minima,
    fit,
    sweep_continuous,
    sweep_theta,
    time_to_tfs,
)
from modefisher.circuits import AnsatzParams, prepare_probe, run_circuit
from modefisher.cli import read_csv_rows
from modefisher.dynamics import coherent_input_state, evolve_continuous
from modefisher.encoding import PhaseFamily, encoded_family
from modefisher.hilbert import CompositeState, kerr_layout
from modefisher.metrology import (
    MeasurementModel,
    bounds,
    cfi,
    qfi_fidelity,
    qfi_variance_oracle,
)
from modefisher.optimize import OptimizerConfig, best_by_qfi, optimize_preparation

RUNS = Path(__file__).resolve().parent.parent / "runs"
REEVAL_RTOL = 1e-9


def _verdict(report, ok, name, detail):
    report.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


# --------------------------------------------------------- shared sweeps


@pytest.fixture(scope="module")
def jc_sweeps():
    return {n: sweep_continuous("jc", float(n)) for n in (4, 8, 12, 16, 20)}


@pytest.fixture(scope="module")
def kerr_sweeps():
    return {n: sweep_continuous("kerr", float(n)) for n in (8, 20)}


@pytest.fixture(scope="module")
def theta_minima():
    """theta_min of the default theta sweep: jc probe g=5, kerr probe K=pi/4."""
    probes = {"jc": 5.0, "kerr": np.pi / 4}
    return {kind: {n: sweep_theta(kind, float(n), t)[1] for n in (8, 12, 16, 20)}
            for kind, t in probes.items()}


# ------------------------------------------------------ stored artifacts


@dataclass(frozen=True)
class Row:
    seed: int
    d: int
    objective: float
    budget: float
    params: np.ndarray

    @property
    def inv_fisher(self):
        return -1.0 / self.objective


def _reevaluate_prep(kind, n_mean, rows):
    """Fresh-pipeline check of stored preparation optima: the probe the
    pipeline prepares, read as a CompositeState."""
    for row in rows:
        probe = prepare_probe(AnsatzParams.from_vector(kind, row.params), n_mean)
        fresh = -qfi_fidelity(probe).value
        assert abs(fresh - row.objective) <= REEVAL_RTOL * abs(row.objective), (
            f"{kind} N={n_mean:g} seed {row.seed} d {row.d}: stored "
            f"{row.objective!r}, fresh {fresh!r}")


def _load_rows(run_dir, csv_name="prepare.csv", params_sub="params"):
    csv_path = RUNS / run_dir / csv_name
    if not csv_path.exists():
        pytest.fail(f"missing stored run {csv_path}; the runs/{run_dir} line "
                    f"of runs/bench_queue.sh produces it")
    _, raw = read_csv_rows(csv_path)
    rows = []
    for r in raw:
        sidecar = (csv_path.parent / params_sub /
                   f"{r['kind']}_N{float(r['N']):g}_d{r['d']}_seed{r['seed']}.json")
        vec = np.asarray(json.loads(sidecar.read_text())["params"], dtype=float)
        rows.append(Row(int(r["seed"]), int(r["d"]), float(r["objective"]),
                        float(r["budget"]), vec))
    return rows


def _bench_prep(kind, n_mean, d_max):
    config = OptimizerConfig(seeds=10)
    records = optimize_preparation(kind, n_mean, list(range(1, d_max + 1)), config)
    return [Row(r.seed, r.d, r.best_objective, r.budget, r.best_params)
            for r in records]


def _prep_rows(bench_mode, kind, n_mean, d_max, run_dir):
    if bench_mode:
        return _bench_prep(kind, n_mean, d_max)
    rows = _load_rows(run_dir)
    _reevaluate_prep(kind, n_mean, rows)
    return rows


def _best(rows, d=None, min_d=None):
    pool = [r for r in rows
            if (d is None or r.d == d) and (min_d is None or r.d >= min_d)]
    return min(pool, key=lambda r: r.objective)


# ----------------------------------------------------------- requirements


def test_bounds_table(report):
    b = bounds(20.0)
    ok = (b.sql_inv_fi == 0.05 and b.tfs_inv_fi == 2.0 / (20.0 * 22.0)
          and b.hl_inv_fi == 2.5e-3)
    _verdict(report, ok, "bounds table",
             f"N=20 inverse bounds ({b.sql_inv_fi!r}, {b.tfs_inv_fi!r}, "
             f"{b.hl_inv_fi!r}), required exactly (0.05, 2/440, 0.0025)")
    assert ok


def test_oracle_equivalence(report):
    rng = np.random.default_rng(2024)
    layout = kerr_layout(40)
    n1 = np.arange(40)[:, None]
    n2 = np.arange(40)[None, :]
    support = (n1 + n2 <= 20).ravel()
    worst = 0.0
    for _ in range(20):
        amps = np.zeros(layout.total_dim, dtype=complex)
        amps[support] = (rng.normal(size=support.sum())
                         + 1j * rng.normal(size=support.sum()))
        probe = CompositeState(layout, amps / np.linalg.norm(amps))
        est = qfi_fidelity(probe).value
        exact = qfi_variance_oracle(probe).value
        worst = max(worst, abs(est - exact) / exact)
    ok = worst <= 1e-3
    _verdict(report, ok, "oracle equivalence",
             f"20 random probes (N<=20, cutoff 40): worst relative "
             f"disagreement {worst:.2e}, required <= 1e-3")
    assert ok


def test_jc_sweep_minima_locations(report, jc_sweeps):
    minima = find_minima(jc_sweeps[20])
    got = [t for t, _ in minima[:3]]
    targets = (5.0, 16.0, 26.0)
    ok = len(minima) >= 3 and all(
        abs(t - ref) <= 0.10 * ref for t, ref in zip(got, targets))
    _verdict(report, ok, "jc sweep minima",
             f"N=20 first three dips at g = {[round(t, 3) for t in got]}, "
             f"required within 10% of {targets}")
    assert ok


@pytest.mark.xfail(
    reason="exact continuous JC has its N=20 first dip at 1.1028x the twin-Fock "
           "bound (variance QFI at cutoffs 56 and 72, g = 5.0512), above the "
           "1.05x requirement; the pipeline reads 1.1038x", strict=True)
def test_jc_first_minimum_depth(report, jc_sweeps):
    tfs = bounds(20.0).tfs_inv_fi
    _, value = find_minima(jc_sweeps[20])[0]
    ok = value <= 1.05 * tfs
    _verdict(report, ok, "jc first-minimum depth",
             f"N=20 first dip 1/F_Q = {value:.6g} = {value / tfs:.4f}x TFS, "
             f"required <= 1.05x (known shortfall)")
    assert ok


def test_jc_first_minimum_sqrt_law(report, jc_sweeps):
    ns = sorted(jc_sweeps)
    gmins = [find_minima(jc_sweeps[n])[0][0] for n in ns]
    res = fit("sqrt", ns, gmins)
    ok = res.r_squared >= 0.98
    _verdict(report, ok, "jc sqrt law",
             f"g_min over N={ns} fits a*sqrt(N+b)+c with r^2 = "
             f"{res.r_squared:.6f}, required >= 0.98")
    assert ok


def test_kerr_revivals(report, kerr_sweeps):
    step = np.pi / 200
    worst_value, worst_offset = 0.0, 0.0
    for n, records in kerr_sweeps.items():
        t = np.array([r.time for r in records])
        y = np.array([r.inv_qfi for r in records])
        sql = 1.0 / n
        for k in (1, 2, 3, 4):
            target = k * np.pi / 2
            j = int(round(target / step))
            worst_value = max(worst_value, abs(y[j] - sql) / sql)
            w = slice(max(j - 10, 1), min(j + 11, len(t) - 1))
            i = w.start + int(np.argmax(y[w]))
            worst_offset = max(worst_offset, abs(t[i] - target))
    ok = worst_value <= 0.05 and worst_offset <= np.pi / 200 + 1e-12
    _verdict(report, ok, "kerr revivals",
             f"N in (8, 20), K = k*pi/2: worst 1/F_Q deviation from 1/N "
             f"{worst_value:.2%} (<= 5%), worst location offset "
             f"{worst_offset / step:.2f} grid steps (<= 1)")
    assert ok


def test_kerr_cat_plateau(report):
    tfs = bounds(20.0).tfs_inv_fi
    psi0 = coherent_input_state("kerr", 20.0, 40)
    values = {}
    for k in (np.pi / 3, np.pi / 4):
        probe = evolve_continuous("kerr", k, psi0)
        values[k] = 1.0 / qfi_fidelity(probe).value
    ok = all(v <= 1.1 * tfs for v in values.values())
    shown = {f"pi/{round(np.pi / k)}": f"{v / tfs:.4f}x" for k, v in values.items()}
    _verdict(report, ok, "kerr cat plateau",
             f"N=20 1/F_Q over TFS at K={shown}, required <= 1.1x")
    assert ok


def test_kerr_interaction_time_scaling(report):
    ns = list(range(4, 21, 2))
    ks = [time_to_tfs("kerr", float(n)) for n in ns]
    decreasing = all(b < a for a, b in zip(ks, ks[1:]))
    tail = [(n, k) for n, k in zip(ns, ks) if n >= 10]
    res = fit("powerlaw", [n for n, _ in tail], [k for _, k in tail])
    slope = res.coefficients[1]
    ok = decreasing and abs(slope - (-0.31)) <= 0.10
    _verdict(report, ok, "kerr time-to-twin-Fock scaling",
             f"K_TFS strictly decreasing over N=4..20: {decreasing}; "
             f"log-log slope {slope:.4f} over N=10..20, required -0.31 +- 0.10")
    assert ok


def test_programmable_kerr_depth_four(report, bench_mode):
    rows = _prep_rows(bench_mode, "kerr", 20.0, 6, "prep_kerr_n20")
    best = _best(rows, d=4)
    by_seed = {}
    for r in rows:
        by_seed.setdefault(r.seed, []).append(r)
    monotone = all(
        b.objective <= a.objective + 1e-12
        for rs in by_seed.values()
        for a, b in zip(sorted(rs, key=lambda r: r.d),
                        sorted(rs, key=lambda r: r.d)[1:]))
    ok = best.inv_fisher <= 3.0e-3 and monotone
    _verdict(report, ok, "programmable kerr",
             f"N=20 d=4 best of {len(by_seed)} seeds 1/F_Q = "
             f"{best.inv_fisher:.6g}, required <= 3.0e-3; per-seed "
             f"monotone in d: {monotone}")
    assert ok


def test_programmable_kerr_fast_variant(report):
    start = time.perf_counter()
    records = optimize_preparation("kerr", 10.0, [1, 2, 3, 4],
                                   OptimizerConfig(seeds=10))
    elapsed = time.perf_counter() - start
    best = min(records, key=lambda r: r.best_objective)
    ok = best.inv_fisher <= 1.25 / 100.0 and elapsed <= 1800.0
    _verdict(report, ok, "programmable kerr (fast variant)",
             f"N=10 d<=4 best of 10 seeds 1/F_Q = {best.inv_fisher:.6g} "
             f"(required <= 0.0125) in {elapsed:.0f}s (required <= 1800s)")
    assert ok


def test_programmable_jc_beats_twin_fock(report, bench_mode):
    tfs = bounds(20.0).tfs_inv_fi
    rows = _prep_rows(bench_mode, "jc", 20.0, 8, "prep_jc_n20")
    best = _best(rows, min_d=4)
    ok = best.inv_fisher < tfs
    _verdict(report, ok, "programmable jc",
             f"N=20 best of 10 seeds at d>=4: 1/F_Q = {best.inv_fisher:.6g} "
             f"(d={best.d}), required < {tfs:.6g}")
    assert ok


def _proportional_sqrt_r2(ns, values):
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    a = float(np.sum(values * np.sqrt(ns)) / np.sum(ns))
    ss_res = float(np.sum((values - a * np.sqrt(ns)) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def test_interaction_budget_trends(report, bench_mode):
    ns = (4, 8, 12, 16, 20)
    jc_rows = {n: _prep_rows(bench_mode, "jc", float(n), 8, f"prep_jc_n{n}")
               for n in ns}
    ratios = []
    b2, b8 = [], []
    for n in ns:
        two = _best(jc_rows[n], d=2).budget
        eight = _best(jc_rows[n], d=8).budget
        b2.append(two)
        b8.append(eight)
        ratios.append(max(two, eight) / min(two, eight))
    r2_two = _proportional_sqrt_r2(ns, b2)
    r2_eight = _proportional_sqrt_r2(ns, b8)

    kerr_rows = {n: _prep_rows(bench_mode, "kerr", float(n),
                               6 if n == 20 else 4, f"prep_kerr_n{n}")
                 for n in ns}
    kerr_budgets = [_best(kerr_rows[n], d=4).budget for n in ns]
    kerr_decreasing = all(b < a for a, b in zip(kerr_budgets, kerr_budgets[1:]))

    ok = (max(ratios) <= 1.5 and r2_two >= 0.9 and r2_eight >= 0.9
          and kerr_decreasing)
    _verdict(report, ok, "interaction budgets",
             f"jc d=2 vs d=8 worst ratio {max(ratios):.3f} (<= 1.5); "
             f"sqrt(N) fit r^2 = {r2_two:.4f} (d=2), {r2_eight:.4f} (d=8) "
             f"(>= 0.9); kerr d=4 budget decreasing over N: {kerr_decreasing} "
             f"({[round(b, 3) for b in kerr_budgets]})")
    assert ok


def test_counting_on_continuous_probe(report, kerr_sweeps):
    # Counting CFI on a cat-like probe swings by tens of percent with the
    # interferometer bias phase (best near the pi/2 dark fringe), so the
    # probe is scored at the counting working point, not at the phase
    # assumed for the parameter itself.
    from scipy.optimize import minimize_scalar

    tfs = bounds(20.0).tfs_inv_fi
    t_first, _ = find_minima(kerr_sweeps[20])[0]
    probe = evolve_continuous("kerr", t_first,
                              coherent_input_state("kerr", 20.0, 40))
    model = MeasurementModel("counting")

    def inv_cfi(phi):
        return 1.0 / cfi(encoded_family(probe, float(phi)), model).value

    grid = np.linspace(0.05, np.pi - 0.05, 40)
    coarse = [inv_cfi(phi) for phi in grid]
    i = int(np.argmin(coarse))
    res = minimize_scalar(inv_cfi, bounds=(grid[max(i - 1, 0)],
                                           grid[min(i + 1, len(grid) - 1)]),
                          method="bounded")
    inv = min(res.fun, coarse[i])
    ok = abs(inv - tfs) <= 0.05 * tfs
    _verdict(report, ok, "counting on the continuous probe",
             f"N=20 first-dip probe (K={t_first:.4f}) + counting at its "
             f"working point (phi={res.x:.4f}): 1/F_C = {inv:.6g} = "
             f"{inv / tfs:.4f}x TFS, required within 5%")
    assert ok


def _measured(params, family):
    stack = np.stack([run_circuit(params, s).tensor() for s in (family.state, family.derivative)])
    return PhaseFamily.from_fock(family.layout, stack, family.phi)


def _stale(run_dir, which, stored, fresh):
    """Failure message of a stored measurement-stage value that no longer re-evaluates."""
    return (f"runs/{run_dir} {which}: stored {stored!r}, fresh {fresh!r}, beyond "
            f"{REEVAL_RTOL:g} relative; a change to the quadrature grid or the "
            f"homodyne kernel needs this run regenerated (delete runs/{run_dir} "
            f"and rerun runs/bench_queue.sh)")


def _stored_measurement_best(run_dir, model, family):
    rows = _load_rows(run_dir, csv_name="measure.csv", params_sub="params_measure")
    for row in rows:
        fam = _measured(AnsatzParams.from_vector("kerr", row.params), family)
        fresh = -cfi(fam, model).value
        assert abs(fresh - row.objective) <= REEVAL_RTOL * abs(row.objective), (
            _stale(run_dir, f"seed {row.seed} d {row.d}", row.objective, fresh))
    return rows


@pytest.fixture(scope="module")
def kerr_n20_family(bench_mode):
    """Encoded family of the best stored N=20 programmable Kerr probe."""
    if bench_mode:
        pytest.skip("measurement-stage checks run against the stored "
                    "artifacts; rerun runs/bench_queue.sh to refresh them")
    rows = _load_rows("prep_kerr_n20")
    best = _best(rows)
    return encoded_family(prepare_probe(AnsatzParams.from_vector("kerr", best.params), 20.0, 40))


def test_premeasurement_counting_beats_twin_fock(report, kerr_n20_family):
    tfs = bounds(20.0).tfs_inv_fi
    rows = _stored_measurement_best("meas_kerr_n20_counting",
                                    MeasurementModel("counting"),
                                    kerr_n20_family)
    best = _best(rows, min_d=3)
    ok = best.inv_fisher < tfs
    _verdict(report, ok, "pre-measurement counting",
             f"N=20 counting circuit (d>=3, best of 10 seeds): 1/F_C = "
             f"{best.inv_fisher:.6g}, required < {tfs:.6g}")
    assert ok


def test_homodyne_with_circuit_between_bounds(report, kerr_n20_family):
    tfs = bounds(20.0).tfs_inv_fi
    model = MeasurementModel("homodyne", theta=0.0)
    rows = _stored_measurement_best("meas_kerr_n20_homodyne", model,
                                    kerr_n20_family)
    counting_rows = _stored_measurement_best(
        "meas_kerr_n20_counting", MeasurementModel("counting"), kerr_n20_family)
    best = _best(rows, min_d=3)
    counting_best = _best(counting_rows, min_d=3)
    ok = best.inv_fisher < tfs and best.inv_fisher >= counting_best.inv_fisher
    _verdict(report, ok, "homodyne with circuit",
             f"N=20 homodyne theta=0 (d>=3): 1/F_C = {best.inv_fisher:.6g}, "
             f"required < TFS {tfs:.6g} and >= counting value "
             f"{counting_best.inv_fisher:.6g}")
    assert ok


def test_quadrature_angle_minima(report, theta_minima):
    theta_jc, theta_kerr = theta_minima["jc"][20], theta_minima["kerr"][20]
    ok_jc = abs(theta_jc - 2 * np.pi / 3) <= 0.1
    ok_kerr = abs(theta_kerr - 0.17 * np.pi) <= 0.05 * np.pi
    ok = ok_jc and ok_kerr
    _verdict(report, ok, "quadrature angle minima",
             f"jc probe g=5: theta_min = {theta_jc:.4f} rad "
             f"(2pi/3 +- 0.1); kerr probe K=pi/4: theta_min = "
             f"{theta_kerr / np.pi:.5f} pi (0.17pi +- 0.05pi)")
    assert ok


def test_quadrature_angle_stability(report, theta_minima):
    step = 2 * np.pi / 256
    drift = {
        kind: max(abs(v - vals[20]) for v in vals.values())
        for kind, vals in theta_minima.items()
    }
    ok = all(v <= step + 1e-12 for v in drift.values())
    _verdict(report, ok, "quadrature angle stability",
             f"theta_min drift across N in (8, 12, 16, 20): "
             f"jc {drift['jc'] / step:.2f} grid steps, "
             f"kerr {drift['kerr'] / step:.2f} grid steps, required <= 1")
    assert ok


def test_homodyne_identity_floor_scan(report, bench_mode):
    sql = bounds(20.0).sql_inv_fi
    if bench_mode:
        pytest.skip("paired depth scan is covered by the stored artifact; "
                    "rerun runs/bench_queue.sh to refresh it")
    plain_csv = RUNS / "paired_kerr_n20" / "paired_plain.csv"
    if not plain_csv.exists():
        pytest.fail(f"missing stored run {plain_csv}")
    _, plain_rows = read_csv_rows(plain_csv)
    plain = {int(r["d"]): float(r["inv_cfi_plain"]) for r in plain_rows}

    rows = _load_rows("paired_kerr_n20", csv_name="paired.csv",
                      params_sub="params_measure")
    with_pqc = {d: _best(rows, d=d).inv_fisher for d in sorted(plain)}

    # rebuild the per-depth probes the scan ran on (best stored circuit
    # by QFI at each depth, as the CLI picks it) and re-evaluate both arms
    model = MeasurementModel("homodyne", theta=0.0)
    prep_dir = RUNS / "prep_kerr_n20" / "params"
    families = {}
    for d, stored in plain.items():
        best = best_by_qfi(sorted(prep_dir.glob(f"kerr_N20_d{d}_seed*.json")), 20.0, 40)
        families[d] = encoded_family(prepare_probe(best, 20.0, 40))
        fresh = 1.0 / cfi(families[d], model).value
        assert abs(fresh - stored) <= REEVAL_RTOL * abs(stored), _stale(
            "paired_kerr_n20", f"plain arm on the best-by-QFI probe (d {d})", stored, fresh)
    for row in rows:
        fam = _measured(AnsatzParams.from_vector("kerr", row.params),
                        families[row.d])
        fresh = -cfi(fam, model).value
        assert abs(fresh - row.objective) <= REEVAL_RTOL * abs(row.objective), (
            _stale("paired_kerr_n20", f"seed {row.seed} d {row.d}", row.objective, fresh))

    floor_ok = all(plain[d] >= with_pqc[d] * (1 - 1e-12) for d in plain)
    d_top = max(plain)
    sql_ok = abs(plain[d_top] - sql) <= 0.20 * sql
    ok = floor_ok and sql_ok and d_top >= 6
    _verdict(report, ok, "homodyne identity floor",
             f"plain theta=0 homodyne >= with-circuit value at every "
             f"d=1..{d_top}: {floor_ok}; plain at d={d_top} is "
             f"{plain[d_top]:.6g} = {plain[d_top] / sql:.3f}x SQL, "
             f"required within 20%")
    assert ok


def test_property_suite_budget(report):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest",
         str(Path(__file__).with_name("test_properties.py")),
         "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 600.0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    _verdict(report, ok, "property suite",
             f"randomized invariants ({tail}) in {elapsed:.0f}s, "
             f"required green in < 600s")
    assert ok
