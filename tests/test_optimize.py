import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import modefisher.circuits
import modefisher.optimize
from modefisher.analysis import default_cutoff
from modefisher.artifacts import load_params, write_records
from modefisher.circuits import (LAYER_WIDTH, AnsatzParams, build_circuit, interaction_budget,
                                 run_circuit)
from modefisher.dynamics import _exchange_sectors, apply, coherent_input_state
from modefisher.encoding import PhaseFamily, encoded_family
from modefisher.hilbert import CompositeState, LayoutError
from modefisher.metrology import (
    MeasurementModel,
    cfi,
    qfi_fidelity,
    qfi_variance_oracle,
)
from modefisher.circuits import prepare_probe
from modefisher.optimize import (
    INITIAL_STEP,
    OptimizationError,
    OptimizerConfig,
    _measured_family,
    best_by_qfi,
    best_record,
    minimize,
    optimize_measurement,
    optimize_preparation,
    paired_depth_scan,
    seed_stream,
)

RUNS = Path(__file__).resolve().parents[1] / "runs"


def test_quadratic_bowl():
    x, f, n = minimize(lambda v: (v[0] - 2.0) ** 2, np.zeros(1), OptimizerConfig())
    assert abs(x[0] - 2.0) < 1e-4
    assert f < 1e-8
    assert n >= 1


def test_rosenbrock_from_origin():
    def rosen(v):
        return (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2

    x, f, n = minimize(rosen, np.zeros(2), OptimizerConfig())
    assert f < 1e-6
    assert n <= 1000
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-2)


def test_constant_objective_returns_start():
    x0 = np.array([0.3, -0.7])
    x, f, _ = minimize(lambda v: 5.0, x0, OptimizerConfig())
    assert f == 5.0
    np.testing.assert_array_equal(x, x0)


def test_nonfinite_objective_aborts():
    with pytest.raises(OptimizationError):
        minimize(lambda v: float("nan"), np.zeros(2), OptimizerConfig())
    with pytest.raises(OptimizationError):
        minimize(lambda v: v[0], np.array([np.inf]), OptimizerConfig())


def test_best_never_regresses_below_start():
    # a hostile objective that rewards the start and punishes moves
    def spiky(v):
        return 1.0 if np.any(np.abs(v) > 1e-12) else 0.0

    _, f, _ = minimize(spiky, np.zeros(3), OptimizerConfig())
    assert f <= 0.0 + 1e-15


def test_alternate_method_and_validation():
    # Nelder-Mead is the only method; there is no knob to pick another
    with pytest.raises(TypeError):
        OptimizerConfig(method="cobyla")
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    for tol in (0.0, float("nan"), float("inf")):
        # NaN fails every tolerance test and inf passes it after one simplex
        with pytest.raises(ValueError, match="tol"):
            OptimizerConfig(tol=tol)
    with pytest.raises(ValueError):
        OptimizerConfig(seed_indices=(0, -1))


def test_seed_streams_are_reproducible_and_disjoint():
    a = seed_stream(11, 3).normal(size=8)
    b = seed_stream(11, 3).normal(size=8)
    np.testing.assert_array_equal(a, b)
    c = seed_stream(11, 4).normal(size=8)
    assert not np.allclose(a, c)
    # the stream of index i starts i blocks of 2^64 into the keyed counter,
    # where advancing a fresh Philox by i * 2^64 puts it
    bits = np.random.Philox(key=11)
    bits.advance(3 * (1 << 64))
    np.testing.assert_array_equal(a, np.random.Generator(bits).normal(size=8))
    for master_seed in (-1, 1 << 128):
        with pytest.raises(ValueError, match="key must be"):
            seed_stream(master_seed, 0)


_FAST = dict(max_iters=60, seeds=2, master_seed=11)


def test_preparation_records_and_warm_start():
    records = optimize_preparation("kerr", 4.0, [1, 2], OptimizerConfig(**_FAST))
    assert len(records) == 4  # 2 seeds x 2 depths
    by_seed = {}
    for r in records:
        assert r.kind == "kerr" and r.n_mean == 4.0
        assert np.isfinite(r.best_objective)
        assert len(r.best_params) == 2 * r.d
        assert r.budget == interaction_budget("kerr", r.best_params)
        by_seed.setdefault(r.seed, []).append(r)
    for seed, rs in by_seed.items():
        rs.sort(key=lambda r: r.d)
        for prev, nxt in zip(rs, rs[1:]):
            assert nxt.best_objective <= prev.best_objective + 1e-12, seed


def test_preparation_is_deterministic():
    cfg = OptimizerConfig(**_FAST)
    a = optimize_preparation("kerr", 4.0, [1], cfg)
    b = optimize_preparation("kerr", 4.0, [1], cfg)
    for ra, rb in zip(a, b):
        assert ra.best_objective == rb.best_objective
        np.testing.assert_array_equal(ra.best_params, rb.best_params)
        assert ra.iters_used == rb.iters_used


def test_seed_subset_matches_batch_stream():
    full = optimize_preparation("kerr", 4.0, [1], OptimizerConfig(**_FAST))
    solo = optimize_preparation("kerr", 4.0, [1],
                                OptimizerConfig(**_FAST, seed_indices=(1,)))
    batch_r = [r for r in full if r.seed == 1]
    assert len(solo) == len(batch_r) == 1
    assert solo[0].best_objective == batch_r[0].best_objective
    np.testing.assert_array_equal(solo[0].best_params, batch_r[0].best_params)


def test_reported_optimum_reevaluates():
    records = optimize_preparation("kerr", 4.0, [2], OptimizerConfig(**_FAST))
    r = best_record(records)
    probe = prepare_probe(AnsatzParams.from_vector("kerr", r.best_params), 4.0,
                          cutoff=13)
    fresh = qfi_variance_oracle(probe).value
    # stored objective used the fidelity estimator; the exact oracle agrees
    # to its finite-difference error, well inside 1e-3 relative
    assert abs(fresh - r.best_fisher) / fresh < 1e-3


def test_prepare_probe_default_cutoff_matches_optimizer():
    # ceil(2N) = 8 would cut the N=4 coherent input; the optimizer's rule
    # raises it to 13, and the re-evaluated optimum agrees exactly when the
    # probe's exchange representatives are read, as the search reads them
    probe = prepare_probe(AnsatzParams.zeros("kerr", 1), 4.0)
    assert probe.layout.cutoff == 13
    records = optimize_preparation("kerr", 4.0, [1], OptimizerConfig(**_FAST))
    r = best_record(records)
    probe = prepare_probe(AnsatzParams.from_vector("kerr", r.best_params), 4.0)
    representatives = np.take(probe.amplitudes, _exchange_sectors(13)[3])
    assert -qfi_fidelity(representatives).value == r.best_objective


def test_measurement_stage_improves_counting_cfi():
    cfg = OptimizerConfig(**_FAST)
    prep = best_record(optimize_preparation("kerr", 4.0, [2], cfg))
    params = AnsatzParams.from_vector("kerr", prep.best_params)
    records = optimize_measurement("kerr", params, MeasurementModel("counting"),
                                   4.0, [1, 2], cfg)
    probe = prepare_probe(params, 4.0, cutoff=13)
    fq = qfi_variance_oracle(probe).value
    for r in records:
        assert r.best_fisher <= fq * (1 + 1e-6)
    assert best_record(records).best_fisher > 0


def test_bad_schedule_rejected():
    with pytest.raises(ValueError):
        optimize_preparation("kerr", 4.0, [], OptimizerConfig(**_FAST))
    with pytest.raises(ValueError):
        optimize_preparation("kerr", 4.0, [2, 1], OptimizerConfig(**_FAST))


def test_record_round_trip(tmp_path):
    records = optimize_preparation("kerr", 4.0, [1], OptimizerConfig(**_FAST))
    csv_path = tmp_path / "prep.csv"
    write_records(records, csv_path, "0", tmp_path / "params")
    text = csv_path.read_text().splitlines()
    assert text[1].split(",")[0] == "kind"
    r = best_record(records)
    sidecar = tmp_path / "params" / f"kerr_N4_d{r.d}_seed{r.seed}.json"
    loaded = load_params(sidecar)
    np.testing.assert_allclose(loaded.to_vector(), r.best_params, atol=1e-15)


def test_load_params_rejects_partial_layers(tmp_path):
    for kind, size in (("kerr", 3), ("jc", 4)):
        sidecar = tmp_path / f"{kind}.json"
        sidecar.write_text(json.dumps({"kind": kind, "params": [0.1] * size}))
        with pytest.raises(ValueError, match="whole number of layers"):
            load_params(sidecar)


def test_jc_preparation_leaves_the_identity():
    # The identity is a local QFI maximum for JC, so a search started
    # there stays at 1/F_Q = 1/N with a zero budget.  The default protocol
    # starts layer 1 at the continuous first dip and opens the simplex at
    # INITIAL_STEP, so d=1 reaches that dip and deeper circuits improve it.
    # The clause reads the best of three seeds, as the protocol reports a
    # depth: one seed's d=3 gain hung on one Nelder-Mead path, which some
    # 1e-13 roundings of the objective stop short of 3%.
    records = optimize_preparation("jc", 4.0, [1, 2, 3],
                                   OptimizerConfig(seeds=3, max_iters=3000))
    d1, d3 = best_record(records, 1), best_record(records, 3)
    assert abs(d1.inv_fisher - 0.118) < 2e-3  # 1/N = 0.25 at the identity
    assert all(r.budget > 0.1 for r in records)
    # the zero-entry layers must move: the default simplex leaves d=3
    # within 1e-12 of d=1 here, the opened one gains about 30%
    assert d3.inv_fisher < 0.97 * d1.inv_fisher


@pytest.mark.parametrize("kind", ["kerr", "jc"])
def test_preparation_calls_the_qfi_once_per_evaluation(monkeypatch, kind):
    # the benchmark counts its items on optimize.qfi_fidelity: one call per
    # objective evaluation, so each stage makes exactly iters_used of them
    calls, per_stage = [], []
    qfi, search = modefisher.optimize.qfi_fidelity, modefisher.optimize.minimize

    def counted_qfi(probe):
        calls.append(1)
        return qfi(probe)

    def staged(*args, **kwargs):
        before = len(calls)
        out = search(*args, **kwargs)
        per_stage.append(len(calls) - before)
        return out

    monkeypatch.setattr(modefisher.optimize, "qfi_fidelity", counted_qfi)
    monkeypatch.setattr(modefisher.optimize, "minimize", staged)
    records = optimize_preparation(kind, 2.0, [1, 2], OptimizerConfig(seeds=2, max_iters=12))
    assert len(records) == 4
    assert per_stage == [r.iters_used for r in records]
    assert all(0 < r.iters_used <= 12 for r in records)
    assert len(calls) == sum(per_stage)


def test_kerr_preparation_builds_no_full_size_rotation():
    # Kerr probes are scored on the exchange-symmetric half, so a fresh
    # process never builds the (c, c, c) beam-splitter table or the tunnel
    # gate's full basis
    code = ("from modefisher import dynamics, encoding; "
            "from modefisher.optimize import OptimizerConfig, optimize_preparation; "
            "optimize_preparation('kerr', 20.0, [1, 2], OptimizerConfig(seeds=1, max_iters=10)); "
            "print(encoding._slot_tables.cache_info().currsize, "
            "dynamics._tunnel_sectors.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=Path(modefisher.optimize.__file__).parents[1], check=True).stdout
    assert out.split() == ["0", "0"]


def _search_objective(monkeypatch, kind, n_mean, cutoff):
    """The objective a one-evaluation preparation search hands to minimize."""
    seen, search = [], modefisher.optimize.minimize

    def capture(objective, *args, **kwargs):
        seen.append(objective)
        return search(objective, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(modefisher.optimize, "minimize", capture)
        optimize_preparation(kind, n_mean, [1], OptimizerConfig(seeds=1, max_iters=1),
                             cutoff=cutoff)
    return seen[0]


def test_kerr_search_objective_is_the_public_route_bit_for_bit(monkeypatch):
    # the search runs on the exchange representatives from input to QFI, and
    # prepare_probe scatters the same representatives to Fock order, so one
    # take gathers them back with the same bits
    rng = np.random.default_rng(122)
    for n_mean, cutoff in ((8.0, 18), (20.0, 40), (20.0, 41)):
        objective = _search_objective(monkeypatch, "kerr", n_mean, cutoff)
        gather = _exchange_sectors(cutoff)[3]
        for case in range(36):
            x = rng.uniform(-2, 2, size=2 * (1 + case % 6))
            x[rng.uniform(size=x.size) < 0.2] = 0.0   # skipped gates
            if case % 3 == 0:
                x[0] = 1.0e6                            # where stored searches drifted
            if case % 9 == 1:
                x[0] = 0.0                              # the input meets a Kerr layer first
            if case % 9 == 4:
                x[:2] = 0.0                             # a zero layer before the first tunnel
            probe = prepare_probe(AnsatzParams.from_vector("kerr", x), n_mean, cutoff)
            assert objective(x) == -qfi_fidelity(np.take(probe.amplitudes, gather)).value


def test_kerr_search_evaluations_stay_on_the_representatives(monkeypatch):
    # no evaluation applies a gate or builds a CompositeState: counted
    # inside minimize, which holds every evaluation
    counts = {"gates": 0, "states": 0}
    build, search, stages = CompositeState.__post_init__, modefisher.optimize.minimize, []

    def counted_apply(*args, **kwargs):
        counts["gates"] += 1
        return apply(*args, **kwargs)

    def counted_build(self, check_norm):
        counts["states"] += 1
        build(self, check_norm)

    def staged(*args, **kwargs):
        before = dict(counts)
        out = search(*args, **kwargs)
        stages.append((out[2], {key: counts[key] - before[key] for key in counts}))
        return out

    monkeypatch.setattr(modefisher.circuits, "apply", counted_apply)
    monkeypatch.setattr(CompositeState, "__post_init__", counted_build)
    monkeypatch.setattr(modefisher.optimize, "minimize", staged)
    optimize_preparation("kerr", 20.0, [1, 2], OptimizerConfig(seeds=2, max_iters=15))
    assert len(stages) == 4 and all(nfev == 15 for nfev, _ in stages)
    assert all(seen == {"gates": 0, "states": 0} for _, seen in stages)
    # run_circuit applies gates to the state it is given, so the counters see it
    before = dict(counts)
    run_circuit(AnsatzParams.from_vector("kerr", [0.3, 0.2]),
                coherent_input_state("kerr", 8.0, 18))
    assert counts["gates"] - before["gates"] == 3
    assert counts["states"] > before["states"]


def test_best_by_qfi_scores_are_the_search_objective(monkeypatch):
    # the CLI's paired scan picks its probes with best_by_qfi; on stored
    # sidecars its scores are the search objective's values bit for bit
    objective = _search_objective(monkeypatch, "kerr", 20.0, 40)
    paths = [RUNS / "prep_kerr_n20" / "params" / f"kerr_N20_d{d}_seed{seed}.json"
             for d, seed in ((5, 0), (6, 4))]
    scores, qfi = [], modefisher.optimize.qfi_fidelity

    def recorded(probe):
        scores.append(qfi(probe).value)
        return qfi(probe)

    monkeypatch.setattr(modefisher.optimize, "qfi_fidelity", recorded)
    chosen = best_by_qfi(paths, 20.0, 40)
    stored = [load_params(path) for path in paths]
    assert [-s for s in scores] == [objective(p.to_vector()) for p in stored]
    assert chosen == stored[int(np.argmax(scores))]


def test_best_by_qfi_rejects_mixed_circuit_kinds():
    paths = [RUNS / f"prep_{kind}_n20" / "params" / f"{kind}_N20_d2_seed0.json"
             for kind in ("kerr", "jc")]
    for order in (paths, paths[::-1]):
        with pytest.raises(LayoutError, match="mix"):
            best_by_qfi(order, 20.0, 40)


@pytest.mark.parametrize("kind", ["kerr", "jc"])
def test_measured_family_takes_one_fock_stack(kind):
    # the family's Fock-order stack is one take, with the bits of its state and
    # derivative views, and the views themselves are never built
    probe = prepare_probe(AnsatzParams.from_vector(kind, [0.4, 0.3, 0.7][:LAYER_WIDTH[kind]]),
                          4.0, 13)
    params = AnsatzParams.from_vector(kind, np.linspace(0.2, 0.9, 2 * LAYER_WIDTH[kind]))
    family = encoded_family(probe)
    measured = _measured_family(params, family)
    assert "state" not in vars(family) and "derivative" not in vars(family)
    stack = np.stack((family.state.tensor(), family.derivative.tensor()))
    for gate in build_circuit(params, family.layout):
        stack = apply(gate, stack, family.layout)
    want = PhaseFamily.from_fock(family.layout, stack, family.phi)
    assert measured.skew.tobytes() == want.skew.tobytes()


# Two consecutive Kerr probes at N=4 for the depth-paired scan.
_PAIRED_PREP = {1: AnsatzParams("kerr", ((0.4, 0.3),)),
                2: AnsatzParams("kerr", ((0.4, 0.3), (0.2, 0.25)))}


def test_paired_scan_never_reports_worse_than_identity(monkeypatch):
    # One evaluation from a wide start: the random circuit is usually worse
    # than no circuit, and the stage must then report the identity.
    monkeypatch.setattr(modefisher.optimize, "INIT_SCALE", 2.0)
    cfg = OptimizerConfig(seeds=3, max_iters=1)
    plain, records = paired_depth_scan("kerr", _PAIRED_PREP,
                                       MeasurementModel("counting"), 4.0, cfg)
    assert sorted(plain) == [1, 2]
    assert len(records) == 6
    floored = 0
    for r in records:
        assert r.best_objective <= -plain[r.d]
        if not np.any(r.best_params):
            floored += 1
            assert r.best_params.size == 2 * r.d
            assert r.best_objective == -plain[r.d]
    assert floored > 0


def test_paired_scan_raises_when_every_seed_aborts(monkeypatch):
    monkeypatch.setattr(modefisher.optimize, "cfi",
                        lambda family, model: SimpleNamespace(value=float("nan")))
    with pytest.raises(OptimizationError, match="every seed aborted"):
        paired_depth_scan("kerr", _PAIRED_PREP, MeasurementModel("counting"), 4.0,
                          OptimizerConfig(seeds=2, max_iters=5))


def _rosen(v):
    return float(np.sum(100.0 * (v[1:] - v[:-1] ** 2) ** 2 + (1.0 - v[:-1]) ** 2))


def _preparation_objective(kind, n_mean):
    psi0 = coherent_input_state(kind, n_mean, default_cutoff(n_mean))
    return lambda x: -qfi_fidelity(run_circuit(AnsatzParams.from_vector(kind, x), psi0)).value


def _kerr_start(d, seed):
    return seed_stream(11, seed).uniform(-1e-2, 1e-2, size=2 * d)


def _jc_start(d):
    x = seed_stream(11, 0).uniform(-1e-2, 1e-2, size=3 * d)
    x[:3] += (0.0, 0.0, modefisher.optimize.jc_first_dip(4.0, default_cutoff(4.0)))
    return x


def _points_seen(search, objective, x0, config, open_wide):
    seen = []

    def recorded(x):
        seen.append(np.array(x, copy=True))
        return objective(x)

    out = search(recorded, x0.copy(), config, open_wide)
    return seen, out


def _scipy_search(objective, x0, config, open_wide):
    import scipy.optimize  # the reference only: the package never imports it

    options = {"maxfev": config.max_iters, "xatol": config.tol, "fatol": config.tol}
    if open_wide:
        options["initial_simplex"] = np.vstack([x0, x0 + INITIAL_STEP * np.eye(x0.size)])
    scipy.optimize.minimize(objective, x0, method="Nelder-Mead", options=options)


# case: () -> (objective, start, config, open_wide, stopped by the tolerance test),
# built when the test runs
_PORT_CASES = {
    "rosenbrock": lambda: (
        _rosen, np.array([-1.2, 1.0, 0.5]), OptimizerConfig(), False, True),
    "kerr_n20_capped": lambda: (
        _preparation_objective("kerr", 20.0), _kerr_start(2, 7),
        OptimizerConfig(max_iters=30), False, False),
    "kerr_n8_converged": lambda: (
        _preparation_objective("kerr", 8.0), _kerr_start(2, 1),
        OptimizerConfig(max_iters=5000), False, True),
    "jc_n4_opened": lambda: (
        _preparation_objective("jc", 4.0), _jc_start(2),
        OptimizerConfig(max_iters=300), True, False),
    "one_parameter": lambda: (
        lambda v: float((v[0] - 2.0) ** 2), np.zeros(1), OptimizerConfig(), True, True),
    "budget_inside_simplex": lambda: (
        _rosen, np.array([0.3, -0.7, 0.0]), OptimizerConfig(max_iters=1), False, False),
    # three simplex points, a reflection that beats the best, then the
    # expansion the budget refuses
    "budget_inside_expansion": lambda: (
        lambda v: float(v[0] + 2.0 * v[1]), np.array([0.3, -0.7]),
        OptimizerConfig(max_iters=4), False, False),
    # only the start scores 0: reflection and contraction fail, and the
    # budget ends after the first of the two shrink points
    "budget_inside_shrink": lambda: (
        lambda v: 0.0 if np.all(v == 0.5) else 1.0, np.full(2, 0.5),
        OptimizerConfig(max_iters=6), False, False),
}


@pytest.mark.parametrize("case", sorted(_PORT_CASES))
def test_port_visits_scipys_points_bit_for_bit(case):
    objective, x0, config, open_wide, converges = _PORT_CASES[case]()
    ours, (x, f, nfev) = _points_seen(minimize, objective, x0, config, open_wide)
    theirs, _ = _points_seen(_scipy_search, objective, x0, config, open_wide)
    assert [p.tobytes() for p in ours] == [p.tobytes() for p in theirs]
    assert nfev == len(ours)
    assert (nfev < config.max_iters) == converges
    # the reported optimum is the first point that reached the lowest value
    values = [objective(p) for p in theirs]
    first_best = int(np.argmin(values))
    assert f == values[first_best]
    assert x.tobytes() == theirs[first_best].tobytes()

