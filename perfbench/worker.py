"""One benchmark process: a timed run or a traced run of one workload.

``run.py`` starts this script in a fresh interpreter per sample, with the
BLAS thread count pinned in the environment, so set-up time and peak
memory belong to one workload.  The last line on stdout is one JSON
object; everything else goes to stderr.

    python3 perfbench/worker.py {setup,measure,trace} --workload NAME --seed N
    python3 perfbench/worker.py reference      # rewrite reference.json

The package is imported only inside the phase functions, after ``T0``,
so the set-up sample includes ``import modefisher``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0

DEPTHS = (1, 2)
# Nelder-Mead stops on tolerance only when the simplex has collapsed to
# identical points; with this tolerance every (seed, depth) stage spends
# its whole evaluation budget, so a pass does fixed work.
STAGE_TOL = 1e-300
JC_T_MAX = 30.0
# Angles are spaced below the acceptance window, around the expected jc
# minimum, so the grid always brackets it and the window check applies.
THETA_CENTER = 2 * math.pi / 3
THETA_STEP = math.pi / 36
MIN_PASSES = 2
MIN_TRACE_PAIRS = 2

REEVAL_RTOL = 1e-9      # stored and returned optima re-evaluate (ROADMAP rule)
ORACLE_RTOL = 1e-3      # fidelity route vs variance oracle
HOMODYNE_RTOL = 1e-3    # homodyne grid tolerance of the property suite
THETA_WINDOW = 0.1      # acceptance window for the jc homodyne minimum


@dataclass(frozen=True)
class Workload:
    """One fixed-size pass through the public API.

    ``size`` is the number of optimizer seeds (prep), sweep points
    (sweep) or quadrature angles (theta) per pass; ``budget`` is the
    objective evaluations spent by every (seed, depth) prep stage.
    """

    task: str
    kind: str
    n_mean: float
    cutoff: int | None
    size: int
    budget: int = 0
    probe_time: float = 0.0
    theta_target: float | None = None
    sidecars: str | None = None
    sidecar_limit: int | None = None


WORKLOADS = {
    "prep_kerr_n20": Workload("prep", "kerr", 20.0, 40, size=1, budget=30,
                              sidecars="runs/prep_kerr_n20"),
    "prep_kerr_n10": Workload("prep", "kerr", 10.0, 20, size=2, budget=150),
    "sweep_jc_n20": Workload("sweep", "jc", 20.0, 40, size=20),
    "theta_jc_n20": Workload("theta", "jc", 20.0, 40, size=6, probe_time=5.0,
                             theta_target=THETA_CENTER),
}

# Smoke size: the same code paths at N=4 in about a second per workload.
TINY = {
    name: replace(w, n_mean=4.0, cutoff=None, size=2 if w.task == "prep" else 6,
                  budget=6 if w.task == "prep" else 0, theta_target=None,
                  sidecar_limit=2 if w.sidecars else None)
    for name, w in WORKLOADS.items()
}


def workload(name: str, size: str) -> Workload:
    return (TINY if size == "tiny" else WORKLOADS)[name]


def make_inputs(w: Workload, seed: int):
    """Seeded inputs: optimizer seed indices, sweep times or angles."""
    import numpy as np

    rng = np.random.default_rng(seed)
    if w.task == "prep":
        return tuple(int(s) for s in np.sort(rng.choice(1000, w.size, replace=False)))
    if w.task == "sweep":
        # one time per equal stratum of (0, 30]: strictly increasing, never 0
        return (np.arange(w.size) + rng.uniform(size=w.size)) * (JC_T_MAX / w.size)
    # a regular grid shifted by a seeded fraction of a step
    offset = np.arange(w.size) - w.size // 2 + rng.uniform()
    return THETA_CENTER + offset * THETA_STEP


def run_pass(w: Workload, inputs):
    """One pass through the public API, resolved at call time so that
    the tracer's rebinding takes effect."""
    from modefisher import analysis, optimize

    if w.task == "prep":
        config = optimize.OptimizerConfig(max_iters=w.budget, tol=STAGE_TOL,
                                          seed_indices=inputs)
        return optimize.optimize_preparation(w.kind, w.n_mean, list(DEPTHS), config,
                                             cutoff=w.cutoff)
    if w.task == "sweep":
        return analysis.sweep_continuous(w.kind, w.n_mean, time_grid=inputs,
                                         include_cfi_counting=True, cutoff=w.cutoff)
    return analysis.sweep_theta(w.kind, w.n_mean, w.probe_time, theta_grid=inputs,
                                cutoff=w.cutoff)


def first_result(w: Workload, inputs):
    """Smallest call of the workload's entry point: input state plus one result."""
    from modefisher import analysis, optimize

    if w.task == "prep":
        config = optimize.OptimizerConfig(max_iters=1, seed_indices=inputs[:1])
        return optimize.optimize_preparation(w.kind, w.n_mean, [1], config,
                                             cutoff=w.cutoff)
    if w.task == "sweep":
        return analysis.sweep_continuous(w.kind, w.n_mean, time_grid=inputs[:2],
                                         include_cfi_counting=True, cutoff=w.cutoff)
    return analysis.sweep_theta(w.kind, w.n_mean, w.probe_time, theta_grid=inputs[:1],
                                cutoff=w.cutoff)


def planned_items(w: Workload) -> int:
    return w.size * len(DEPTHS) * w.budget if w.task == "prep" else w.size


def summarize(w: Workload, out):
    """Plain values of a pass result, for comparing passes and checking."""
    if w.task == "prep":
        return [(r.seed, r.d, r.best_objective, r.iters_used, [float(v) for v in r.best_params])
                for r in out]
    if w.task == "sweep":
        return [(r.time, r.inv_qfi, r.inv_cfi_counting) for r in out]
    samples, theta_min = out
    return [samples, theta_min]


# ----------------------------------------------------------------- checks


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Tally:
    """Attempted and failed items, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, messages=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: max(0, 20 - len(self.messages))])

    def expect(self, ok: bool, weight: int, message: str) -> None:
        """Fail ``weight`` already counted items unless ``ok``."""
        if not ok:
            self.add(0, weight, [message])


def load_reference(name: str, size: str, seed: int):
    """Stored values for the reference seed, None for any other seed."""
    if seed != REFERENCE_SEED or WORKLOADS[name].task == "prep":
        return None
    return json.loads(REFERENCE.read_text())[name][size]


def _matches(values, stored, rtol: float) -> bool:
    return len(values) == len(stored) and all(
        _rel(v, s) <= rtol for v, s in zip(values, stored))


def check_prep(w: Workload, summary, inputs, fails: Tally) -> None:
    """Returned optima re-evaluate exactly and agree with the oracle.

    Optima are never compared with stored values: Nelder-Mead paths
    depend on rounding, so only invariants are checked.
    """
    from modefisher.circuits import AnsatzParams, run_circuit
    from modefisher.dynamics import coherent_input_state
    from modefisher.metrology import qfi_fidelity, qfi_variance_oracle

    psi0 = coherent_input_state(w.kind, w.n_mean, _cutoff(w))
    best: dict[tuple[int, int], float] = {}
    for seed, d, objective, iters, params in summary:
        probe = run_circuit(AnsatzParams.from_vector(w.kind, params), psi0)
        fresh = float(qfi_fidelity(probe).value)
        oracle = float(qfi_variance_oracle(probe).value)
        ok = (_rel(-fresh, objective) <= REEVAL_RTOL and _rel(fresh, oracle) <= ORACLE_RTOL
              and iters >= w.budget)
        fails.expect(ok, iters, f"prep seed {seed} d {d}: objective {objective!r}, "
                     f"re-evaluated {-fresh!r}, oracle {-oracle!r}, {iters} evaluations")
        best[seed, d] = objective
    for seed in inputs:
        done = [best[seed, d] for d in DEPTHS if (seed, d) in best]
        fails.expect(len(done) == len(DEPTHS), (len(DEPTHS) - len(done)) * w.budget,
                     f"prep seed {seed} aborted")
        fails.expect(all(b <= a for a, b in zip(done, done[1:])), w.budget,
                     f"prep seed {seed}: best objective rose with depth")


def check_sweep(w: Workload, summary, reference, fails: Tally) -> None:
    from modefisher.dynamics import coherent_input_state, evolve_continuous
    from modefisher.metrology import qfi_variance_oracle

    psi0 = coherent_input_state(w.kind, w.n_mean, _cutoff(w))
    for t, inv_qfi, inv_counting in summary:
        oracle = float(qfi_variance_oracle(evolve_continuous(w.kind, t, psi0)).value)
        ok = (0 < inv_qfi < float("inf") and 0 < inv_counting < float("inf")
              and _rel(1.0 / inv_qfi, oracle) <= ORACLE_RTOL
              and inv_counting >= inv_qfi * (1 - ORACLE_RTOL))
        fails.expect(ok, 1, f"sweep t={t!r}: 1/F_Q {inv_qfi!r} (oracle 1/{oracle!r}), "
                     f"1/F_C {inv_counting!r}")
    if reference is not None:
        times, inv_qfi, inv_counting = (list(col) for col in zip(*summary))
        fails.expect(times == reference["time"]
                     and _matches(inv_qfi, reference["inv_qfi"], REEVAL_RTOL)
                     and _matches(inv_counting, reference["inv_cfi_counting"], REEVAL_RTOL),
                     len(summary), "sweep values differ from the stored reference")


def check_theta(w: Workload, summary, reference, fails: Tally) -> None:
    from modefisher.dynamics import coherent_input_state, evolve_continuous
    from modefisher.metrology import qfi_variance_oracle

    samples, theta_min = summary
    psi0 = coherent_input_state(w.kind, w.n_mean, _cutoff(w))
    fq = float(qfi_variance_oracle(evolve_continuous(w.kind, w.probe_time, psi0)).value)
    for theta, inv_cfi in samples:
        ok = 0 < inv_cfi < float("inf") and 1.0 / inv_cfi <= fq * (1 + HOMODYNE_RTOL)
        fails.expect(ok, 1, f"theta {theta!r}: 1/F_C {inv_cfi!r}, 1/F_Q {1 / fq!r}")
    angles = [theta for theta, _ in samples]
    if reference is not None:
        fails.expect(angles == reference["theta"]
                     and _matches([v for _, v in samples], reference["inv_cfi"],
                                  HOMODYNE_RTOL),
                     len(samples), "theta values differ from the stored reference")
    if w.theta_target is not None:
        target = w.theta_target
        brackets = (any(target - THETA_WINDOW <= a < target for a in angles)
                    and any(target < a <= target + THETA_WINDOW for a in angles))
        if brackets:
            fails.expect(abs(theta_min - target) <= THETA_WINDOW, 1,
                         f"theta_min {theta_min!r} not within {THETA_WINDOW} of {target!r}")


def check_pass(w: Workload, name: str, size: str, seed: int, inputs, summary) -> Tally:
    """Correctness of one pass's outputs; run outside the timed region."""
    fails = Tally()
    reference = load_reference(name, size, seed)
    if w.task == "prep":
        check_prep(w, summary, inputs, fails)
    elif w.task == "sweep":
        check_sweep(w, summary, reference, fails)
    else:
        check_theta(w, summary, reference, fails)
    return fails


def check_sidecars(w: Workload) -> Tally:
    """Every stored optimum re-evaluates to its CSV objective."""
    from modefisher.analysis import default_cutoff
    from modefisher.circuits import run_circuit
    from modefisher.cli import read_csv_rows
    from modefisher.dynamics import coherent_input_state
    from modefisher.metrology import qfi_fidelity
    from modefisher.optimize import load_params

    fails = Tally()
    if w.sidecars is None:
        return fails
    run_dir = ROOT / w.sidecars
    _, rows = read_csv_rows(run_dir / "prepare.csv")
    rows = rows[: w.sidecar_limit]
    inputs = {}
    for row in rows:
        kind, n_mean = row["kind"], float(row["N"])
        if (kind, n_mean) not in inputs:
            inputs[kind, n_mean] = coherent_input_state(kind, n_mean, default_cutoff(n_mean))
        sidecar = run_dir / "params" / f"{kind}_N{n_mean:g}_d{row['d']}_seed{row['seed']}.json"
        probe = run_circuit(load_params(sidecar), inputs[kind, n_mean])
        stored = float(row["objective"])
        fresh = -float(qfi_fidelity(probe).value)
        fails.add(1, 0)
        fails.expect(_rel(fresh, stored) <= REEVAL_RTOL, 1,
                     f"sidecar {sidecar.name}: stored {stored!r}, re-evaluated {fresh!r}")
    return fails


def _cutoff(w: Workload) -> int:
    from modefisher.analysis import default_cutoff

    return w.cutoff if w.cutoff is not None else default_cutoff(w.n_mean)


# ----------------------------------------------------------------- phases


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def phase_setup(w: Workload, inputs) -> dict:
    """Cold set-up of a fresh process: import, input state, first result."""
    import modefisher  # noqa: F401

    t_import = time.perf_counter()
    first_result(w, inputs)
    t_first = time.perf_counter()
    return {"import_s": t_import - T0, "first_s": t_first - t_import, "setup_s": t_first - T0}


def _install_stamps(w: Workload, stamps: list) -> None:
    """Append the clock each time an item finishes: at the objective's QFI
    for prep, at the last Fisher call of a sweep point or angle otherwise."""
    module_name, attr = (("modefisher.optimize", "qfi_fidelity") if w.task == "prep"
                         else ("modefisher.analysis", "cfi"))
    module = sys.modules[module_name]
    original = getattr(module, attr)
    clock = time.perf_counter

    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.append(clock())
        return result

    setattr(module, attr, stamped)


def _timed_pass(w: Workload, inputs, tally: Tally):
    """One pass; a documented program error fails the pass's items."""
    from modefisher.hilbert import CutoffError
    from modefisher.metrology import GridError
    from modefisher.optimize import OptimizationError

    start = time.perf_counter()
    try:
        out = run_pass(w, inputs)
    except (OptimizationError, CutoffError, GridError) as err:
        tally.add(planned_items(w), planned_items(w),
                  [f"pass raised {type(err).__name__}: {err}"])
        return None, 0.0
    return summarize(w, out), time.perf_counter() - start


def _score_passes(w: Workload, name: str, size: str, seed: int, inputs, summaries,
                  items, tally: Tally) -> None:
    """Check the first pass; a later pass must repeat it exactly."""
    fails = check_pass(w, name, size, seed, inputs, summaries[0])
    tally.add(0, 0, fails.messages)
    for summary, count in zip(summaries, items):
        if summary == summaries[0]:
            tally.add(count, min(fails.failed, count))
        else:
            tally.add(count, count, ["a repeated pass gave different outputs"])


def _score_stored(w: Workload, tally: Tally) -> None:
    fails = check_sidecars(w)
    tally.add(fails.attempted, fails.failed, fails.messages)


def phase_measure(w: Workload, name: str, size: str, seed: int, seconds: float,
                  stored: bool) -> dict:
    """Set-up sample, then fixed-size passes for ``seconds``, then checks."""
    inputs = make_inputs(w, seed)
    setup = phase_setup(w, inputs)
    first_result(w, inputs)  # warm-up beyond the cold sample
    stamps: list[float] = []
    _install_stamps(w, stamps)
    tally = Tally()
    walls, items, latencies, summaries = [], [], [], []
    begin = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - begin < seconds:
        stamps.clear()
        start = time.perf_counter()
        summary, wall = _timed_pass(w, inputs, tally)
        if summary is None:
            break
        previous = start
        for stamp in stamps:
            latencies.append((stamp - previous) * 1e3)
            previous = stamp
        walls.append(wall)
        items.append(len(stamps))
        summaries.append(summary)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if not walls:
        raise RuntimeError("; ".join(tally.messages))
    _score_passes(w, name, size, seed, inputs, summaries, items, tally)
    if stored:
        _score_stored(w, tally)
    return {
        "setup": setup,
        "walls": walls,
        "items": items,
        "item_ms": latencies,
        "peak_rss_mb": peak_rss_mb,
        "summary": summaries[0],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "facts": machine_facts(),
    }


# Per-layer metrics of the traced run.  A name ending in ``.calls``,
# ``.self_frac`` or ``.total_frac`` reads that column of the span named by
# the rest of it.  Self and total times are shares of the traced pass wall
# time, so a layer that a workload never calls reads 0, not a constant time.
PER_LAYER = (
    ("setup.import_s", "s"),
    ("dynamics.first_gate_s", "s"),
    ("dynamics.apply.tunnel.calls", "count"),
    ("dynamics.apply.tunnel.self_frac", "1"),
    ("dynamics.apply.bs.calls", "count"),
    ("dynamics.apply.bs.self_frac", "1"),
    ("dynamics.apply.jc.self_frac", "1"),
    ("dynamics.apply.kerr.self_frac", "1"),
    ("dynamics.apply.other.self_frac", "1"),
    ("dynamics.gate_build.self_frac", "1"),
    ("dynamics.apply.bytes_computed", "bytes"),
    ("circuits.run_circuit.calls", "count"),
    ("circuits.run_circuit.self_frac", "1"),
    ("encoding.encoded_family.calls", "count"),
    ("encoding.encoded_family.total_frac", "1"),
    ("metrology.qfi_fidelity.calls", "count"),
    ("metrology.qfi_fidelity.self_frac", "1"),
    ("metrology.qfi_fidelity.total_frac", "1"),
    ("metrology.cfi.counting.self_frac", "1"),
    ("metrology.cfi.homodyne.calls", "count"),
    ("metrology.cfi.homodyne.self_frac", "1"),
    ("metrology.cfi.homodyne.table_cells", "count"),
    ("optimize.nfev", "count"),
    ("optimize.minimize.self_frac", "1"),
    ("optimize.aborted_seeds", "count"),
    ("analysis.sweep.self_frac", "1"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "1"),
    ("trace.coverage_frac", "1"),
    ("trace.root_self_frac", "1"),
)
SPAN_COLUMNS = {"calls": 0, "self_frac": 1, "total_frac": 2}


def _items_in(w: Workload, summary) -> int:
    if w.task == "prep":
        return sum(row[3] for row in summary)
    return len(summary) if w.task == "sweep" else len(summary[0])


def _aborted_seeds(w: Workload, summary, inputs) -> int:
    if w.task != "prep":
        return 0
    full = {seed for seed in inputs
            if all(any(r[0] == seed and r[1] == d for r in summary) for d in DEPTHS)}
    return len(inputs) - len(full)


def phase_trace(w: Workload, name: str, size: str, seed: int, seconds: float,
                spans_path: Path) -> dict:
    """Alternate untraced and traced passes; report the per-layer split."""
    from modefisher import dynamics
    from tracing import Tracer

    import_s = time.perf_counter() - T0
    inputs = make_inputs(w, seed)
    cutoff = _cutoff(w)
    start = time.perf_counter()
    dynamics.tunnel_gate(math.pi / 4, cutoff)  # also the beam splitter's
    if w.kind == "jc":
        dynamics.jc_gate(1.0, cutoff)
    first_gate_s = time.perf_counter() - start
    first_result(w, inputs)  # every cache is warm before tracing starts

    tracer = Tracer()
    tally = Tally()
    plain, traced, summaries, items = [], [], [], []
    begin = time.perf_counter()
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - begin < seconds:
        summary, wall = _timed_pass(w, inputs, tally)
        if summary is None:
            break
        plain.append(wall)
        summaries.append(summary)
        items.append(_items_in(w, summary))
        tracer.run_id = len(traced)
        tracer.install()
        try:
            summary, wall = _timed_pass(w, inputs, tally)
        finally:
            tracer.uninstall()
        if summary is None:
            break
        traced.append(wall)
        summaries.append(summary)
        items.append(_items_in(w, summary))
    if not traced:
        raise RuntimeError("; ".join(tally.messages))
    _score_passes(w, name, size, seed, inputs, summaries, items, tally)
    _score_stored(w, tally)

    table = tracer.self_times()
    traced_wall = sum(traced)
    # The entry point's own span absorbs every second that no wrapped
    # function below it accounts for, so it is left out of the coverage.
    root_self = tracer.root_self_seconds()
    span_self = sum(row[1] for rows in table.values() for row in rows.values())
    per_pass = []
    for run_id in range(len(traced)):
        counts = {span: row[0] for span, row in table[run_id].items()}
        counts.update({key: value for (rid, key), value in tracer.counts.items()
                       if rid == run_id})
        per_pass.append(counts)
    first = per_pass[0]
    metrics = {}
    for metric, _ in PER_LAYER:
        span, _, column = metric.rpartition(".")
        if column == "calls":
            metrics[metric] = first.get(span, 0)
        elif column in SPAN_COLUMNS:
            col = SPAN_COLUMNS[column]
            metrics[metric] = sum(rows[span][col] for rows in table.values()
                                  if span in rows) / traced_wall
    metrics.update({
        "setup.import_s": import_s,
        "dynamics.first_gate_s": first_gate_s,
        "dynamics.apply.bytes_computed": first.get("dynamics.apply.bytes_computed", 0),
        "metrology.cfi.homodyne.table_cells": first.get("metrology.cfi.homodyne.table_cells", 0),
        "optimize.nfev": _items_in(w, summaries[1]) if w.task == "prep" else 0,
        "optimize.aborted_seeds": _aborted_seeds(w, summaries[1], inputs),
        "trace.wall_s": statistics.median(traced),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "trace.coverage_frac": (span_self - root_self) / traced_wall,
        "trace.root_self_frac": root_self / traced_wall,
    })
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    self_s = {}
    for rows in table.values():
        for span, row in rows.items():
            self_s[span] = self_s.get(span, 0.0) + row[1]
    return {
        "per_layer": {metric: metrics[metric] for metric, _ in PER_LAYER},
        "units": dict(PER_LAYER),
        "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
        "counts_repeat": all(counts == first for counts in per_pass),
        "traced_passes": len(traced),
        "spans": len(tracer.spans),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "facts": machine_facts(),
    }


def phase_reference() -> None:
    """Rewrite the stored sweep and theta values of the reference seed."""
    import modefisher  # noqa: F401

    out = {}
    for name in WORKLOADS:
        for size in ("full", "tiny"):
            w = workload(name, size)
            if w.task == "prep":
                continue
            summary = summarize(w, run_pass(w, make_inputs(w, REFERENCE_SEED)))
            if w.task == "sweep":
                times, inv_qfi, inv_counting = (list(col) for col in zip(*summary))
                entry = {"time": times, "inv_qfi": inv_qfi, "inv_cfi_counting": inv_counting}
            else:
                entry = {"theta": [t for t, _ in summary[0]],
                         "inv_cfi": [v for _, v in summary[0]]}
            out.setdefault(name, {})[size] = entry
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure", "trace", "reference"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--stored", action="store_true",
                        help="also re-evaluate the stored optima under runs/")
    args = parser.parse_args(argv)
    if args.phase == "reference":
        phase_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    w = workload(args.workload, args.size)
    if args.phase == "setup":
        result = {"setup": phase_setup(w, make_inputs(w, args.seed))}
    elif args.phase == "measure":
        result = phase_measure(w, args.workload, args.size, args.seed, args.seconds,
                               args.stored)
    else:
        if args.spans is None:
            parser.error("--spans is required for a traced run")
        result = phase_trace(w, args.workload, args.size, args.seed, args.seconds,
                             args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
