"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run the tiny size (N=4), so each benchmark call takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SCRATCH = HERE / "out" / "tests"
# Counts that must repeat exactly from run to run on the same code.
EXACT = ("optimize.nfev", "dynamics.apply.tunnel.calls", "dynamics.apply.bs.calls",
         "dynamics.apply.bytes_computed", "metrology.cfi.homodyne.table_cells")
_TRACED: dict = {}


def _bench(*args, run_py=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(run_py), *args],
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def _tiny(workload, trace):
    return _bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "tiny")


def _traced(workload, attempt):
    if (workload, attempt) not in _TRACED:
        _TRACED[workload, attempt] = _tiny(workload, 1)
    return _TRACED[workload, attempt]


def _check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


def test_benchmark_json_matches_the_harness():
    # prep_kerr_n10 runs from the command line only; see README.md
    assert {w["name"] for w in BENCHMARK["workloads"]} < set(bench.WORKLOADS)
    assert list(bench.WORKLOADS) == list(worker.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(bench.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
            == list(worker.PER_LAYER))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    code, result = _tiny(workload, 0)
    assert code == 0 and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    _check_metrics(result, BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_prints_every_per_layer_metric(workload):
    code, result = _traced(workload, 0)
    assert code == 0 and result["correct"]
    _check_metrics(result, BENCHMARK["per_layer"])
    assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = _traced(workload, 0)[1], _traced(workload, 1)[1]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload,column,factor", [
    ("sweep_jc_n20", "inv_qfi", 1 + 1e-6),
    ("theta_jc_n20", "inv_cfi", 1 + 1e-2),
])
def test_wrong_reference_is_caught(workload, column, factor):
    w = worker.workload(workload, "tiny")
    summary = worker.summarize(w, worker.run_pass(w, worker.make_inputs(w, worker.REFERENCE_SEED)))
    check = worker.check_sweep if w.task == "sweep" else worker.check_theta
    reference = worker.load_reference(workload, "tiny", worker.REFERENCE_SEED)
    right, wrong = worker.Tally(), worker.Tally()
    check(w, summary, reference, right)
    reference[column][1] *= factor
    check(w, summary, reference, wrong)
    assert right.failed == 0
    assert wrong.failed > 0


def _coverage(tmp_path, targets):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracing, "TARGETS", targets)
        result = worker.phase_trace(worker.workload("theta_jc_n20", "tiny"), "theta_jc_n20",
                                    "tiny", 0, 0.0, tmp_path / "spans.jsonl")
    assert result["failed"] == 0
    return result["per_layer"]


def test_coverage_drops_when_a_layer_is_unwrapped(tmp_path):
    # homodyne CFI is called straight from the sweep, so its time falls
    # to the entry point's own span once it is no longer wrapped
    full = _coverage(tmp_path, tracing.TARGETS)
    without_cfi = _coverage(tmp_path, tuple(t for t in tracing.TARGETS if t[1] != "cfi"))
    assert full["trace.coverage_frac"] >= 0.9
    assert without_cfi["trace.coverage_frac"] < full["trace.coverage_frac"] - 0.3
    assert without_cfi["trace.root_self_frac"] > full["trace.root_self_frac"] + 0.3


def test_fails_without_the_program():
    # a dot directory, so that pytest never collects the copied test file
    bare = SCRATCH / ".bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        code, result = _bench("--workload", "sweep_jc_n20", "--seed", "0", "--seconds", "1",
                              "--trace", "0", run_py=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert code != 0 and result is None
