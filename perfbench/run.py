"""modefisher benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload prep_kerr_n20 --seed 0 --seconds 10 --trace 0

The package is imported from the checkout's ``src/``.  ``--trace 0``
prints the end-to-end metrics: three fresh processes each sample the
cold set-up, run fixed-size passes for a third of ``--seconds`` and
check their outputs, and two more fresh processes only sample the
set-up.  Set-up time is the median of the five samples and pass figures
are pooled over the three measuring processes, so one process's memory
layout does not set the result.  ``--trace 1`` runs one fresh process that
alternates untraced and traced passes and prints the per-layer split;
its spans go to ``perfbench/out/``.

Each workload process gets the BLAS thread count pinned in its
environment.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every check passed.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("prep_kerr_n20", "prep_kerr_n10", "sweep_jc_n20", "theta_jc_n20")
PROCESSES = 3              # fresh measuring processes per untraced run
SETUP_ONLY = 2             # further fresh processes that only sample set-up
DEADLINE_S = 170.0         # a run must end within 180 s
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """A workload process failed or the checkout cannot run the benchmark."""


def blas_threads() -> int:
    """At most two BLAS threads, never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unavailable"


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args[:1]))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {' '.join(args)} exceeded the run deadline") from err
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def info(label: str, payload) -> None:
    print(f"# {label} {json.dumps(payload)}")


def measure(common: list[str], seconds: float, env: dict, deadline: float):
    """Pool the untraced samples of ``PROCESSES`` fresh processes."""
    parts = []
    for i in range(PROCESSES):
        extra = ["--stored"] if i == 0 else []
        parts.append(run_worker(["measure", *common, "--seconds", str(seconds / PROCESSES),
                                 *extra], env, deadline))
    setups = [p["setup"] for p in parts]
    for _ in range(SETUP_ONLY):
        setups.append(run_worker(["setup", *common], env, deadline)["setup"])
    walls = [w for p in parts for w in p["walls"]]
    rates = [n / w for p in parts for n, w in zip(p["items"], p["walls"])]
    latencies = [ms for p in parts for ms in p["item_ms"]]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(rates),
        # the highest decile needs at least ten items beyond it
        "item_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }
    result = {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "messages": [m for p in parts for m in p["messages"]],
        "facts": parts[0]["facts"],
    }
    if any(p["summary"] != parts[0]["summary"] for p in parts):
        items = sum(sum(p["items"]) for p in parts[1:])
        result["failed"] = min(result["attempted"], result["failed"] + items)
        result["messages"].append("processes gave different outputs for the same inputs")
    info("setup", setups)
    info("items", {"passes": len(walls), "items": len(latencies),
                   "item_ms_median": statistics.median(latencies)})
    return result, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path at N=4 (smoke tests)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "modefisher" / "__init__.py").is_file():
        print(f"error: no modefisher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(blas_threads())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl"
            result = run_worker(["trace", *common, "--seconds", str(args.seconds),
                                 "--spans", str(spans)], env, deadline)
            metrics = {name: {"value": value, "unit": result["units"][name]}
                       for name, value in result["per_layer"].items()}
            info("self_s", result["self_s"])
            info("trace", {"traced_passes": result["traced_passes"],
                           "spans": result["spans"], "spans_file": str(spans.relative_to(ROOT)),
                           "counts_repeat": result["counts_repeat"]})
        else:
            result, metrics = measure(common, args.seconds, env, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failed_frac = result["failed"] / max(result["attempted"], 1)
    info("machine", dict(result["facts"], nproc=os.cpu_count(),
                         affinity=len(os.sched_getaffinity(0)), git_sha=git_sha()))
    info("failed_frac", {"value": failed_frac, "unit": "1", "attempted": result["attempted"],
                         "failed": result["failed"]})
    for message in result["messages"]:
        print(f"# check failed: {message}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
