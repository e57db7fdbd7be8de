"""Command-line front end: sweeps, optimization, Wigner grids, reports.

Every command resolves its configuration from defaults, an optional JSON
config file, and command-line flags (flags win), then writes a manifest
next to its outputs.  Each output table names the manifest's digest, and
re-running from a manifest reproduces the numeric columns byte for byte
(wall-time columns excepted).  Recorded paths are relative to the output
directory, which the digest leaves out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import multiprocessing
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import default_cutoff, find_minima, sweep_continuous, sweep_theta
from .artifacts import (
    CSV_SCHEMA,
    load_params,
    read_csv_rows,
    sidecar_name,
    write_csv,
    write_records,
)
from .circuits import AnsatzParams, run_circuit
from .dynamics import coherent_input_state, evolve_continuous
from .encoding import DEFAULT_PHI
from .hilbert import reduce_to_mode
from .metrology import DEFAULT_DELTA, MeasurementModel, bounds, inverse_fisher
from .optimize import (
    OptimizationError,
    OptimizerConfig,
    ablation_theta,
    best_by_qfi,
    best_record,
    optimize_measurement,
    optimize_preparation,
    paired_depth_scan,
)
from .wigner import default_axes, wigner

# config keys that are OptimizerConfig fields; their defaults come from there
_OPTIMIZER_KEYS = ("max_iters", "tol", "method", "init_scale", "seeds", "d_max",
                   "master_seed")

_DEFAULTS = {
    "kind": "kerr",
    "n_mean": 20.0,
    "cutoff": None,          # None -> default_cutoff(n_mean)
    "phi": DEFAULT_PHI,
    "delta": DEFAULT_DELTA,
    "measurement": "counting",
    "theta": 0.0,
    **{key: getattr(OptimizerConfig(), key) for key in _OPTIMIZER_KEYS},
    "workers": 1,
    "outdir": "runs/out",
}

# manifest inputs outside ``config`` that fill absent flags (paths relative to the
# manifest); a command reads one of _SOURCES, so none is filled if one is typed
_RECORDED = ("stage", "prep_csv", "params", "paired_dir")
_SOURCES = ("time", "params", "paired_dir")


def _load_config_file(path: str, args: argparse.Namespace) -> dict:
    payload = json.loads(Path(path).read_text())
    if "config" in payload and isinstance(payload["config"], dict):
        # a previously written manifest: its recorded inputs fill absent flags
        typed_source = any(getattr(args, key, None) is not None for key in _SOURCES)
        for key in _RECORDED:
            if (key not in payload or getattr(args, key, "") is not None
                    or (key in _SOURCES and typed_source)):
                continue
            value = payload[key]
            setattr(args, key, value if key == "stage"
                    else os.path.normpath(Path(path).parent / value))
        payload = payload["config"]
    unknown = set(payload) - set(_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return payload


def _resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    config = dict(_DEFAULTS)
    if getattr(args, "config", None):
        config.update(_load_config_file(args.config, args))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if config["cutoff"] is None:
        config["cutoff"] = default_cutoff(config["n_mean"])
    return config


def _manifest(command: str, config: dict, extra: dict | None = None) -> tuple[dict, str]:
    """Manifest and its digest, which covers everything but ``config["outdir"]``."""
    body = {"schema": CSV_SCHEMA, "command": command, "config": config, **(extra or {})}
    hashed = {**body, "config": {k: v for k, v in config.items() if k != "outdir"}}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, default=str).encode()
    ).hexdigest()
    return {**body, "sha256": digest}, digest


def _relative_to(outdir: Path, path: str) -> str:
    """``path`` as seen from ``outdir``, so a manifest does not depend on the calling directory."""
    return os.path.relpath(Path(path).resolve(), outdir.resolve())


def _write_manifest(outdir: Path, manifest: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1, default=str) + "\n")


def _optimizer_config(config: dict) -> OptimizerConfig:
    """OptimizerConfig from a resolved config; each value takes its default's type."""
    defaults = OptimizerConfig()
    return OptimizerConfig(**{key: type(getattr(defaults, key))(config[key])
                              for key in _OPTIMIZER_KEYS})


def _measurement_model(config: dict) -> MeasurementModel:
    return MeasurementModel(
        str(config["measurement"]), include_emitters=config["kind"] == "jc",
        theta=float(config["theta"]),
    )


# ---------------------------------------------------------------- commands


def cmd_bench(args: argparse.Namespace) -> int:
    b = bounds(args.n_mean)
    print(f"N = {args.n_mean:g}")
    print(f"  inverse SQL  (1/N)          : {b.sql_inv_fi!r}")
    print(f"  inverse TFS  (2/(N(N+2)))   : {b.tfs_inv_fi!r}")
    print(f"  inverse HL   (1/N^2)        : {b.hl_inv_fi!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    outdir = Path(config["outdir"])
    grid = None
    if args.tmax is not None or args.tstep is not None:
        kind = config["kind"]
        tmax = args.tmax if args.tmax is not None else (30.0 if kind == "jc" else 2 * np.pi)
        tstep = args.tstep if args.tstep is not None else (0.1 if kind == "jc" else np.pi / 200)
        grid = np.arange(0.0, tmax + 1e-12, tstep)
        manifest_extra = {"tmax": tmax, "tstep": tstep}
    else:
        manifest_extra = {}
    manifest, digest = _manifest("sweep", config, manifest_extra)
    records = sweep_continuous(
        config["kind"], float(config["n_mean"]), time_grid=grid,
        include_cfi_counting=args.with_counting,
        include_cfi_homodyne=args.with_homodyne, theta=float(config["theta"]),
        phi=float(config["phi"]), delta=float(config["delta"]),
        cutoff=int(config["cutoff"]),
    )
    minima = find_minima(records)
    _write_manifest(outdir, manifest)
    write_csv(outdir / "sweep.csv", digest,
              ["kind", "N", "time", "inv_qfi", "inv_cfi_counting", "inv_cfi_homodyne"],
              [(r.kind, float(r.n_mean), r.time, r.inv_qfi, r.inv_cfi_counting,
                r.inv_cfi_homodyne) for r in records])
    write_csv(outdir / "minima.csv", digest, ["kind", "N", "time", "inv_qfi"],
              [(config["kind"], float(config["n_mean"]), t, v) for t, v in minima])
    print(f"{len(records)} sweep rows, {len(minima)} minima -> {outdir}")
    return 0


_STAGE_KEYS = ("prepare", "measure", "both")


def _prep_worker(payload: dict) -> list:
    config = payload["config"]
    return optimize_preparation(
        payload["kind"], payload["n_mean"], payload["schedule"], payload["opt_config"],
        phi=float(config["phi"]), delta=float(config["delta"]),
        cutoff=int(config["cutoff"]),
    )


def _measure_worker(payload: dict) -> list:
    config = payload["config"]
    params = AnsatzParams.from_vector(payload["kind"], np.asarray(payload["prep_vector"]))
    return optimize_measurement(
        payload["kind"], params, _measurement_model(config),
        payload["n_mean"], payload["schedule"], payload["opt_config"],
        phi=float(config["phi"]), cutoff=int(config["cutoff"]),
    )


def _seed_records(worker, payload: dict) -> list:
    """Records of a one-seed search; none when the seed aborts (the search logs why)."""
    try:
        return worker(payload)
    except OptimizationError:
        return []


def _farm_seeds(worker, payload: dict, opt_config: OptimizerConfig, workers: int) -> list:
    """One search per seed, optionally in a process pool; fails only if every seed aborts."""
    jobs = [(worker, dict(payload, opt_config=replace(opt_config, seed_indices=(seed,))))
            for seed in opt_config.seed_pool]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            batches = pool.starmap(_seed_records, jobs)
    else:
        batches = [_seed_records(*job) for job in jobs]
    records = [r for batch in batches for r in batch]  # already in (seed, d) order
    if not records:
        raise OptimizationError("every seed aborted")
    failed = sorted(set(opt_config.seed_pool) - {r.seed for r in records})
    if failed:
        print(f"warning: seeds failed and were skipped: {failed}", file=sys.stderr)
    return records


def _best_prep_vector(prep_csv: Path) -> np.ndarray:
    """Best preparation record's parameter vector via its sidecar file."""
    _, rows = read_csv_rows(prep_csv)
    if not rows:
        raise ValueError(f"{prep_csv} holds no records")
    best = min(rows, key=lambda r: float(r["objective"]))
    sidecar = prep_csv.parent / "params" / sidecar_name(
        best["kind"], best["N"], best["d"], best["seed"])
    return load_params(sidecar).to_vector()


def cmd_optimize(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    opt_config = _optimizer_config(config)  # rejects bad values before any file is written
    outdir = Path(config["outdir"])
    schedule = list(range(1, opt_config.d_max + 1))
    stage = args.stage or "prepare"
    extra = {"stage": stage}
    if stage == "measure":
        if args.prep_csv is None:
            print("--stage measure needs --prep-csv pointing at a "
                  "prepare run", file=sys.stderr)
            return 1
        extra["prep_csv"] = _relative_to(outdir, args.prep_csv)
    manifest, digest = _manifest("optimize", config, extra)
    _write_manifest(outdir, manifest)
    payload = {"kind": config["kind"], "n_mean": float(config["n_mean"]),
               "schedule": schedule, "config": config}
    workers = int(config["workers"])

    prep_vector = None
    if stage in ("prepare", "both"):
        records = _farm_seeds(_prep_worker, payload, opt_config, workers)
        write_records(records, outdir / "prepare.csv", digest, params_dir=outdir / "params")
        best = best_record(records)
        prep_vector = best.best_params
        print(f"prepare: best 1/F_Q = {best.inv_fisher:.6g} "
              f"(seed {best.seed}, d {best.d}) -> {outdir}")
    if stage in ("measure", "both"):
        if prep_vector is None:
            prep_vector = _best_prep_vector(Path(args.prep_csv))
        records = _farm_seeds(
            _measure_worker, dict(payload, prep_vector=[float(v) for v in prep_vector]),
            opt_config, workers)
        write_records(records, outdir / "measure.csv", digest,
                      params_dir=outdir / "params_measure")
        best = best_record(records)
        print(f"measure ({config['measurement']}): best 1/F_C = "
              f"{best.inv_fisher:.6g} (seed {best.seed}, d {best.d}) -> {outdir}")
    return 0


def cmd_wigner(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    outdir = Path(config["outdir"])
    kind, n_mean, cut = config["kind"], float(config["n_mean"]), int(config["cutoff"])
    if args.params is None and args.time is None:
        raise ValueError("wigner needs --time or --params")
    psi0 = coherent_input_state(kind, n_mean, cut)
    if args.params is not None:
        params = load_params(args.params)
        state = run_circuit(params, psi0)
        source = {"params": _relative_to(outdir, args.params)}
    else:
        state = evolve_continuous(kind, float(args.time), psi0)
        source = {"time": float(args.time)}
    manifest, digest = _manifest("wigner", config, {**source, "mode": args.mode})
    rho = reduce_to_mode(state, args.mode - 1)
    x_axis, p_axis = default_axes(half_width=args.half_width, points=args.grid_points)
    grid = wigner(rho, x_axis, p_axis)
    _write_manifest(outdir, manifest)
    # first row is the x axis, first column the p axis
    write_csv(outdir / "wigner.csv", digest, ["", *grid.x_axis.tolist()],
              [[p, *row] for p, row in zip(grid.p_axis.tolist(), grid.values.tolist())])
    print(f"wigner grid {len(p_axis)}x{len(x_axis)}, integral = "
          f"{grid.integral():.6f}, min = {grid.values.min():.6f} -> {outdir}")
    return 0


def cmd_theta_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    outdir = Path(config["outdir"])
    manifest, digest = _manifest("theta-sweep", config,
                                 {"probe_time": args.probe_time,
                                  "points": args.points})
    theta_grid = np.linspace(0.0, 2 * np.pi, args.points)
    samples, theta_min = sweep_theta(
        config["kind"], float(config["n_mean"]), float(args.probe_time),
        theta_grid=theta_grid, phi=float(config["phi"]),
        delta=float(config["delta"]), cutoff=int(config["cutoff"]),
    )
    _write_manifest(outdir, manifest)
    write_csv(outdir / "theta_sweep.csv", digest, ["kind", "N", "probe_time", "theta", "inv_cfi"],
              [(config["kind"], float(config["n_mean"]), float(args.probe_time), theta, value)
               for theta, value in samples])
    print(f"theta_min = {theta_min!r} ({theta_min / np.pi:.5f} pi) -> {outdir}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    outdir = Path(config["outdir"])
    kind, n_mean = config["kind"], float(config["n_mean"])
    opt_config = _optimizer_config(config)
    if args.params is None and args.paired_dir is None:
        raise ValueError("ablate needs --params or --paired-dir")

    if args.paired_dir is not None:
        prep_by_d = {}
        for d in range(1, int(config["d_max"]) + 1):
            candidates = sorted(Path(args.paired_dir).glob(sidecar_name(kind, n_mean, d, "*")))
            if not candidates:
                raise FileNotFoundError(
                    f"no stored parameters for d={d} under {args.paired_dir}")
            prep_by_d[d] = best_by_qfi(candidates, n_mean, int(config["cutoff"]),
                                       float(config["phi"]), float(config["delta"]))
        manifest, digest = _manifest("ablate", config,
                                     {"paired_dir": _relative_to(outdir, args.paired_dir)})
        _write_manifest(outdir, manifest)
        plain, records = paired_depth_scan(
            kind, prep_by_d, _measurement_model(config), n_mean, opt_config,
            phi=float(config["phi"]), cutoff=int(config["cutoff"]))
        write_records(records, outdir / "paired.csv", digest,
                      params_dir=outdir / "params_measure")
        write_csv(outdir / "paired_plain.csv", digest, ["kind", "N", "d", "inv_cfi_plain"],
                  [(kind, n_mean, d, inverse_fisher(plain[d])) for d in sorted(plain)])
        print(f"paired scan over d=1..{max(plain)} -> {outdir}")
        return 0

    params = load_params(args.params)
    manifest, digest = _manifest("ablate", config, {"params": _relative_to(outdir, args.params)})
    _write_manifest(outdir, manifest)
    result = ablation_theta(kind, params, n_mean, opt_config,
                            phi=float(config["phi"]), cutoff=int(config["cutoff"]))
    write_records(result.fixed_theta, outdir / "fixed_theta.csv", digest,
                  params_dir=outdir / "params_measure")
    write_records(result.joint, outdir / "joint.csv", digest)
    theta_opt, fisher = result.theta_only
    inv_cfi = inverse_fisher(fisher)
    write_csv(outdir / "theta_only.csv", digest, ["kind", "N", "theta_opt", "inv_cfi"],
              [(kind, n_mean, float(theta_opt), inv_cfi)])
    print(f"theta-only 1/F_C = {inv_cfi:.6g} at theta = {theta_opt:.4f} -> {outdir}")
    return 0


# ------------------------------------------------------------------ parser


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _add_common(parser: argparse.ArgumentParser, optimizer: bool = False) -> None:
    parser.add_argument("--config", help="JSON config file or manifest; flags override it")
    parser.add_argument("--kind", choices=("jc", "kerr"), dest="kind",
                        help="nonlinearity family. Default: %(default)s")
    parser.add_argument("--n", type=_nonnegative_float, dest="n_mean",
                        help="total mean photon number N")
    parser.add_argument("--cutoff", type=int, help="per-mode Fock cutoff (default: from N)")
    parser.add_argument("--phi", type=float, help="operating phase of the interferometer")
    parser.add_argument("--delta", type=float, help="finite-difference step for the QFI")
    parser.add_argument("--outdir", help="output directory. Default: runs/out")
    if optimizer:
        parser.add_argument("--seeds", type=int, help="restarts per batch. Default: 10")
        parser.add_argument("--dmax", type=int, dest="d_max",
                            help="deepest circuit in the growth schedule")
        parser.add_argument("--max-iters", type=int, dest="max_iters",
                            help="objective evaluations per (seed, depth) stage")
        parser.add_argument("--master-seed", type=int, dest="master_seed",
                            help="top-level seed for all random streams")
        parser.add_argument("--method", choices=("cobyla", "nelder-mead"),
                            help="local optimizer")
        parser.add_argument("--workers", type=int,
                            help="process pool size for independent seeds. Default: 1")
        parser.add_argument("--measurement", choices=("counting", "homodyne"),
                            help="readout model for measurement stages")
        parser.add_argument("--theta", type=float, help="homodyne quadrature angle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modefisher",
        description="Two-mode bosonic metrology: sweeps, circuit optimization, "
                    "Wigner maps, and precision bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="print the inverse Fisher-information bounds")
    p_bench.add_argument("n_mean", type=_positive_float, help="total mean photon number")
    p_bench.set_defaults(fn=cmd_bench)

    p_sweep = sub.add_parser("sweep", help="inverse QFI against interaction time")
    _add_common(p_sweep)
    p_sweep.add_argument("--tmax", type=float, help="end of the time grid")
    p_sweep.add_argument("--tstep", type=float, help="time grid step")
    p_sweep.add_argument("--with-counting", action="store_true",
                         help="add the photon-counting CFI column")
    p_sweep.add_argument("--with-homodyne", action="store_true",
                         help="add the homodyne CFI column")
    p_sweep.add_argument("--theta", type=float, help="homodyne quadrature angle")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="optimize preparation/measurement circuits")
    _add_common(p_opt, optimizer=True)
    p_opt.add_argument("--stage", choices=_STAGE_KEYS, help="Default: prepare")
    p_opt.add_argument("--prep-csv", dest="prep_csv",
                       help="prepare.csv of a stored run (for --stage measure)")
    p_opt.set_defaults(fn=cmd_optimize)

    p_wig = sub.add_parser("wigner", help="Wigner grid of one reduced mode")
    _add_common(p_wig)
    src = p_wig.add_mutually_exclusive_group()
    src.add_argument("--time", type=float, help="continuous interaction time")
    src.add_argument("--params", help="stored circuit parameter file")
    p_wig.add_argument("--mode", type=int, choices=(1, 2), default=1,
                       help="which mode to reduce to. Default: %(default)s")
    p_wig.add_argument("--half-width", type=float, default=9.0, dest="half_width",
                       help="phase-space half width. Default: %(default)s")
    p_wig.add_argument("--grid-points", type=int, default=201, dest="grid_points",
                       help="points per phase-space axis. Default: %(default)s")
    p_wig.set_defaults(fn=cmd_wigner)

    p_theta = sub.add_parser("theta-sweep", help="homodyne CFI against quadrature angle")
    _add_common(p_theta)
    p_theta.add_argument("--probe-time", type=float, required=True, dest="probe_time",
                         help="interaction time of the fixed probe")
    p_theta.add_argument("--points", type=int, default=257,
                         help="angles on [0, 2pi]. Default: %(default)s")
    p_theta.set_defaults(fn=cmd_theta_sweep)

    p_abl = sub.add_parser("ablate", help="readout strategy comparisons on fixed probes")
    _add_common(p_abl, optimizer=True)
    src = p_abl.add_mutually_exclusive_group()
    src.add_argument("--params", help="stored preparation parameters (three-arm comparison)")
    src.add_argument("--paired-dir", dest="paired_dir",
                     help="stored preparation params dir (depth-paired scan)")
    p_abl.set_defaults(fn=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
