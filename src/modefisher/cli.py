"""Command-line front end: sweeps, optimization, Wigner grids, reports.

Every input of a command is a key of one table, ``_CONFIG``: the common
keys plus the command's own.  A value resolves as table default < JSON
config file < typed flag, and the whole resolved dict is the ``config``
block of the manifest written next to the outputs.  A manifest is itself
a config file, so ``<command> --config <manifest> --outdir <new>``, with
no other flag, reproduces the numeric columns of every table byte for
byte (wall-time columns excepted) and the manifest digest, which leaves
``outdir`` out and covers the contents of the input files, not their
paths.  Input paths are written relative to the output directory and
read relative to the config file's directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import multiprocessing
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    THETA_POINTS,
    TIME_GRID_BOUNDS,
    default_cutoff,
    find_minima,
    sweep_continuous,
    sweep_theta,
    time_grid_from,
)
from .artifacts import (
    CSV_SCHEMA,
    load_params,
    read_csv_rows,
    sidecar_name,
    write_csv,
    write_records,
)
from .circuits import AnsatzParams, prepare_probe
from .dynamics import coherent_input_state, evolve_continuous
from .encoding import DEFAULT_PHI
from .hilbert import reduce_to_mode
from .metrology import MeasurementModel, bounds, inverse_fisher
from .optimize import (
    OptimizationError,
    OptimizerConfig,
    best_by_qfi,
    best_record,
    optimize_measurement,
    optimize_preparation,
    paired_depth_scan,
)

# config keys that are OptimizerConfig fields; their defaults come from there
_OPTIMIZER_KEYS = ("max_iters", "seeds", "master_seed")

_COMMON = {
    "kind": "kerr",
    "n_mean": 20.0,
    "cutoff": None,          # None -> default_cutoff(n_mean)
    "outdir": "runs/out",
}
_SEARCH = {
    "phi": DEFAULT_PHI,
    "measurement": "counting",
    "theta": 0.0,
    "max_iters": OptimizerConfig.max_iters,
    "seeds": OptimizerConfig.seeds,
    "d_max": 10,             # the growth schedule is depths 1..d_max
    "master_seed": OptimizerConfig.master_seed,
}
# every config key of each command with its default; None is "not given"
_CONFIG = {
    "sweep": {**_COMMON, "phi": DEFAULT_PHI, "theta": 0.0,
              "tmax": None, "tstep": None,  # None -> TIME_GRID_BOUNDS of the kind
              "with_counting": False, "with_homodyne": False},
    "optimize": {**_COMMON, **_SEARCH, "workers": 1, "stage": "prepare", "prep_csv": None},
    "wigner": {**_COMMON, "time": None, "params": None, "mode": 1, "half_width": 9.0,
               "grid_points": 201},
    "theta-sweep": {**_COMMON, "phi": DEFAULT_PHI, "probe_time": None, "points": THETA_POINTS},
    "ablate": {**_COMMON, **_SEARCH, "paired_dir": None},
}
# input paths: written relative to the output directory, read relative to the config file
_PATHS = ("prep_csv", "params", "paired_dir")
# a command reads exactly one key of its group; a typed one clears the config file's
_ONE_OF = {"wigner": ("time", "params"), "theta-sweep": ("probe_time",),
           "ablate": ("paired_dir",)}


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


# flag, help and argparse options of each config key that has a flag;
# the help text gets the key's default from _CONFIG
_FLAGS = {
    "kind": ("--kind", "nonlinearity family", {"choices": ("jc", "kerr")}),
    "n_mean": ("--n", "total mean photon number N", {"type": _nonnegative_float}),
    "cutoff": ("--cutoff", "per-mode Fock cutoff (from N when not given)", {"type": int}),
    "phi": ("--phi", "operating phase of the interferometer", {"type": float}),
    "outdir": ("--outdir", "output directory", {}),
    "seeds": ("--seeds", "restarts per batch", {"type": int}),
    "d_max": ("--dmax", "deepest circuit in the growth schedule", {"type": int}),
    "max_iters": ("--max-iters", "objective evaluations per (seed, depth) stage",
                  {"type": int}),
    "master_seed": ("--master-seed", "top-level seed for all random streams", {"type": int}),
    "workers": ("--workers", "process pool size for independent seeds", {"type": int}),
    "measurement": ("--measurement", "readout model for measurement stages",
                    {"choices": ("counting", "homodyne")}),
    "theta": ("--theta", "homodyne quadrature angle", {"type": float}),
    "tmax": ("--tmax", "end of the time grid (from --kind when not given)", {"type": float}),
    "tstep": ("--tstep", "time grid step (from --kind when not given)", {"type": float}),
    "with_counting": ("--with-counting", "add the photon-counting CFI column",
                      {"action": "store_true"}),
    "with_homodyne": ("--with-homodyne", "add the homodyne CFI column",
                      {"action": "store_true"}),
    "stage": ("--stage", "search stages to run", {"choices": ("prepare", "measure", "both")}),
    "prep_csv": ("--prep-csv", "prepare.csv of a stored run (for --stage measure)", {}),
    "time": ("--time", "continuous interaction time", {"type": float}),
    "params": ("--params", "stored circuit parameter file", {}),
    "mode": ("--mode", "which mode to reduce to", {"type": int, "choices": (1, 2)}),
    "half_width": ("--half-width", "phase-space half width", {"type": float}),
    "grid_points": ("--grid-points", "points per phase-space axis", {"type": int}),
    "probe_time": ("--probe-time", "interaction time of the fixed probe", {"type": float}),
    "points": ("--points", "angles on [0, 2pi]", {"type": int}),
    "paired_dir": ("--paired-dir", "stored preparation params dir (depth-paired scan)", {}),
}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what a config-file value must be, by its flag's type or action
_VALUE_CHECKS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _number),
    _nonnegative_float: ("a non-negative number", lambda v: _number(v) and v >= 0),
    "store_true": ("true or false", lambda v: isinstance(v, bool)),
    None: ("a string", lambda v: isinstance(v, str)),
}


def _check_value(command: str, key: str, value) -> None:
    """Reject a config-file value that the key's flag would not accept.

    Values are checked, never coerced, so a manifest's numbers stay the
    JSON numbers they were.  null is "not given", allowed where the
    table default is None.
    """
    if value is None and _CONFIG[command][key] is None:
        return
    options = _FLAGS[key][2]
    what, fits = _VALUE_CHECKS[options.get("type", options.get("action"))]
    if not fits(value):
        raise ValueError(f"config {key} = {value!r} is not {what}")
    choices = options.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"config {key} = {value!r} is not one of {list(choices)}")


def _load_config_file(path: str, command: str) -> dict:
    """Config of a JSON file: a plain key/value object or a manifest of ``command``."""
    payload = json.loads(Path(path).read_text())
    if "config" in payload:
        extra = set(payload) - {"schema", "command", "config", "sha256"}
        if extra:
            raise ValueError(f"{path}: unknown manifest keys {sorted(extra)}")
        if payload.get("command") != command:
            raise ValueError(f"{path} is a manifest of {payload.get('command')!r}, "
                             f"not of {command!r}")
        payload = payload["config"]
    unknown = set(payload) - set(_CONFIG[command])
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in payload.items():  # argparse checks only typed flags
        _check_value(command, key, value)
    return {key:os.path.normpath(Path(path).parent / value)
            if key in _PATHS and value is not None else value
            for key, value in payload.items()}


def _resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < typed flags; a typed key of a one-of group clears the group."""
    command = args.command
    config = dict(_CONFIG[command])
    if args.config:
        config.update(_load_config_file(args.config, command))
    typed = {key: getattr(args, key) for key in config if getattr(args, key, None) is not None}
    group = _ONE_OF.get(command, ())
    if typed.keys() & set(group):
        config.update(dict.fromkeys(group))
    config.update(typed)
    for key, value in config.items():
        # flags and JSON both parse NaN and inf; NaN passes every range check,
        # and inf overflows the grids built from it
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} = {value!r} is not finite")
    if group and sum(config[key] is not None for key in group) != 1:
        raise ValueError(f"{command} needs one input: "
                         + " or ".join(_FLAGS[key][0] for key in group))
    if config["cutoff"] is None:
        config["cutoff"] = default_cutoff(config["n_mean"])
    return config


def _content_hash(path: Path) -> str | list:
    """sha256 of a file, or the sorted (name, sha256) of a directory's files."""
    if path.is_dir():
        return sorted((p.name, _content_hash(p)) for p in path.iterdir() if p.is_file())
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(command: str, config: dict) -> str:
    """Write the run's manifest into ``config["outdir"]`` and return its digest.

    The digest covers everything but ``outdir``, with each input path
    replaced by a hash of what it holds.  Input paths are recorded
    relative to the output directory, so the manifest does not depend on
    the calling directory, and the digest does not depend on where the
    output directory is.
    """
    outdir = Path(config["outdir"])
    recorded = {key: os.path.relpath(Path(value).resolve(), outdir.resolve())
                if key in _PATHS and value is not None else value
                for key, value in config.items()}
    body = {"schema": CSV_SCHEMA, "command": command, "config": recorded}
    hashed = {**body, "config": {
        key: _content_hash(Path(config[key])) if key in _PATHS and value is not None else value
        for key, value in recorded.items() if key != "outdir"}}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, default=str).encode()
    ).hexdigest()
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(
        json.dumps({**body, "sha256": digest}, indent=1, default=str) + "\n")
    return digest


def _optimizer_config(config: dict) -> OptimizerConfig:
    """OptimizerConfig from a resolved config."""
    return OptimizerConfig(**{key: config[key] for key in _OPTIMIZER_KEYS})


def _schedule(config: dict) -> list[int]:
    """The growth schedule, depths 1..d_max."""
    if config["d_max"] < 1:
        raise ValueError(f"d_max must be >= 1, got {config['d_max']}")
    return list(range(1, config["d_max"] + 1))


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
    for key, bound in zip(("tmax", "tstep"), TIME_GRID_BOUNDS[config["kind"]]):
        if config[key] is None:
            config[key] = bound
    records = sweep_continuous(
        config["kind"], float(config["n_mean"]),
        time_grid=time_grid_from(float(config["tmax"]), float(config["tstep"])),
        include_cfi_counting=bool(config["with_counting"]),
        include_cfi_homodyne=bool(config["with_homodyne"]), theta=float(config["theta"]),
        phi=float(config["phi"]), cutoff=int(config["cutoff"]),
    )
    minima = find_minima(records)
    outdir = Path(config["outdir"])
    digest = _write_manifest("sweep", config)
    write_csv(outdir / "sweep.csv", digest,
              ["kind", "N", "time", "inv_qfi", "inv_cfi_counting", "inv_cfi_homodyne"],
              [(r.kind, float(r.n_mean), r.time, r.inv_qfi, r.inv_cfi_counting,
                r.inv_cfi_homodyne) for r in records])
    write_csv(outdir / "minima.csv", digest, ["kind", "N", "time", "inv_qfi"],
              [(config["kind"], float(config["n_mean"]), t, v) for t, v in minima])
    print(f"{len(records)} sweep rows, {len(minima)} minima -> {outdir}")
    return 0


def _seed_records(search, opt_config: OptimizerConfig) -> list:
    """Records of a one-seed search; none when the seed aborts (the search logs why)."""
    try:
        return search(opt_config)
    except OptimizationError:
        return []


def _farm_seeds(search, opt_config: OptimizerConfig, workers: int) -> list:
    """``search(config)`` once per seed, optionally in a process pool; fails only
    if every seed aborts."""
    jobs = [(search, replace(opt_config, seed_indices=(seed,))) for seed in opt_config.seed_pool]
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


def _best_prep_params(prep_csv: Path, config: dict) -> AnsatzParams:
    """Best preparation record's circuit, read from its sidecar file; it must
    be a circuit of the configured kind and N."""
    _, rows = read_csv_rows(prep_csv)
    if not rows:
        raise ValueError(f"{prep_csv} holds no records")
    best = min(rows, key=lambda r: float(r["objective"]))
    if best["kind"] != config["kind"] or float(best["N"]) != float(config["n_mean"]):
        raise ValueError(f"{prep_csv} holds a {best['kind']} circuit at N={float(best['N']):g}, "
                         f"not {config['kind']} at N={float(config['n_mean']):g}")
    return load_params(prep_csv.parent / "params" / sidecar_name(
        best["kind"], best["N"], best["d"], best["seed"]))


def cmd_optimize(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    # bad values are rejected before any file is written
    opt_config, schedule = _optimizer_config(config), _schedule(config)
    workers = int(config["workers"])
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    stage = config["stage"]
    if stage == "measure" and config["prep_csv"] is None:
        print("--stage measure needs --prep-csv pointing at a "
              "prepare run", file=sys.stderr)
        return 1
    # the coherent input must fit the cutoff (CutoffError otherwise)
    kind, n_mean, cutoff = config["kind"], float(config["n_mean"]), int(config["cutoff"])
    coherent_input_state(kind, n_mean, cutoff)
    prep_params = None
    if stage == "measure":  # read and checked before anything is written
        prep_params = _best_prep_params(Path(config["prep_csv"]), config)
    outdir = Path(config["outdir"])
    digest = _write_manifest("optimize", config)

    if stage in ("prepare", "both"):
        records = _farm_seeds(
            functools.partial(optimize_preparation, kind, n_mean, schedule, cutoff=cutoff),
            opt_config, workers)
        write_records(records, outdir / "prepare.csv", digest, params_dir=outdir / "params")
        best = best_record(records)
        prep_params = AnsatzParams.from_vector(kind, best.best_params)
        print(f"prepare: best 1/F_Q = {best.inv_fisher:.6g} "
              f"(seed {best.seed}, d {best.d}) -> {outdir}")
    if stage in ("measure", "both"):
        records = _farm_seeds(
            functools.partial(optimize_measurement, kind, prep_params, _measurement_model(config),
                              n_mean, schedule, phi=float(config["phi"]), cutoff=cutoff),
            opt_config, workers)
        write_records(records, outdir / "measure.csv", digest,
                      params_dir=outdir / "params_measure")
        best = best_record(records)
        print(f"measure ({config['measurement']}): best 1/F_C = "
              f"{best.inv_fisher:.6g} (seed {best.seed}, d {best.d}) -> {outdir}")
    return 0


def cmd_wigner(args: argparse.Namespace) -> int:
    from .wigner import default_axes, wigner  # deferred: it loads scipy.special
    config = _resolve_config(args)
    if config["grid_points"] < 2:
        raise ValueError(f"grid_points must be >= 2, got {config['grid_points']}")
    if not config["half_width"] > 0:
        raise ValueError(f"half_width must be positive, got {config['half_width']}")
    kind, n_mean, cut = config["kind"], float(config["n_mean"]), int(config["cutoff"])
    if config["params"] is not None:
        params = load_params(config["params"])
        if params.kind != kind:
            raise ValueError(f"{config['params']} holds a {params.kind} circuit, not {kind}")
        state = prepare_probe(params, n_mean, cut)
    else:
        state = evolve_continuous(kind, float(config["time"]),
                                  coherent_input_state(kind, n_mean, cut))
    rho = reduce_to_mode(state, int(config["mode"]) - 1)
    x_axis, p_axis = default_axes(float(config["half_width"]), int(config["grid_points"]))
    grid = wigner(rho, x_axis, p_axis)
    outdir = Path(config["outdir"])
    digest = _write_manifest("wigner", config)
    # first row is the x axis, first column the p axis
    write_csv(outdir / "wigner.csv", digest, ["", *grid.x_axis.tolist()],
              [[p, *row] for p, row in zip(grid.p_axis.tolist(), grid.values.tolist())])
    print(f"wigner grid {len(p_axis)}x{len(x_axis)}, integral = "
          f"{grid.integral():.6f}, min = {grid.values.min():.6f} -> {outdir}")
    return 0


def cmd_theta_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if config["points"] < 1:
        raise ValueError(f"points must be >= 1, got {config['points']}")
    kind, n_mean, probe_time = config["kind"], float(config["n_mean"]), float(config["probe_time"])
    samples, theta_min = sweep_theta(
        kind, n_mean, probe_time,
        theta_grid=np.linspace(0.0, 2 * np.pi, int(config["points"])),
        phi=float(config["phi"]), cutoff=int(config["cutoff"]),
    )
    outdir = Path(config["outdir"])
    digest = _write_manifest("theta-sweep", config)
    write_csv(outdir / "theta_sweep.csv", digest, ["kind", "N", "probe_time", "theta", "inv_cfi"],
              [(kind, n_mean, probe_time, theta, value) for theta, value in samples])
    print(f"theta_min = {theta_min!r} ({theta_min / np.pi:.5f} pi) -> {outdir}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    outdir = Path(config["outdir"])
    kind, n_mean = config["kind"], float(config["n_mean"])
    opt_config, schedule = _optimizer_config(config), _schedule(config)
    paired_dir = Path(config["paired_dir"])
    prep_by_d = {}
    for d in schedule:
        candidates = sorted(paired_dir.glob(sidecar_name(kind, n_mean, d, "*")))
        if not candidates:
            raise FileNotFoundError(f"no stored parameters for d={d} under {paired_dir}")
        prep_by_d[d] = best_by_qfi(candidates, n_mean, int(config["cutoff"]))
    digest = _write_manifest("ablate", config)
    plain, records = paired_depth_scan(
        kind, prep_by_d, _measurement_model(config), n_mean, opt_config,
        phi=float(config["phi"]), cutoff=int(config["cutoff"]))
    write_records(records, outdir / "paired.csv", digest,
                  params_dir=outdir / "params_measure")
    write_csv(outdir / "paired_plain.csv", digest, ["kind", "N", "d", "inv_cfi_plain"],
              [(kind, n_mean, d, inverse_fisher(plain[d])) for d in sorted(plain)])
    print(f"paired scan over d=1..{max(plain)} -> {outdir}")
    return 0


# ------------------------------------------------------------------ parser


_COMMANDS = {
    "sweep": (cmd_sweep, "inverse QFI against interaction time"),
    "optimize": (cmd_optimize, "optimize preparation/measurement circuits"),
    "wigner": (cmd_wigner, "Wigner grid of one reduced mode"),
    "theta-sweep": (cmd_theta_sweep, "homodyne CFI against quadrature angle"),
    "ablate": (cmd_ablate, "measurement circuits paired with stored probes, depth by depth"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per ``_CONFIG`` entry; every flag defaults to None."""
    parser = argparse.ArgumentParser(
        prog="modefisher",
        description="Two-mode bosonic metrology: sweeps, circuit optimization, "
                    "Wigner maps, and precision bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="print the inverse Fisher-information bounds")
    p_bench.add_argument("n_mean", type=_positive_float, help="total mean photon number")
    p_bench.set_defaults(fn=cmd_bench)

    for command, (fn, summary) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=summary)
        p_cmd.add_argument("--config", help="JSON config file or manifest; flags override it")
        one_of = _ONE_OF.get(command, ())
        group = p_cmd.add_mutually_exclusive_group() if one_of else p_cmd
        for key, default in _CONFIG[command].items():
            if key not in _FLAGS:
                continue
            flag, text, options = _FLAGS[key]
            if default is not None and not isinstance(default, bool):
                text = f"{text}. Default: {default}"
            target = group if key in one_of else p_cmd
            target.add_argument(flag, dest=key, default=None, help=text, **options)
        p_cmd.set_defaults(fn=fn)
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
