import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import modefisher.cli
import modefisher.optimize
from modefisher.analysis import TIME_GRID_BOUNDS, time_grid_from
from modefisher.artifacts import SchemaError
from modefisher.cli import (
    _CONFIG,
    _FLAGS,
    _PATHS,
    _optimizer_config,
    _resolve_config,
    build_parser,
    main,
    read_csv_rows,
)
from modefisher.optimize import OptimizerConfig


def _numeric_lines(path):
    # everything except the manifest comment; wall_time columns excluded
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=")
    header = lines[1].split(",")
    drop = {i for i, name in enumerate(header) if name == "wall_time"}
    kept = []
    for line in lines[1:]:
        cells = line.split(",")
        kept.append(",".join(c for i, c in enumerate(cells) if i not in drop))
    return kept


def test_bench_prints_bounds_table(capsys):
    assert main(["bench", "20"]) == 0
    out = capsys.readouterr().out
    assert "0.05" in out
    assert "0.004545454545454545" in out
    assert "0.0025" in out


def test_bench_rejects_nonpositive_photon_number():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_sweep_writes_versioned_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = main(["sweep", "--kind", "kerr", "--n", "4", "--tmax", "0.8",
               "--tstep", "0.05", "--with-counting", "--outdir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["config"]["n_mean"] == 4.0
    assert manifest["config"]["cutoff"] == 13
    meta, rows = read_csv_rows(out / "sweep.csv")
    assert meta["manifest"] == manifest["sha256"]
    assert len(rows) == 17
    assert float(rows[0]["time"]) == 0.0
    assert float(rows[0]["inv_cfi_counting"]) >= float(rows[0]["inv_qfi"]) * 0.999
    assert (out / "minima.csv").exists()


def test_sweep_reruns_bit_for_bit(tmp_path):
    args = ["sweep", "--kind", "kerr", "--n", "4", "--tmax", "0.6",
            "--tstep", "0.1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--outdir", str(a)]) == 0
    assert main(args + ["--outdir", str(b)]) == 0
    assert _numeric_lines(a / "sweep.csv") == _numeric_lines(b / "sweep.csv")


def test_rerun_from_manifest_reproduces_columns(tmp_path):
    out1 = tmp_path / "first"
    assert main(["sweep", "--kind", "kerr", "--n", "4", "--tmax", "0.4",
                 "--tstep", "0.1", "--outdir", str(out1)]) == 0
    out2 = tmp_path / "second"
    rc = main(["sweep", "--config", str(out1 / "manifest.json"),
               "--tmax", "0.4", "--tstep", "0.1", "--outdir", str(out2)])
    assert rc == 0
    assert _numeric_lines(out1 / "sweep.csv") == _numeric_lines(out2 / "sweep.csv")


def test_reader_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# schema=modefisher-csv/999 manifest=deadbeef\nkind\nkerr\n")
    with pytest.raises(SchemaError):
        read_csv_rows(bad)


def test_config_precedence_defaults_file_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_mean": 4.0, "kind": "kerr"}))
    out = tmp_path / "run"
    rc = main(["sweep", "--config", str(cfg), "--n", "2", "--tmax", "0.3",
               "--tstep", "0.1", "--outdir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_mean"] == 2.0   # flag beats file
    assert manifest["config"]["kind"] == "kerr"  # file beats default


def test_optimizer_defaults_come_from_optimizer_config():
    args = build_parser().parse_args(["optimize"])
    assert _optimizer_config(_resolve_config(args)) == OptimizerConfig()


def test_unknown_config_key_fails(tmp_path, capsys):
    # a typo, and keys that are no longer knobs or that the command never read
    for command, config in (("sweep", {"n_men": 4.0}), ("sweep", {"delta": 0.01}),
                            ("optimize", {"method": "nelder-mead"}),
                            ("optimize", {"tol": 1e-10}), ("optimize", {"init_scale": 0.01}),
                            ("ablate", {"workers": 1}), ("wigner", {"phi": 1.0})):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--n", "2", "--outdir", str(out)]) == 1
        assert "unknown config keys" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("sweep", {"kind": "foo"}), ("optimize", {"stage": "frobnicate"}),
    ("wigner", {"mode": 3, "time": 0.5}),
    # a value of the wrong JSON type or range is rejected, never converted
    ("sweep", {"n_mean": "4"}), ("sweep", {"tstep": "0.1"}), ("sweep", {"n_mean": -1.0}),
    ("sweep", {"with_counting": 1}), ("sweep", {"outdir": 3}), ("optimize", {"seeds": 2.0}),
    ("optimize", {"d_max": True}), ("optimize", {"max_iters": None}),
    ("wigner", {"grid_points": 1, "time": 0.5}),
    ("wigner", {"half_width": -6.0, "time": 0.5}), ("theta-sweep", {"points": 0, "probe_time": 0.4})])
def test_config_file_values_meet_the_flag_choices(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--n", "2", "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    key = next(iter(config))
    assert err.startswith("error:") and key in err
    if key in ("kind", "stage", "mode"):
        assert "is not one of" in err
    assert not out.exists()


_NON_FINITE = [
    ("sweep", "phi", "nan", ["--with-counting"]), ("sweep", "n_mean", "inf", []),
    ("sweep", "tmax", "inf", []), ("sweep", "tstep", "nan", []),
    ("sweep", "theta", "-inf", ["--with-homodyne"]),
    ("optimize", "phi", "nan", ["--stage", "both"]), ("optimize", "theta", "inf", []),
    ("optimize", "n_mean", "nan", []),
    ("wigner", "time", "nan", []), ("wigner", "half_width", "inf", ["--time", "0.5"]),
    ("theta-sweep", "probe_time", "nan", []), ("theta-sweep", "phi", "inf",
                                               ["--probe-time", "0.4"]),
    ("ablate", "phi", "nan", ["--paired-dir", "params"])]


@pytest.mark.parametrize("command, key, text, extra", _NON_FINITE)
@pytest.mark.parametrize("form", ["flag", "config"])
def test_non_finite_values_are_rejected_before_writing(tmp_path, capsys, command, key, text,
                                                       extra, form):
    # NaN slips past every range check: it would be written to the manifest
    # and the tables, or end in an unrelated error deep in a sweep
    args = [command, "--kind", "kerr", *extra]
    if command in ("optimize", "ablate"):
        args += ["--max-iters", "3", "--dmax", "1", "--seeds", "1"]
    if key != "n_mean":
        args += ["--n", "2"]
    if form == "flag":
        args.append(f"{_FLAGS[key][0]}={text}")  # "-inf" alone reads as a flag
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(text)}))  # JSON NaN, Infinity
        args += ["--config", str(cfg)]
    out = tmp_path / "run"
    assert main(args + ["--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def test_bench_rejects_a_non_finite_photon_number():
    for text in ("nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", text])
        assert exc.value.code == 2


def test_wigner_rejects_a_one_point_grid(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["wigner", "--kind", "kerr", "--n", "2", "--time", "0.5",
                 "--grid-points", "1", "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid_points" in err
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["wigner", "--time", "0.5", "--half-width", "-6"], "half_width"),
    (["wigner", "--time", "0.5", "--half-width", "0"], "half_width"),
    (["theta-sweep", "--probe-time", "0.4", "--points", "0"], "points"),
    (["theta-sweep", "--probe-time", "0.4", "--points", "-3"], "points")])
def test_grid_axes_must_be_nonempty_and_ascending(tmp_path, capsys, args, key):
    out = tmp_path / "run"
    assert main([*args, "--kind", "kerr", "--n", "2", "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def test_measure_stage_requires_prep(tmp_path, capsys):
    rc = main(["optimize", "--stage", "measure", "--kind", "kerr", "--n", "2",
               "--outdir", str(tmp_path / "run")])
    assert rc == 1
    assert "--prep-csv" in capsys.readouterr().err


def test_optimize_then_measure_round_trip(tmp_path):
    prep_dir = tmp_path / "prep"
    rc = main(["optimize", "--kind", "kerr", "--n", "2", "--dmax", "1",
               "--seeds", "2", "--max-iters", "40", "--stage", "prepare",
               "--outdir", str(prep_dir)])
    assert rc == 0
    _, rows = read_csv_rows(prep_dir / "prepare.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row["objective"]) < 0  # found some Fisher information

    meas_dir = tmp_path / "meas"
    rc = main(["optimize", "--kind", "kerr", "--n", "2", "--dmax", "1",
               "--seeds", "1", "--max-iters", "40", "--stage", "measure",
               "--prep-csv", str(prep_dir / "prepare.csv"),
               "--outdir", str(meas_dir)])
    assert rc == 0
    _, rows = read_csv_rows(meas_dir / "measure.csv")
    assert len(rows) == 1
    manifest = json.loads((meas_dir / "manifest.json").read_text())
    assert manifest["config"]["stage"] == "measure"
    assert manifest["config"]["prep_csv"] == "../prep/prepare.csv"  # the probe, seen from the run


@pytest.mark.parametrize("prep_kind, measure_flags, what", [
    ("jc", ["--kind", "kerr", "--n", "2"], "jc circuit"),     # 6 JC values read as 3 Kerr layers
    ("kerr", ["--kind", "kerr", "--n", "3"], "at N=2"),
])
def test_measure_stage_rejects_a_probe_of_another_kind_or_n(tmp_path, capsys, prep_kind,
                                                            measure_flags, what):
    prep_dir = tmp_path / "prep"
    assert main(["optimize", "--kind", prep_kind, "--n", "2", "--dmax", "2", "--seeds", "1",
                 "--max-iters", "20", "--stage", "prepare", "--outdir", str(prep_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "meas"
    assert main(["optimize", *measure_flags, "--dmax", "1", "--seeds", "1", "--max-iters", "5",
                 "--stage", "measure", "--prep-csv", str(prep_dir / "prepare.csv"),
                 "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and what in err
    assert not out.exists()  # no manifest, no CSV


@pytest.mark.parametrize("flags, config", [
    (["--seeds", "0"], None), (["--dmax", "0"], None),
    ([], {"seeds": 0}), ([], {"d_max": 0}),
    (["--workers", "-2"], None), ([], {"workers": 0}),
])
def test_optimize_rejects_empty_search_before_writing(tmp_path, capsys, flags, config):
    args = ["optimize", "--kind", "kerr", "--n", "2", "--max-iters", "5", *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    out = tmp_path / "run"
    assert main(args + ["--outdir", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()  # no manifest, no CSV


@pytest.mark.parametrize("flags, config", [(["--cutoff", "3"], None), ([], {"cutoff": 3})])
def test_optimize_rejects_a_cutoff_below_the_input_before_writing(tmp_path, capsys, flags,
                                                                  config):
    args = ["optimize", "--kind", "kerr", "--n", "2", "--dmax", "1", "--seeds", "1",
            "--max-iters", "3", *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    out = tmp_path / "run"
    assert main(args + ["--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cutoff 3" in err
    assert not out.exists()  # no manifest


@pytest.mark.parametrize("workers", ["1", "2"])
def test_optimize_keeps_finished_seeds_when_one_aborts(tmp_path, monkeypatch, capsys, workers):
    # seed 1's objective turns NaN; pool workers fork and inherit the patches
    current = {}
    seed_stream, qfi_fidelity = modefisher.optimize.seed_stream, modefisher.optimize.qfi_fidelity

    def tracking_stream(master_seed, index):
        current["seed"] = index
        return seed_stream(master_seed, index)

    def nan_for_seed_1(*args):
        value = float("nan") if current["seed"] == 1 else qfi_fidelity(*args).value
        return SimpleNamespace(value=value)

    monkeypatch.setattr(modefisher.optimize, "seed_stream", tracking_stream)
    monkeypatch.setattr(modefisher.optimize, "qfi_fidelity", nan_for_seed_1)
    args = ["optimize", "--kind", "kerr", "--n", "2", "--dmax", "1", "--seeds", "2",
            "--max-iters", "20", "--stage", "prepare", "--workers", workers]
    out = tmp_path / "run"
    assert main(args + ["--outdir", str(out)]) == 0
    _, rows = read_csv_rows(out / "prepare.csv")
    assert [(r["seed"], r["d"]) for r in rows] == [("0", "1")]
    assert "seeds failed and were skipped: [1]" in capsys.readouterr().err

    # every seed aborting is an error, and no table is written
    monkeypatch.setattr(modefisher.optimize, "qfi_fidelity",
                        lambda *args: SimpleNamespace(value=float("nan")))
    aborted = tmp_path / "aborted"
    assert main(args + ["--outdir", str(aborted)]) == 1
    assert not (aborted / "prepare.csv").exists()


def test_optimize_worker_pool_matches_serial(tmp_path):
    base = ["optimize", "--kind", "kerr", "--n", "2", "--dmax", "1",
            "--seeds", "2", "--max-iters", "30", "--stage", "prepare"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(base + ["--outdir", str(serial)]) == 0
    assert main(base + ["--workers", "2", "--outdir", str(pooled)]) == 0
    assert _numeric_lines(serial / "prepare.csv") == _numeric_lines(pooled / "prepare.csv")


def test_ablate_writes_paired_outputs(tmp_path, monkeypatch):
    common = ["--kind", "kerr", "--n", "4", "--dmax", "2", "--seeds", "2"]
    prep = tmp_path / "prep"
    assert main(["optimize", *common, "--max-iters", "20", "--stage", "prepare",
                 "--outdir", str(prep)]) == 0

    paired = tmp_path / "paired"
    assert main(["ablate", *common, "--max-iters", "5",
                 "--paired-dir", str(prep / "params"), "--outdir", str(paired)]) == 0
    assert (paired / "manifest.json").exists()
    assert len(list((paired / "params_measure").glob("*.json"))) == 4
    _, plain_rows = read_csv_rows(paired / "paired_plain.csv")
    inv_plain = {int(r["d"]): float(r["inv_cfi_plain"]) for r in plain_rows}
    assert sorted(inv_plain) == [1, 2]
    _, rows = read_csv_rows(paired / "paired.csv")
    assert len(rows) == 4
    for row in rows:
        # the identity circuit is the floor; 1e-12 covers the reciprocal round trip
        floor = -1.0 / inv_plain[int(row["d"])]
        assert float(row["objective"]) <= floor * (1 - 1e-12)

    # every seed aborting is an error, not an empty paired.csv
    monkeypatch.setattr(modefisher.optimize, "cfi",
                        lambda family, model: SimpleNamespace(value=float("nan")))
    aborted = tmp_path / "aborted"
    assert main(["ablate", *common, "--max-iters", "5",
                 "--paired-dir", str(prep / "params"), "--outdir", str(aborted)]) == 1
    assert not (aborted / "paired.csv").exists()


def test_wigner_command_time_source(tmp_path):
    out = tmp_path / "wig"
    rc = main(["wigner", "--kind", "kerr", "--n", "2", "--time", "0.5",
               "--half-width", "6", "--grid-points", "201",
               "--outdir", str(out)])
    assert rc == 0
    lines = (out / "wigner.csv").read_text().splitlines()
    assert lines[0].startswith("# schema=")
    assert len(lines) == 2 + 201  # comment + x header + one row per p value
    top, row = lines[1].split(","), lines[2].split(",")
    assert top[0] == "" and float(top[1]) == -6.0  # x axis along the top row
    assert float(row[0]) == -6.0 and len(row) == 201 + 1  # p axis down the first column
    with pytest.raises(SystemExit):  # --time and --params are exclusive
        main(["wigner", "--time", "0.5", "--params", "x.json"])


def test_manifest_digest_does_not_depend_on_calling_directory(tmp_path, monkeypatch):
    # the same wigner run, started from two directories with --params typed
    # relative to each; the output directory is the same absolute path
    sub = tmp_path / "sub"
    sub.mkdir()
    (tmp_path / "circuit.json").write_text(json.dumps(
        {"kind": "kerr", "n_mean": 2.0, "d": 1, "seed": 0, "params": [0.3, 0.2]}))
    digests = []
    for cwd, params in ((tmp_path, "circuit.json"), (sub, "../circuit.json")):
        monkeypatch.chdir(cwd)
        out = tmp_path / "wig"
        assert main(["wigner", "--kind", "kerr", "--n", "2", "--params", params,
                     "--grid-points", "201", "--outdir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["params"] == "../circuit.json"
        digests.append(manifest["sha256"])
    assert digests[0] == digests[1]


def test_theta_sweep_command(tmp_path, capsys):
    out = tmp_path / "theta"
    rc = main(["theta-sweep", "--kind", "kerr", "--n", "2",
               "--probe-time", "0.4", "--points", "9", "--outdir", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "theta_min" in printed
    _, rows = read_csv_rows(out / "theta_sweep.csv")
    assert len(rows) == 9
    assert float(rows[0]["theta"]) == 0.0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "modefisher.cli", "bench", "8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.125" in proc.stdout


def test_rerun_from_measure_manifest_uses_recorded_inputs(tmp_path, monkeypatch):
    # --stage and --prep-csv come from the manifest, the path resolved
    # against the manifest's directory, not the calling one
    common = ["--kind", "kerr", "--n", "2", "--dmax", "1", "--max-iters", "30"]
    assert main(["optimize", *common, "--seeds", "2", "--outdir", str(tmp_path / "prep")]) == 0
    first = tmp_path / "meas"
    assert main(["optimize", *common, "--seeds", "1", "--stage", "measure",
                 "--prep-csv", str(tmp_path / "prep" / "prepare.csv"),
                 "--outdir", str(first)]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["optimize", "--config", str(first / "manifest.json"),
                 "--outdir", str(tmp_path / "again")]) == 0
    again = tmp_path / "again"
    assert _numeric_lines(first / "measure.csv") == _numeric_lines(again / "measure.csv")
    old, new = (json.loads((d / "manifest.json").read_text()) for d in (first, again))
    assert new["config"]["stage"] == "measure"
    assert new["config"]["prep_csv"] == "../prep/prepare.csv"
    assert new["sha256"] == old["sha256"]


def test_rerun_from_wigner_manifest_uses_recorded_params(tmp_path):
    (tmp_path / "circuit.json").write_text(json.dumps(
        {"kind": "kerr", "n_mean": 2.0, "d": 1, "seed": 0, "params": [0.3, 0.2]}))
    first, again = tmp_path / "wig", tmp_path / "again"
    assert main(["wigner", "--kind", "kerr", "--n", "2", "--grid-points", "201",
                 "--params", str(tmp_path / "circuit.json"), "--outdir", str(first)]) == 0
    assert main(["wigner", "--config", str(first / "manifest.json"),
                 "--outdir", str(again)]) == 0
    assert (first / "wigner.csv").read_text() == (again / "wigner.csv").read_text()


def test_source_flags_are_still_needed_without_a_manifest(tmp_path, capsys):
    assert main(["wigner", "--kind", "kerr", "--n", "2", "--outdir", str(tmp_path / "w")]) == 1
    assert main(["ablate", "--kind", "kerr", "--n", "2", "--outdir", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert "--time or --params" in err and "ablate needs one input: --paired-dir" in err


def test_manifest_digest_ignores_the_output_directory(tmp_path, monkeypatch):
    # one run, its relative --outdir typed from two calling directories
    sub = tmp_path / "sub"
    sub.mkdir()
    digests = []
    for cwd, outdir in ((tmp_path, "out"), (sub, "../out")):
        monkeypatch.chdir(cwd)
        assert main(["sweep", "--kind", "kerr", "--n", "2", "--tmax", "0.2",
                     "--tstep", "0.1", "--outdir", outdir]) == 0
        digests.append(json.loads((tmp_path / "out" / "manifest.json").read_text())["sha256"])
    assert digests[0] == digests[1]


def test_manifest_digest_does_not_depend_on_output_depth(tmp_path):
    # reruns from one manifest record params as ../circuit.json and as
    # ../../../circuit.json; the digest hashes the file, not the path
    (tmp_path / "circuit.json").write_text(json.dumps(
        {"kind": "kerr", "n_mean": 2.0, "d": 1, "seed": 0, "params": [0.3, 0.2]}))
    first = tmp_path / "a"
    assert main(["wigner", "--kind", "kerr", "--n", "2", "--grid-points", "21",
                 "--params", str(tmp_path / "circuit.json"), "--outdir", str(first)]) == 0
    reruns = (tmp_path / "b", tmp_path / "deep" / "er" / "c")
    for out in reruns:
        assert main(["wigner", "--config", str(first / "manifest.json"),
                     "--outdir", str(out)]) == 0
    digests = {json.loads((out / "manifest.json").read_text())["sha256"]
               for out in (first, *reruns)}
    assert len(digests) == 1


def test_typed_wigner_time_beats_recorded_params(tmp_path):
    (tmp_path / "circuit.json").write_text(json.dumps(
        {"kind": "kerr", "n_mean": 2.0, "d": 1, "seed": 0, "params": [0.3, 0.2]}))
    first, again = tmp_path / "wig", tmp_path / "again"
    assert main(["wigner", "--kind", "kerr", "--n", "2", "--params",
                 str(tmp_path / "circuit.json"), "--outdir", str(first)]) == 0
    assert main(["wigner", "--config", str(first / "manifest.json"), "--time", "0.5",
                 "--outdir", str(again)]) == 0
    config = json.loads((again / "manifest.json").read_text())["config"]
    assert config["time"] == 0.5 and config["params"] is None


@pytest.fixture(scope="module")
def prep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("stored") / "prep"
    assert main(["optimize", "--kind", "kerr", "--n", "2", "--dmax", "2", "--seeds", "2",
                 "--max-iters", "20", "--outdir", str(out)]) == 0
    return out


_SEARCH_FLAGS = ["--kind", "kerr", "--n", "2", "--seeds", "1", "--max-iters", "10"]
# one run per command, each with its own keys away from their defaults
_ROUND_TRIPS = {
    "sweep": ["sweep", "--kind", "kerr", "--n", "2", "--tmax", "0.3", "--tstep", "0.1",
              "--with-counting", "--with-homodyne"],
    "wigner": ["wigner", "--kind", "kerr", "--n", "2", "--time", "0.5", "--mode", "2",
               "--half-width", "4", "--grid-points", "21"],
    "theta-sweep": ["theta-sweep", "--kind", "kerr", "--n", "2", "--probe-time", "0.4",
                    "--points", "5"],
    "optimize-measure": ["optimize", *_SEARCH_FLAGS, "--dmax", "1", "--stage", "measure",
                         "--prep-csv", "{prep}/prepare.csv"],
    "ablate-paired": ["ablate", *_SEARCH_FLAGS, "--dmax", "2", "--paired-dir", "{prep}/params"],
}


@pytest.mark.parametrize("case", sorted(_ROUND_TRIPS))
def test_rerun_from_manifest_alone_reproduces_every_table(tmp_path, prep_run, case):
    args = [arg.format(prep=prep_run) for arg in _ROUND_TRIPS[case]]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(args + ["--outdir", str(first)]) == 0
    assert main([args[0], "--config", str(first / "manifest.json"),
                 "--outdir", str(again)]) == 0
    tables = sorted(path.name for path in first.glob("*.csv"))
    assert tables and tables == sorted(path.name for path in again.glob("*.csv"))
    for name in tables:
        assert _numeric_lines(first / name) == _numeric_lines(again / name)
    old, new = (json.loads((d / "manifest.json").read_text()) for d in (first, again))
    assert new["sha256"] == old["sha256"]


class _ReadKeys(dict):
    """A resolved config that adds each key its command reads to ``read``."""

    def __init__(self, config, read):
        super().__init__(config)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_config_key_is_read_by_its_command(tmp_path, prep_run, monkeypatch):
    # the round trips, plus the two source branches they leave out; one worker each
    runs = [*_ROUND_TRIPS.values(),
            ["optimize", *_SEARCH_FLAGS, "--dmax", "1", "--stage", "both"],
            ["wigner", "--kind", "kerr", "--n", "2", "--grid-points", "21",
             "--params", "{prep}/params/kerr_N2_d1_seed0.json"]]
    read = {command: set() for command in _CONFIG}
    resolve = modefisher.cli._resolve_config
    monkeypatch.setattr(modefisher.cli, "_resolve_config",
                        lambda args: _ReadKeys(resolve(args), read[args.command]))
    for i, run in enumerate(runs):
        args = [arg.format(prep=prep_run) for arg in run]
        assert main(args + ["--outdir", str(tmp_path / str(i))]) == 0
    unread = {command: sorted(set(keys) - read[command]) for command, keys in _CONFIG.items()}
    assert unread == dict.fromkeys(_CONFIG, [])


@pytest.mark.parametrize("kind, tmax, tstep", [
    ("jc", "30", "0.1"), ("kerr", repr(2 * np.pi), repr(np.pi / 200))])
def test_spelled_out_time_grid_defaults_write_the_same_sweep(tmp_path, kind, tmax, tstep):
    omitted, typed = tmp_path / "omitted", tmp_path / "typed"
    assert main(["sweep", "--kind", kind, "--n", "2", "--outdir", str(omitted)]) == 0
    assert main(["sweep", "--kind", kind, "--n", "2", "--tmax", tmax, "--tstep", tstep,
                 "--outdir", str(typed)]) == 0
    for name in ("sweep.csv", "minima.csv"):
        assert (omitted / name).read_text() == (typed / name).read_text()
    _, rows = read_csv_rows(omitted / "sweep.csv")
    assert [float(r["time"]) for r in rows] == time_grid_from(*TIME_GRID_BOUNDS[kind]).tolist()


_RUNS = Path(__file__).resolve().parents[1] / "runs"


@pytest.mark.parametrize("manifest", sorted(_RUNS.glob("*/manifest.json")),
                         ids=lambda path: path.parent.name)
def test_stored_manifest_loads_for_its_command(manifest):
    command = json.loads(manifest.read_text())["command"]
    config = _resolve_config(build_parser().parse_args([command, "--config", str(manifest)]))
    if config.get("stage") == "measure":
        assert config["prep_csv"] is not None
    for key in _PATHS:
        if config.get(key) is not None:
            assert Path(config[key]).exists(), f"{manifest}: {key} = {config[key]}"


_SOURCE_FLAGS = {"wigner": ["--time", "0.5"], "theta-sweep": ["--probe-time", "0.4"],
                 "ablate": ["--paired-dir", "params"]}


@pytest.mark.parametrize("command", sorted(_CONFIG))
def test_help_advertises_the_resolved_defaults(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "300")  # one help entry per option, unwrapped
    with pytest.raises(SystemExit):
        main([command, "--help"])
    entries = re.split(r"\n(?=  -)", capsys.readouterr().out)
    advertised = [(re.search(r"--[\w-]+", entry).group(), match.group(1))
                  for entry in entries if (match := re.search(r"Default: (\S+)", entry))]
    assert len(advertised) == sum(
        key in _FLAGS and value is not None and not isinstance(value, bool)
        for key, value in _CONFIG[command].items())
    base = [command, *_SOURCE_FLAGS.get(command, [])]
    resolved = _resolve_config(build_parser().parse_args(base))
    for flag, value in advertised:
        typed = _resolve_config(build_parser().parse_args([*base, flag, value]))
        assert typed == resolved, flag
