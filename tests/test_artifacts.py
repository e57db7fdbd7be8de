import numpy as np
import pytest

from modefisher.artifacts import (
    SchemaError,
    read_csv_rows,
    sidecar_name,
    write_csv,
    write_records,
)
from modefisher.optimize import OptRecord


def test_csv_round_trip(tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(path, "abc123", ["kind", "N", "time", "inv_qfi", "inv_cfi"], [
        ("kerr", 4.0, 0.1, np.float64(0.25), None),
        ("kerr", 4.0, 0.2, float("inf"), 1 / 3),
    ])
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=modefisher-csv/1 manifest=abc123"
    assert lines[1] == "kind,N,time,inv_qfi,inv_cfi"
    assert lines[2] == "kerr,4.0,0.1,0.25,"  # numpy scalar as a float; None as empty
    assert lines[3] == "kerr,4.0,0.2,inf,0.3333333333333333"
    assert not list(tmp_path.glob("*.tmp"))

    meta, rows = read_csv_rows(path)
    assert meta == {"schema": "modefisher-csv/1", "manifest": "abc123"}
    assert float(rows[1]["inv_qfi"]) == float("inf")
    assert float(rows[1]["inv_cfi"]) == 1 / 3

    bad = tmp_path / "bad.csv"
    bad.write_text("# schema=modefisher-csv/999 manifest=deadbeef\nkind\nkerr\n")
    with pytest.raises(SchemaError):
        read_csv_rows(bad)


def test_sidecar_name_and_seed_glob(tmp_path):
    assert sidecar_name("kerr", 20.0, 3, 7) == "kerr_N20_d3_seed7.json"
    for seed in (0, 1):
        (tmp_path / sidecar_name("jc", 4.0, 2, seed)).touch()
    (tmp_path / sidecar_name("jc", 4.0, 1, 0)).touch()
    found = sorted(p.name for p in tmp_path.glob(sidecar_name("jc", 4.0, 2, "*")))
    assert found == ["jc_N4_d2_seed0.json", "jc_N4_d2_seed1.json"]


def test_table_is_written_after_its_sidecars(tmp_path):
    records = [OptRecord("kerr", 4.0, seed, 1, np.zeros(2), -3.0, 5, 0.0, 0.1)
               for seed in (0, 1)]
    params = tmp_path / "params"
    # a directory where the second sidecar goes makes its write fail
    (params / sidecar_name("kerr", 4.0, 1, 1)).mkdir(parents=True)
    with pytest.raises(OSError):
        write_records(records, tmp_path / "prepare.csv", "0", params_dir=params)
    assert not (tmp_path / "prepare.csv").exists()
    assert (params / sidecar_name("kerr", 4.0, 1, 0)).exists()
