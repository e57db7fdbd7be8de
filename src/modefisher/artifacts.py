"""Stored artifacts: versioned CSV tables and parameter sidecars.

Every table starts with ``# schema=modefisher-csv/1 manifest=<digest>``,
tying it to the manifest of the run that wrote it.  Float cells are the
shortest repr (exact on reading back), an undefined inverse Fisher value
is ``inf`` and an absent value an empty cell.  An optimizer record's
sidecar holds its flat parameter vector as JSON.  Sidecars are written
before their table, and a table appears under its final name only when
complete, so an existing CSV marks a finished run.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from .circuits import AnsatzParams

CSV_SCHEMA = "modefisher-csv/1"


class SchemaError(ValueError):
    """A CSV artifact declares a schema this build does not understand."""


def sidecar_name(kind: str, n_mean: float, d, seed) -> str:
    """File name of one record's sidecar; ``seed="*"`` gives a glob over seeds."""
    return f"{kind}_N{float(n_mean):g}_d{d}_seed{seed}.json"


def write_csv(path: str | Path, manifest: str, header, rows) -> None:
    """Write a versioned table; it appears under ``path`` only when complete."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(f"# schema={CSV_SCHEMA} manifest={manifest}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            # numpy scalars would print as "np.float64(...)"
            writer.writerow([v.item() if isinstance(v, np.generic) else v for v in row])
    os.replace(tmp, path)


def read_csv_rows(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a versioned CSV; reject files from an unknown schema.

    Returns the parsed comment metadata and the rows as dicts keyed by
    the header line.
    """
    meta: dict = {}
    with Path(path).open(newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            for token in first[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    meta[key] = value
        else:
            fh.seek(0)
        schema = meta.get("schema", CSV_SCHEMA)
        if schema != CSV_SCHEMA:
            raise SchemaError(f"{path}: schema {schema!r} is not {CSV_SCHEMA!r}")
        rows = list(csv.DictReader(fh))
    return meta, rows


def write_records(records: list, csv_path: str | Path, manifest: str,
                  params_dir: str | Path | None = None) -> None:
    """Write one sidecar per ``OptRecord`` under ``params_dir``, then the CSV."""
    if params_dir is not None:
        params_dir = Path(params_dir)
        params_dir.mkdir(parents=True, exist_ok=True)
        for r in records:
            payload = {"kind": r.kind, "n_mean": r.n_mean, "d": r.d, "seed": r.seed,
                       "params": [float(v) for v in r.best_params]}
            (params_dir / sidecar_name(r.kind, r.n_mean, r.d, r.seed)).write_text(
                json.dumps(payload, indent=1))
    write_csv(csv_path, manifest,
              ["kind", "N", "d", "seed", "objective", "inv_fisher", "budget", "iters",
               "wall_time"],
              [(r.kind, float(r.n_mean), r.d, r.seed, r.best_objective, r.inv_fisher,
                r.budget, r.iters_used, r.wall_time) for r in records])


def load_params(path: str | Path) -> AnsatzParams:
    """Rebuild ansatz parameters from a sidecar file of whole layers."""
    payload = json.loads(Path(path).read_text())
    return AnsatzParams.from_vector(payload["kind"], payload["params"])
