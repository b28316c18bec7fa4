"""On-disk formats: dataset archives, discovery reports, sweep curves.

Datasets serialize either as one JSON document with a base64 float64 payload
or as a CSV triplet (values / x_coords / t_coords) next to a metadata JSON.
All writers are deterministic: rerunning the same command produces
byte-identical files.  Loading checks the format name and version both
writers record.
"""

from __future__ import annotations

import base64
import csv
import json
from pathlib import Path

import numpy as np

from .fields import SpatioTemporalField
from .pipeline import Dataset
from .tbglss import DiscoveryReport

DATASET_FORMAT = "vcpde-dataset"
DATASET_VERSION = 1


def _float_list(arr: np.ndarray) -> list[float]:
    return [float(v) for v in arr]


def save_dataset(dataset: Dataset, path: str | Path, fmt: str = "json") -> Path:
    """Write a dataset archive; returns the path to load it back from."""
    path = Path(path)
    if fmt == "json":
        doc = {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "metadata": dataset.metadata,
            "shape": list(dataset.field.values.shape),
            "x_coords": _float_list(dataset.field.x_coords),
            "t_coords": _float_list(dataset.field.t_coords),
            "values_base64": base64.b64encode(
                np.ascontiguousarray(dataset.field.values, dtype="<f8").tobytes()
            ).decode("ascii"),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return path
    if fmt == "csv":
        stem = path.with_suffix("") if path.suffix == ".json" else path
        stem.parent.mkdir(parents=True, exist_ok=True)
        np.savetxt(f"{stem}.values.csv", dataset.field.values, delimiter=",", fmt="%.17g")
        np.savetxt(f"{stem}.x_coords.csv", dataset.field.x_coords, delimiter=",", fmt="%.17g")
        np.savetxt(f"{stem}.t_coords.csv", dataset.field.t_coords, delimiter=",", fmt="%.17g")
        meta_path = Path(f"{stem}.meta.json")
        meta_path.write_text(
            json.dumps(
                {"format": DATASET_FORMAT, "version": DATASET_VERSION, "metadata": dataset.metadata},
                indent=2,
                sort_keys=True,
            )
        )
        return meta_path
    raise ValueError("fmt must be 'json' or 'csv'")


def _require_keys(doc: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{where} lacks required key(s): {', '.join(missing)}")


def _require_format(doc: dict, where: str) -> None:
    if doc.get("format") != DATASET_FORMAT:
        raise ValueError(f"{where} is not a {DATASET_FORMAT} file")
    if doc.get("version") != DATASET_VERSION:
        raise ValueError(
            f"{where} has {DATASET_FORMAT} version {doc.get('version')!r}; "
            f"this reader knows version {DATASET_VERSION}"
        )


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file {path} does not exist")
    if path.name.endswith(".meta.json"):
        stem = str(path)[: -len(".meta.json")]
        meta = json.loads(path.read_text())
        _require_format(meta, str(path))
        _require_keys(meta, ("metadata",), str(path))
        _require_keys(meta["metadata"], ("family",), f"{path} metadata")
        values = np.loadtxt(f"{stem}.values.csv", delimiter=",", ndmin=2)
        x = np.loadtxt(f"{stem}.x_coords.csv", delimiter=",")
        t = np.loadtxt(f"{stem}.t_coords.csv", delimiter=",")
        return Dataset(SpatioTemporalField(values, x, t), meta["metadata"])
    doc = json.loads(path.read_text())
    _require_format(doc, str(path))
    _require_keys(doc, ("shape", "values_base64", "x_coords", "t_coords", "metadata"), str(path))
    _require_keys(doc["metadata"], ("family",), f"{path} metadata")
    n_x, n_t = doc["shape"]
    values = np.frombuffer(base64.b64decode(doc["values_base64"]), dtype="<f8").reshape(n_x, n_t)
    return Dataset(
        SpatioTemporalField(values.copy(), np.array(doc["x_coords"]), np.array(doc["t_coords"])),
        doc["metadata"],
    )


def save_report(report: DiscoveryReport, directory: str | Path, stem: str = "report") -> dict:
    """Write report JSON, per-term trajectory/band CSV and a text summary."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / f"{stem}.json"
    report.to_json(json_path)

    csv_path = directory / f"{stem}_trajectories.csv"
    traj = report.trajectories
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        axis_name = "t" if traj.varying_axis == "time" else "x"
        header = [axis_name]
        for name in traj.selected:
            header += [name, f"{name}_std"]
        writer.writerow(header)
        sel_idx = [traj.descriptors.index(n) for n in traj.selected]
        for i, coord in enumerate(traj.step_coords):
            row = [repr(float(coord))]
            for g in sel_idx:
                row += [repr(float(traj.values[i, g])), repr(float(report.stdev[i, g]))]
            writer.writerow(row)

    summary_path = directory / f"{stem}_summary.txt"
    lines = [
        f"method: {report.method}",
        f"equation: {report.rendered_equation()}",
        f"selected terms: {', '.join(report.selected) if report.selected else '(none selected)'}",
        f"updates: {report.n_updates}",
        f"loss: {report.loss!r}",
        f"total error bar: {report.total_error_bar!r}",
    ]
    if report.thresholds is not None:
        lines.append(f"thresholds: t_rms={report.thresholds.t_rms!r} t_ge={report.thresholds.t_ge!r}")
    lines.append(f"hyperparameters: {json.dumps(report.hyperparameters, sort_keys=True)}")
    lines.append(f"dataset: {report.provenance.get('dataset_id', 'unknown')}")
    summary_path.write_text("\n".join(lines) + "\n")
    return {"json": json_path, "csv": csv_path, "summary": summary_path}
