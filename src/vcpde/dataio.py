"""Every file vcpde writes, and the dataset reader.

- Datasets (`save_dataset`): one JSON document with a base64 float64 payload,
  or a CSV triplet (values / x_coords / t_coords, `%.17g`) next to a metadata
  JSON.  Loading checks the format name and version both forms record.
- Discovery reports (`save_report`): the report JSON (`DiscoveryReport.to_dict`),
  a trajectory CSV with each selected term's values and posterior sd per step,
  and a text summary.
- Sweep curves (`save_sweep`): one CSV row per grid value and a JSON summary
  (`SelectionCurve.summary`).
- Filter sweeps (`save_filter_sweep`): one CSV row per parameter value and a
  JSON summary of the kind, axis, argmin and least data MSE.
- Posterior draws (`save_trace`): an npz archive, or a CSV for a `.csv` path.

Every JSON file is indented by 2 with sorted keys.  A CSV has a header row;
each cell is text as it is, a number by its repr, or empty for None.  All
writers are deterministic: rerunning the same command produces byte-identical
files.  Each creates its target directory and returns the path of each file it
wrote (of a CSV dataset, its metadata JSON: the path to load it from).
"""

from __future__ import annotations

import base64
import csv
import json
from pathlib import Path

import numpy as np

from .fields import SpatioTemporalField
from .filters import FilterSweepCurve
from .gibbs import PosteriorEnsemble
from .pipeline import Dataset
from .selection import SelectionCurve
from .solvers import check_noise_level
from .tbglss import DiscoveryReport

DATASET_FORMAT = "vcpde-dataset"
DATASET_VERSION = 1


def _write_json(path: Path, doc) -> Path:
    """`doc` as strict JSON: a NaN or infinite float raises before the file is made."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
    return path


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """A header row, then one row per item of `rows`, each cell written by `_cell`; every
    row ends in \r\n."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)
    return path


def _float_list(arr: np.ndarray) -> list[float]:
    return [float(v) for v in arr]


def save_dataset(dataset: Dataset, path: str | Path, fmt: str = "json") -> Path:
    """Write a dataset archive; returns the path to load it back from."""
    path = Path(path)
    if fmt == "json":
        path.parent.mkdir(parents=True, exist_ok=True)
        return _write_json(path, {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "metadata": dataset.metadata,
            "shape": list(dataset.field.values.shape),
            "x_coords": _float_list(dataset.field.x_coords),
            "t_coords": _float_list(dataset.field.t_coords),
            "values_base64": base64.b64encode(
                np.ascontiguousarray(dataset.field.values, dtype="<f8").tobytes()
            ).decode("ascii"),
        })
    if fmt == "csv":
        stem = path.with_suffix("") if path.suffix == ".json" else path
        stem.parent.mkdir(parents=True, exist_ok=True)
        np.savetxt(f"{stem}.values.csv", dataset.field.values, delimiter=",", fmt="%.17g")
        np.savetxt(f"{stem}.x_coords.csv", dataset.field.x_coords, delimiter=",", fmt="%.17g")
        np.savetxt(f"{stem}.t_coords.csv", dataset.field.t_coords, delimiter=",", fmt="%.17g")
        return _write_json(Path(f"{stem}.meta.json"), {
            "format": DATASET_FORMAT, "version": DATASET_VERSION, "metadata": dataset.metadata})
    raise ValueError("fmt must be 'json' or 'csv'")


def _require_keys(doc: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{where} lacks required key(s): {', '.join(missing)}")


def _require_metadata(metadata: dict, where: str) -> None:
    """The metadata names its family, and a noise level it records is a real number that
    `check_noise_level` accepts."""
    _require_keys(metadata, ("family",), where)
    noise = metadata.get("noise_level", 0.0)
    if isinstance(noise, bool) or not isinstance(noise, (int, float)):
        raise ValueError(f"{where} sets noise_level to {noise!r}: expected a number")
    try:
        check_noise_level(noise)
    except ValueError as exc:
        raise ValueError(f"{where} sets noise_level to {noise!r}: {exc}") from None


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
        _require_metadata(meta["metadata"], f"{path} metadata")
        values = np.loadtxt(f"{stem}.values.csv", delimiter=",", ndmin=2)
        x = np.loadtxt(f"{stem}.x_coords.csv", delimiter=",")
        t = np.loadtxt(f"{stem}.t_coords.csv", delimiter=",")
        return Dataset(SpatioTemporalField(values, x, t), meta["metadata"])
    doc = json.loads(path.read_text())
    _require_format(doc, str(path))
    _require_keys(doc, ("shape", "values_base64", "x_coords", "t_coords", "metadata"), str(path))
    _require_metadata(doc["metadata"], f"{path} metadata")
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
    json_path = _write_json(directory / f"{stem}.json", report.to_dict())

    traj = report.trajectories
    header = ["t" if traj.varying_axis == "time" else "x"]
    for name in traj.selected:
        header += [name, f"{name}_std"]
    sel_idx = [traj.descriptors.index(n) for n in traj.selected]
    rows = ([coord, *(v for g in sel_idx for v in (traj.values[i, g], report.stdev[i, g]))]
            for i, coord in enumerate(traj.step_coords))
    csv_path = _write_csv(directory / f"{stem}_trajectories.csv", header, rows)

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


def _save_curve(stem: str | Path, header: list[str], rows, summary: dict) -> dict:
    """`<stem>.csv` of `header` and `rows`, and `<stem>.json` of `summary`."""
    Path(stem).parent.mkdir(parents=True, exist_ok=True)
    return {"csv": _write_csv(Path(f"{stem}.csv"), header, rows),
            "json": _write_json(Path(f"{stem}.json"), summary)}


def save_sweep(curve: SelectionCurve, stem: str | Path) -> dict:
    """Write each point's criteria, support and error as `<stem>.csv`, and the curve's
    summary as `<stem>.json`."""
    return _save_curve(
        stem, [curve.axis, "loss", "total_error_bar", "coefficient_mse", "selected", "error"],
        ([p.value, p.loss, p.total_error_bar, p.coefficient_mse, "+".join(p.selected), p.error]
         for p in curve.points),
        curve.summary())


def save_filter_sweep(curve: FilterSweepCurve, stem: str | Path) -> dict:
    """Write each parameter value's data MSE and error as `<stem>.csv`, and the kind, axis,
    argmin and least MSE as `<stem>.json`."""
    return _save_curve(
        stem, ["parameter", "data_mse", "error"],
        ([p.parameter, p.mse, p.error] for p in curve.points),
        {"kind": curve.kind, "axis": curve.axis, "argmin": curve.argmin,
         "min_mse": curve.min_mse})


def save_trace(ensemble: PosteriorEnsemble, path: str | Path) -> Path:
    """Write the retained draws for external diagnostics: a CSV of sigma2, pi0 and every
    coefficient per draw when `path` ends in .csv, else an npz archive of every field,
    at `path` with .npz appended unless it ends in .npz; either suffix in any case.  Returns
    the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    name = path.name.lower()
    if name.endswith(".csv"):
        n, m, g = ensemble.beta.shape
        header = ["draw", "sigma2", "pi0"] + [
            f"{d}@{i}" for d in ensemble.descriptors for i in range(m)]
        flat = ensemble.beta.transpose(0, 2, 1).reshape(n, m * g)
        rows = ([str(k), ensemble.sigma2[k], ensemble.pi0[k], *flat[k].tolist()]
                for k in range(n))
        return _write_csv(path, header, rows)
    if not name.endswith(".npz"):
        path = Path(f"{path}.npz")
    with open(path, "wb") as fh:  # given a name, numpy appends .npz to one ending in .NPZ
        np.savez_compressed(
            fh,
            beta=ensemble.beta,
            tau2=ensemble.tau2,
            sigma2=ensemble.sigma2,
            pi0=ensemble.pi0,
            spike=ensemble.spike,
            scales=ensemble.scales,
            step_coords=ensemble.step_coords,
            descriptors=np.array(ensemble.descriptors),
            lam_used=ensemble.lam_used,
            seed=ensemble.seed,
        )
    return path
