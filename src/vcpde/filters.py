"""Denoising preprocessors: moving average, Savitzky-Golay, zero-phase lowpass.

Filters run along one grid axis, slice by slice over the other.  The moving
average trims the window half-width off each end of the filtered axis (edges
are cut rather than padded); the other two preserve length.  Each kind has one
parameter, the window width or the lowpass cutoff: `FilterSpec.of` builds a
filter from it and `filter_sweep` sweeps it, over DEFAULT_GRIDS unless given
a grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage, signal

from .fields import GridError, SpatioTemporalField

FILTER_KINDS = ("moving_average", "savitzky_golay", "zero_phase_lowpass")
# The grid a filter sweep uses by default for each kind's parameter.
DEFAULT_GRIDS = {
    "moving_average": range(5, 23, 2),
    "savitzky_golay": range(5, 63, 2),
    "zero_phase_lowpass": np.arange(0.02, 0.2001, 0.0025),
}


# The options besides its parameter that each kind uses, and their defaults.
KIND_OPTIONS = {
    "moving_average": {},
    "savitzky_golay": {"polyorder": 3},
    "zero_phase_lowpass": {"butterworth_order": 4},
}


def parameter_name(kind: str) -> str:
    """The FilterSpec field holding a kind's one parameter: the lowpass cutoff, else the window."""
    return "cutoff" if kind == "zero_phase_lowpass" else "window"


@dataclass(frozen=True)
class FilterSpec:
    """One denoiser and its parameters; axis picks the filtered grid direction."""

    kind: str
    window: int | None = None
    polyorder: int | None = None
    cutoff: float | None = None
    butterworth_order: int = KIND_OPTIONS["zero_phase_lowpass"]["butterworth_order"]
    axis: str = "time"

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"kind must be one of {FILTER_KINDS}")
        if self.axis not in ("space", "time"):
            raise ValueError("axis must be 'space' or 'time'")
        if self.kind in ("moving_average", "savitzky_golay"):
            if self.window is None or self.window < 3 or self.window % 2 == 0:
                raise ValueError("window must be odd and at least 3")
        if self.kind == "savitzky_golay":
            if self.polyorder is None or not 0 <= self.polyorder < self.window:
                raise ValueError("polyorder must be nonnegative and below the window width")
        if self.kind == "zero_phase_lowpass":
            if self.cutoff is None or not 0.0 < self.cutoff < 1.0:
                raise ValueError("cutoff must be a normalized frequency in (0, 1)")
            if self.butterworth_order < 1:
                raise ValueError("butterworth_order must be at least 1")

    @classmethod
    def of(cls, kind: str, parameter, polyorder: int | None = None,
           butterworth_order: int | None = None, axis: str = "time") -> "FilterSpec":
        """The `kind` filter with its parameter (see `parameter_name`) set to `parameter`.

        An option left None takes its KIND_OPTIONS default; setting one the
        kind does not use is an error.
        """
        given = {"polyorder": polyorder, "butterworth_order": butterworth_order}
        uses = KIND_OPTIONS.get(kind, given)  # an unknown kind fails in __post_init__
        unused = [name for name, value in given.items() if value is not None and name not in uses]
        if unused:
            raise ValueError(f"a {kind} filter does not use {' or '.join(unused)}")
        options = {name: default if given[name] is None else given[name]
                   for name, default in uses.items()}
        if parameter_name(kind) == "cutoff":
            return cls(kind, cutoff=parameter, axis=axis, **options)
        return cls(kind, window=None if parameter is None else int(parameter), axis=axis, **options)

    @property
    def parameter(self):
        return getattr(self, parameter_name(self.kind))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "window": self.window,
            "polyorder": self.polyorder,
            "cutoff": self.cutoff,
            "butterworth_order": self.butterworth_order,
            "axis": self.axis,
        }


def apply_filter(field: SpatioTemporalField, spec: FilterSpec) -> SpatioTemporalField:
    """Filter the field along spec.axis; moving average shrinks that axis."""
    ax = 0 if spec.axis == "space" else 1
    length = field.values.shape[ax]

    if spec.kind == "moving_average":
        if length < spec.window:
            raise ValueError(f"axis length {length} shorter than window {spec.window}")
        kernel = np.full(spec.window, 1.0 / spec.window)
        smoothed = ndimage.correlate1d(field.values, kernel, axis=ax, mode="constant")
        h = spec.window // 2
        if ax == 0:
            return SpatioTemporalField(smoothed[h:-h, :], field.x_coords[h:-h], field.t_coords)
        return SpatioTemporalField(smoothed[:, h:-h], field.x_coords, field.t_coords[h:-h])

    if spec.kind == "savitzky_golay":
        if length < spec.window:
            raise ValueError(f"axis length {length} shorter than window {spec.window}")
        smoothed = signal.savgol_filter(field.values, spec.window, spec.polyorder, axis=ax)
        return field.with_values(smoothed)

    # zero-phase lowpass: Butterworth forward and backward
    if length < 3 * spec.butterworth_order + 1:
        raise ValueError(f"axis length {length} too short for order {spec.butterworth_order}")
    b, a = signal.butter(spec.butterworth_order, spec.cutoff)
    smoothed = signal.filtfilt(b, a, field.values, axis=ax)
    return field.with_values(smoothed)


def _common_region(a: SpatioTemporalField, b: SpatioTemporalField):
    """Index slices of the shared coordinate window (filters only trim edges)."""

    def align(ca: np.ndarray, cb: np.ndarray, name: str):
        lo = max(ca[0], cb[0])
        hi = min(ca[-1], cb[-1])
        ia = (ca >= lo - 1e-12) & (ca <= hi + 1e-12)
        ib = (cb >= lo - 1e-12) & (cb <= hi + 1e-12)
        if ia.sum() == 0 or ia.sum() != ib.sum():
            raise GridError(f"{name} grids have no common region")
        if not np.allclose(ca[ia], cb[ib], rtol=0, atol=1e-9):
            raise GridError(f"{name} grids are not aligned")
        return ia, ib

    xa, xb = align(a.x_coords, b.x_coords, "x")
    ta, tb = align(a.t_coords, b.t_coords, "t")
    return (np.ix_(xa, ta)), (np.ix_(xb, tb))


def data_mse(processed: SpatioTemporalField, clean: SpatioTemporalField) -> float:
    """Mean squared difference over the common valid region."""
    ia, ib = _common_region(processed, clean)
    return float(np.mean((processed.values[ia] - clean.values[ib]) ** 2))


@dataclass(frozen=True)
class FilterSweepPoint:
    parameter: float
    mse: float | None
    error: str | None = None


@dataclass(frozen=True)
class FilterSweepCurve:
    kind: str
    axis: str
    points: tuple[FilterSweepPoint, ...]
    argmin: float
    min_mse: float

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "data_mse", "error"])
            for p in self.points:
                writer.writerow([repr(p.parameter), "" if p.mse is None else repr(p.mse), p.error or ""])


def filter_sweep(
    noisy: SpatioTemporalField,
    clean: SpatioTemporalField,
    kind: str,
    grid=None,
    **options,
) -> FilterSweepCurve:
    """data_mse of FilterSpec.of(kind, value, **options) per `grid` value; see DEFAULT_GRIDS."""
    if kind not in FILTER_KINDS:
        raise ValueError(f"kind must be one of {FILTER_KINDS}")
    grid = list(DEFAULT_GRIDS[kind] if grid is None else grid)
    if not grid:
        raise ValueError("filter sweep grid must be nonempty")
    points = []
    for value in grid:
        try:
            spec = FilterSpec.of(kind, value, **options)
            mse = data_mse(apply_filter(noisy, spec), clean)
            points.append(FilterSweepPoint(float(value), mse))
        except ValueError as exc:
            points.append(FilterSweepPoint(float(value), None, error=str(exc)))
    scored = [(p.mse, p.parameter) for p in points if p.mse is not None]
    if not scored:
        raise ValueError(f"every filter sweep point failed; the first with {points[0].error}")
    min_mse, argmin = min(scored)
    return FilterSweepCurve(kind, spec.axis, tuple(points), argmin, min_mse)
