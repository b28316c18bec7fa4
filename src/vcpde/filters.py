"""Denoising preprocessors: moving average, Savitzky-Golay, zero-phase lowpass.

Filters run along one grid axis, slice by slice over the other.  The moving
average trims the window half-width off each end of the filtered axis (edges
are cut rather than padded); the other two preserve length.  Each kind has one
parameter, the window width or the lowpass cutoff: `FilterSpec.of` builds a
filter from it and `filter_sweep` sweeps it, over DEFAULT_GRIDS unless given
a grid.

The kernels are numpy code that returns, bit for bit, what scipy's own gives:
`differentiation.correlate1d` for the moving average and the Savitzky-Golay
interior (`scipy.ndimage`), scipy's `mode="interp"` polynomial fit at the
Savitzky-Golay edges, and `butterworth` and `filtfilt` for the lowpass
(`scipy.signal.butter` and `filtfilt`).  A lowpass sweep runs the recursion
for a batch of cutoffs at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .differentiation import correlate1d, savgol_coeffs
from .fields import GridError, SpatioTemporalField

FILTER_KINDS = ("moving_average", "savitzky_golay", "zero_phase_lowpass")
# The grid a filter sweep uses by default for each kind's parameter.
DEFAULT_GRIDS = {
    "moving_average": range(5, 23, 2),
    "savitzky_golay": range(5, 63, 2),
    "zero_phase_lowpass": np.arange(0.02, 0.2001, 0.0025),
}
# Cutoffs a lowpass sweep filters in one recursion: enough lanes per numpy call that the
# per-step call overhead does not dominate, few enough that the buffer stays near 5 MB on a
# 256x256 field.
LOWPASS_BATCH = 8


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
    """One denoiser and its parameters; axis picks the filtered grid direction.

    An option the kind uses (KIND_OPTIONS) that is left None takes its default.
    """

    kind: str
    window: int | None = None
    polyorder: int | None = None
    cutoff: float | None = None
    butterworth_order: int | None = None
    axis: str = "time"

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"kind must be one of {FILTER_KINDS}")
        if self.axis not in ("space", "time"):
            raise ValueError("axis must be 'space' or 'time'")
        unused = [name for name in ("polyorder", "butterworth_order")
                  if getattr(self, name) is not None and name not in KIND_OPTIONS[self.kind]]
        if unused:
            raise ValueError(f"a {self.kind} filter does not use {' or '.join(unused)}")
        for name, default in KIND_OPTIONS[self.kind].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.kind in ("moving_average", "savitzky_golay"):
            if self.window is None or self.window < 3 or self.window % 2 == 0:
                raise ValueError("window must be odd and at least 3")
        if self.kind == "savitzky_golay":
            if self.polyorder is None or not 0 <= self.polyorder < self.window:
                raise ValueError("polyorder must be nonnegative and below the window width")
        if self.kind == "zero_phase_lowpass":
            if self.cutoff is None or not 0.0 < self.cutoff < 1.0:
                raise ValueError("cutoff must be a normalized frequency in (0, 1)")
            if self.butterworth_order is None or self.butterworth_order < 1:
                raise ValueError("butterworth_order must be at least 1")

    @classmethod
    def of(cls, kind: str, parameter, polyorder: int | None = None,
           butterworth_order: int | None = None, axis: str = "time") -> "FilterSpec":
        """The `kind` filter with its parameter (see `parameter_name`) set to `parameter`.

        An option left None takes its KIND_OPTIONS default; setting one the
        kind does not use is an error (both in `__post_init__`).
        """
        options = {"polyorder": polyorder, "butterworth_order": butterworth_order}
        if parameter_name(kind) == "cutoff":
            return cls(kind, cutoff=parameter, axis=axis, **options)
        return cls(kind, window=None if parameter is None else int(parameter), axis=axis, **options)

    @property
    def parameter(self):
        return getattr(self, parameter_name(self.kind))


def apply_filter(field: SpatioTemporalField, spec: FilterSpec) -> SpatioTemporalField:
    """Filter the field along spec.axis; moving average shrinks that axis."""
    ax = 0 if spec.axis == "space" else 1
    length = field.values.shape[ax]

    if spec.kind == "moving_average":
        if length < spec.window:
            raise ValueError(f"axis length {length} shorter than window {spec.window}")
        smoothed = correlate1d(field.values, np.full(spec.window, 1.0 / spec.window), ax)
        h = spec.window // 2
        if ax == 0:
            return SpatioTemporalField(smoothed[h:-h, :], field.x_coords[h:-h], field.t_coords)
        return SpatioTemporalField(smoothed[:, h:-h], field.x_coords, field.t_coords[h:-h])

    if spec.kind == "savitzky_golay":
        if length < spec.window:
            raise ValueError(f"axis length {length} shorter than window {spec.window}")
        smoothed = correlate1d(field.values, savgol_coeffs(spec.window, spec.polyorder)[::-1], ax)
        _fit_edges(field.values, smoothed, spec.window, spec.polyorder, ax)
        return field.with_values(smoothed)

    return _zero_phase_lowpass(field, [spec])[0]


def _fit_edges(values: np.ndarray, smoothed: np.ndarray, window: int, degree: int,
               axis: int) -> None:
    """Overwrite the half-window at each end of `smoothed` with the degree-`degree`
    least-squares polynomial through the first or last `window` values, as
    `scipy.signal.savgol_filter`'s `mode="interp"` does: `np.polyfit`'s column-scaled solve,
    evaluated by Horner's rule (`np.polyval`)."""
    half = window // 2
    source, target = np.moveaxis(values, axis, 0), np.moveaxis(smoothed, axis, 0)
    n = source.shape[0]
    for first, start, stop in ((0, 0, half), (n - window, n - half, n)):
        edge = source[first:first + window].reshape(window, -1)
        coeffs = np.polyfit(np.arange(window, dtype=float), edge, degree)
        at = np.arange(start - first, stop - first, dtype=float)[:, None]
        target[start:stop] = np.polyval(coeffs, at).reshape((half,) + target.shape[1:])


def _zero_phase_lowpass(field: SpatioTemporalField,
                        specs: list[FilterSpec]) -> list[SpatioTemporalField]:
    """apply_filter of lowpass specs that share their axis and Butterworth order: one
    forward-backward recursion over all their cutoffs."""
    ax = 0 if specs[0].axis == "space" else 1
    order = specs[0].butterworth_order
    length = field.values.shape[ax]
    if length <= 3 * (order + 1):  # filtfilt's odd extension needs 3 (order + 1) points
        raise ValueError(f"axis length {length} too short for order {order}")
    designs = [butterworth(order, spec.cutoff) for spec in specs]
    return [field.with_values(values) for values in filtfilt(designs, field.values, ax)]


def butterworth(order: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """(b, a) of the digital Butterworth lowpass at normalized `cutoff`, bit for bit what
    `scipy.signal.butter(order, cutoff)` returns: the analog prototype's poles, pre-warped
    and scaled to the cutoff, mapped by the bilinear transform and multiplied out."""
    poles = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=float) / (2 * order))
    warped = float(4.0 * np.tan(np.pi * np.asarray(cutoff, dtype=float) / 2.0))
    poles = warped * poles
    gain = warped**order * np.real(1.0 / np.prod(4.0 - poles))
    # the zeros all sit at z = -1; the poles come in conjugate pairs, so `poly` is real
    return gain * np.poly(-np.ones(order)), np.poly((4.0 + poles) / (4.0 - poles))


def filtfilt(designs: list[tuple[np.ndarray, np.ndarray]], values: np.ndarray,
             axis: int) -> np.ndarray:
    """`scipy.signal.filtfilt(b, a, values, axis=axis)` bit for bit, for each (b, a) of
    `designs` (all of one order), stacked along a new first axis.

    As scipy does: extend each end by the odd reflection of 3 * len(b) points, start the
    forward pass from `lfilter_zi`'s steady state times the first value, run the backward
    pass the same way over the reversed output, and cut the extension off.  Both passes
    step along the filtered axis in one contiguous buffer, one lane per design and slice.
    """
    moved = np.moveaxis(values, axis, 0)
    x = moved.reshape(len(moved), -1)
    b, a = (np.repeat(np.stack(coeffs, axis=1), x.shape[1], axis=1) for coeffs in zip(*designs))
    steady = np.repeat(np.stack([_steady_state(*design) for design in designs], axis=1),
                       x.shape[1], axis=1)
    edge = 3 * b.shape[0]
    extended = np.concatenate((2 * x[:1] - x[edge:0:-1], x, 2 * x[-1:] - x[-2:-edge - 2:-1]))
    y = np.tile(extended, len(designs))  # lanes design-major
    _lfilter(b, a, y, steady * y[0])
    _lfilter(b, a, y[::-1], steady * y[-1])
    kept = y[edge:-edge].reshape((len(x), len(designs)) + moved.shape[1:])
    return np.moveaxis(kept, (1, 0), (0, axis + 1))


def _steady_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """`scipy.signal.lfilter_zi(b, a)` for a[0] == 1: the state after a unit step settles."""
    companion = np.zeros((a.size - 1, a.size - 1))
    companion[0] = -a[1:]
    companion[np.arange(1, a.size - 1), np.arange(a.size - 2)] = 1
    return np.linalg.solve(np.eye(a.size - 1) - companion.T, b[1:] - a[1:] * b[0])


def _lfilter(b: np.ndarray, a: np.ndarray, y: np.ndarray, state: np.ndarray) -> None:
    """scipy's direct form II transposed `lfilter`, for a[0] == 1, run in place down the rows
    of y, one lane per column, from `state` (len(b) - 1 rows), in scipy's order of operations:
    y = z[0] + b[0] x, then z[i] = (z[i+1] + b[i+1] x) - a[i+1] y, the last without z[i+1]."""
    bx, ay = np.empty_like(state), np.empty_like(state)
    for y_t in y:
        np.multiply(b[1:], y_t, out=bx)
        y_t *= b[0]
        y_t += state[0]
        np.multiply(a[1:], y_t, out=ay)
        bx[:-1] += state[1:]
        bx -= ay
        state, bx = bx, state


def _common_region(a: SpatioTemporalField, b: SpatioTemporalField):
    """Index slices of the shared coordinate window (filters only trim edges)."""

    def align(ca: np.ndarray, cb: np.ndarray, name: str):
        lo = max(ca[0], cb[0])
        hi = min(ca[-1], cb[-1])
        ia = np.flatnonzero((ca >= lo - 1e-12) & (ca <= hi + 1e-12))
        ib = np.flatnonzero((cb >= lo - 1e-12) & (cb <= hi + 1e-12))
        if ia.size == 0 or ia.size != ib.size:
            raise GridError(f"{name} grids have no common region")
        if not np.allclose(ca[ia], cb[ib], rtol=0, atol=1e-9):
            raise GridError(f"{name} grids are not aligned")
        # the coordinates increase, so each window is one run of indices
        return slice(ia[0], ia[-1] + 1), slice(ib[0], ib[-1] + 1)

    xa, xb = align(a.x_coords, b.x_coords, "x")
    ta, tb = align(a.t_coords, b.t_coords, "t")
    return (xa, ta), (xb, tb)


def data_mse(processed: SpatioTemporalField, clean: SpatioTemporalField) -> float:
    """Mean squared difference over the common valid region."""
    ia, ib = _common_region(processed, clean)
    # a C-ordered difference sums in one order whatever the layout of either field
    diff = np.subtract(processed.values[ia], clean.values[ib], order="C")
    return float(np.mean(diff**2))


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
    points: list = [None] * len(grid)
    specs = []  # (grid index, spec) of the valid points
    for i, value in enumerate(grid):
        try:
            specs.append((i, FilterSpec.of(kind, value, **options)))
        except ValueError as exc:
            points[i] = FilterSweepPoint(float(value), None, error=str(exc))
    batch = LOWPASS_BATCH if kind == "zero_phase_lowpass" else 1
    for start in range(0, len(specs), batch):
        chunk = specs[start:start + batch]
        try:
            filtered = (_zero_phase_lowpass(noisy, [spec for _, spec in chunk])
                        if kind == "zero_phase_lowpass" else [apply_filter(noisy, chunk[0][1])])
            outcomes = [(data_mse(field, clean), None) for field in filtered]
        except ValueError as exc:
            outcomes = [(None, str(exc))] * len(chunk)
        for (i, _), (mse, error) in zip(chunk, outcomes):
            points[i] = FilterSweepPoint(float(grid[i]), mse, error)
    scored = [(p.mse, p.parameter) for p in points if p.mse is not None]
    if not scored:
        raise ValueError(f"every filter sweep point failed; the first with {points[0].error}")
    min_mse, argmin = min(scored)
    return FilterSweepCurve(kind, specs[0][1].axis, tuple(points), argmin, min_mse)
