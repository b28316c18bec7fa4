"""Scalar fields sampled on rectangular, uniformly spaced (x, t) grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIFORM_SPACING_RTOL = 1e-9


class GridError(ValueError):
    """A field's grid or values violate the basic invariants."""


def check_axis(coords: np.ndarray, name: str) -> np.ndarray:
    """Validate a coordinate axis: 1-d, strictly increasing, uniformly spaced."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 1 or coords.size < 2:
        raise GridError(f"{name} must be one-dimensional with at least two points")
    steps = np.diff(coords)
    if np.any(steps <= 0):
        raise GridError(f"{name} must be strictly increasing")
    h = float(steps.mean())
    scale = max(abs(h), float(np.abs(coords).max()))
    if np.max(np.abs(steps - h)) > UNIFORM_SPACING_RTOL * scale:
        raise GridError(f"{name} must be uniformly spaced (rtol {UNIFORM_SPACING_RTOL})")
    return coords


@dataclass(frozen=True)
class SpatioTemporalField:
    """A scalar field u(x, t) with values indexed (space, time)."""

    values: np.ndarray
    x_coords: np.ndarray
    t_coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_coords", check_axis(self.x_coords, "x_coords"))
        object.__setattr__(self, "t_coords", check_axis(self.t_coords, "t_coords"))
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.x_coords.size, self.t_coords.size):
            raise GridError(
                f"values shape {values.shape} does not match grid "
                f"({self.x_coords.size}, {self.t_coords.size})"
            )
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise GridError(
                f"non-finite value at x={self.x_coords[bad[0]]}, t={self.t_coords[bad[1]]}"
            )

    @property
    def n_x(self) -> int:
        return self.x_coords.size

    @property
    def n_t(self) -> int:
        return self.t_coords.size

    @property
    def dx(self) -> float:
        return float(self.x_coords[1] - self.x_coords[0])

    @property
    def dt(self) -> float:
        return float(self.t_coords[1] - self.t_coords[0])

    def sigma(self) -> float:
        """Standard deviation of all field values (population convention)."""
        return float(self.values.std())

    def with_values(self, values: np.ndarray) -> "SpatioTemporalField":
        return SpatioTemporalField(values, self.x_coords, self.t_coords)

