"""Derivative estimation on uniform grids: centered stencils and local polynomial fits.

`DifferentiationSpec` holds the settings and their noise tiers (`resolve`).
`build_derivative_stack` is the one place a field is differentiated.  From a resolved
spec it builds one kernel per derivative order and axis, either a centered
finite-difference stencil or the weights of a least-squares local polynomial
(`polyfit_kernel`), and correlates the field with them, along space first and then
time.  Only points where the widest kernel fits inside the grid are kept; edge strips
are dropped from the valid region instead of being extrapolated, since biased edge
derivatives would contaminate the regression.  A retained time window (`t_from`) is
cut here too: only the columns its samples read are correlated.  The spec's
prefilters are run by `pipeline.build_system`, since `filters` imports this module.

`correlate1d` is the one correlation of the package: the derivative stack, the
moving average and the Savitzky-Golay filter all run through it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .fields import SpatioTemporalField

# centered stencils, formal order two
_FD_STENCILS = {
    1: np.array([-0.5, 0.0, 0.5]),
    2: np.array([1.0, -2.0, 1.0]),
    3: np.array([-0.5, 1.0, 0.0, -1.0, 0.5]),
    4: np.array([1.0, -4.0, 6.0, -4.0, 1.0]),
}

MAX_SPACE_ORDER = 4
DIFF_METHODS = ("auto", "finite_difference", "poly_fit")
POLY_FIT_METHODS = ("auto", "poly_fit")  # the methods that read a poly-fit width or degree
# The poly_fit method's windows and degrees where the caller sets none.
POLY_FIT_DEFAULTS = {"space_width": 9, "space_degree": 4, "time_width": 5, "time_degree": 3}
SMOOTHING_NOISE_LEVEL = 0.005  # heavy-smoothing tier starts here


def _tier(noise_level: float, filtered: bool) -> dict:
    """The `auto` method's settings for data at `noise_level`, `filtered` if already denoised."""
    if noise_level == 0:
        return {"method": "finite_difference"}
    if filtered:
        # data already denoised upstream: widen the fit slightly, no prefilter
        return {"method": "poly_fit", "space_width": 19, "space_degree": 4}
    if noise_level < SMOOTHING_NOISE_LEVEL:
        return {"method": "poly_fit"}
    return {"method": "poly_fit", "space_width": 17, "space_degree": 4, "time_width": 9,
            "time_degree": 3, "prefilter_time": (21, 3), "prefilter_space": (9, 4)}


@dataclass(frozen=True)
class DifferentiationSpec:
    """How derivatives are estimated; 'auto' picks a tier by noise level.

    Tiers: clean data uses centered finite differences; barely-noisy data
    (below 0.5% of sigma_u) uses narrow local polynomial fits; noisier data
    additionally smooths the field along both axes first and widens the fit
    windows.  A field left as None is set by `resolve`.  Finite differences
    read no poly-fit width or degree, so setting one with that method is a
    ValueError; a prefilter smooths the field before either method.
    """

    method: str = "auto"  # one of DIFF_METHODS
    space_width: int | None = None
    space_degree: int | None = None
    time_width: int | None = None
    time_degree: int | None = None
    prefilter_time: tuple[int, int] | None = None  # (window, degree) SG along time
    prefilter_space: tuple[int, int] | None = None

    def __post_init__(self):
        if self.method not in DIFF_METHODS:
            raise ValueError(f"differentiation method {self.method!r} is not in {DIFF_METHODS}")
        if self.method == "finite_difference":
            unread = [name for name in POLY_FIT_DEFAULTS if getattr(self, name) is not None]
            if unread:
                raise ValueError(f"finite differences read no {' or '.join(unread)}")

    def resolve(self, noise_level: float, filtered: bool = False) -> "DifferentiationSpec":
        """Every field set: POLY_FIT_DEFAULTS, overridden by the tier of the data (for the
        `auto` method only), overridden by the fields set here.  Finite differences read no
        poly-fit width or degree, so those stay None."""
        given = {name: value for name, value in asdict(self).items()
                 if value is not None and name != "method"}
        tier = _tier(noise_level, filtered) if self.method == "auto" else {"method": self.method}
        resolved = {**POLY_FIT_DEFAULTS, **tier, **given}
        if resolved["method"] == "finite_difference":
            resolved.update(dict.fromkeys(POLY_FIT_DEFAULTS))
        return DifferentiationSpec(**resolved)


def polyfit_kernel(width: int, degree: int, order: int, h: float) -> np.ndarray:
    """Weights that differentiate a least-squares local polynomial at the window center."""
    if width % 2 == 0:
        raise ValueError("poly_fit window width must be odd")
    if width <= degree:
        raise ValueError("poly_fit window width must exceed the degree")
    if degree < order:
        raise ValueError("poly_fit degree must be at least the derivative order")
    offsets = (np.arange(width) - width // 2) * h
    vand = np.vander(offsets, degree + 1, increasing=True)
    return np.linalg.pinv(vand)[order] * math.factorial(order)


def savgol_coeffs(width: int, degree: int) -> np.ndarray:
    """Savitzky-Golay smoothing weights for convolution, to the bit those of
    `scipy.signal.savgol_coeffs(width, degree)`: the least-squares solve on its reversed
    Vandermonde matrix, not `polyfit_kernel`, which agrees only to about 2e-15."""
    half = width // 2
    vand = np.arange(-half, width - half, dtype=float)[::-1] ** np.arange(degree + 1.0)[:, None]
    unit = np.zeros(degree + 1)
    unit[0] = 1.0
    return np.linalg.lstsq(vand, unit, rcond=np.finfo(float).eps * max(vand.shape))[0]


def correlate1d(values: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """`values` correlated with `weights` along `axis`, zero beyond the ends, to the bit what
    `scipy.ndimage.correlate1d(values, weights, axis, mode="constant")` returns.

    The sum runs in ndimage's order.  A kernel of odd width that is symmetric or antisymmetric
    to within machine epsilon, as ndimage tests it, sums w[c] x[0] and then the pairs
    (x[-j] +/- x[j]) w[c-j] for j = c..1; any other starts from its last tap and adds the rest
    from the left.
    """
    weights = np.asarray(weights, dtype=float)
    left = weights.size // 2
    right = weights.size - left - 1
    n = values.shape[axis]
    padded_shape = list(values.shape)
    padded_shape[axis] += weights.size - 1
    padded = np.zeros(padded_shape)
    index = [slice(None)] * values.ndim

    def shifted(j: int) -> np.ndarray:  # x[j], the input j points along the axis, as a view
        index[axis] = slice(left + j, left + j + n)
        return padded[tuple(index)]

    shifted(0)[...] = values
    if weights.size % 2:
        ahead, behind = weights[left + 1:], weights[:left][::-1]
        for sign, combine in ((1.0, np.add), (-1.0, np.subtract)):  # symmetric, antisymmetric
            if np.any(np.abs(ahead - sign * behind) > np.finfo(float).eps):
                continue
            out = shifted(0) * weights[left]
            pair = np.empty_like(out)
            for j in range(left, 0, -1):
                combine(shifted(-j), shifted(j), out=pair)
                pair *= weights[left - j]
                out += pair
            return out
    out = shifted(right) * weights[-1]
    term = np.empty_like(out)
    for j in range(-left, right):
        out += np.multiply(shifted(j), weights[left + j], out=term)
    return out


@dataclass(frozen=True)
class DerivativeStack:
    """u, u_t and spatial derivatives restricted to a common valid region."""

    u: np.ndarray
    u_t: np.ndarray
    space: dict[int, np.ndarray]  # derivative order -> values
    x_coords: np.ndarray
    t_coords: np.ndarray

    def __post_init__(self):
        shape = (self.x_coords.size, self.t_coords.size)
        for name, arr in [("u", self.u), ("u_t", self.u_t)] + [
            (f"d{q}", a) for q, a in self.space.items()
        ]:
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} != valid region {shape}")

    @property
    def max_order(self) -> int:
        return max(self.space) if self.space else 0


def build_derivative_stack(
    field: SpatioTemporalField,
    spec: DifferentiationSpec,
    max_space_order: int = MAX_SPACE_ORDER,
    t_from: float | None = None,
) -> DerivativeStack:
    """Estimate u_t and u_x..u_(x^max) as `spec` says and trim all to a common valid region;
    an unresolved `spec` (`auto`, or poly_fit with a width or degree unset) is a ValueError.

    With `t_from` (a dataset's `retain_t_from`) the region starts at the first
    time sample at or after it, to within 1e-12; a `t_from` past the last
    sample with derivatives is a ValueError.

    With the poly_fit method every stack entry is a derivative of the same
    locally fitted polynomial surface: the window's order-zero smoothing is
    applied to u and (along the non-differentiated axis) to every other entry
    as well.  Differentiating a smoothed surface inconsistently (smoothing
    only the derivative columns) would systematically attenuate the small
    regression coefficients under noise.
    """
    if not 1 <= max_space_order <= MAX_SPACE_ORDER:
        raise ValueError(f"max_space_order must be in 1..{MAX_SPACE_ORDER}")
    unset = [name for name in POLY_FIT_DEFAULTS if getattr(spec, name) is None]
    if spec.method == "auto" or (spec.method == "poly_fit" and unset):
        raise ValueError(f"unresolved {spec}: resolve it for the data's noise level first")
    orders = range(max_space_order + 1)
    # kernels indexed by derivative order; None leaves the axis as it is
    if spec.method == "finite_difference":
        space = [None] + [_FD_STENCILS[q] / field.dx**q for q in orders[1:]]
        time = [None, _FD_STENCILS[1] / field.dt]
    else:
        space = [polyfit_kernel(spec.space_width, spec.space_degree, q, field.dx) for q in orders]
        time = [polyfit_kernel(spec.time_width, spec.time_degree, q, field.dt) for q in (0, 1)]

    trims = []
    for axis, kernels, n in (("space", space, field.n_x), ("time", time, field.n_t)):
        size = max(k.size for k in kernels if k is not None)
        if n < size:
            raise ValueError(f"grid too small along {axis}: {n} points for a {size}-point stencil")
        trims.append(size // 2)
    trim_x, trim_t = trims
    end = field.n_t - trim_t  # one past the last time sample with derivatives
    first = trim_t if t_from is None else max(
        trim_t, int(np.searchsorted(field.t_coords, t_from - 1e-12)))
    if first >= end:  # so t_from is set: without it first = trim_t < end
        raise ValueError(f"retain_t_from={t_from!r} keeps no time samples: the data's last "
                         f"time is {float(field.t_coords[-1])!r} (the last with derivatives "
                         f"{float(field.t_coords[end - 1])!r})")
    read = field.values[:, first - trim_t:]  # the columns the kept samples' kernels read
    sx = slice(trim_x, field.n_x - trim_x)
    st = slice(trim_t, read.shape[1] - trim_t)

    def apply(kx: np.ndarray | None, kt: np.ndarray | None) -> np.ndarray:
        out = read
        if kx is not None:
            out = correlate1d(out, kx, axis=0)
        if kt is not None:
            out = correlate1d(out, kt, axis=1)
        return out[sx, st]

    return DerivativeStack(
        u=apply(space[0], time[0]),
        u_t=apply(space[0], time[1]),
        space={q: apply(space[q], time[0]) for q in orders[1:]},
        x_coords=field.x_coords[sx],
        t_coords=field.t_coords[first:end],
    )
