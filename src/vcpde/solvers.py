"""Synthetic ground-truth datasets: three variable-coefficient model equations.

Each equation is stated once, as a term table: u_t = sum_k xi_k(s) Theta_k(u),
with s the varying coordinate (t or x) and Theta_k a library term.  The
solver integrates that table and `true_coefficients` reports it as the
discovery's ground truth.  Each family has one built-in scenario in
`SCENARIOS`; `make_scenario` returns it on the grid, domain, retained window
and solver options it is given.  Any other equation is a `PdeScenario` (or a
`dataclasses.replace` of a built-in one) that states its terms and their
formulas together, because `scenario_from_metadata` trusts a dataset's
recorded formulas for its ground truth.  All three families are posed on
periodic spatial domains and integrated pseudo-spectrally: one right-hand
side takes Fourier derivatives in space and sums the table.  The non-stiff
equations are advanced in time by the adaptive Dormand-Prince 5(4) pair with
Shampine's quartic dense output, run operation for operation as
`scipy.integrate.solve_ivp`'s RK45 runs it, so a solve returns scipy's bits
without importing scipy.  The stiff fourth-derivative one is advanced by a
fixed-step exponential fourth-order Runge-Kutta scheme (ETDRK4).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from .fields import SpatioTemporalField
from .library import CoefficientTrajectories, LibrarySpec


class SolverBlowupError(RuntimeError):
    """The time integration produced a non-finite value."""

    def __init__(self, family: str, x: float | None, t: float):
        self.x = x
        self.t = t
        where = f"t={t:g}" if x is None else f"x={x:g}, t={t:g}"
        super().__init__(f"{family} solve blew up; first non-finite value at {where}")


@dataclass(frozen=True)
class PdeScenario:
    """One synthetic experiment: equation family, term table, domain, grid."""

    family: str
    x_span: tuple[float, float]
    t_span: tuple[float, float]
    n_x: int
    n_t: int
    # The equation u_t = sum of coefficient * term, in summation order: term descriptor ->
    # coefficient function of the varying-axis coordinate.
    true_terms: dict[str, Callable]
    coefficient_formulas: dict[str, str]
    initial_condition: Callable[[np.ndarray], np.ndarray]
    ic_formula: str
    varying_axis: str
    retain_t_from: float | None = None
    solver_options: dict = field(default_factory=dict)

    def __post_init__(self):
        # read-only views: every scenario make_scenario returns shares the built-in one's tables
        for name in ("true_terms", "coefficient_formulas", "solver_options"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        read = list(inspect.signature(FAMILIES[self.family]).parameters)[1:]
        unknown = sorted(set(self.solver_options) - set(read))
        if unknown:
            raise ValueError(f"the {self.family} solver does not read {unknown}; it reads {read}")
        if self.n_x < 8 or self.n_t < 8:
            raise ValueError("grid must have at least 8 points per axis")
        if self.varying_axis not in ("time", "space"):
            raise ValueError("varying_axis must be 'time' or 'space'")
        if self.x_span[1] <= self.x_span[0] or self.t_span[1] <= self.t_span[0]:
            raise ValueError("domain spans must be increasing")

    @property
    def x_coords(self) -> np.ndarray:
        # periodic domain: right endpoint excluded
        lo, hi = self.x_span
        return lo + np.arange(self.n_x) * (hi - lo) / self.n_x

    @property
    def t_coords(self) -> np.ndarray:
        return np.linspace(self.t_span[0], self.t_span[1], self.n_t)

    @property
    def domain_length(self) -> float:
        return self.x_span[1] - self.x_span[0]

    def metadata(self) -> dict:
        return {
            "family": self.family,
            "x_span": list(self.x_span),
            "t_span": list(self.t_span),
            "n_x": self.n_x,
            "n_t": self.n_t,
            "coefficients": dict(self.coefficient_formulas),
            "initial_condition": self.ic_formula,
            "varying_axis": self.varying_axis,
            "retain_t_from": self.retain_t_from,
            "solver_options": dict(self.solver_options),
        }


# Each term's factors as (derivative order, power) pairs, by descriptor.
_TERM_FACTORS = {term.descriptor: term.factors for term in LibrarySpec.standard().terms}


def _spectral_rhs(scenario: PdeScenario):
    """The equation's right-hand side as `rhs(u_hat, coefficients, u=None)`, with u_hat =
    rfft(u) and the coefficients in table order, and each derivative order's Fourier
    multiplier.

    Every derivative comes from one inverse transform of u_hat times the stacked
    multipliers; without `u`, u_hat itself is the first row of that transform.
    """
    n = scenario.n_x
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=scenario.domain_length / n)
    ik = 1j * k
    if n % 2 == 0:
        ik[-1] = 0.0  # zero the Nyquist mode for odd derivatives
    multipliers = {1: ik, 2: -k**2, 4: k**4}
    # each term as the derivative orders it multiplies, one entry per power
    terms = [[q for q, p in _TERM_FACTORS[name] for _ in range(p)] for name in scenario.true_terms]
    orders = sorted({q for term in terms for q in term} - {0})
    stacked = np.array([multipliers[q] for q in orders], dtype=complex)

    def rhs(u_hat, coefficients, u=None):
        first = int(u is None)  # the row of the first derivative
        spectra = np.empty((first + len(orders), u_hat.size), dtype=complex)
        np.multiply(stacked, u_hat, out=spectra[first:])
        if u is None:
            spectra[0] = u_hat  # copied, not multiplied by 1 + 0j, which can flip a zero's sign
        fields = np.fft.irfft(spectra, n)
        d = dict(zip(orders, fields[first:]))
        d[0] = fields[0] if u is None else u
        total = None
        for c, term in zip(coefficients, terms):
            for q in term:
                c = c * d[q]
            total = c if total is None else total + c
        return total

    return rhs, multipliers


# The Dormand-Prince 5(4) tableau (nodes C, stages A, weights B, error weights E) and the
# dense-output matrix P of Shampine's quartic interpolant, as scipy's RK45 holds them.
_RK45_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10  # step-size control
_ERROR_EXPONENT = -1 / 5  # the error estimate is of fourth order


def _rms(x: np.ndarray):
    """The root-mean-square norm the step control measures errors in."""
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(f, t_eval: np.ndarray, y0: np.ndarray, rtol: float, atol: float):
    """`solve_ivp(f, (t_eval[0], t_eval[-1]), y0, method="RK45", t_eval=t_eval, rtol=rtol,
    atol=atol)` operation for operation, for a real state stepped forward with scalar
    tolerances: the state at each point of `t_eval` as a column, and how many leading points
    were reached.  A step shrunk below ten spacings of the floats at t ends the integration,
    as scipy's fails, and leaves the columns not reached unset."""
    if atol < 0:
        raise ValueError("atol must be nonnegative")
    rtol = max(rtol, 100 * np.finfo(float).eps)
    t, t_bound = float(t_eval[0]), float(t_eval[-1])
    y = y0
    fy = f(t, y)
    # the initial step (Hairer, Norsett & Wanner, Sec. II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    d2 = _rms((f(t + h0, y + h0 * fy) - fy) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound - t)

    values = np.empty((y.size, t_eval.size))
    K = np.empty((_RK45_C.size + 1, y.size))
    reached = 0
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return values, reached
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            for s in range(1, _RK45_C.size):
                dy = np.dot(K[:s].T, _RK45_A[s, :s]) * h
                K[s] = f(t + _RK45_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _RK45_B)
            fy_new = f(t + h, y_new)
            K[-1] = fy_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _RK45_E) * h / scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(
                    _MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        # the quartic interpolant over the accepted step, at the t_eval points it covers
        end = int(np.searchsorted(t_eval, t_new, side="right"))
        if end > reached:
            x = (t_eval[reached:end] - t) / h
            powers = np.cumprod(np.tile(x, (_RK45_P.shape[1], 1)), axis=0)
            values[:, reached:end] = h * np.dot(K.T.dot(_RK45_P), powers) + y[:, None]
            reached = end
        t, y, fy = t_new, y_new, fy_new
        if t - t_bound >= 0:
            return values, reached


def _solve_rk(scenario: PdeScenario, rtol: float = 1e-8, atol: float = 1e-10) -> SpatioTemporalField:
    """Adaptive Dormand-Prince 5(4) (`_rk45`); a time-varying coefficient is evaluated at every
    call."""
    x = scenario.x_coords
    t = scenario.t_coords
    rhs, _ = _spectral_rhs(scenario)
    if scenario.varying_axis == "time":
        functions = list(scenario.true_terms.values())

        def f(s, u):
            return rhs(np.fft.rfft(u), [float(fn(s)) for fn in functions], u)
    else:
        coefficients = [np.asarray(fn(x), dtype=float) for fn in scenario.true_terms.values()]

        def f(s, u):
            return rhs(np.fft.rfft(u), coefficients, u)

    u0 = np.asarray(scenario.initial_condition(x), dtype=float)
    values, reached = _rk45(f, t, u0, rtol, atol)
    if reached < t.size:  # name the last time reached
        raise SolverBlowupError(scenario.family, None, float(t[max(reached - 1, 0)]))
    bad = ~np.isfinite(values)
    if bad.any():  # name the first bad entry, in time and then in space
        j = int(np.any(bad, axis=0).argmax())
        i = int(bad[:, j].argmax())
        raise SolverBlowupError(scenario.family, float(x[i]), float(t[j]))
    return SpatioTemporalField(values, x, t)


def _etdrk4_tables(lin: np.ndarray, dt: float, n_contour: int = 32):
    """Kassam-Trefethen contour quadrature for the exponential-RK4 weights."""
    roots = np.exp(1j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    lr = dt * lin[:, None] + roots[None, :]
    exp_lr = np.exp(lr)
    q = dt * np.real(np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1))
    f1 = dt * np.real(np.mean((-4.0 - lr + exp_lr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1))
    f2 = dt * np.real(np.mean((2.0 + lr + exp_lr * (-2.0 + lr)) / lr**3, axis=1))
    f3 = dt * np.real(np.mean((-4.0 - 3.0 * lr - lr**2 + exp_lr * (4.0 - lr)) / lr**3, axis=1))
    return np.exp(dt * lin), np.exp(dt * lin / 2.0), q, f1, f2, f3


def _solve_etdrk4(scenario: PdeScenario, dt: float = 0.05) -> SpatioTemporalField:
    """Exponential fourth-order Runge-Kutta at steps of at most `dt`: the spatial mean of each
    single even-derivative term's coefficient is treated exactly, and the coefficient
    deviations are advanced with the rest of the right-hand side."""
    n = scenario.n_x
    x = scenario.x_coords
    t = scenario.t_coords
    rhs, multipliers = _spectral_rhs(scenario)
    xi = [np.asarray(fn(x), dtype=float) for fn in scenario.true_terms.values()]
    lin = np.zeros(n // 2 + 1)
    for g, name in enumerate(scenario.true_terms):
        if _TERM_FACTORS[name] in (((2, 1),), ((4, 1),)):  # u_xx or u_xxxx alone
            mean = float(xi[g].mean())
            xi[g] = xi[g] - mean
            lin = lin + mean * multipliers[_TERM_FACTORS[name][0][0]]

    dt_sample = float(t[1] - t[0])
    substeps = max(1, math.ceil(dt_sample / dt))
    step = dt_sample / substeps
    e_full, e_half, q, f1, f2, f3 = _etdrk4_tables(lin, step)
    f2_twice = 2.0 * f2  # the step's 2.0 * f2 * (na + nb) evaluates this product first

    def nonlin(v):
        return np.fft.rfft(rhs(v, xi))

    values = np.empty((n, t.size))
    u0 = np.asarray(scenario.initial_condition(x), dtype=float)
    values[:, 0] = u0
    v = np.fft.rfft(u0)
    for j in range(1, t.size):
        for _ in range(substeps):
            nv = nonlin(v)
            a = e_half * v + q * nv
            na = nonlin(a)
            b = e_half * v + q * na
            nb = nonlin(b)
            c = e_half * a + q * (2.0 * nb - nv)
            nc = nonlin(c)
            v = e_full * v + f1 * nv + f2_twice * (na + nb) + f3 * nc
        u = np.fft.irfft(v, n)
        if not np.all(np.isfinite(u)):
            raise SolverBlowupError(scenario.family, None, float(t[j - 1]))
        values[:, j] = u
    return SpatioTemporalField(values, x, t)


# The one table of equation families: each name's integrator.  An integrator's keyword
# arguments are the solver options its families accept.
FAMILIES = {
    "burgers": _solve_rk,
    "advection_diffusion": _solve_rk,
    "kuramoto_sivashinsky": _solve_etdrk4,
}
# Other names make_scenario accepts for a family.
FAMILY_ALIASES = {
    "advection-diffusion": "advection_diffusion",
    "ad": "advection_diffusion",
    "kuramoto-sivashinsky": "kuramoto_sivashinsky",
    "ks": "kuramoto_sivashinsky",
}

# Each family's built-in scenario.
SCENARIOS = {
    # u_t + mu(t) u u_x = nu u_xx, written as u_t = -mu(t) u u_x + nu u_xx
    "burgers": PdeScenario(
        family="burgers", x_span=(-8.0, 8.0), t_span=(0.0, 10.0), n_x=256, n_t=256,
        true_terms={"u*u_x": lambda t: -(1.0 + np.sin(t) / 4.0), "u_xx": lambda t: 0.1},
        coefficient_formulas={"mu": "1 + sin(t)/4", "nu": "0.1"},
        initial_condition=lambda x: np.exp(-((x + 1.0) ** 2)),
        ic_formula="exp(-(x+1)^2)", varying_axis="time",
    ),
    # u_t = (mu(x) u)_x + nu u_xx = mu_x u + mu u_x + nu u_xx
    "advection_diffusion": PdeScenario(
        family="advection_diffusion", x_span=(-5.0, 5.0), t_span=(0.0, 5.0), n_x=256, n_t=256,
        true_terms={"u": lambda x: -0.4 * np.pi * np.sin(0.4 * np.pi * x),
                    "u_x": lambda x: -1.5 + np.cos(0.4 * np.pi * x),
                    "u_xx": lambda x: 0.1},
        coefficient_formulas={"mu": "-1.5 + cos(0.4*pi*x)", "nu": "0.1"},
        initial_condition=lambda x: np.cos(0.4 * np.pi * x),
        ic_formula="cos(0.4*pi*x)", varying_axis="space",
    ),
    # u_t = alpha(x) u u_x + beta(x) u_xx + gamma(x) u_xxxx (chaotic)
    "kuramoto_sivashinsky": PdeScenario(
        family="kuramoto_sivashinsky", x_span=(-20.0, 20.0), t_span=(0.0, 200.0),
        n_x=256, n_t=256,
        true_terms={"u*u_x": lambda x: 1.0 + 0.25 * np.sin(0.1 * np.pi * x),
                    "u_xx": lambda x: -1.0 + 0.25 * np.exp(-((x - 2.0) ** 2) / 5.0),
                    "u_xxxx": lambda x: -1.0 - 0.25 * np.exp(-((x + 2.0) ** 2) / 5.0)},
        coefficient_formulas={"alpha": "1 + 0.25*sin(0.1*pi*x)",
                              "beta": "-1 + 0.25*exp(-(x-2)^2/5)",
                              "gamma": "-1 - 0.25*exp(-(x+2)^2/5)"},
        initial_condition=lambda x: np.exp(-(x**2)),
        ic_formula="exp(-x^2)", varying_axis="space", retain_t_from=100.0,
    ),
}
# The fields of a built-in scenario that make_scenario sets: its grid, domain, retained
# window and solver options.  The equation itself is fixed.
SCENARIO_SETTINGS = ("n_x", "n_t", "x_span", "t_span", "retain_t_from", "solver_options")


def make_scenario(family: str, /, **settings) -> PdeScenario:
    """The built-in scenario of a family (name or alias) with any of SCENARIO_SETTINGS given."""
    name = FAMILY_ALIASES.get(family.lower(), family.lower())
    if name not in SCENARIOS:
        raise ValueError(f"unknown family; choose one of {sorted([*FAMILIES, *FAMILY_ALIASES])}")
    unknown = sorted(set(settings) - set(SCENARIO_SETTINGS))
    if unknown:
        raise ValueError(f"a built-in scenario sets only {list(SCENARIO_SETTINGS)}, not {unknown}")
    return replace(SCENARIOS[name], **settings)


def scenario_from_metadata(metadata: dict) -> PdeScenario:
    """Rebuild a built-in scenario from dataset metadata (for ground truth): its grid, domain,
    retained window and solver options are the recorded ones, the built-in ones if absent."""
    family = metadata.get("family")
    if family not in SCENARIOS:
        raise ValueError(f"cannot rebuild scenario for family {family!r}")
    reference = SCENARIOS[family]
    if metadata.get("coefficients") != reference.coefficient_formulas or (
        metadata.get("initial_condition") != reference.ic_formula
    ):
        raise ValueError("ground truth is only available for the built-in scenario coefficients")
    recorded = {key: metadata[key] for key in SCENARIO_SETTINGS if key in metadata}
    recorded.update({key: tuple(recorded[key]) for key in ("x_span", "t_span") if key in recorded})
    return make_scenario(family, **recorded)


def solve(scenario: PdeScenario) -> SpatioTemporalField:
    """Integrate the scenario's equation with its family's integrator."""
    return FAMILIES[scenario.family](scenario, **scenario.solver_options)


def check_noise_level(level: float) -> None:
    """Reject a noise level below 0 or NaN; callers check it before they spend a solve on it."""
    if not level >= 0:
        raise ValueError(f"noise level must be nonnegative, got {level}")


def add_noise(field: SpatioTemporalField, level: float, seed: int) -> SpatioTemporalField:
    """Add white noise scaled by the global standard deviation of the field."""
    check_noise_level(level)
    if level == 0:
        return field
    rng = np.random.default_rng(seed)
    noise = level * field.sigma() * rng.standard_normal(field.values.shape)
    return field.with_values(field.values + noise)


def true_coefficients(scenario: PdeScenario, library_spec,
                      step_coords: np.ndarray | None = None) -> CoefficientTrajectories:
    """Evaluate the scenario's closed-form coefficients over the varying axis.

    The equation's terms are the active groups; terms absent from it get zero
    trajectories.  Every true term must be present in the library.
    """
    descriptors = tuple(term.descriptor for term in library_spec.terms)
    missing = [name for name in scenario.true_terms if name not in descriptors]
    if missing:
        raise ValueError(f"library does not cover true terms: {missing}")
    if step_coords is None:
        step_coords = scenario.t_coords if scenario.varying_axis == "time" else scenario.x_coords
    step_coords = np.asarray(step_coords, dtype=float)
    values = np.zeros((step_coords.size, len(descriptors)))
    for g, name in enumerate(descriptors):
        fn = scenario.true_terms.get(name)
        if fn is not None:
            values[:, g] = fn(step_coords)  # a constant broadcasts over the axis
    active = np.array([name in scenario.true_terms for name in descriptors])
    return CoefficientTrajectories(values, active, descriptors, step_coords, scenario.varying_axis)
