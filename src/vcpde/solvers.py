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
side takes Fourier derivatives in space and sums the table, and one
integrator, the fixed-step exponential fourth-order Runge-Kutta scheme
(ETDRK4) of Kassam & Trefethen (2005), advances every family in time.  Its one
option is the largest step, `dt`: 0.05 by default, which takes one step per
sample on the built-in Burgers and advection-diffusion grids, and 0.2 in the
built-in Kuramoto-Sivashinsky scenario's `solver_options`, four steps per sample.
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

    def __init__(self, family: str, t: float):
        self.t = t
        super().__init__(f"{family} solve blew up; first non-finite value at t={t:g}")


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
        read = list(inspect.signature(_solve_etdrk4).parameters)[1:]
        unknown = sorted(set(self.solver_options) - set(read))
        if unknown:
            raise ValueError(f"the solver does not read {unknown}; it reads {read}")
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
    """The equation's right-hand side as `rhs(u_hat, coefficients)`, with u_hat = rfft(u) and
    the coefficients in table order, and each derivative order's Fourier multiplier.

    u and every derivative come from one inverse transform: u_hat itself in the first row,
    then u_hat times each stacked multiplier.
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

    def rhs(u_hat, coefficients):
        spectra = np.empty((1 + len(orders), u_hat.size), dtype=complex)
        spectra[0] = u_hat  # copied, not multiplied by 1 + 0j, which can flip a zero's sign
        np.multiply(stacked, u_hat, out=spectra[1:])
        d = dict(zip([0, *orders], np.fft.irfft(spectra, n)))
        total = None
        for c, term in zip(coefficients, terms):
            for q in term:
                c = c * d[q]
            total = c if total is None else total + c
        return total

    return rhs, multipliers


def _etdrk4_tables(lin: np.ndarray, dt: float):
    """Kassam-Trefethen quadrature for the exponential-RK4 weights: 32 points on a half circle."""
    roots = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)
    lr = dt * lin[:, None] + roots[None, :]
    exp_lr = np.exp(lr)
    q = dt * np.real(np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1))
    f1 = dt * np.real(np.mean((-4.0 - lr + exp_lr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1))
    f2 = dt * np.real(np.mean((2.0 + lr + exp_lr * (-2.0 + lr)) / lr**3, axis=1))
    f3 = dt * np.real(np.mean((-4.0 - 3.0 * lr - lr**2 + exp_lr * (4.0 - lr)) / lr**3, axis=1))
    return np.exp(dt * lin), np.exp(dt * lin / 2.0), q, f1, f2, f3


def _solve_etdrk4(scenario: PdeScenario, dt: float = 0.05) -> SpatioTemporalField:
    """Exponential fourth-order Runge-Kutta at steps of at most `dt`.

    Each lone even-derivative term (u_xx or u_xxxx) puts its coefficient's mean over the varying
    axis's grid into the linear part, which the scheme treats exactly; the deviation from that
    mean is advanced with the rest of the right-hand side.  A time-varying coefficient is
    evaluated at each stage time: s, s + h/2 (twice) and s + h.  At the default step the
    built-in Burgers and advection-diffusion solves are within 3e-6 (largest absolute error) of
    an RK45 solve at rtol 1e-12, and halving the step divides that error by about 16.  The
    built-in Kuramoto-Sivashinsky scenario steps at most 0.2, the h = 1/4 scale at which Kassam
    & Trefethen integrate it: one sample interval from its state at t ~ 100 is within 2.6e-4
    (largest absolute error; sigma_u is about 1.27) of the same interval at a 16 times finer
    step.  That equation is chaotic, so any change of step moves its trajectory over tens of
    time units; the error that matters is that of one interval.
    """
    n = scenario.n_x
    x = scenario.x_coords
    t = scenario.t_coords
    rhs, multipliers = _spectral_rhs(scenario)
    functions = list(scenario.true_terms.values())
    in_time = scenario.varying_axis == "time"
    xi = [np.asarray(fn(t if in_time else x), dtype=float) for fn in functions]
    means = [0.0] * len(xi)
    lin = np.zeros(n // 2 + 1)
    for g, name in enumerate(scenario.true_terms):
        if _TERM_FACTORS[name] in (((2, 1),), ((4, 1),)):  # u_xx or u_xxxx alone
            means[g] = float(xi[g].mean())
            xi[g] = xi[g] - means[g]
            lin = lin + means[g] * multipliers[_TERM_FACTORS[name][0][0]]

    if in_time:
        def nonlin(v, s):
            return np.fft.rfft(rhs(v, [float(fn(s)) - mean for fn, mean in zip(functions, means)]))
    else:
        def nonlin(v, s):
            return np.fft.rfft(rhs(v, xi))

    dt_sample = float(t[1] - t[0])
    substeps = max(1, math.ceil(dt_sample / dt))
    step = dt_sample / substeps
    e_full, e_half, q, f1, f2, f3 = _etdrk4_tables(lin, step)
    f2_twice = 2.0 * f2  # the step's 2.0 * f2 * (na + nb) evaluates this product first

    values = np.empty((n, t.size))
    u0 = np.asarray(scenario.initial_condition(x), dtype=float)
    values[:, 0] = u0
    v = np.fft.rfft(u0)
    for j in range(1, t.size):
        for i in range(substeps):
            s = t[j - 1] + i * step
            nv = nonlin(v, s)
            a = e_half * v + q * nv
            na = nonlin(a, s + step / 2.0)
            b = e_half * v + q * na
            nb = nonlin(b, s + step / 2.0)
            c = e_half * a + q * (2.0 * nb - nv)
            nc = nonlin(c, s + step)
            v = e_full * v + f1 * nv + f2_twice * (na + nb) + f3 * nc
        u = np.fft.irfft(v, n)
        if not np.all(np.isfinite(u)):
            raise SolverBlowupError(scenario.family, float(t[j]))
        values[:, j] = u
    return SpatioTemporalField(values, x, t)


# The equation families; each has one built-in scenario in SCENARIOS.
FAMILIES = ("burgers", "advection_diffusion", "kuramoto_sivashinsky")
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
        solver_options={"dt": 0.2},
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
    """Integrate the scenario's equation (`_solve_etdrk4`, with its solver options)."""
    return _solve_etdrk4(scenario, **scenario.solver_options)


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
