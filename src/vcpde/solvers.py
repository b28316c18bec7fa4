"""Synthetic ground-truth datasets: three variable-coefficient model equations.

All three families are posed on periodic spatial domains and integrated
pseudo-spectrally: Fourier derivatives in space, adaptive Runge-Kutta in time
for the non-stiff equations and a fixed-step exponential fourth-order
Runge-Kutta scheme for the stiff fourth-derivative problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .fields import SpatioTemporalField
from .library import CoefficientTrajectories


class SolverBlowupError(RuntimeError):
    """The time integration produced a non-finite value."""

    def __init__(self, family: str, x: float | None, t: float):
        self.x = x
        self.t = t
        where = f"t={t:g}" if x is None else f"x={x:g}, t={t:g}"
        super().__init__(f"{family} solve blew up; first non-finite value at {where}")


@dataclass(frozen=True)
class PdeScenario:
    """One synthetic experiment: equation family, coefficients, domain, grid."""

    family: str
    x_span: tuple[float, float]
    t_span: tuple[float, float]
    n_x: int
    n_t: int
    coefficients: dict[str, Callable]
    coefficient_formulas: dict[str, str]
    initial_condition: Callable[[np.ndarray], np.ndarray]
    ic_formula: str
    varying_axis: str
    # term descriptor -> true coefficient function of the varying-axis coordinate
    true_terms: dict[str, Callable[[np.ndarray], np.ndarray]] = field(repr=False, default_factory=dict)
    retain_t_from: float | None = None
    solver_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
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


def burgers_scenario(
    mu: Callable[[float], float] | None = None,
    nu: float = 0.1,
    initial_condition: Callable[[np.ndarray], np.ndarray] | None = None,
    x_span: tuple[float, float] = (-8.0, 8.0),
    t_span: tuple[float, float] = (0.0, 10.0),
    n_x: int = 256,
    n_t: int = 256,
    mu_formula: str = "1 + sin(t)/4",
    ic_formula: str = "exp(-(x+1)^2)",
    **solver_options,
) -> PdeScenario:
    """u_t + mu(t) u u_x = nu u_xx, written as u_t = -mu(t) u u_x + nu u_xx."""
    if mu is None:
        mu = lambda t: 1.0 + np.sin(t) / 4.0
    if initial_condition is None:
        initial_condition = lambda x: np.exp(-((x + 1.0) ** 2))
    return PdeScenario(
        family="burgers",
        x_span=x_span,
        t_span=t_span,
        n_x=n_x,
        n_t=n_t,
        coefficients={"mu": mu, "nu": lambda t: np.full_like(np.asarray(t, dtype=float), nu)},
        coefficient_formulas={"mu": mu_formula, "nu": repr(nu)},
        initial_condition=initial_condition,
        ic_formula=ic_formula,
        varying_axis="time",
        true_terms={
            "u*u_x": lambda t: -np.asarray(mu(np.asarray(t, dtype=float)), dtype=float)
            * np.ones_like(np.asarray(t, dtype=float)),
            "u_xx": lambda t: np.full_like(np.asarray(t, dtype=float), nu),
        },
        solver_options=solver_options,
    )


def advection_diffusion_scenario(
    mu: Callable[[np.ndarray], np.ndarray] | None = None,
    mu_x: Callable[[np.ndarray], np.ndarray] | None = None,
    nu: float = 0.1,
    initial_condition: Callable[[np.ndarray], np.ndarray] | None = None,
    x_span: tuple[float, float] = (-5.0, 5.0),
    t_span: tuple[float, float] = (0.0, 5.0),
    n_x: int = 256,
    n_t: int = 256,
    mu_formula: str = "-1.5 + cos(0.4*pi*x)",
    ic_formula: str = "cos(0.4*pi*x)",
    **solver_options,
) -> PdeScenario:
    """u_t = (mu(x) u)_x + nu u_xx = mu_x u + mu u_x + nu u_xx."""
    if mu is None:
        mu = lambda x: -1.5 + np.cos(0.4 * np.pi * x)
        mu_x = lambda x: -0.4 * np.pi * np.sin(0.4 * np.pi * x)
    if mu_x is None:
        raise ValueError("mu_x must be supplied alongside a custom mu")
    return PdeScenario(
        family="advection_diffusion",
        x_span=x_span,
        t_span=t_span,
        n_x=n_x,
        n_t=n_t,
        coefficients={"mu": mu, "mu_x": mu_x, "nu": lambda x: np.full_like(np.asarray(x, dtype=float), nu)},
        coefficient_formulas={"mu": mu_formula, "nu": repr(nu)},
        initial_condition=initial_condition or (lambda x: np.cos(0.4 * np.pi * x)),
        ic_formula=ic_formula,
        varying_axis="space",
        true_terms={
            "u": lambda x: np.asarray(mu_x(np.asarray(x, dtype=float)), dtype=float)
            * np.ones_like(np.asarray(x, dtype=float)),
            "u_x": lambda x: np.asarray(mu(np.asarray(x, dtype=float)), dtype=float)
            * np.ones_like(np.asarray(x, dtype=float)),
            "u_xx": lambda x: np.full_like(np.asarray(x, dtype=float), nu),
        },
        solver_options=solver_options,
    )


def ks_scenario(
    alpha: Callable[[np.ndarray], np.ndarray] | None = None,
    beta: Callable[[np.ndarray], np.ndarray] | None = None,
    gamma: Callable[[np.ndarray], np.ndarray] | None = None,
    initial_condition: Callable[[np.ndarray], np.ndarray] | None = None,
    x_span: tuple[float, float] = (-20.0, 20.0),
    t_span: tuple[float, float] = (0.0, 200.0),
    n_x: int = 256,
    n_t: int = 256,
    retain_t_from: float | None = 100.0,
    **solver_options,
) -> PdeScenario:
    """u_t = alpha(x) u u_x + beta(x) u_xx + gamma(x) u_xxxx (chaotic for defaults)."""
    if alpha is None:
        alpha = lambda x: 1.0 + 0.25 * np.sin(0.1 * np.pi * x)
    if beta is None:
        beta = lambda x: -1.0 + 0.25 * np.exp(-((x - 2.0) ** 2) / 5.0)
    if gamma is None:
        gamma = lambda x: -1.0 - 0.25 * np.exp(-((x + 2.0) ** 2) / 5.0)
    return PdeScenario(
        family="kuramoto_sivashinsky",
        x_span=x_span,
        t_span=t_span,
        n_x=n_x,
        n_t=n_t,
        coefficients={"alpha": alpha, "beta": beta, "gamma": gamma},
        coefficient_formulas={
            "alpha": "1 + 0.25*sin(0.1*pi*x)",
            "beta": "-1 + 0.25*exp(-(x-2)^2/5)",
            "gamma": "-1 - 0.25*exp(-(x+2)^2/5)",
        },
        initial_condition=initial_condition or (lambda x: np.exp(-(x**2))),
        ic_formula="exp(-x^2)",
        varying_axis="space",
        true_terms={
            "u*u_x": lambda x: np.asarray(alpha(np.asarray(x, dtype=float)), dtype=float),
            "u_xx": lambda x: np.asarray(beta(np.asarray(x, dtype=float)), dtype=float),
            "u_xxxx": lambda x: np.asarray(gamma(np.asarray(x, dtype=float)), dtype=float),
        },
        retain_t_from=retain_t_from,
        solver_options=solver_options,
    )


def _rfft_k(n: int, length: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)


def _first_nonfinite(values: np.ndarray, x: np.ndarray, t: np.ndarray, family: str):
    """Raise SolverBlowupError at the first (in time, then space) bad entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        j = int(np.any(bad, axis=0).argmax())
        i = int(bad[:, j].argmax())
        raise SolverBlowupError(family, float(x[i]), float(t[j]))


def _integrate_rk(scenario: PdeScenario, rhs) -> SpatioTemporalField:
    x = scenario.x_coords
    t = scenario.t_coords
    u0 = np.asarray(scenario.initial_condition(x), dtype=float)
    rtol = scenario.solver_options.get("rtol", 1e-8)
    atol = scenario.solver_options.get("atol", 1e-10)
    res = solve_ivp(
        rhs, (t[0], t[-1]), u0, t_eval=t, method="RK45", rtol=rtol, atol=atol
    )
    if not res.success:
        raise SolverBlowupError(scenario.family, None, float(res.t[-1]) if res.t.size else t[0])
    values = res.y
    _first_nonfinite(values, x, t, scenario.family)
    return SpatioTemporalField(values, x, t)


def solve_burgers(scenario: PdeScenario) -> SpatioTemporalField:
    if scenario.family != "burgers":
        raise ValueError("scenario family must be 'burgers'")
    n = scenario.n_x
    k = _rfft_k(n, scenario.domain_length)
    ik = 1j * k.copy()
    if n % 2 == 0:
        ik[-1] = 0.0  # zero the Nyquist mode for odd derivatives
    k2 = k**2
    mu = scenario.coefficients["mu"]
    nu = float(scenario.coefficients["nu"](0.0))

    def rhs(t, u):
        u_hat = np.fft.rfft(u)
        ux = np.fft.irfft(ik * u_hat, n)
        uxx = np.fft.irfft(-k2 * u_hat, n)
        return -float(mu(t)) * u * ux + nu * uxx

    return _integrate_rk(scenario, rhs)


def solve_advection_diffusion(scenario: PdeScenario) -> SpatioTemporalField:
    if scenario.family != "advection_diffusion":
        raise ValueError("scenario family must be 'advection_diffusion'")
    n = scenario.n_x
    x = scenario.x_coords
    k = _rfft_k(n, scenario.domain_length)
    ik = 1j * k.copy()
    if n % 2 == 0:
        ik[-1] = 0.0
    k2 = k**2
    mu = np.asarray(scenario.coefficients["mu"](x), dtype=float)
    mu_x = np.asarray(scenario.coefficients["mu_x"](x), dtype=float)
    nu = float(scenario.coefficients["nu"](0.0))

    def rhs(t, u):
        u_hat = np.fft.rfft(u)
        ux = np.fft.irfft(ik * u_hat, n)
        uxx = np.fft.irfft(-k2 * u_hat, n)
        return mu_x * u + mu * ux + nu * uxx

    return _integrate_rk(scenario, rhs)


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


def solve_ks(scenario: PdeScenario) -> SpatioTemporalField:
    """Exponential fourth-order integrator with the spatial-mean second/fourth
    derivative terms treated exactly and the coefficient deviations advanced
    with the nonlinearity."""
    if scenario.family != "kuramoto_sivashinsky":
        raise ValueError("scenario family must be 'kuramoto_sivashinsky'")
    n = scenario.n_x
    x = scenario.x_coords
    t = scenario.t_coords
    k = _rfft_k(n, scenario.domain_length)
    ik = 1j * k.copy()
    if n % 2 == 0:
        ik[-1] = 0.0
    k2, k4 = k**2, k**4

    alpha = np.asarray(scenario.coefficients["alpha"](x), dtype=float)
    beta = np.asarray(scenario.coefficients["beta"](x), dtype=float)
    gamma = np.asarray(scenario.coefficients["gamma"](x), dtype=float)
    beta0 = float(beta.mean())
    gamma0 = float(gamma.mean())
    d_beta = beta - beta0
    d_gamma = gamma - gamma0

    lin = -beta0 * k2 + gamma0 * k4

    dt_sample = float(t[1] - t[0])
    dt_target = scenario.solver_options.get("dt", 0.05)
    substeps = max(1, math.ceil(dt_sample / dt_target))
    dt = dt_sample / substeps
    e_full, e_half, q, f1, f2, f3 = _etdrk4_tables(lin, dt)

    def nonlin(v):
        u = np.fft.irfft(v, n)
        ux = np.fft.irfft(ik * v, n)
        uxx = np.fft.irfft(-k2 * v, n)
        uxxxx = np.fft.irfft(k4 * v, n)
        return np.fft.rfft(alpha * u * ux + d_beta * uxx + d_gamma * uxxxx)

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
            v = e_full * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc
        u = np.fft.irfft(v, n)
        if not np.all(np.isfinite(u)):
            raise SolverBlowupError(scenario.family, None, float(t[j - 1]))
        values[:, j] = u
    return SpatioTemporalField(values, x, t)


# The one table of equation families: each name's scenario factory and solver.
FAMILIES = {
    "burgers": (burgers_scenario, solve_burgers),
    "advection_diffusion": (advection_diffusion_scenario, solve_advection_diffusion),
    "kuramoto_sivashinsky": (ks_scenario, solve_ks),
}
# Other names make_scenario accepts for a family.
FAMILY_ALIASES = {
    "advection-diffusion": "advection_diffusion",
    "ad": "advection_diffusion",
    "kuramoto-sivashinsky": "kuramoto_sivashinsky",
    "ks": "kuramoto_sivashinsky",
}


def make_scenario(family: str, n_x: int | None = None, n_t: int | None = None,
                  x_span=None, t_span=None) -> PdeScenario:
    """The built-in scenario of a family (name or alias), with any grid argument given."""
    name = FAMILY_ALIASES.get(family.lower(), family.lower())
    if name not in FAMILIES:
        raise ValueError(f"unknown family; choose one of {sorted([*FAMILIES, *FAMILY_ALIASES])}")
    grid = {"n_x": n_x, "n_t": n_t, "x_span": x_span, "t_span": t_span}
    return FAMILIES[name][0](**{key: value for key, value in grid.items() if value is not None})


def scenario_from_metadata(metadata: dict) -> PdeScenario:
    """Rebuild a built-in scenario from dataset metadata (for ground truth)."""
    family = metadata.get("family")
    if family not in FAMILIES:
        raise ValueError(f"cannot rebuild scenario for family {family!r}")
    reference = make_scenario(family)
    if metadata.get("coefficients") != reference.coefficient_formulas or (
        metadata.get("initial_condition") != reference.ic_formula
    ):
        raise ValueError("ground truth is only available for the built-in scenario coefficients")
    return make_scenario(family, metadata["n_x"], metadata["n_t"],
                         tuple(metadata["x_span"]), tuple(metadata["t_span"]))


def solve(scenario: PdeScenario) -> SpatioTemporalField:
    """Dispatch to the family solver."""
    return FAMILIES[scenario.family][1](scenario)


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
            values[:, g] = np.asarray(fn(step_coords), dtype=float)
    active = np.array([name in scenario.true_terms for name in descriptors])
    return CoefficientTrajectories(values, active, descriptors, step_coords, scenario.varying_axis)
