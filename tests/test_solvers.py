import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp  # the reference of the integrator-accuracy tests only

from vcpde import solvers
from vcpde.gibbs import BglssConfig
from vcpde.library import CoefficientTrajectories, LibrarySpec
from vcpde.pipeline import build_system, noisy_dataset
from vcpde.selection import fit
from vcpde.solvers import (
    _TERM_FACTORS,
    SCENARIO_SETTINGS,
    PdeScenario,
    add_noise,
    make_scenario,
    scenario_from_metadata,
    solve,
    true_coefficients,
)
from vcpde.tbglss import TbglssConfig, ThresholdSpec

from helpers import report_json


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def zero_start(scenario):
    return replace(scenario, initial_condition=lambda x: np.zeros_like(x), ic_formula="0")


class TestBurgers:
    def test_pulse_stays_bounded(self, burgers_field):
        assert np.abs(burgers_field.values).max() <= 1.0 + 1e-9

    def test_pulse_travels_right(self, burgers_field):
        x = burgers_field.x_coords
        first = x[np.argmax(burgers_field.values[:, 0])]
        last = x[np.argmax(burgers_field.values[:, -1])]
        assert last > first + 1.0

    def test_zero_initial_data(self):
        f = solve(zero_start(make_scenario("burgers", n_x=64, n_t=32)))
        assert np.abs(f.values).max() < 1e-12

    def test_heat_kernel_oracle(self):
        # mu == 0 reduces to the heat equation; the Gaussian widens analytically
        sc = replace(make_scenario("burgers", n_x=128, n_t=64),
                     true_terms={"u*u_x": lambda t: 0.0, "u_xx": lambda t: 0.1},
                     coefficient_formulas={"mu": "0", "nu": "0.1"})
        f = solve(sc)
        a0, nu = 0.25, 0.1
        x = f.x_coords
        for j in (10, 31, 63):
            a = a0 + nu * f.t_coords[j]
            exact = np.zeros_like(x)
            for image in range(-2, 3):  # periodic images
                exact += np.sqrt(a0 / a) * np.exp(-((x + 1.0 - 16.0 * image) ** 2) / (4.0 * a))
            assert rel_l2(f.values[:, j], exact) <= 1e-3

    def test_heat_kernel_oracle_time_varying_diffusivity(self):
        # nu(t) = 0.1 (1 + sin(t)/2): the width grows by its integral, a = a0 + int_0^t nu.  The
        # linear part holds nu's mean over the t grid; the rest is evaluated at the stage times.
        sc = replace(make_scenario("burgers", n_x=128, n_t=64),
                     true_terms={"u*u_x": lambda t: 0.0,
                                 "u_xx": lambda t: 0.1 * (1.0 + np.sin(t) / 2.0)},
                     coefficient_formulas={"mu": "0", "nu": "0.1*(1 + sin(t)/2)"})
        f = solve(sc)
        a0 = 0.25
        x = f.x_coords
        for j in (10, 31, 63):
            t = f.t_coords[j]
            a = a0 + 0.1 * (t + (1.0 - np.cos(t)) / 2.0)
            exact = np.zeros_like(x)
            for image in range(-2, 3):  # periodic images
                exact += np.sqrt(a0 / a) * np.exp(-((x + 1.0 - 16.0 * image) ** 2) / (4.0 * a))
            assert np.abs(f.values[:, j] - exact).max() <= 1e-6


class TestAdvectionDiffusion:
    def test_zero_initial_data(self):
        f = solve(zero_start(make_scenario("ad", n_x=64, n_t=32)))
        assert np.abs(f.values).max() < 1e-12

    def test_constant_advection_translation_oracle(self):
        c = -1.5
        sc = replace(
            make_scenario("ad", n_x=128, n_t=64, t_span=(0.0, 2.0)),
            true_terms={"u": lambda x: np.zeros_like(np.asarray(x, float)),
                        "u_x": lambda x: np.full_like(np.asarray(x, float), c),
                        "u_xx": lambda x: 0.0},
            coefficient_formulas={"mu": repr(c), "nu": "0.0"},
            initial_condition=lambda x: np.exp(-(x**2)), ic_formula="exp(-x^2)",
        )
        f = solve(sc)
        length = sc.domain_length
        for j in (20, 63):
            shift = f.x_coords + c * f.t_coords[j]
            wrapped = ((shift - sc.x_span[0]) % length) + sc.x_span[0]
            assert rel_l2(f.values[:, j], np.exp(-(wrapped**2))) <= 1e-3

    def test_benchmark_profile_decays(self):
        sc = make_scenario("ad", n_x=128, n_t=64)
        f = solve(sc)
        assert np.abs(f.values[:, -1]).max() < np.abs(f.values[:, 0]).max()


class TestKuramotoSivashinsky:
    def test_zero_initial_data(self):
        f = solve(zero_start(make_scenario("ks", n_x=64, n_t=32, t_span=(0.0, 10.0),
                                           retain_t_from=None)))
        assert np.abs(f.values).max() < 1e-12

    def test_chaotic_amplitude_late(self, ks_clean):
        f = ks_clean.field
        late = f.values[:, f.t_coords >= 100.0]
        assert np.abs(late).max() > 1.0  # sustained turbulence, not decay
        assert np.all(np.isfinite(f.values))

    def test_default_step_local_error(self, ks_clean):
        # at the default step and at a step 16 times finer; sigma_u of the retained window is
        # about 1.27
        dt = make_scenario("ks").solver_options["dt"]
        error = np.abs(first_retained_interval(ks_clean, dt)
                       - first_retained_interval(ks_clean, dt / 16.0)).max()
        assert error <= 1e-3

    def test_step_halving_shrinks_the_local_error(self, ks_clean):
        # against a step 16 times finer than the default, halving the default step divides
        # the error by at least 4 (a fourth-order method in its asymptotic range gives 16)
        dt = make_scenario("ks").solver_options["dt"]
        reference = first_retained_interval(ks_clean, dt / 16.0)
        coarse, fine = (np.abs(first_retained_interval(ks_clean, step) - reference).max()
                        for step in (dt, dt / 2.0))
        assert coarse >= 4.0 * fine


def first_retained_interval(ks_clean, dt):
    """The KS state one sample interval after the first retained one (t ~ 100), solved from
    that state at step `dt`."""
    t = ks_clean.field.t_coords
    j = int(np.searchsorted(t, 100.0))
    state = ks_clean.field.values[:, j].copy()
    # a grid needs 8 samples; only the first interval is compared
    sc = replace(make_scenario("ks"), t_span=(t[j], t[j + 7]), n_t=8, retain_t_from=None,
                 initial_condition=lambda x: state, ic_formula="the state at t ~ 100",
                 solver_options={"dt": dt})
    return solve(sc).values[:, 1]


def reference_solve(scenario):
    """`scipy.integrate.solve_ivp`'s RK45 at rtol 1e-12 on the scenario's equation: numpy
    spectral x-derivatives, every coefficient evaluated at the call's time or on the x grid."""
    x, n = scenario.x_coords, scenario.n_x
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=scenario.domain_length / n)
    odd = 1j * k
    odd[-1] = 0.0  # the Nyquist mode has no odd derivative
    multipliers = {1: odd, 2: -k**2}

    def rhs(s, u):
        u_hat = np.fft.rfft(u)
        d = {0: u, **{q: np.fft.irfft(m * u_hat, n) for q, m in multipliers.items()}}
        total = np.zeros_like(u)
        for name, fn in scenario.true_terms.items():
            product = np.asarray(fn(s if scenario.varying_axis == "time" else x), dtype=float)
            for q, p in _TERM_FACTORS[name]:
                product = product * d[q] ** p
            total = total + product
        return total

    t = scenario.t_coords
    res = solve_ivp(rhs, scenario.t_span, scenario.initial_condition(x), method="RK45",
                    t_eval=t, rtol=1e-12, atol=1e-12)
    assert res.success
    return res.y


class TestIntegratorAccuracy:
    """Small grids with the built-in grids' sample spacing (10/255 for Burgers, 5/255 for
    advection-diffusion), so the default dt takes the built-in solves' steps."""

    @pytest.mark.parametrize("make", [
        lambda: make_scenario("burgers", n_x=64, n_t=52, t_span=(0.0, 2.0)),
        lambda: make_scenario("ad", n_x=64, n_t=52, t_span=(0.0, 1.0)),
    ], ids=["burgers-time-varying", "ad-space-varying"])
    def test_default_step_matches_a_tight_rk45_solve(self, make):
        # the accuracy the integrator's docstring states for the default dt
        sc = make()
        assert np.abs(solve(sc).values - reference_solve(sc)).max() <= 3e-6

    def test_burgers_step_halving_is_fourth_order(self):
        sc = make_scenario("burgers", n_x=64, n_t=52, t_span=(0.0, 2.0))
        reference = reference_solve(sc)
        errors = [np.abs(solve(replace(sc, solver_options={"dt": dt})).values - reference).max()
                  for dt in (0.05, 0.025, 0.0125)]  # steps 10/255, 5/255 and 2.5/255
        # each halving divides the error by about 2^4 = 16
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0


@pytest.mark.parametrize("family, substeps", [("burgers", 1), ("ad", 1), ("ks", 4)])
def test_default_step_takes_at_most_four_substeps_per_sample(monkeypatch, family, substeps):
    # the solve's cost as right-hand-side calls, four per ETDRK4 substep
    calls = []
    spectral_rhs = solvers._spectral_rhs

    def counted_rhs(scenario):
        rhs, multipliers = spectral_rhs(scenario)

        def counted(*args):
            calls.append(None)
            return rhs(*args)

        return counted, multipliers

    monkeypatch.setattr(solvers, "_spectral_rhs", counted_rhs)
    sc = make_scenario(family)
    solve(sc)
    per_sample = len(calls) / (4 * (sc.n_t - 1))
    assert per_sample == substeps <= 4


class TestBlowupDiagnostics:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_antidiffusion_blowup_named(self):
        from vcpde.solvers import SolverBlowupError

        sc = make_scenario("ad", n_x=64, n_t=32, t_span=(0.0, 2.0))
        sc = replace(sc, true_terms={**sc.true_terms, "u_xx": lambda x: -5.0},
                     coefficient_formulas={**sc.coefficient_formulas, "nu": "-5.0"})
        with pytest.raises(SolverBlowupError, match="t=") as caught:
            solve(sc)
        # the first output time whose values are not finite
        assert caught.value.t in sc.t_coords
        assert sc.t_span[0] < caught.value.t <= sc.t_span[1]


class TestGridRefinement:
    def test_burgers_refinement_converges(self):
        errs = []
        prev = None
        for n in (64, 128, 256):
            f = solve(make_scenario("burgers", n_x=n, n_t=65))
            if prev is not None:
                errs.append(rel_l2(prev, f.values[::2]))
            prev = f.values
        assert errs[1] < errs[0]


class TestAddNoise:
    def test_zero_level_identity(self, burgers_field):
        assert add_noise(burgers_field, 0.0, seed=3) is burgers_field

    def test_negative_level_rejected(self, burgers_field):
        with pytest.raises(ValueError):
            add_noise(burgers_field, -0.1, seed=0)

    def test_determinism(self, burgers_field):
        a = add_noise(burgers_field, 0.05, seed=11)
        b = add_noise(burgers_field, 0.05, seed=11)
        np.testing.assert_array_equal(a.values, b.values)

    def test_preserves_axes(self, burgers_field):
        noisy = add_noise(burgers_field, 0.05, seed=1)
        assert noisy.values.shape == burgers_field.values.shape
        np.testing.assert_array_equal(noisy.x_coords, burgers_field.x_coords)

    def test_noise_variance_matches_level(self, burgers_field):
        level = 0.05
        noisy = add_noise(burgers_field, level, seed=7)
        observed = (noisy.values - burgers_field.values).var()
        expected = (level * burgers_field.sigma()) ** 2
        assert abs(observed / expected - 1.0) < 0.05

    def test_benchmark_noise_mse_scale(self, burgers_field):
        # 5% of sigma_u on the 256x256 benchmark dataset
        noisy = add_noise(burgers_field, 0.05, seed=1)
        mse = np.mean((noisy.values - burgers_field.values) ** 2)
        assert 8.099e-5 / 1.25 <= mse <= 8.099e-5 * 1.25


class TestTrueCoefficients:
    def test_burgers_advective_sign(self, burgers_scenario_full, library20):
        truth = true_coefficients(burgers_scenario_full, library20)
        g = library20.descriptors.index("u*u_x")
        t = truth.step_coords
        np.testing.assert_allclose(truth.values[:, g], -(1.0 + np.sin(t) / 4.0), rtol=1e-12)

    def test_absent_term_zero(self, burgers_scenario_full, library20):
        truth = true_coefficients(burgers_scenario_full, library20)
        g = library20.descriptors.index("u^2")
        assert np.all(truth.values[:, g] == 0.0)

    def test_ks_fourth_derivative_pointwise(self, library20):
        sc = make_scenario("ks")
        truth = true_coefficients(sc, library20, step_coords=np.array([-2.0, 0.0]))
        g = library20.descriptors.index("u_xxxx")
        assert truth.values[0, g] == pytest.approx(-1.25)

    def test_equation_terms_are_the_active_groups(self, library20):
        truth = true_coefficients(make_scenario("ad"), library20)
        assert isinstance(truth, CoefficientTrajectories)
        assert truth.selected == ("u", "u_x", "u_xx")
        assert truth.varying_axis == "space"

    def test_missing_term_rejected(self, burgers_scenario_full):
        lib = LibrarySpec.standard(max_poly_power=1, max_deriv_order=1)
        with pytest.raises(ValueError, match="does not cover"):
            true_coefficients(burgers_scenario_full, lib)


class TestFamilyTable:
    @pytest.mark.parametrize("name,family", [
        ("burgers", "burgers"), ("ad", "advection_diffusion"),
        ("Advection-Diffusion", "advection_diffusion"), ("ks", "kuramoto_sivashinsky"),
        ("kuramoto_sivashinsky", "kuramoto_sivashinsky"),
    ])
    def test_make_scenario_resolves_aliases(self, name, family):
        assert make_scenario(name).family == family

    def test_make_scenario_grid_arguments(self):
        sc = make_scenario("burgers", n_x=64, t_span=(0.0, 4.0))
        assert (sc.n_x, sc.n_t, sc.x_span, sc.t_span) == (64, 256, (-8.0, 8.0), (0.0, 4.0))
        settings = {"n_x": 32, "n_t": 48, "x_span": (-4.0, 4.0), "t_span": (0.0, 2.0),
                    "retain_t_from": 1.0, "solver_options": {"dt": 0.025}}
        assert set(settings) == set(SCENARIO_SETTINGS)
        sc = make_scenario("ad", **settings)
        assert {name: getattr(sc, name) for name in settings} == settings
        assert make_scenario("ks").retain_t_from == 100.0
        with pytest.raises(TypeError):  # every call shares the built-in scenario's tables
            make_scenario("burgers").solver_options["dt"] = 1e-3

    def test_unknown_family_names_the_choices(self):
        with pytest.raises(ValueError, match="'ad', 'advection-diffusion'"):
            make_scenario("wave")

    def test_scenario_from_metadata_round_trip(self):
        # every recorded field comes back: grid, domain, retained window and solver options
        scenarios = [make_scenario("ks", n_x=64, n_t=32, t_span=(0.0, 150.0)),
                     make_scenario("ks", n_x=64, n_t=64, t_span=(0.0, 40.0), retain_t_from=20.0,
                                   solver_options={"dt": 0.025}),
                     make_scenario("burgers", n_x=64, n_t=48, retain_t_from=2.0,
                                   solver_options={"dt": 0.01}),
                     make_scenario("ad", n_x=32, x_span=(-10.0, 10.0),
                                   solver_options={"dt": 0.02})]
        for sc in scenarios:
            rebuilt = scenario_from_metadata(json.loads(json.dumps(sc.metadata())))
            assert rebuilt.metadata() == sc.metadata()
        # a key left out takes the built-in value
        metadata = scenarios[1].metadata()
        del metadata["t_span"], metadata["retain_t_from"], metadata["solver_options"]
        rebuilt = scenario_from_metadata(metadata)
        assert (rebuilt.t_span, rebuilt.retain_t_from, rebuilt.solver_options) == (
            (0.0, 200.0), 100.0, {"dt": 0.2})

    @pytest.mark.parametrize("name, grid", [
        ("burgers", {}), ("burgers", {"n_x": 64, "n_t": 48, "t_span": (0.0, 4.0)}),
        ("ad", {}), ("ad", {"n_x": 128, "n_t": 64, "x_span": (-10.0, 10.0)}),
        ("ks", {}), ("ks", {"n_x": 64, "n_t": 64, "t_span": (0.0, 40.0), "retain_t_from": 20.0}),
    ])
    def test_scenario_from_metadata_gives_the_truth_bit_for_bit(self, name, grid, library20):
        sc = make_scenario(name, **grid)
        expected = true_coefficients(sc, library20)
        rebuilt = true_coefficients(scenario_from_metadata(sc.metadata()), library20)
        for attribute in ("values", "active", "step_coords"):
            assert getattr(rebuilt, attribute).tobytes() == getattr(expected, attribute).tobytes()
        assert (rebuilt.descriptors, rebuilt.varying_axis) == (
            expected.descriptors, expected.varying_axis)

    def test_scenario_from_metadata_needs_builtin_coefficients(self):
        metadata = make_scenario("burgers").metadata()
        metadata["coefficients"] = {**metadata["coefficients"], "nu": "0.2"}
        with pytest.raises(ValueError, match="built-in scenario coefficients"):
            scenario_from_metadata(metadata)
        with pytest.raises(ValueError, match="cannot rebuild"):
            scenario_from_metadata({"family": "wave"})


class TestScenarioValidation:
    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            make_scenario("burgers", n_x=4)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            PdeScenario("wave", (-1, 1), (0, 1), 16, 16, {}, {}, lambda x: x, "x", "time")

    @pytest.mark.parametrize("changes,message", [
        ({"varying_axis": "both"}, "varying_axis must be 'time' or 'space'"),
        ({"x_span": (1.0, -1.0)},
         "domain spans must be increasing and finite, got x_span=(1.0, -1.0) and "
         "t_span=(0.0, 10.0)"),
        ({"t_span": (0.0, 0.0)},
         "domain spans must be increasing and finite, got x_span=(-8.0, 8.0) and "
         "t_span=(0.0, 0.0)"),
        ({"x_span": (-np.inf, 8.0)},
         "domain spans must be increasing and finite, got x_span=(-inf, 8.0) and "
         "t_span=(0.0, 10.0)"),
        ({"t_span": (0.0, np.nan)},
         "domain spans must be increasing and finite, got x_span=(-8.0, 8.0) and "
         "t_span=(0.0, nan)"),
        ({"t_span": (0.0, 1.5), "retain_t_from": 2.0},
         "t_span ends at 1.5, so the burgers scenario's retain_t_from=2.0 must be finite and at "
         "most that, or discovery would keep no time samples"),
        ({"retain_t_from": np.nan},
         "t_span ends at 10.0, so the burgers scenario's retain_t_from=nan must be finite and at "
         "most that, or discovery would keep no time samples"),
        ({"true_terms": {"u_xxx": lambda t: 0.1}},
         "true term 'u_xxx' takes derivative order 3; the solver integrates orders (1, 2, 4)"),
        ({"true_terms": {"u*u_x": lambda t: 1.0, "u^2*u_xxx": lambda t: 0.1}},
         "true term 'u^2*u_xxx' takes derivative order 3; the solver integrates orders (1, 2, 4)"),
        ({"true_terms": {"foo": lambda t: 0.1}},
         "true term 'foo' is not a term of the standard library"),
    ], ids=["varying-axis", "x-span", "t-span", "infinite-x-span", "nan-t-span", "retained-window",
            "nan-retained-window", "order-3", "order-3-product", "unknown-term"])
    def test_scenario_the_solver_cannot_integrate_rejected(self, changes, message):
        # rejected when built, not as a KeyError inside the solve
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(make_scenario("burgers", n_x=32, n_t=16), **changes)

    @pytest.mark.parametrize("family,option", [
        ("burgers", "rtol"), ("ad", "atol"), ("ks", "d_t"), ("ks", "rtol"),
    ])
    def test_option_the_integrator_does_not_read_rejected(self, family, option):
        # the one integrator, ETDRK4, reads dt alone
        with pytest.raises(ValueError, match=f"does not read \\['{option}'\\]; it reads \\['dt'\\]"):
            make_scenario(family, solver_options={option: 0.5})

    @pytest.mark.parametrize("family,name", [
        # each family has one built-in equation: a coefficient or initial condition is not a
        # setting, and another equation is a replace() of terms and formulas
        *[("burgers", name) for name in
          ("mu", "nu", "initial_condition", "mu_formula", "ic_formula")],
        *[("ad", name) for name in
          ("mu", "mu_x", "nu", "initial_condition", "mu_formula", "ic_formula")],
        *[("ks", name) for name in ("alpha", "beta", "gamma", "initial_condition")],
        # nor are the other scenario fields, and a solver option goes in solver_options
        *[("burgers", name) for name in
          ("family", "true_terms", "coefficient_formulas", "varying_axis", "rtol")],
    ])
    def test_make_scenario_sets_only_grid_domain_window_and_solver_options(self, family, name):
        with pytest.raises(ValueError, match=f"not \\['{name}'\\]"):
            make_scenario(family, **{name: 0.5})

    def test_options_the_integrator_reads_recorded(self):
        for name in ("burgers", "ad", "ks"):
            assert make_scenario(name, solver_options={"dt": 0.025}).metadata()[
                "solver_options"] == {"dt": 0.025}
        # the built-in defaults: KS sets its step, Burgers and AD take the integrator's
        assert {name: make_scenario(name).metadata()["solver_options"]
                for name in ("burgers", "ad", "ks")} == {"burgers": {}, "ad": {},
                                                         "ks": {"dt": 0.2}}


def equation_residual(field, scenario, t_from=None):
    """Relative L2 residual of the scenario's stated equation on `field`, at the interior times
    from `t_from` on: numpy spectral x-derivatives of the solution, with the coefficients of
    `true_coefficients`, against a centred time difference."""
    library = LibrarySpec.standard()
    truth = true_coefficients(scenario, library)
    u, t = field.values, field.t_coords
    n = u.shape[0]
    ik = 2j * np.pi * np.fft.fftfreq(n, d=scenario.domain_length / n)
    u_hat = np.fft.fft(u, axis=0)
    derivatives = [u]
    for q in range(1, library.max_derivative + 1):
        multiplier = ik**q
        if q % 2:
            multiplier[n // 2] = 0.0  # the Nyquist mode has no odd derivative
        derivatives.append(np.fft.ifft(multiplier[:, None] * u_hat, axis=0).real)
    rhs = np.zeros_like(u)
    for g, term in enumerate(library.terms):
        if truth.active[g]:
            xi = truth.values[:, g]
            product = xi[None, :] if scenario.varying_axis == "time" else xi[:, None]
            for q, p in term.factors:
                product = product * derivatives[q] ** p
            rhs += product
    u_t = (u[:, 2:] - u[:, :-2]) / (t[2:] - t[:-2])
    keep = slice(None) if t_from is None else t[1:-1] > t_from
    return rel_l2(rhs[:, 1:-1][:, keep], u_t[:, keep])


class TestEquationResidual:
    """The acceptance truth describes the data: each family's clean solve satisfies the
    equation its scenario states."""

    @pytest.mark.parametrize("clean,scenario", [
        ("burgers_clean", "burgers_scenario_full"), ("ad_clean", "ad_scenario"),
    ])
    def test_fixture_solve(self, request, clean, scenario):
        field = request.getfixturevalue(clean).field
        assert equation_residual(field, request.getfixturevalue(scenario)) <= 1e-2

    def test_kuramoto_sivashinsky(self):
        # a short fine-step KS solve, past the initial transient
        sc = make_scenario("ks", n_x=128, n_t=401, t_span=(0.0, 4.0), retain_t_from=None)
        assert equation_residual(solve(sc), sc, t_from=1.0) <= 1e-2


# SHA-256 over each family's default solve: the field's values, then its x and t coordinates,
# as float64 bytes.  A solver change that moves any bit has to update these and say why.
DEFAULT_SOLVE_SHA256 = {
    "burgers_clean": "9156fee17751d932cda4e20b2fb6eaf91938f729305ad4c7fd97f28413db8159",
    "ad_clean": "b43be1c18e3b89eff1ec8a321fdc40fbd4880afef3a16b0c96d586dc8a4896b2",
    "ks_clean": "8daf4b8226f697265d0fe87fe0739af41b740d69c28e8343bccbe6635856a9f8",
}


@pytest.mark.parametrize("clean", list(DEFAULT_SOLVE_SHA256))
def test_default_solve_is_bit_for_bit_pinned(request, clean):
    field = request.getfixturevalue(clean).field  # the session's solve, not a new one
    digest = hashlib.sha256()
    for array in (field.values, field.x_coords, field.t_coords):
        assert array.dtype == np.float64
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == DEFAULT_SOLVE_SHA256[clean]


# SHA-256 of `build_system` on each small fixture: its blocks, target, column scales and step
# coordinates, each as its shape and float64 bytes.  A change to the system build that moves any
# bit has to update these and say why.
BUILD_SYSTEM_SHA256 = {
    "burgers": "95cf11917b2d28ceebbf7aecac5fc6244766ef87beea9dd69e401491e9fc0b54",
    "ad_prefiltered": "9379eef510e588395fd309f319f5059c0827b867586fd1b2f9d428a4b553e392",
    "ks_retained": "59a967e4267067c2ebc60ff9851cbdb498de259528a35f753fc6507e6d5ce9d0",
}


@pytest.mark.parametrize("name", list(BUILD_SYSTEM_SHA256))
def test_build_system_is_bit_for_bit_pinned(small_build_datasets, name):
    system = build_system(small_build_datasets[name])
    digest = hashlib.sha256()
    for array in (system.blocks, system.target, system.scales, system.step_coords):
        assert array.dtype == np.float64
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == BUILD_SYSTEM_SHA256[name]


# SHA-256 of one tBGL-SS run on the small Burgers fixture at 1% noise, with two final chains,
# bootstrap CIs and the final ensemble kept: its JSON report, and the ensemble's draws as
# float64 bytes.  A change that moves any bit of a tBGL-SS run has to update these and say why.
TBGLSS_REPORT_SHA256 = {
    "report": "3a5a63d48f8f0307a56c99e70d71e9a1296aad1ca5aacc63030eb7e2c975d8a6",
    "beta": "02be099a9e43c1230733254da57ffa8b545ba6c8df78f4418ebaf9b7e778c6d5",
}


def test_tbglss_report_is_bit_for_bit_pinned(small_burgers_clean):
    system = build_system(noisy_dataset(small_burgers_clean, 0.01, seed=3))
    report = fit(system, TbglssConfig(
        thresholds=ThresholdSpec(t_rms=0.01, t_ge=0.1),
        bglss=BglssConfig(n_iterations=300, n_burnin=100, seed=4),
        update_iterations=120, update_burnin=40, final_chains=2, with_ci=True,
        keep_final_ensemble=True))
    beta = report.final_ensemble.beta
    assert beta.dtype == np.float64
    assert report.bootstrap_cis["intervals"] and report.chain_medians.shape[0] == 2
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == TBGLSS_REPORT_SHA256["report"]
    assert (hashlib.sha256(np.ascontiguousarray(beta).tobytes()).hexdigest()
            == TBGLSS_REPORT_SHA256["beta"])
