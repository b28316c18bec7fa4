import numpy as np
import pytest

from vcpde.library import CoefficientTrajectories, LibrarySpec
from vcpde.solvers import (
    PdeScenario,
    add_noise,
    advection_diffusion_scenario,
    burgers_scenario,
    ks_scenario,
    make_scenario,
    scenario_from_metadata,
    solve_advection_diffusion,
    solve_burgers,
    solve_ks,
    true_coefficients,
)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestBurgers:
    def test_pulse_stays_bounded(self, burgers_field):
        assert np.abs(burgers_field.values).max() <= 1.0 + 1e-9

    def test_pulse_travels_right(self, burgers_field):
        x = burgers_field.x_coords
        first = x[np.argmax(burgers_field.values[:, 0])]
        last = x[np.argmax(burgers_field.values[:, -1])]
        assert last > first + 1.0

    def test_zero_initial_data(self):
        sc = burgers_scenario(initial_condition=lambda x: np.zeros_like(x), ic_formula="0",
                              n_x=64, n_t=32)
        f = solve_burgers(sc)
        assert np.abs(f.values).max() < 1e-12

    def test_heat_kernel_oracle(self):
        # mu == 0 reduces to the heat equation; the Gaussian widens analytically
        sc = burgers_scenario(mu=lambda t: 0.0, mu_formula="0", n_x=128, n_t=64)
        f = solve_burgers(sc)
        a0, nu = 0.25, 0.1
        x = f.x_coords
        for j in (10, 31, 63):
            a = a0 + nu * f.t_coords[j]
            exact = np.zeros_like(x)
            for image in range(-2, 3):  # periodic images
                exact += np.sqrt(a0 / a) * np.exp(-((x + 1.0 - 16.0 * image) ** 2) / (4.0 * a))
            assert rel_l2(f.values[:, j], exact) <= 1e-3

    def test_family_guard(self):
        with pytest.raises(ValueError):
            solve_burgers(advection_diffusion_scenario())


class TestAdvectionDiffusion:
    def test_zero_initial_data(self):
        sc = advection_diffusion_scenario(initial_condition=lambda x: np.zeros_like(x),
                                          ic_formula="0", n_x=64, n_t=32)
        f = solve_advection_diffusion(sc)
        assert np.abs(f.values).max() < 1e-12

    def test_constant_advection_translation_oracle(self):
        c = -1.5
        sc = advection_diffusion_scenario(
            mu=lambda x: np.full_like(np.asarray(x, float), c),
            mu_x=lambda x: np.zeros_like(np.asarray(x, float)),
            nu=0.0, mu_formula=repr(c), n_x=128, n_t=64, t_span=(0.0, 2.0),
            initial_condition=lambda x: np.exp(-(x**2)), ic_formula="exp(-x^2)",
        )
        f = solve_advection_diffusion(sc)
        length = sc.domain_length
        for j in (20, 63):
            shift = f.x_coords + c * f.t_coords[j]
            wrapped = ((shift - sc.x_span[0]) % length) + sc.x_span[0]
            assert rel_l2(f.values[:, j], np.exp(-(wrapped**2))) <= 1e-3

    def test_benchmark_profile_decays(self):
        sc = advection_diffusion_scenario(n_x=128, n_t=64)
        f = solve_advection_diffusion(sc)
        assert np.abs(f.values[:, -1]).max() < np.abs(f.values[:, 0]).max()


class TestKuramotoSivashinsky:
    def test_zero_initial_data(self):
        sc = ks_scenario(initial_condition=lambda x: np.zeros_like(x), n_x=64, n_t=32,
                         t_span=(0.0, 10.0), retain_t_from=None)
        f = solve_ks(sc)
        assert np.abs(f.values).max() < 1e-12

    def test_chaotic_amplitude_late(self):
        sc = ks_scenario()
        f = solve_ks(sc)
        late = f.values[:, f.t_coords >= 100.0]
        assert np.abs(late).max() > 1.0  # sustained turbulence, not decay
        assert np.all(np.isfinite(f.values))

    def test_step_refinement_self_convergence(self):
        # halving the step changes the early retained window by under 1%
        coarse = solve_ks(ks_scenario(dt=0.05))
        fine = solve_ks(ks_scenario(dt=0.025))
        window = (coarse.t_coords >= 100.0) & (coarse.t_coords <= 110.0)
        assert rel_l2(coarse.values[:, window], fine.values[:, window]) <= 0.01


class TestBlowupDiagnostics:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_antidiffusion_blowup_named(self):
        from vcpde.solvers import SolverBlowupError

        sc = advection_diffusion_scenario(nu=-5.0, n_x=64, n_t=32, t_span=(0.0, 2.0))
        with pytest.raises(SolverBlowupError, match="t="):
            solve_advection_diffusion(sc)


class TestGridRefinement:
    def test_burgers_refinement_converges(self):
        errs = []
        prev = None
        for n in (64, 128, 256):
            f = solve_burgers(burgers_scenario(n_x=n, n_t=65))
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
        sc = ks_scenario()
        truth = true_coefficients(sc, library20, step_coords=np.array([-2.0, 0.0]))
        g = library20.descriptors.index("u_xxxx")
        assert truth.values[0, g] == pytest.approx(-1.25)

    def test_equation_terms_are_the_active_groups(self, library20):
        truth = true_coefficients(advection_diffusion_scenario(), library20)
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

    def test_unknown_family_names_the_choices(self):
        with pytest.raises(ValueError, match="'ad', 'advection-diffusion'"):
            make_scenario("wave")

    def test_scenario_from_metadata_round_trip(self):
        sc = make_scenario("ks", n_x=64, n_t=32, t_span=(0.0, 50.0))
        rebuilt = scenario_from_metadata(sc.metadata())
        assert rebuilt.metadata() == sc.metadata()

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
            burgers_scenario(n_x=4)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            PdeScenario("wave", (-1, 1), (0, 1), 16, 16, {}, {}, lambda x: x, "x", "time")
