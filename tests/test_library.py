from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcpde.differentiation import DerivativeStack
from vcpde.library import (
    CHUNK_STEPS,
    CoefficientTrajectories,
    GroupedLinearSystem,
    LibrarySpec,
    Term,
    ZeroColumnError,
    assemble_grouped_system,
    evaluate_terms,
    normalize_columns,
)

from helpers import dense, lstsq_trajectories, subsystem


def analytic_stack(u_fn, ut_fn, derivs, x, t):
    """Build a stack directly from closed-form fields (bypasses differentiation)."""
    xx, tt = np.meshgrid(x, t, indexing="ij")
    return DerivativeStack(
        u=u_fn(xx, tt),
        u_t=ut_fn(xx, tt),
        space={q: fn(xx, tt) for q, fn in derivs.items()},
        x_coords=x,
        t_coords=t,
        valid_x=(0, x.size),
        valid_t=(0, t.size),
    )


class TestLibrarySpec:
    def test_standard_twenty_terms(self):
        lib = LibrarySpec.standard(max_poly_power=3, max_deriv_order=4)
        assert len(lib.terms) == 20
        assert lib.descriptors[:4] == ("1", "u", "u^2", "u^3")
        assert "u^3*u_xxxx" in lib.descriptors

    def test_count_formula(self):
        for p, q in ((1, 1), (2, 3)):
            lib = LibrarySpec.standard(p, q)
            assert len(lib.terms) == (p + 1) * (q + 1)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            LibrarySpec((Term(((0, 1),)), Term(((0, 1),))))

    def test_descriptor_format(self):
        assert Term(((0, 2), (3, 1))).descriptor == "u^2*u_xxx"
        assert Term().descriptor == "1"


class TestEvaluateTerms:
    def test_constant_field_columns(self):
        x = np.linspace(0, 1, 8)
        t = np.linspace(0, 1, 6)
        c = 1.5
        stack = analytic_stack(
            lambda xx, tt: np.full_like(xx, c),
            lambda xx, tt: np.zeros_like(xx),
            {1: lambda xx, tt: np.zeros_like(xx)},
            x, t,
        )
        lib = LibrarySpec.standard(max_poly_power=2, max_deriv_order=1)
        values = evaluate_terms(stack, lib, "space")
        cols = dict(zip(lib.descriptors, np.moveaxis(values, 2, 0)))
        np.testing.assert_allclose(cols["u^2"], c**2)
        np.testing.assert_allclose(cols["u_x"], 0.0)
        np.testing.assert_allclose(cols["1"], 1.0)

    def test_unavailable_derivative_rejected(self):
        x = np.linspace(0, 1, 8)
        stack = analytic_stack(lambda xx, tt: xx, lambda xx, tt: xx,
                               {1: lambda xx, tt: np.ones_like(xx)}, x, x)
        with pytest.raises(ValueError, match="u_xx"):
            evaluate_terms(stack, LibrarySpec.standard(1, 2), "time")
        with pytest.raises(ValueError, match="varying_axis"):
            evaluate_terms(stack, LibrarySpec.standard(1, 1), "both")


def manufactured_exponential_terms(n_x=24, n_t=12):
    """Field with u_t = 2 u exactly: u = exp(2 t) * (2 + sin x).  Its time-varying blocks
    (`evaluate_terms`), its u_t, its t and the library."""
    x = np.linspace(-3.0, 3.0, n_x)
    t = np.linspace(0.0, 0.5, n_t)
    lib = LibrarySpec.standard(max_poly_power=2, max_deriv_order=1)
    stack = analytic_stack(
        lambda xx, tt: np.exp(2 * tt) * (2.0 + np.sin(xx)),
        lambda xx, tt: 2.0 * np.exp(2 * tt) * (2.0 + np.sin(xx)),
        {1: lambda xx, tt: np.exp(2 * tt) * np.cos(xx)},
        x, t,
    )
    return evaluate_terms(stack, lib, "time"), stack.u_t, t, lib


def manufactured_exponential_system(n_x=24, n_t=12):
    """The manufactured field's grouped system, as the pipeline assembles it, and its library."""
    blocks, u_t, t, lib = manufactured_exponential_terms(n_x, n_t)
    return assemble_grouped_system(blocks, u_t, "time", t, lib.descriptors), lib


class TestAssembly:
    def test_manufactured_least_squares_oracle(self):
        blocks, u_t, _, lib = manufactured_exponential_terms()
        beta = np.array([np.linalg.lstsq(block, y, rcond=None)[0]
                         for block, y in zip(blocks, u_t.T)])
        g_u = lib.descriptors.index("u")
        np.testing.assert_allclose(beta[:, g_u], 2.0, atol=1e-8)
        others = [g for g in range(len(lib.terms)) if g != g_u]
        assert np.abs(beta[:, others]).max() < 1e-8

    def test_varying_axis_transposition(self):
        x = np.linspace(0, 1, 6)
        t = np.linspace(0, 1, 4)
        stack = analytic_stack(lambda xx, tt: 1.0 + xx + 10.0 * tt, lambda xx, tt: xx * tt,
                               {1: lambda xx, tt: np.ones_like(xx)}, x, t)
        lib = LibrarySpec((Term(((0, 1),)), Term(((0, 2),))))
        time_blocks = evaluate_terms(stack, lib, "time")
        space_blocks = evaluate_terms(stack, lib, "space")
        assert time_blocks.shape == (4, 6, 2) and time_blocks.flags.c_contiguous
        assert space_blocks.shape == (6, 4, 2) and space_blocks.flags.c_contiguous
        np.testing.assert_array_equal(time_blocks[:, :, 1], stack.u.T**2)
        np.testing.assert_array_equal(space_blocks[:, :, 1], stack.u**2)
        time_sys = assemble_grouped_system(time_blocks, stack.u_t, "time", t, lib.descriptors)
        space_sys = assemble_grouped_system(space_blocks, stack.u_t, "space", x, lib.descriptors)
        np.testing.assert_array_equal(time_sys.target, stack.u_t.T)
        np.testing.assert_array_equal(space_sys.target, stack.u_t)
        np.testing.assert_allclose(time_sys.scales[:, 0], np.linalg.norm(stack.u, axis=0),
                                   rtol=1e-14)
        np.testing.assert_allclose(space_sys.scales[:, 0], np.linalg.norm(stack.u, axis=1),
                                   rtol=1e-14)

    def test_assembly_normalizes_the_blocks_it_is_given_in_place(self):
        # normalize_columns divides a copy and leaves the caller's blocks as they were
        blocks, u_t, t, lib = manufactured_exponential_terms()
        raw = blocks.copy()
        expected = normalize_columns(blocks, u_t.T, lib.descriptors, "time", t)
        assert expected.blocks is not blocks
        assert blocks.tobytes() == raw.tobytes()
        assembled = assemble_grouped_system(blocks, u_t, "time", t, lib.descriptors)
        assert assembled.blocks is blocks
        for name in ("blocks", "target", "scales"):
            assert getattr(assembled, name).tobytes() == getattr(expected, name).tobytes()

    def test_single_step_degenerate(self):
        blocks = np.ones((1, 5, 3))
        u_t = np.ones((5, 1))
        system = assemble_grouped_system(blocks, u_t, "time", np.array([0.0]), ("a", "b", "c"))
        assert system.n_steps == 1 and system.n_groups == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_grouped_system(np.ones((4, 3, 2)), np.ones((3, 3)), "time",
                                    np.arange(3.0), ("a", "b"))
        # the shapes are checked before a zero column is looked up
        with pytest.raises(ValueError, match="descriptor count"):
            normalize_columns(np.zeros((3, 4, 2)), np.ones((3, 4)), ("a",), "time", np.arange(3.0))

    def test_burgers_system_dimensions(self, burgers_system):
        # 256^2 grid, FD valid-region trims: space 2/side, time 1/side
        assert burgers_system.n_groups == 20
        assert burgers_system.n_steps == 254
        assert burgers_system.n_rows == 252
        assert len(burgers_system.descriptors) == 20
        # every group collects exactly one column per step
        assert burgers_system.scales.shape == (254, 20)


class TestNormalization:
    def test_unit_columns(self):
        system, _ = manufactured_exponential_system()
        norms = np.sqrt(np.einsum("mng,mng->mg", system.blocks, system.blocks))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_constant_column_scale(self):
        system, lib = manufactured_exponential_system()
        g = lib.descriptors.index("1")
        np.testing.assert_allclose(system.scales[:, g], np.sqrt(system.n_rows))

    def test_round_trip_denormalization(self):
        system, lib = manufactured_exponential_system()
        beta_norm = lstsq_trajectories(system)
        beta_phys = beta_norm / system.scales
        g_u = lib.descriptors.index("u")
        np.testing.assert_allclose(beta_phys[:, g_u], 2.0, atol=1e-8)

    def test_zero_column_named(self):
        blocks = np.ones((3, 4, 2))
        blocks[1, :, 1] = 0.0
        with pytest.raises(ZeroColumnError, match="'b' has a zero column at step 1"):
            assemble_grouped_system(blocks, np.ones((3, 4)), "space", np.arange(3.0), ("a", "b"))
        with pytest.raises(ZeroColumnError, match="'b' has a zero column at step 1"):
            normalize_columns(blocks, np.ones((3, 4)), ("a", "b"), "space", np.arange(3.0))

    def test_system_without_scales_cannot_be_built(self):
        with pytest.raises(TypeError, match="scales"):
            GroupedLinearSystem(np.ones((1, 4, 2)), np.ones((1, 4)), ("a", "b"), "time",
                                np.zeros(1))


class TestBlockStructure:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matvec_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        m, n, g = 3, 5, 4
        blocks = rng.standard_normal((m, n, g))
        system = normalize_columns(blocks, rng.standard_normal((m, n)), tuple("abcd"), "time",
                                   np.arange(float(m)))
        beta = rng.standard_normal((m, g))
        expected = dense(system) @ beta.reshape(-1)
        np.testing.assert_allclose(system.matvec(beta).reshape(-1), expected, atol=1e-10)

    def test_subsystem_group_bookkeeping(self):
        # the tests' subsystem oracle holds exactly the kept groups
        system, lib = manufactured_exponential_system()
        keep = np.array([1, 3])
        sub = subsystem(system, keep)
        assert sub.descriptors == (lib.descriptors[1], lib.descriptors[3])
        np.testing.assert_array_equal(sub.blocks, system.blocks[:, :, keep])
        np.testing.assert_array_equal(sub.scales, system.scales[:, keep])


class TestGramCache:
    """The Gram and Theta^T y each system computes once, and the slices `group_products` takes."""

    @staticmethod
    def products_of_own_blocks(system):
        blocks = system.blocks
        return (np.einsum("mng,mnh->mgh", blocks, blocks),
                np.einsum("mng,mn->mg", blocks, system.target))

    @pytest.mark.parametrize("source", ["burgers", "one_step_last_chunk"])
    def test_subsystem_products_bitwise_equal_its_own(self, burgers_system, source):
        # a slice of the system's products equals the subsystem's own, computed from its
        # indexed blocks both as the package does and by one plain einsum, for every support
        rng = np.random.default_rng(0)
        system = burgers_system
        if source == "one_step_last_chunk":
            m = CHUNK_STEPS + 1
            system = normalize_columns(rng.standard_normal((m, 30, 20)),
                                       rng.standard_normal((m, 30)),
                                       tuple(f"g{i}" for i in range(20)), "time",
                                       np.arange(float(m)))
        supports = [np.arange(20), np.array([7])]
        supports += [np.sort(rng.choice(20, size=rng.integers(1, 20), replace=False))
                     for _ in range(30)]
        for support in supports:
            for parent, groups in ((system, support), (subsystem(system, support),
                                                       np.arange(0, support.size, 2))):
                gram, cty = parent.group_products(groups)
                sub = subsystem(parent, groups)
                for own_gram, own_cty in ((sub.gram(), sub.design_target()),
                                          self.products_of_own_blocks(sub)):
                    assert gram.tobytes() == own_gram.tobytes()
                    assert cty.tobytes() == own_cty.tobytes()

    def test_products_close_to_step_major_sums(self, burgers_system):
        gram, cty = self.products_of_own_blocks(burgers_system)
        np.testing.assert_allclose(burgers_system.gram(), gram, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(burgers_system.design_target(), cty, rtol=1e-12, atol=1e-14)

    def test_products_are_computed_once_and_read_only(self, burgers_system):
        sub = subsystem(burgers_system, [0, 3])
        assert sub.gram() is sub.gram()
        assert sub.gram_eigh() is sub.gram_eigh()
        for array in (sub.gram(), sub.design_target(), burgers_system.gram(), *sub.gram_eigh()):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_eigendecomposition_is_the_systems_own(self, burgers_system):
        # every system decomposes its own Gram
        eigvals, eigvecs = burgers_system.gram_eigh()
        for array, expected in zip((eigvals, eigvecs), np.linalg.eigh(burgers_system.gram())):
            assert array.tobytes() == expected.tobytes()
        sub = subsystem(burgers_system, [0, 3])
        assert sub.gram_eigh()[0].shape == (burgers_system.n_steps, 2)
        assert replace(burgers_system).gram_eigh()[1] is not eigvecs

    def test_derived_systems_start_without_cache(self):
        system, _ = manufactured_exponential_system()
        system_gram, system_cty = system.gram(), system.design_target()
        rescaled = replace(system, blocks=2.0 * system.blocks)
        gram, cty = self.products_of_own_blocks(rescaled)
        np.testing.assert_allclose(rescaled.gram(), gram, rtol=1e-12)
        np.testing.assert_allclose(rescaled.design_target(), cty, rtol=1e-12)
        assert not np.allclose(rescaled.gram(), system_gram)
        retargeted = replace(system, target=2.0 * system.target)
        np.testing.assert_allclose(retargeted.design_target(), 2.0 * system_cty, rtol=1e-12)
        np.testing.assert_array_equal(retargeted.gram(), system_gram)


class TestExactRecoveryInvariant:
    def test_burgers_least_squares_within_discretization_error(self, burgers_dataset,
                                                               burgers_scenario_full):
        # per-step OLS on clean 256^2 data recovers the trajectories to ~discretization error
        from vcpde.differentiation import build_derivative_stack
        from vcpde.solvers import true_coefficients

        lib = LibrarySpec.standard(max_poly_power=2, max_deriv_order=2)
        stack = build_derivative_stack(burgers_dataset.field, max_space_order=2)
        system = assemble_grouped_system(evaluate_terms(stack, lib, "time"), stack.u_t, "time",
                                         stack.t_coords, lib.descriptors)
        truth = true_coefficients(burgers_scenario_full, lib, step_coords=system.step_coords)
        beta = lstsq_trajectories(system) / system.scales
        for name in ("u*u_x", "u_xx"):
            g = lib.descriptors.index(name)
            err = np.linalg.norm(beta[:, g] - truth.values[:, g]) / np.linalg.norm(truth.values[:, g])
            assert err <= 1e-2, f"{name}: {err}"

    def test_full_library_collinearity_stays_moderate(self, burgers_system, burgers_scenario_full,
                                                      library20):
        # the 20-term library is mildly collinear; recovery degrades but stays close
        from vcpde.solvers import true_coefficients

        truth = true_coefficients(burgers_scenario_full, library20,
                                  step_coords=burgers_system.step_coords)
        beta = lstsq_trajectories(burgers_system) / burgers_system.scales
        for name in ("u*u_x", "u_xx"):
            g = library20.descriptors.index(name)
            err = np.linalg.norm(beta[:, g] - truth.values[:, g]) / np.linalg.norm(truth.values[:, g])
            assert err <= 2e-2, f"{name}: {err}"


class TestCoefficientTrajectories:
    def test_excluded_groups_must_be_zero(self):
        values = np.ones((3, 2))
        with pytest.raises(ValueError):
            CoefficientTrajectories(values, np.array([True, False]), ("a", "b"),
                                    np.arange(3.0), "time")

    def test_selected_and_group_access(self):
        values = np.zeros((3, 2))
        values[:, 0] = 2.0
        traj = CoefficientTrajectories(values, np.array([True, False]), ("a", "b"),
                                       np.arange(3.0), "time")
        assert traj.selected == ("a",)
        np.testing.assert_array_equal(traj.group("a"), 2.0 * np.ones(3))
