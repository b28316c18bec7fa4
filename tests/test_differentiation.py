import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage, signal  # the oracle of the bit-for-bit tests only

from vcpde.differentiation import (
    _FD_STENCILS,
    DerivativeStack,
    DifferentiationSpec,
    build_derivative_stack,
    correlate1d,
    polyfit_kernel,
    savgol_coeffs,
)
from vcpde.fields import SpatioTemporalField


def grid_field(fn, n_x=64, n_t=16, x_span=(-3.0, 3.0), t_span=(0.0, 1.0)):
    x = np.linspace(*x_span, n_x)
    t = np.linspace(*t_span, n_t)
    return SpatioTemporalField(fn(x)[:, None] * np.ones(n_t)[None, :], x, t)


def resolved(method: str, **settings) -> DifferentiationSpec:
    """The resolved spec of `method`: its poly-fit settings over POLY_FIT_DEFAULTS."""
    return DifferentiationSpec(method, **settings).resolve(0.0)


FD = resolved("finite_difference")


class TestDifferentiate:
    def test_quadratic_second_derivative_exact(self):
        stack = build_derivative_stack(grid_field(lambda x: x**2), FD, max_space_order=2)
        np.testing.assert_allclose(stack.space[2], 2.0, atol=1e-8)

    def test_constant_any_order(self):
        f = grid_field(lambda x: np.full_like(x, 3.7))
        for method in ("finite_difference", "poly_fit"):
            stack = build_derivative_stack(f, resolved(method))
            for order in (1, 2, 3, 4):
                assert np.abs(stack.space[order]).max() < 1e-10
            assert np.abs(stack.u_t).max() < 1e-10

    @pytest.mark.parametrize("method,kwargs", [
        ("finite_difference", {}),
        ("poly_fit", {"space_width": 9, "space_degree": 5}),
    ])
    def test_sin_fourth_derivative_second_order(self, method, kwargs):
        errs = []
        for n in (65, 129):
            stack = build_derivative_stack(grid_field(np.sin, n_x=n), resolved(method, **kwargs))
            exact = np.sin(stack.x_coords)[:, None]
            errs.append(np.abs(stack.space[4] - exact).max())
        rate = np.log2(errs[0] / errs[1])
        assert rate >= 2.0 - 0.3  # formal order two within tolerance

    def test_valid_region_marked(self):
        f = grid_field(np.sin)
        # the widest kernel sets the trim: 5-point stencils from order 3 on, 3-point below
        for max_order, trim_x in ((2, 1), (4, 2)):
            stack = build_derivative_stack(f, FD, max_space_order=max_order)
            np.testing.assert_array_equal(stack.x_coords, f.x_coords[trim_x:-trim_x])
            np.testing.assert_array_equal(stack.t_coords, f.t_coords[1:-1])
            np.testing.assert_array_equal(stack.u, f.values[trim_x:-trim_x, 1:-1])
            assert all(np.isfinite(a).all() for a in stack.space.values())
        stack = build_derivative_stack(f, resolved("poly_fit", space_width=7, time_width=5))
        np.testing.assert_array_equal(stack.x_coords, f.x_coords[3:-3])
        np.testing.assert_array_equal(stack.t_coords, f.t_coords[2:-2])

    def test_time_derivative(self):
        x = np.linspace(0, 1, 8)
        t = np.linspace(0, 1, 32)
        f = SpatioTemporalField(np.ones(8)[:, None] * t[None, :] ** 2, x, t)
        stack = build_derivative_stack(f, FD, max_space_order=1)
        exact = np.ones(stack.x_coords.size)[:, None] * (2 * stack.t_coords)[None, :]
        np.testing.assert_allclose(stack.u_t, exact, atol=1e-8)

    def test_rejects_high_order_and_bad_windows(self):
        f = grid_field(np.sin)
        for order in (0, 5):
            with pytest.raises(ValueError, match="max_space_order"):
                build_derivative_stack(f, FD, max_space_order=order)
        with pytest.raises(ValueError, match="differentiation method 'spectral' is not in"):
            DifferentiationSpec(method="spectral")
        with pytest.raises(ValueError, match="odd"):
            build_derivative_stack(f, resolved("poly_fit", space_width=8, space_degree=3), 2)
        with pytest.raises(ValueError, match="odd"):
            build_derivative_stack(f, resolved("poly_fit", time_width=4), 2)
        with pytest.raises(ValueError, match="degree must be at least"):
            build_derivative_stack(f, resolved("poly_fit", space_width=7, space_degree=2), 3)
        with pytest.raises(ValueError, match="exceed the degree"):
            build_derivative_stack(f, resolved("poly_fit", space_width=5, space_degree=5), 2)

    def test_a_method_outside_the_list_is_rejected_when_the_spec_is_made(self):
        message = ("differentiation method 'spline' is not in ('auto', 'finite_difference', "
                   "'poly_fit')")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DifferentiationSpec(method="spline")

    @pytest.mark.parametrize("spec", [
        DifferentiationSpec(),
        DifferentiationSpec(space_width=9, space_degree=4, time_width=5, time_degree=3),
        DifferentiationSpec("poly_fit", space_degree=4, time_width=5, time_degree=3),
    ], ids=["auto", "auto-with-widths", "poly-fit-width-unset"])
    def test_an_unresolved_spec_is_rejected(self, spec):
        # the stack picks no tier and fills no width: `resolve` does both
        with pytest.raises(ValueError, match=r"^unresolved DifferentiationSpec\(method="):
            build_derivative_stack(grid_field(np.sin), spec)

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="too small along space"):
            build_derivative_stack(grid_field(np.sin, n_x=8), resolved("poly_fit"), 2)
        with pytest.raises(ValueError, match="too small along time"):
            build_derivative_stack(grid_field(np.sin, n_t=2), FD)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, a, b):
        f = grid_field(np.sin)
        g = grid_field(np.cos)
        combo = f.with_values(a * f.values + b * g.values)
        lhs = build_derivative_stack(combo, FD, max_space_order=2).space[2]
        rhs = (a * build_derivative_stack(f, FD, max_space_order=2).space[2]
               + b * build_derivative_stack(g, FD, max_space_order=2).space[2])
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestPolyfitKernel:
    def test_reproduces_polynomial_derivatives(self):
        h = 0.1
        kern = polyfit_kernel(7, 3, 2, h)
        offsets = (np.arange(7) - 3) * h
        # second derivative of x^3 at the window centre (x=0) is 0; of x^2 is 2
        assert kern @ offsets**3 == pytest.approx(0.0, abs=1e-10)
        assert kern @ offsets**2 == pytest.approx(2.0)


def assert_same_bits(actual, expected, name=""):
    assert actual.shape == expected.shape, name
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64), err_msg=name)


# every kernel the package correlates with: the stencils, poly_fit weights (symmetric,
# antisymmetric and, at small spacings, neither to within machine epsilon), moving averages
# and Savitzky-Golay coefficients
KERNELS = {
    **{f"fd{q}": k for q, k in _FD_STENCILS.items()},
    **{f"polyfit{w}-{d}-{q}-{h}": polyfit_kernel(w, d, q, h)
       for w in range(5, 20, 2) for d in range(5) for q in range(d + 1)
       for h in (1.0, 0.03, 0.0039)},
    **{f"mean{w}": np.full(w, 1.0 / w) for w in range(3, 32, 2)},
    **{f"savgol{w}-{d}": savgol_coeffs(w, d)[::-1] for w in range(5, 63, 2) for d in range(2, 6)},
}


class TestCorrelate1d:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_bit_for_bit_ndimage(self, axis):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((70, 64)) * np.logspace(-3, 4, 70)[:, None]
        for name, kernel in KERNELS.items():
            expected = ndimage.correlate1d(values, kernel, axis=axis, mode="constant")
            assert_same_bits(correlate1d(values, kernel, axis), expected, name)

    def test_zero_padding_and_order(self):
        out = correlate1d(np.array([1.0, 2.0, 4.0]), np.array([1.0, 10.0, 100.0]), 0)
        np.testing.assert_array_equal(out, [210.0, 421.0, 42.0])

    def test_savgol_coeffs_bit_for_bit_scipy(self):
        for w in range(3, 63, 2):
            for d in range(min(6, w)):
                assert_same_bits(savgol_coeffs(w, d), signal.savgol_coeffs(w, d), f"{w}, {d}")


class TestDerivativeStack:
    def test_burgers_stack_shapes(self, burgers_field):
        stack = build_derivative_stack(burgers_field, FD)
        assert set(stack.space) == {1, 2, 3, 4}
        assert stack.u.shape == (252, 254)  # 256 minus FD trims (2 space, 1 time per side)
        np.testing.assert_array_equal(stack.x_coords, burgers_field.x_coords[2:254])
        np.testing.assert_array_equal(stack.t_coords, burgers_field.t_coords[1:255])

    def test_constant_field_all_zero(self):
        f = grid_field(lambda x: np.full_like(x, 2.0), n_x=32)
        stack = build_derivative_stack(f, FD)
        for q in (1, 2, 3, 4):
            assert np.abs(stack.space[q]).max() < 1e-10

    def test_polyfit_width_self_consistency(self):
        # clean smooth data: u_x from width-7 and width-9 quartic windows agree closely
        from dataclasses import replace

        from vcpde.solvers import make_scenario, solve

        smooth = solve(replace(make_scenario("burgers"),
                               true_terms={"u*u_x": lambda t: 0.0, "u_xx": lambda t: 0.1},
                               coefficient_formulas={"mu": "0", "nu": "0.1"}))
        s7 = build_derivative_stack(smooth, resolved("poly_fit", space_width=7, space_degree=4))
        s9 = build_derivative_stack(smooth, resolved("poly_fit", space_width=9, space_degree=4))
        a = s7.space[1][2:-2, :]  # restrict to the common interior
        b = s9.space[1][1:-1, :]
        assert np.linalg.norm(a - b) / np.linalg.norm(b) <= 1e-4

    def test_polyfit_smooths_u_consistently(self):
        # the order-0 window applies to u itself under the poly_fit method
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 64)
        t = np.linspace(0, 1, 32)
        noisy = np.sin(2 * np.pi * x)[:, None] * np.ones(32)[None, :]
        noisy = noisy + 0.1 * rng.standard_normal(noisy.shape)
        f = SpatioTemporalField(noisy, x, t)
        stack = build_derivative_stack(f, resolved("poly_fit"))
        kept = noisy[4:-4, 2:-2]  # the default 9- and 5-point windows trim 4 and 2 points
        np.testing.assert_array_equal(stack.x_coords, x[4:-4])
        np.testing.assert_array_equal(stack.t_coords, t[2:-2])
        assert not np.array_equal(stack.u, kept)
        assert stack.u.std() < kept.std()

    @pytest.mark.parametrize("method", ["finite_difference", "poly_fit"])
    def test_a_retained_window_is_the_full_stack_sliced_bit_for_bit(self, method):
        rng = np.random.default_rng(2)
        x, t = np.linspace(0.0, 1.0, 40), np.linspace(0.0, 2.0, 30)
        values = np.sin(2 * np.pi * x)[:, None] * np.cos(t)[None, :]
        f = SpatioTemporalField(values + 0.01 * rng.standard_normal(values.shape), x, t)
        full = build_derivative_stack(f, resolved(method))
        # before the first sample with derivatives, on a sample, between two, on the last
        for t_from in (t[0], t[12], 0.5 * (t[12] + t[13]), full.t_coords[-1]):
            cut = build_derivative_stack(f, resolved(method), t_from=t_from)
            first = np.flatnonzero(full.t_coords >= t_from)[0]
            assert_same_bits(cut.t_coords, full.t_coords[first:], "t_coords")
            assert_same_bits(cut.x_coords, full.x_coords, "x_coords")
            assert_same_bits(cut.u, full.u[:, first:], "u")
            assert_same_bits(cut.u_t, full.u_t[:, first:], "u_t")
            assert set(cut.space) == set(full.space)
            for q, values in full.space.items():
                assert_same_bits(cut.space[q], values[:, first:], f"d{q}")
        for t_from in (0.5 * (full.t_coords[-1] + t[-1]), t[-1], 3.0):
            message = (f"retain_t_from={t_from!r} keeps no time samples: the data's last time "
                       f"is 2.0 (the last with derivatives {float(full.t_coords[-1])!r})")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build_derivative_stack(f, resolved(method), t_from=t_from)

    def test_derivative_off_the_valid_region_rejected(self):
        x, t = np.arange(4.0), np.arange(3.0)
        with pytest.raises(ValueError, match=r"^d2 shape \(3, 3\) != valid region \(4, 3\)$"):
            DerivativeStack(np.zeros((4, 3)), np.zeros((4, 3)),
                            {1: np.zeros((4, 3)), 2: np.zeros((3, 3))}, x, t)

    def test_degree_must_reach_order(self, burgers_field):
        with pytest.raises(ValueError):
            build_derivative_stack(burgers_field, resolved("poly_fit", space_degree=3))
