from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal  # the oracle of the bit-for-bit tests only

from vcpde.dataio import save_filter_sweep
from vcpde.fields import GridError, SpatioTemporalField
from vcpde.filters import DEFAULT_GRIDS, FILTER_KINDS, FilterSpec, apply_filter, data_mse, filter_sweep


def field_from(values):
    values = np.asarray(values, dtype=float)
    x = np.arange(values.shape[0], dtype=float)
    t = np.arange(values.shape[1], dtype=float)
    return SpatioTemporalField(values, x, t)


def noisy_sine(seed=0, n=96, amp=0.1):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 4 * np.pi, n)
    clean = np.sin(x)[:, None] * np.cos(np.linspace(0, np.pi, 48))[None, :]
    f = SpatioTemporalField(clean, x, np.linspace(0, 1, 48))
    noisy = f.with_values(clean + amp * rng.standard_normal(clean.shape))
    return noisy, f


class TestFilterSpecValidation:
    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec.of("moving_average", 4)

    def test_tiny_window_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec.of("moving_average", 1)

    def test_polyorder_below_window(self):
        with pytest.raises(ValueError):
            FilterSpec.of("savitzky_golay", 5, polyorder=5)

    def test_cutoff_in_unit_interval(self):
        with pytest.raises(ValueError):
            FilterSpec.of("zero_phase_lowpass", 1.5)

    def test_butterworth_order_at_least_one(self):
        with pytest.raises(ValueError, match="^butterworth_order must be at least 1$"):
            FilterSpec.of("zero_phase_lowpass", 0.2, butterworth_order=0)

    @pytest.mark.parametrize("kind,parameter,fields", [
        ("moving_average", 5, {"window": 5}),
        ("savitzky_golay", 7, {"window": 7, "polyorder": 2}),
        ("zero_phase_lowpass", 0.25, {"cutoff": 0.25, "butterworth_order": 3}),
    ])
    def test_of_sets_only_the_kinds_fields(self, kind, parameter, fields):
        options = {"polyorder", "butterworth_order"}
        used = {name: value for name, value in fields.items() if name in options}
        spec = FilterSpec.of(kind, parameter, axis="space", **used)
        assert spec == FilterSpec(kind, axis="space", **fields)
        assert spec.parameter == parameter
        for option in sorted(options - set(used)):
            with pytest.raises(ValueError, match=f"a {kind} filter does not use {option}"):
                FilterSpec.of(kind, parameter, axis="space", **used, **{option: 2})

    def test_of_defaults_unset_options(self):
        assert FilterSpec.of("savitzky_golay", 7).polyorder == 3
        assert FilterSpec.of("zero_phase_lowpass", 0.25).butterworth_order == 4

    @pytest.mark.parametrize("kind,parameter", [("moving_average", 5), ("savitzky_golay", 7)])
    def test_only_lowpass_carries_an_order(self, kind, parameter):
        spec = FilterSpec.of(kind, parameter)
        assert spec.butterworth_order is None
        assert asdict(spec)["butterworth_order"] is None
        assert asdict(FilterSpec.of("zero_phase_lowpass", 0.25))["butterworth_order"] == 4
        with pytest.raises(ValueError, match=f"a {kind} filter does not use butterworth_order"):
            FilterSpec(kind, window=parameter, polyorder=spec.polyorder, butterworth_order=4)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_fields_rebuild_the_spec(self, kind):
        # a dataset's provenance records asdict(spec), so its fields must rebuild the filter
        spec = FilterSpec.of(kind, DEFAULT_GRIDS[kind][0], axis="space")
        assert FilterSpec(**asdict(spec)) == spec

    def test_constructor_fills_the_kinds_defaults(self):
        assert FilterSpec("zero_phase_lowpass", cutoff=0.25) == FilterSpec.of("zero_phase_lowpass", 0.25)
        assert FilterSpec("savitzky_golay", window=7) == FilterSpec.of("savitzky_golay", 7)
        assert asdict(FilterSpec("moving_average", window=5))["butterworth_order"] is None
        assert FilterSpec("zero_phase_lowpass", cutoff=0.25, butterworth_order=2).butterworth_order == 2

    def test_of_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            FilterSpec.of("median", 5)

    def test_axis_checked(self):
        with pytest.raises(ValueError):
            FilterSpec("moving_average", window=5, axis="diagonal")


class TestApplyFilter:
    def test_moving_average_direct_convolution(self):
        seq = np.array([0.0, 3.0, 0.0, 3.0, 0.0])
        f = field_from(np.tile(seq[:, None], (1, 4)))
        out = apply_filter(f, FilterSpec.of("moving_average", 3, axis="space"))
        np.testing.assert_allclose(out.values[:, 0], [1.0, 2.0, 1.0])
        assert out.n_x == 3  # edges cut
        np.testing.assert_array_equal(out.x_coords, f.x_coords[1:-1])

    @pytest.mark.parametrize("spec", [
        FilterSpec.of("moving_average", 5),
        FilterSpec.of("savitzky_golay", 7, 3),
        FilterSpec.of("zero_phase_lowpass", 0.25),
    ])
    def test_constant_field_unchanged(self, spec):
        f = field_from(np.full((32, 40), 2.5))
        out = apply_filter(f, spec)
        np.testing.assert_allclose(out.values, 2.5, atol=1e-10)

    def test_savitzky_golay_reproduces_polynomial(self):
        t = np.linspace(-1, 1, 41)
        poly = 0.3 - 1.2 * t + 0.7 * t**3
        f = field_from(np.tile(poly[None, :], (8, 1)))
        out = apply_filter(f, FilterSpec.of("savitzky_golay", 9, 3, axis="time"))
        np.testing.assert_allclose(out.values, f.values, atol=1e-8)
        assert out.values.shape == f.values.shape  # shape preserving

    def test_zero_phase_no_shift_on_symmetric_pulse(self):
        # pulse tails hit machine zero before the padded edges, isolating the
        # phase property from edge-transient handling
        n = 257
        x = np.linspace(-8, 8, n)
        pulse = np.exp(-(x**2))
        f = field_from(np.tile(pulse[:, None], (1, 8)))
        out = apply_filter(f, FilterSpec.of("zero_phase_lowpass", 0.3, axis="space"))
        col = out.values[:, 0]
        assert np.abs(col - col[::-1]).max() <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    def test_linearity(self, a, b):
        noisy, clean = noisy_sine()
        combo = noisy.with_values(a * noisy.values + b * clean.values)
        spec = FilterSpec.of("savitzky_golay", 7, 3)
        lhs = apply_filter(combo, spec).values
        rhs = a * apply_filter(noisy, spec).values + b * apply_filter(clean, spec).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_window_longer_than_axis_rejected(self):
        f = field_from(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            apply_filter(f, FilterSpec.of("moving_average", 9, axis="space"))

    def test_lowpass_needs_more_points_than_its_odd_extension(self):
        # order 4 extends each end by 3 * (4 + 1) = 15 points, which needs 16
        spec = FilterSpec.of("zero_phase_lowpass", 0.2, axis="space")
        values = np.random.default_rng(0).standard_normal((16, 3))
        with pytest.raises(ValueError, match="axis length 15 too short for order 4"):
            apply_filter(field_from(values[:15]), spec)
        out = apply_filter(field_from(values), spec)
        assert_same_bits(out.values, signal.filtfilt(*signal.butter(4, 0.2), values, axis=0))


def assert_same_bits(actual, expected, name=""):
    assert actual.shape == expected.shape, name
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64), err_msg=name)


AXES = [(0, "space"), (1, "time")]


class TestScipyBitForBit:
    """Each filter returns what scipy's own returns, bit for bit, at every default grid value."""

    @pytest.fixture(scope="class")
    def field(self):
        # long enough on both axes for the widest default window, 61
        x, t = np.linspace(0, 4 * np.pi, 72), np.linspace(0, 3, 80)
        noise = 0.05 * np.random.default_rng(4).standard_normal((72, 80))
        return field_from(np.sin(x)[:, None] * np.cos(t)[None, :] + noise)

    @pytest.mark.parametrize("ax, axis", AXES)
    @pytest.mark.parametrize("polyorder", [2, 3, 4, 5])
    def test_savitzky_golay(self, field, ax, axis, polyorder):
        for window in (w for w in DEFAULT_GRIDS["savitzky_golay"] if w > polyorder):
            out = apply_filter(field, FilterSpec.of("savitzky_golay", window, polyorder, axis=axis))
            expected = signal.savgol_filter(field.values, window, polyorder, axis=ax)
            assert_same_bits(out.values, expected, f"window {window}")

    @pytest.mark.parametrize("ax, axis", AXES)
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_zero_phase_lowpass(self, field, ax, axis, order):
        for cutoff in DEFAULT_GRIDS["zero_phase_lowpass"]:
            spec = FilterSpec.of("zero_phase_lowpass", cutoff, butterworth_order=order, axis=axis)
            expected = signal.filtfilt(*signal.butter(order, cutoff), field.values, axis=ax)
            assert_same_bits(apply_filter(field, spec).values, expected, f"cutoff {cutoff}")

    def test_lowpass_sweep_matches_each_filter(self, field):
        clean = field.with_values(np.zeros_like(field.values))
        curve = filter_sweep(field, clean, "zero_phase_lowpass", axis="space")
        for point in curve.points:
            spec = FilterSpec.of("zero_phase_lowpass", point.parameter, axis="space")
            assert point.mse == data_mse(apply_filter(field, spec), clean)


class TestDataMse:
    def test_identical_zero(self):
        _, clean = noisy_sine()
        assert data_mse(clean, clean) == 0.0

    def test_uniform_offset(self):
        _, clean = noisy_sine()
        shifted = clean.with_values(clean.values + 0.25)
        assert data_mse(shifted, clean) == pytest.approx(0.0625)

    def test_trimmed_filter_output_aligns(self):
        noisy, clean = noisy_sine()
        smoothed = apply_filter(noisy, FilterSpec.of("moving_average", 5, axis="space"))
        mse = data_mse(smoothed, clean)
        assert 0.0 < mse < 0.1

    def test_disjoint_grids_rejected(self):
        a = field_from(np.zeros((4, 4)))
        b = SpatioTemporalField(np.zeros((4, 4)), np.arange(4.0) + 100.0, np.arange(4.0))
        with pytest.raises(GridError):
            data_mse(a, b)

    def test_misaligned_grids_rejected(self):
        a = field_from(np.zeros((4, 4)))
        b = SpatioTemporalField(np.zeros((4, 4)), np.arange(4.0) + 0.5, np.arange(4.0))
        with pytest.raises(GridError, match="^x grids are not aligned$"):
            data_mse(a, b)


class TestFilterSweep:
    def test_argmin_reported(self):
        noisy, clean = noisy_sine(seed=3)
        curve = filter_sweep(noisy, clean, "moving_average", range(3, 13, 2), axis="space")
        assert curve.argmin in [p.parameter for p in curve.points]
        assert curve.min_mse == min(p.mse for p in curve.points if p.mse is not None)

    def test_u_shape_on_noisy_data(self):
        noisy, clean = noisy_sine(seed=4, amp=0.3)
        curve = filter_sweep(noisy, clean, "moving_average", range(3, 31, 2), axis="space")
        mses = [p.mse for p in curve.points]
        assert mses[0] > curve.min_mse and mses[-1] > curve.min_mse

    def test_per_point_failures_recorded(self):
        noisy, clean = noisy_sine()
        curve = filter_sweep(noisy, clean, "savitzky_golay", [2, 7], axis="space")
        assert curve.points[0].error is not None
        assert curve.points[1].mse is not None

    def test_option_the_kind_ignores_fails_every_point_and_says_why(self):
        noisy, clean = noisy_sine()
        with pytest.raises(ValueError, match="does not use butterworth_order"):
            filter_sweep(noisy, clean, "moving_average", [3, 5], butterworth_order=3)

    @pytest.mark.parametrize("kind", sorted(DEFAULT_GRIDS))
    def test_default_grid(self, kind):
        noisy, clean = noisy_sine()
        curve = filter_sweep(noisy, clean, kind, axis="space")
        assert [p.parameter for p in curve.points] == [float(v) for v in DEFAULT_GRIDS[kind]]

    def test_unknown_kind_rejected(self):
        noisy, clean = noisy_sine()
        with pytest.raises(ValueError, match="kind must be one of"):
            filter_sweep(noisy, clean, "median", [3, 5])

    def test_empty_grid_rejected(self):
        noisy, clean = noisy_sine()
        with pytest.raises(ValueError, match="^filter sweep grid must be nonempty$"):
            filter_sweep(noisy, clean, "moving_average", [])

    def test_csv_export(self, tmp_path):
        noisy, clean = noisy_sine()
        curve = filter_sweep(noisy, clean, "zero_phase_lowpass", [0.1, 0.3], axis="space")
        save_filter_sweep(curve, tmp_path / "c")
        assert (tmp_path / "c.csv").read_text().startswith("parameter,")
