import numpy as np
import pytest

from vcpde.fields import GridError, SpatioTemporalField


def make_field(n_x=16, n_t=12):
    x = np.linspace(-1.0, 1.0, n_x)
    t = np.linspace(0.0, 2.0, n_t)
    return SpatioTemporalField(np.outer(x, t), x, t)


def test_shape_and_spacing():
    f = make_field()
    assert f.n_x == 16 and f.n_t == 12
    assert f.dx == pytest.approx(2.0 / 15)
    assert f.dt == pytest.approx(2.0 / 11)


def test_shape_mismatch_rejected():
    x = np.linspace(0, 1, 8)
    t = np.linspace(0, 1, 9)
    with pytest.raises(GridError):
        SpatioTemporalField(np.zeros((8, 8)), x, t)


def test_nonuniform_axis_rejected():
    x = np.array([0.0, 0.1, 0.3, 0.4])
    with pytest.raises(GridError):
        SpatioTemporalField(np.zeros((4, 4)), x, np.linspace(0, 1, 4))


@pytest.mark.parametrize("x", [np.array([0.0]), np.zeros((2, 2))], ids=["one-point", "2-d"])
def test_axis_of_fewer_than_two_points_or_dimensions_rejected(x):
    with pytest.raises(GridError,
                       match="^x_coords must be one-dimensional with at least two points$"):
        SpatioTemporalField(np.zeros((x.size, 4)), x, np.linspace(0, 1, 4))


def test_decreasing_axis_rejected():
    with pytest.raises(GridError):
        SpatioTemporalField(np.zeros((4, 4)), np.array([0.0, 1.0, 0.5, 2.0]), np.linspace(0, 1, 4))


def test_nonfinite_value_named():
    x = np.linspace(0, 1, 4)
    values = np.zeros((4, 4))
    values[2, 1] = np.inf
    with pytest.raises(GridError, match="non-finite"):
        SpatioTemporalField(values, x, x)


def test_sigma_population_convention():
    f = make_field()
    assert f.sigma() == pytest.approx(float(f.values.std()))
