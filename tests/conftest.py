import numpy as np
import pytest

from vcpde.library import LibrarySpec, normalize_columns
from vcpde.pipeline import build_system, noisy_dataset, simulate_dataset
from vcpde.solvers import make_scenario

# One clean solve per scenario; a noisy dataset is `noisy_dataset(clean, level, seed)` of it.


@pytest.fixture(scope="session")
def burgers_scenario_full():
    return make_scenario("burgers")


@pytest.fixture(scope="session")
def burgers_clean(burgers_scenario_full):
    return simulate_dataset(burgers_scenario_full)


@pytest.fixture(scope="session")
def burgers_field(burgers_clean):
    return burgers_clean.field


@pytest.fixture(scope="session")
def burgers_dataset(burgers_clean):
    return noisy_dataset(burgers_clean, 0.0, seed=1)


@pytest.fixture(scope="session")
def small_burgers_clean():
    return simulate_dataset(make_scenario("burgers", n_x=64, n_t=48, t_span=(0.0, 4.0)))


@pytest.fixture(scope="session")
def small_build_datasets(small_burgers_clean):
    """Small datasets that take each branch of `build_system`: time-varying Burgers on finite
    differences, space-varying AD at 1% noise (the Savitzky-Golay prefilter tier) and KS with
    `retain_t_from`."""
    ad = simulate_dataset(make_scenario("ad", n_x=64, n_t=48))
    ks = make_scenario("ks", n_x=64, n_t=64, t_span=(0.0, 40.0), retain_t_from=20.0)
    return {"burgers": small_burgers_clean, "ad_prefiltered": noisy_dataset(ad, 0.01, seed=2),
            "ks_retained": simulate_dataset(ks)}


@pytest.fixture(scope="session")
def ad_scenario():
    return make_scenario("ad")


@pytest.fixture(scope="session")
def ad_clean(ad_scenario):
    return simulate_dataset(ad_scenario)


@pytest.fixture(scope="session")
def ks_clean():
    return simulate_dataset(make_scenario("ks"))


@pytest.fixture(scope="session")
def burgers_system(burgers_dataset):
    return build_system(burgers_dataset)


@pytest.fixture(scope="session")
def library20():
    return LibrarySpec.standard()


def random_grouped_system(rng, n_steps=4, n_rows=10, n_groups=5):
    """A small random block-diagonal system with a random sparse truth, column-normalized."""
    blocks = rng.standard_normal((n_steps, n_rows, n_groups))
    beta_true = np.zeros((n_steps, n_groups))
    active = rng.choice(n_groups, size=2, replace=False)
    beta_true[:, active] = rng.standard_normal((n_steps, active.size)) + 2.0
    target = np.einsum("mng,mg->mn", blocks, beta_true)
    target += 0.01 * rng.standard_normal(target.shape)
    system = normalize_columns(blocks, target, tuple(f"g{i}" for i in range(n_groups)), "time",
                               np.arange(n_steps, dtype=float))
    return system, beta_true, active
