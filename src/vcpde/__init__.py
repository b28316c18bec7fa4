"""Discovery of PDEs with time- or space-varying coefficients from gridded data."""

from .baselines import GroupLassoConfig, SgtrConfig, group_lasso, sgtr
from .criteria import (
    aic_loss,
    coefficient_mse,
    group_error_bar,
    rms_criterion,
    total_error_bar,
)
from .differentiation import DerivativeStack, build_derivative_stack
from .fields import SpatioTemporalField
from .filters import FilterSpec, apply_filter, data_mse, filter_sweep
from .gibbs import BglssConfig, PosteriorEnsemble, sample_posterior
from .library import (
    CoefficientTrajectories,
    GroupedLinearSystem,
    LibrarySpec,
    Term,
    assemble_grouped_system,
    evaluate_terms,
    normalize_columns,
)
from .pipeline import (
    Dataset,
    DifferentiationSpec,
    build_system,
    discover,
    filter_dataset,
    noisy_dataset,
    simulate_dataset,
)
from .selection import SweepFailedError, fit, sweep
from .solvers import (
    PdeScenario,
    add_noise,
    make_scenario,
    solve,
    true_coefficients,
)
from .tbglss import DiscoveryReport, TbglssConfig, ThresholdSpec, run_tbglss
from .uncertainty import BootstrapCI, bootstrap_median_ci

__version__ = "0.1.0"
