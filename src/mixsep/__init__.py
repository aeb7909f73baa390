"""Nonparametric separation of a two-component mixture with a known background.

Given observations from ``F = alpha * Fs + (1 - alpha) * Fb`` with ``Fb``
fully known and ``Fs`` unrestricted, the package estimates the largest
identifiable signal proportion, a finite-sample lower confidence bound for
it, and the signal distribution itself (CDF, concave majorant and
non-increasing density), plus local false discovery rates.  A small
simulation harness and a CLI wrap the estimators.
"""

from .confidence import (
    HomogeneityResult,
    asymptotic_cvm_quantile,
    critical_value,
    homogeneity_test,
    lower_bound,
    simulate_hn_quantile,
)
from .distributions import (
    Beta,
    Binomial,
    Exponential,
    KnownCdf,
    Normal,
    Poisson,
    StudentT,
    Tabulated,
    Uniform,
    load_tabulated_csv,
    parse_distribution,
)
from .identifiability import (
    MixedMixtureSpec,
    MixtureSpec,
    alpha0_auto,
    alpha0_continuous,
    alpha0_discrete,
    alpha0_mixed,
    essinf_density_ratio,
)
from .mixture_core import (
    CriterionCurve,
    NoElbowError,
    SortedSample,
    StepCdf,
    criterion,
    criterion_curve,
    default_cn,
    elbow_estimate,
    elbow_peaks,
    estimate_alpha_cn,
    isotonized_cdf,
)
from .rng import DEFAULT_SEED, stream
from .shape_restricted import (
    PiecewiseLinearConcaveFn,
    isotonic_regression,
    least_concave_majorant,
)
from .signal_recovery import (
    LfdrCurve,
    MonotoneStepDensity,
    SignalEstimate,
    concavify,
    density_estimate,
    estimate_fs,
    lfdr,
    recover_signal,
)
from .sim_harness import (
    MetricsRow,
    MetricsTable,
    ScenarioConfig,
    alpha0_reference,
    bitriangular_sample,
    generate,
    run_replications,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_SEED",
    "stream",
    # shape restricted
    "isotonic_regression",
    "least_concave_majorant",
    "PiecewiseLinearConcaveFn",
    # distributions
    "KnownCdf",
    "Uniform",
    "Normal",
    "StudentT",
    "Beta",
    "Exponential",
    "Poisson",
    "Binomial",
    "Tabulated",
    "load_tabulated_csv",
    "parse_distribution",
    # mixture core
    "SortedSample",
    "StepCdf",
    "CriterionCurve",
    "NoElbowError",
    "isotonized_cdf",
    "criterion",
    "criterion_curve",
    "default_cn",
    "estimate_alpha_cn",
    "elbow_peaks",
    "elbow_estimate",
    # confidence
    "HomogeneityResult",
    "critical_value",
    "simulate_hn_quantile",
    "asymptotic_cvm_quantile",
    "lower_bound",
    "homogeneity_test",
    # signal recovery
    "MonotoneStepDensity",
    "LfdrCurve",
    "SignalEstimate",
    "estimate_fs",
    "concavify",
    "density_estimate",
    "lfdr",
    "recover_signal",
    # identifiability
    "MixtureSpec",
    "MixedMixtureSpec",
    "essinf_density_ratio",
    "alpha0_discrete",
    "alpha0_continuous",
    "alpha0_mixed",
    "alpha0_auto",
    # simulation harness
    "ScenarioConfig",
    "MetricsRow",
    "MetricsTable",
    "bitriangular_sample",
    "generate",
    "alpha0_reference",
    "run_replications",
]
