"""End-to-end acceptance checks for the whole package.

Each test exercises one externally checkable property of the estimators at
desk scale, asserts it with a pinned tolerance, and enforces a wall-clock
budget.  These are deliberately slower and chunkier than the unit tests;
run them with ``pytest tests/test_acceptance.py -v`` to get one verdict
line per criterion.
"""

import time

import numpy as np

from mixsep import (
    Beta,
    Binomial,
    Exponential,
    MixtureSpec,
    Normal,
    Poisson,
    SortedSample,
    Uniform,
    alpha0_continuous,
    alpha0_discrete,
    criterion_curve,
    default_cn,
    estimate_alpha_cn,
    homogeneity_test,
    isotonic_regression,
    lower_bound,
    recover_signal,
    simulate_hn_quantile,
    stream,
)
from mixsep.sim_harness import ScenarioConfig, run_replications, scenario_b_alpha0_factor

_UNIF = Uniform()
_SIG = Beta(1.0, 10.0)


def _mixture(n, alpha, rng):
    """Setting-II draw: Bernoulli(alpha) mix of Beta(1,10) and Uniform."""
    mask = rng.random(n) < alpha
    return np.where(mask, _SIG.sample(n, rng), _UNIF.sample(n, rng))


def _report(label, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"{label}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def _maxmin_isotonic(y, w):
    """Weighted isotonic fit from the max-min formula, via prefix sums.

    ``iso[i] = max over s <= i of (min over t >= i of mean(y[s..t]))``.
    Quadratic in memory and time; shares no code with the pooling
    implementation under test.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n = y.size
    cw = np.concatenate(([0.0], np.cumsum(w)))
    cyw = np.concatenate(([0.0], np.cumsum(y * w)))
    s = np.arange(n)[:, None]
    t = np.arange(n)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        means = (cyw[t + 1] - cyw[s]) / (cw[t + 1] - cw[s])
    means = np.where(s <= t, means, np.inf)
    suffix_min = np.minimum.accumulate(means[:, ::-1], axis=1)[:, ::-1]
    return np.diag(np.maximum.accumulate(suffix_min, axis=0))


def test_criterion_01_isotonic_matches_maxmin_oracle():
    t0 = time.perf_counter()
    for k in range(1000):
        r = stream(1729, 62, k)
        n = int(r.integers(1, 51))
        y = r.normal(size=n)
        w = r.random(n) + 0.05
        gap = np.max(np.abs(isotonic_regression(y, w) - _maxmin_isotonic(y, w)))
        assert gap <= 1e-12
    _report("criterion 01 (isotonic vs max-min oracle, 1000 vectors)", t0, 5.0)


def test_criterion_02_criterion_curves_monotone_and_convex():
    t0 = time.perf_counter()
    for k in range(100):
        r = stream(1729, 63, k)
        alpha = 0.5 * r.random()
        sample = SortedSample.from_data(_mixture(500, alpha, r))
        curve = criterion_curve(sample, _UNIF, grid_size=200)
        assert np.all(np.diff(curve.values) <= 1e-10)
        assert np.all(np.diff(curve.values, 2) >= -1e-10)
    _report("criterion 02 (100 curves non-increasing, convex)", t0, 30.0)


def test_criterion_03_invariance_under_quantile_transform():
    t0 = time.perf_counter()
    r = stream(1729, 64)
    x = _mixture(2000, 0.15, r)
    norm = Normal(0.0, 1.0)
    on_unit = SortedSample.from_data(x)
    on_real = SortedSample.from_data(norm.quantile(x))
    c_unit = criterion_curve(on_unit, _UNIF, grid_size=200)
    c_real = criterion_curve(on_real, norm, grid_size=200)
    assert np.max(np.abs(c_unit.values - c_real.values)) <= 1e-12
    cn = default_cn(2000)
    assert estimate_alpha_cn(on_unit, _UNIF, cn) == estimate_alpha_cn(on_real, norm, cn)
    _report("criterion 03 (probit reparametrisation leaves curve and alpha fixed)", t0, 10.0)


def test_criterion_04_simulated_null_quantile_in_window():
    t0 = time.perf_counter()
    q = simulate_hn_quantile(1000, 0.05, b=10_000)
    assert 0.6492 <= q <= 0.7092
    _report(f"criterion 04 (H_1000 95% quantile {q:.4f} in [0.6492, 0.7092])", t0, 60.0)


def test_criterion_05_lower_bound_zero_on_pure_background():
    t0 = time.perf_counter()
    zeros = 0
    for seed in range(1000):
        r = stream(1729, 51, seed)
        sample = SortedSample.from_data(r.random(1000))
        zeros += lower_bound(sample, _UNIF, beta=0.05) == 0.0
    rate = zeros / 1000.0
    assert 0.93 <= rate <= 0.97
    _report(f"criterion 05 (null zero-rate {rate:.3f} in [0.93, 0.97])", t0, 120.0)


def test_criterion_06_lower_bound_coverage_under_signal():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        scenario="setting_ii",
        n=1000,
        alpha=0.05,
        replications=500,
        base_seed=1729,
        estimators=("lower_bound",),
        beta=0.05,
    )
    table = run_replications(cfg)
    coverage = table.rows[0].coverage
    assert coverage is not None and coverage >= 0.93
    _report(f"criterion 06 (lower-bound coverage {coverage:.3f} >= 0.93)", t0, 180.0)


def test_criterion_07_scenario_a_recovers_known_proportion():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        scenario="A",
        n=5000,
        alpha=0.10,
        replications=200,
        base_seed=1729,
        j=10,
        estimators=("cn:0.1", "elbow"),
    )
    table = run_replications(cfg)
    by_name = {row.estimator: row for row in table.rows}
    mean_cn = by_name["cn:0.1"].mean
    mean_elbow = by_name["elbow"].mean
    assert abs(mean_cn - 0.093) <= 0.015
    assert abs(mean_elbow - 0.093) <= 0.02
    _report(
        f"criterion 07 (scenario A means cn={mean_cn:.4f}, elbow={mean_elbow:.4f} near 0.093)",
        t0,
        600.0,
    )


def test_criterion_08_moving_average_identifiable_fraction():
    t0 = time.perf_counter()
    factor = scenario_b_alpha0_factor(1.0)
    assert 0.64 <= factor <= 0.70
    _report(f"criterion 08 (scenario B alpha0/alpha = {factor:.4f} in [0.64, 0.70])", t0, 10.0)


def test_criterion_09_closed_forms_match_numeric_essinf():
    t0 = time.perf_counter()
    combos = [
        MixtureSpec(0.3, Poisson(2.0), Poisson(1.0)),
        MixtureSpec(0.3, Poisson(1.0), Poisson(2.0)),
        MixtureSpec(0.5, Poisson(4.0), Poisson(4.0)),
        MixtureSpec(0.7, Poisson(0.5), Poisson(3.0)),
        MixtureSpec(0.2, Poisson(6.0), Poisson(2.5)),
        MixtureSpec(1.0, Binomial(2, 0.6), Binomial(2, 0.4)),
        MixtureSpec(0.4, Binomial(5, 0.3), Binomial(5, 0.7)),
        MixtureSpec(0.6, Binomial(8, 0.5), Binomial(8, 0.5)),
        MixtureSpec(0.3, Binomial(10, 0.8), Binomial(10, 0.6)),
        MixtureSpec(0.5, Binomial(3, 0.25), Binomial(3, 0.5)),
        MixtureSpec(0.25, Normal(2.0, 1.0), Normal(0.0, 1.0)),
        MixtureSpec(0.25, Normal(1.0, 2.0), Normal(0.0, 1.0)),
        MixtureSpec(0.4, Normal(-1.0, 1.5), Normal(0.5, 1.0)),
        MixtureSpec(0.5, Normal(0.0, 3.0), Normal(0.0, 1.0)),
        MixtureSpec(0.35, Normal(2.0, 0.5), Normal(0.0, 1.0)),
        MixtureSpec(0.3, Exponential(loc=1.0, scale=1.0), Exponential(loc=0.0, scale=1.0)),
        MixtureSpec(0.3, Exponential(loc=0.0, scale=0.5), Exponential(loc=0.0, scale=1.0)),
        MixtureSpec(0.3, Exponential(loc=0.0, scale=2.0), Exponential(loc=0.5, scale=1.0)),
        MixtureSpec(0.45, Exponential(loc=0.2, scale=1.5), Exponential(loc=0.6, scale=1.0)),
        MixtureSpec(0.2, Exponential(loc=0.0, scale=3.0), Exponential(loc=0.0, scale=1.0)),
    ]
    worst = 0.0
    for spec in combos:
        if spec.signal.is_discrete:
            closed = alpha0_discrete(spec)
            numeric = alpha0_discrete(spec, closed_form=False)
        else:
            closed = alpha0_continuous(spec)
            numeric = alpha0_continuous(spec, closed_form=False)
        worst = max(worst, abs(closed - numeric))
    assert worst <= 1e-3
    _report(f"criterion 09 (20 combos, worst closed-vs-numeric gap {worst:.1e})", t0, 30.0)


def test_criterion_10_signal_recovery_at_known_proportion():
    t0 = time.perf_counter()
    n, alpha0, seeds = 5000, 0.3, 50
    target_density = 10.0 * 0.9**9  # Beta(1,10) density at x = 0.1
    dense = np.linspace(0.0, 1.0, 2001)
    good = 0
    for seed in range(seeds):
        r = stream(1729, 41, seed)
        sample = SortedSample.from_data(_mixture(n, alpha0, r))
        est = recover_signal(sample, _UNIF, alpha0)
        xs = np.union1d(est.fs_concave.knots, dense)
        sup_err = np.max(np.abs(est.fs_concave.evaluate(xs) - _SIG.cdf(xs)))
        sup_err = max(sup_err, abs(est.fs_concave.values[-1] - 1.0))
        dens_at = est.density.evaluate(np.array([0.1]))[0]
        cdf_ok = sup_err < 0.05
        dens_ok = abs(dens_at - target_density) <= 0.2 * target_density
        good += cdf_ok and dens_ok
    assert good >= int(0.8 * seeds)
    _report(f"criterion 10 (signal recovery good on {good}/{seeds} seeds)", t0, 300.0)


def test_criterion_11_estimation_error_shrinks_with_n():
    t0 = time.perf_counter()
    alpha, seeds = 0.10, 50
    medians = []
    for ni, n in enumerate((1_000, 10_000, 100_000)):
        errs = []
        cn = default_cn(n, tau=0.1)
        for seed in range(seeds):
            r = stream(1729, 42, seed, ni)
            sample = SortedSample.from_data(_mixture(n, alpha, r))
            errs.append(abs(estimate_alpha_cn(sample, _UNIF, cn) - alpha))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]
    _report(
        "criterion 11 (median |alpha_hat - alpha0| "
        + " > ".join(f"{m:.4f}" for m in medians)
        + " across n = 1e3, 1e4, 1e5)",
        t0,
        900.0,
    )


def test_criterion_12_power_against_shrinking_signal():
    t0 = time.perf_counter()
    seeds = 50
    rates = []
    for ni, n in enumerate((1_000, 10_000, 100_000)):
        alpha_n = n ** (-0.3)
        rejections = 0
        for seed in range(seeds):
            r = stream(1729, 43, seed, ni)
            sample = SortedSample.from_data(_mixture(n, alpha_n, r))
            rejections += homogeneity_test(sample, _UNIF, beta=0.05).reject
        rates.append(rejections / seeds)
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 0.9
    _report(
        "criterion 12 (rejection rates "
        + " <= ".join(f"{rate:.2f}" for rate in rates)
        + " under alpha_n = n^-0.3)",
        t0,
        900.0,
    )
