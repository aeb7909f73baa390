"""Signal CDF projection, concave majorant, density and local FDR."""
import tracemalloc

import numpy as np
import pytest

import mixsep
from mixsep.distributions import Beta, Normal, Uniform
from mixsep.mixture_core import SortedSample, default_cn, estimate_alpha_cn
from mixsep.rng import stream
from mixsep.shape_restricted import PiecewiseLinearConcaveFn
from mixsep.signal_recovery import (
    MonotoneStepDensity,
    concavify,
    density_estimate,
    estimate_fs,
    lfdr,
    recover_signal,
)

UNIF = Uniform(0.0, 1.0)
SIGNAL = Beta(1, 10)


def beta_uniform_sample(n, alpha, seed):
    rng = stream(seed, 303)
    mask = rng.random(n) < alpha
    return SortedSample.from_data(np.where(mask, SIGNAL.sample(n, rng), rng.random(n)))


def test_estimate_fs_is_a_cdf():
    s = beta_uniform_sample(1500, 0.1, seed=1)
    step = estimate_fs(s, UNIF, 0.1)
    assert np.all(np.diff(step.values) >= -1e-12)
    assert step.values[0] >= 0.0
    assert step.values[-1] <= 1.0


def test_estimate_fs_rejects_zero_alpha():
    s = beta_uniform_sample(100, 0.1, seed=2)
    with pytest.raises(ValueError, match="signal proportion zero"):
        estimate_fs(s, UNIF, 0.0)


def test_concavify_anchors_at_origin():
    step = estimate_fs(beta_uniform_sample(500, 0.2, seed=3), UNIF, 0.2)
    hull = concavify(step)
    assert hull.knots[0] == 0.0
    assert hull.evaluate(0.0) == 0.0
    # the majorant dominates the step function at its jumps
    assert np.all(hull.evaluate(step.jumps) >= step.values - 1e-12)


def test_concavify_rejects_negative_support():
    s = SortedSample.from_data([-1.0, 0.5, 2.0])
    step = estimate_fs(s, Normal(0, 1), 0.5)
    with pytest.raises(ValueError, match="non-negative support"):
        concavify(step)


def test_density_integrates_to_hull_height():
    step = estimate_fs(beta_uniform_sample(800, 0.15, seed=4), UNIF, 0.15)
    hull = concavify(step)
    dens = density_estimate(hull)
    # telescoping: the step density integrates back to the hull's total rise
    assert dens.integral() == pytest.approx(hull.values[-1] - hull.values[0], abs=1e-10)
    assert np.all(np.diff(dens.values) <= 1e-12)
    assert np.all(dens.values >= 0.0)


def test_monotone_step_density_evaluates_left_continuously():
    d = MonotoneStepDensity(knots=np.array([0.0, 1.0, 3.0]),
                            values=np.array([2.0, 0.5]))
    assert d.evaluate(0.5) == 2.0
    assert d.evaluate(1.0) == 2.0   # left continuous at the break
    assert d.evaluate(2.0) == 0.5
    assert d.evaluate(5.0) == 0.0


def step_sup_error(step, truth_cdf):
    """Exact sup |step - truth| for a right-continuous step vs a continuous CDF.

    The supremum sits at a jump (from the right) or just before one (left
    limit), or in the constant tail where the truth runs on to 1.
    """
    truth_at_jumps = truth_cdf(step.jumps)
    left_limits = np.concatenate([[0.0], step.values[:-1]])
    at_jumps = np.abs(step.values - truth_at_jumps).max()
    before_jumps = np.abs(left_limits - truth_at_jumps).max()
    tail = abs(1.0 - step.values[-1])
    return max(at_jumps, before_jumps, tail)


def test_sandwich_inequality_for_concave_truth():
    """The concave majorant cannot be farther from a concave true CDF than
    the raw step estimate is (in the sup norm)."""
    alpha = 0.2
    for seed in range(4):
        s = beta_uniform_sample(2000, alpha, seed=10 + seed)
        step = estimate_fs(s, UNIF, alpha)
        hull = concavify(step)
        step_err = step_sup_error(step, SIGNAL.cdf)
        xs = np.unique(np.concatenate([hull.knots, np.linspace(0.0, hull.knots[-1], 2001)]))
        hull_err = np.abs(hull.evaluate(xs) - SIGNAL.cdf(xs)).max()
        assert hull_err <= step_err + 1e-12


def test_recover_signal_bundles_consistent_pieces():
    s = beta_uniform_sample(1200, 0.1, seed=20)
    est = recover_signal(s, UNIF, 0.1)
    assert est.alpha_used == 0.1
    np.testing.assert_allclose(est.fs_concave.evaluate(est.density.knots[-1]),
                               est.fs_concave.values[-1])


@pytest.mark.parametrize("decimals", [None, 3])
def test_recover_signal_copies_no_row_it_does_not_return(decimals):
    x = beta_uniform_sample(20_000, 0.1, seed=22).values
    s = SortedSample.from_data(x if decimals is None else np.round(x, decimals))
    alpha = estimate_alpha_cn(s, UNIF, default_cn(s.n))
    # A row of the collapsed points, the length of every array recovery
    # makes.  Without ties the kernel has more than 16 384 points, so it
    # allocates its buffers inside the call.
    row = s._kernel.values.size * 8
    tracemalloc.start()
    try:
        est = recover_signal(s, UNIF, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # At most six rows: the kernel's three and its block bounds beside the
    # returned values, or the majorant's anchored copies, gaps, chords and
    # block bounds beside the step values.  Copies of the jumps, of the fit
    # and of the chords' operands took ten.
    assert peak < 7 * row
    # The distinct values are the jumps, shared with the kernel and read-only.
    assert np.shares_memory(est.fs_step.jumps, s._kernel.values)
    assert not est.fs_step.jumps.flags.writeable


def test_recovered_cdf_close_to_truth():
    s = beta_uniform_sample(8000, 0.15, seed=21)
    est = recover_signal(s, UNIF, 0.15)
    xs = np.linspace(0.001, 1.0, 500)
    err = np.abs(est.fs_concave.evaluate(xs) - SIGNAL.cdf(xs)).max()
    assert err < 0.08


# --- local false discovery rate ----------------------------------------------


def lfdr_setup(alpha=0.15, n=3000, seed=30):
    s = beta_uniform_sample(n, alpha, seed=seed)
    est = recover_signal(s, UNIF, alpha)
    return s, est


def test_lfdr_values_lie_in_unit_interval():
    s, est = lfdr_setup()
    pts = s.values[s.values <= 0.1]
    curve = lfdr(pts, est.alpha_used, est.density, UNIF)
    assert np.all(curve.values >= 0.0)
    assert np.all(curve.values <= 1.0)


def test_lfdr_increases_with_p_value():
    # decreasing signal density against a flat background
    s, est = lfdr_setup()
    pts = np.linspace(0.001, 0.3, 100)
    curve = lfdr(pts, est.alpha_used, est.density, UNIF)
    assert np.all(np.diff(curve.values) >= -1e-12)


def test_lfdr_alpha_zero_is_all_background():
    s, est = lfdr_setup()
    curve = lfdr(np.array([0.01, 0.05]), 0.0, est.density, UNIF)
    np.testing.assert_allclose(curve.values, 1.0)


def test_lfdr_rejects_unsorted_points():
    s, est = lfdr_setup()
    with pytest.raises(ValueError):
        lfdr(np.array([0.2, 0.1]), est.alpha_used, est.density, UNIF)


def test_lfdr_low_for_tiny_p_values_under_strong_signal():
    s, est = lfdr_setup(alpha=0.3, n=5000, seed=31)
    curve = lfdr(np.array([0.002]), est.alpha_used, est.density, UNIF)
    # Beta(1,10) density at 0 is 10, so the posterior null odds are low
    assert curve.values[0] < 0.35


_NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: mixsep.StepCdf(jumps=[0.1, 0.2, 0.3], values=[0.2, _NAN, 1.0]),
    lambda: mixsep.StepCdf(jumps=[0.1, _NAN], values=[0.2, 1.0]),
    lambda: mixsep.StepCdf(jumps=[_NAN], values=[0.5]),
    lambda: mixsep.CriterionCurve(gammas=[0.25, 0.5, 0.75], values=[0.3, _NAN, 0.1],
                                  second_differences=[0.0]),
    lambda: mixsep.MonotoneStepDensity(knots=[0.0, _NAN, 1.0], values=[2.0, 1.0]),
    lambda: mixsep.MonotoneStepDensity(knots=[_NAN], values=[]),
    lambda: mixsep.MonotoneStepDensity(knots=[0.0, 0.5, 1.0], values=[_NAN, 1.0]),
    lambda: mixsep.MonotoneStepDensity(knots=[0.0, 0.5, 1.0], values=[2.0, _NAN]),
    lambda: mixsep.LfdrCurve(points=[0.1, _NAN, 0.3], values=[0.2, 0.5, 0.9]),
    lambda: mixsep.LfdrCurve(points=[_NAN], values=[0.5]),
    lambda: mixsep.LfdrCurve(points=[0.1, 0.2, 0.3], values=[0.2, _NAN, 0.9]),
], ids=["step-value", "step-jump", "step-only-jump", "curve-value", "density-knot",
        "density-only-knot", "density-first-value", "density-last-value", "lfdr-point",
        "lfdr-only-point", "lfdr-value"])
def test_result_types_reject_nan(make):
    # Every ordering and range check is written so that a NaN fails it.
    with pytest.raises(ValueError):
        make()
