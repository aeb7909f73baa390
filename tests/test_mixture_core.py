"""Criterion, thresholded estimator and elbow: pinned values and structural laws."""
import math
import pickle
import sys
import threading
import tracemalloc
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression as scipy_isotonic_regression

import mixsep.mixture_core as mixture_core
from mixsep.confidence import critical_value, homogeneity_test, lower_bound
from mixsep.distributions import Beta, Normal, Tabulated, Uniform
from mixsep.mixture_core import (
    CriterionCurve,
    NoElbowError,
    SortedSample,
    criterion,
    criterion_curve,
    default_cn,
    elbow_estimate,
    elbow_peaks,
    estimate_alpha_cn,
    isotonized_cdf,
)
from mixsep.rng import stream
from mixsep.shape_restricted import isotonic_regression
from mixsep.signal_recovery import recover_signal

UNIF = Uniform(0.0, 1.0)


def beta_uniform_sample(n, alpha, seed):
    """Draws from alpha * Beta(1, 10) + (1 - alpha) * Uniform(0, 1)."""
    rng = stream(seed, 2024)
    mask = rng.random(n) < alpha
    x = np.where(mask, Beta(1, 10).sample(n, rng), rng.random(n))
    return SortedSample.from_data(x)


def mixture_cdf(x, alpha):
    return alpha * Beta(1, 10).cdf(x) + (1 - alpha) * UNIF.cdf(x)


def loop_criterion(sample, background, gamma):
    """The criterion computed point by point, one full-length projection of
    the naive vector ``(F_n - (1 - gamma) F_b) / gamma`` per gamma: the
    definition, with no tie collapse and no rescaling."""
    fb = np.asarray(background.cdf(sample.values), dtype=float)
    if gamma == 0.0:
        return math.sqrt(np.mean((sample.ecdf - fb) ** 2))
    naive = (sample.ecdf - (1.0 - gamma) * fb) / gamma
    gap = np.clip(isotonic_regression(naive), 0.0, 1.0) - naive
    return gamma * math.sqrt(np.mean(gap * gap))


def naive_isotonized_cdf(sample, background, gamma):
    """The projected signal CDF from the full-length naive vector: one
    unweighted projection over every point, clipped to [0, 1], read off at
    the last point of each distinct value.  Returns (jumps, values)."""
    fb = np.asarray(background.cdf(sample.values), dtype=float)
    naive = (sample.ecdf - (1.0 - gamma) * fb) / gamma
    fitted = np.clip(isotonic_regression(naive), 0.0, 1.0)
    jumps = np.unique(sample.values)
    last = np.searchsorted(sample.values, jumps, side="right") - 1
    return jumps, fitted[last]


# --- sorted sample ------------------------------------------------------------


def test_ecdf_ties_share_the_upper_value():
    s = SortedSample.from_data([1.0, 2.0, 1.0])
    np.testing.assert_allclose(s.values, [1.0, 1.0, 2.0])
    np.testing.assert_allclose(s.ecdf, [2 / 3, 2 / 3, 1.0])


def test_from_data_sorts_and_rejects_bad_input():
    s = SortedSample.from_data([0.9, 0.1, 0.5])
    np.testing.assert_allclose(s.values, [0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="empty sample"):
        SortedSample.from_data([])
    for bad in ([0.1, np.inf], [np.nan, 0.2]):
        with pytest.raises(ValueError, match="sample values must be finite"):
            SortedSample.from_data(bad)


def test_sorted_sample_rejects_bad_arrays():
    # NaN fails every comparison, so each check must be one that NaN fails.
    cases = [
        ([0.1, 0.2], [0.5], "one-dimensional and equal length"),
        ([], [], "empty sample"),
        ([0.1, np.nan], [0.5, 1.0], "sample values must be finite"),
        ([0.2, 0.1], [0.5, 1.0], "sorted ascending"),
        ([0.1, 0.2], [np.nan, np.nan], "ecdf values"),
        ([0.1, 0.2], [np.nan, 1.0], "ecdf values"),
        ([0.1, 0.2, 0.3], [0.3, np.nan, 1.0], "ecdf values"),
        ([0.1, 0.2], [0.5, np.nan], "ecdf values"),
        ([0.1, 0.2], [0.0, 1.0], "ecdf values"),
        ([0.1, 0.2], [0.5, 1.5], "ecdf values"),
        ([0.1, 0.2, 0.3], [0.5, 0.4, 1.0], "ecdf values"),
    ]
    for values, ecdf, message in cases:
        with pytest.raises(ValueError, match=message):
            SortedSample(values=values, ecdf=ecdf)


def test_sample_keeps_read_only_copies_of_its_arrays():
    x = np.array([0.1, 0.5, 0.9])
    e = np.array([1 / 3, 2 / 3, 1.0])
    s = SortedSample(values=x, ecdf=e)
    assert not s.values.flags.writeable and not s.ecdf.flags.writeable
    assert x.flags.writeable and e.flags.writeable
    assert not np.shares_memory(s.values, x) and not np.shares_memory(s.ecdf, e)
    with pytest.raises(ValueError, match="read-only"):
        s.values[0] = 0.2
    table = _CASES["tabulated"][1]
    assert not table.xs.flags.writeable and not table.values.flags.writeable
    assert _TABLE_XS.flags.writeable


def test_sample_with_a_kernel_copies_and_pickles():
    s = beta_uniform_sample(300, 0.2, seed=6)
    want = estimate_alpha_cn(s, UNIF, default_cn(s.n))
    for copy in (pickle.loads(pickle.dumps(s)), deepcopy(s)):
        assert copy._kernel is None
        np.testing.assert_array_equal(copy.values, s.values)
        np.testing.assert_array_equal(copy.ecdf, s.ecdf)
        assert estimate_alpha_cn(copy, UNIF, default_cn(s.n)) == want


# --- criterion ------------------------------------------------------------------


def test_criterion_vanishes_at_gamma_one():
    s = beta_uniform_sample(500, 0.2, seed=5)
    assert criterion(s, UNIF, 1.0) == 0.0


def test_criterion_at_zero_is_distance_to_background():
    s = beta_uniform_sample(300, 0.15, seed=11)
    want = math.sqrt(np.mean((s.ecdf - UNIF.cdf(s.values)) ** 2))
    assert criterion(s, UNIF, 0.0) == pytest.approx(want, abs=1e-15)


def test_criterion_rejects_out_of_range_gamma():
    s = SortedSample.from_data([0.5])
    for g in (-0.1, 1.1):
        with pytest.raises(ValueError):
            criterion(s, UNIF, g)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.01, max_value=1.0))
def test_criterion_equals_projection_distance(n, seed, gamma):
    """The criterion must equal gamma times the L2 gap between the projected
    CDF (read back off the public step function) and the naive values."""
    s = SortedSample.from_data(stream(seed, 77).random(n))
    naive = (s.ecdf - (1.0 - gamma) * UNIF.cdf(s.values)) / gamma
    step = isotonized_cdf(s, UNIF, gamma)
    gap = step.evaluate(s.values) - naive
    want = gamma * math.sqrt(np.mean(gap ** 2))
    assert criterion(s, UNIF, gamma) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_bounded_by_distance_to_true_mixture(seed):
    """For any gamma >= alpha the scaled projection distance cannot exceed
    the empirical distance to the data-generating mixture CDF."""
    alpha = 0.3
    s = beta_uniform_sample(800, alpha, seed=seed)
    d_truth = math.sqrt(np.mean((s.ecdf - mixture_cdf(s.values, alpha)) ** 2))
    for gamma in (alpha, 0.5, 0.8, 1.0):
        assert criterion(s, UNIF, gamma) <= d_truth + 1e-12


def _continuous(n, seed):
    return SortedSample.from_data(stream(seed, 61).random(n))


def _rounded(n, seed, decimals):
    return SortedSample.from_data(np.round(beta_uniform_sample(n, 0.2, seed).values, decimals))


def _hand_built(n, seed):
    # Values rounded to 2 decimals with the ecdf stepping once per pair of
    # points (n even): a run of tied values is split wherever a pair ends,
    # which SortedSample.from_data never produces.
    values = np.round(np.sort(stream(seed, 62).random(n)), 2)
    ecdf = (2 * (np.arange(n) // 2) + 2) / n
    return SortedSample(values=values, ecdf=ecdf)


_TABLE_XS = np.linspace(-4.0, 4.0, 41)
_CASES = {
    "continuous": (lambda: _continuous(700, 1), UNIF),
    "rounded_2": (lambda: _rounded(900, 2, 2), UNIF),
    "rounded_3": (lambda: _rounded(900, 3, 3), UNIF),
    "normal": (lambda: SortedSample.from_data(stream(4, 63).normal(0.5, 1.2, 600)),
               Normal(0.0, 1.0)),
    "normal_rounded": (lambda: SortedSample.from_data(
        np.round(stream(5, 63).normal(0.5, 1.2, 600), 2)), Normal(0.0, 1.0)),
    "tabulated": (lambda: SortedSample.from_data(np.round(stream(6, 64).normal(0.3, 1.0, 500), 3)),
                  Tabulated(_TABLE_XS, Normal(0.0, 1.0).cdf(_TABLE_XS) / Normal(0.0, 1.0).cdf(4.0))),
    "tabulated_step": (lambda: SortedSample.from_data(stream(7, 64).normal(0.3, 1.0, 500)),
                       Tabulated(_TABLE_XS, Normal(0.0, 1.0).cdf(_TABLE_XS) / Normal(0.0, 1.0).cdf(4.0),
                                 mode="step")),
    "hand_built": (lambda: _hand_built(400, 8), UNIF),
}


@pytest.fixture()
def projections(monkeypatch):
    """Sizes of the rows that mixture_core's criterion kernel hands the compiled PAVA."""
    sizes = []
    raw = mixture_core._pava

    def counting(x, w, r):
        sizes.append(len(x))
        return raw(x, w, r)

    monkeypatch.setattr(mixture_core, "_pava", counting)
    return sizes


def per_gamma_criterion(crit, gamma):
    """The criterion at one gamma from a criterion's collapsed points, one
    vector at a time: scipy's public isotonic fit of ``D + gamma f``, clipped
    to [0, gamma], and the squared residual totalled as ``row.sum()`` or
    ``weights @ row``."""
    weights = None if crit._weights is None else crit._weights.ravel()
    y = crit._f.ravel() * gamma + crit._d.ravel()
    r = np.clip(scipy_isotonic_regression(y, weights=weights).x, 0.0, gamma) - y
    r *= r
    total = r.sum() if weights is None else weights @ r
    return math.sqrt(float(total) / crit._n)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_criterion_and_curve_match_pointwise_oracle(case):
    make, background = _CASES[case]
    s = make()
    curve = criterion_curve(s, background, 200)
    want = [loop_criterion(s, background, g) for g in curve.gammas.tolist()]
    np.testing.assert_allclose(curve.values, want, rtol=0.0, atol=1e-12)
    for g in (0.0, 0.013, 0.2, 0.5, 0.77, 1.0):
        assert criterion(s, background, g) == pytest.approx(loop_criterion(s, background, g), abs=1e-12)


def assert_curve_is_per_gamma_criterion(s, background, grid):
    curve = criterion_curve(s, background, grid)
    gammas = curve.gammas.tolist()
    crit = mixture_core._Criterion(s, background)
    np.testing.assert_array_equal(curve.values, [per_gamma_criterion(crit, g) for g in gammas])
    np.testing.assert_array_equal(curve.values, [criterion(s, background, g) for g in gammas])


@pytest.mark.parametrize("case", sorted(_CASES))
def test_curve_is_per_gamma_criterion_bit_for_bit(case):
    make, background = _CASES[case]
    assert_curve_is_per_gamma_criterion(make(), background, 200)


@pytest.mark.parametrize("data, grid, rows", [
    # rows = max(1, _CHUNK_VALUES // m) with _CHUNK_VALUES = 16 384
    pytest.param(np.full(40, 0.3), 200, 16_384, id="m_1"),
    pytest.param(stream(17, 61).random(300), 200, 54, id="grid_not_a_multiple"),
    pytest.param(np.round(stream(18, 61).random(3000), 3), 200, 17, id="weighted"),
    pytest.param(stream(19, 61).random(16_400), 20, 1, id="m_over_chunk"),
])
def test_curve_chunks_match_per_gamma_criterion(data, grid, rows):
    s = SortedSample.from_data(data)
    assert len(mixture_core._Criterion(s, UNIF)._y) == rows
    assert_curve_is_per_gamma_criterion(s, UNIF, grid)


@pytest.mark.parametrize("decimals", [None, 5])
def test_curve_allocates_no_row_or_chunk_sized_array(monkeypatch, decimals):
    # Chunks of several rows of m >= 30 000 values, so that a row (and so
    # a chunk) is well above the 64 KB per operand that numpy's ufunc
    # iterator may allocate around a broadcast operation.
    monkeypatch.setattr(mixture_core, "_CHUNK_VALUES", 2 ** 18)
    x = stream(20, 61).random(60_000)
    s = SortedSample.from_data(x if decimals is None else np.round(x, decimals))
    crit = mixture_core._Criterion(s, UNIF)
    rows, m = crit._y.shape
    assert rows > 1 and m >= 30_000
    assert (crit._weights is None) == (decimals is None)
    gammas = np.arange(1, 41) / 40
    crit.curve(gammas)
    tracemalloc.start()
    try:
        crit.curve(gammas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * 8


def test_kernel_pools_each_buffer_row_in_place(monkeypatch):
    # the fit is read from the buffer, so the compiled routine must pool the
    # row it is handed, not a converted copy
    s = SortedSample.from_data(np.round(beta_uniform_sample(500, 0.2, seed=15).values, 2))
    crit = mixture_core._Criterion(s, UNIF)
    calls = []
    raw = mixture_core._pava

    def recording(x, w, r):
        out = raw(x, w, r)
        calls.append((x, out[0]))
        return out

    monkeypatch.setattr(mixture_core, "_pava", recording)
    crit.curve(np.arange(1, 201) / 200)
    fit = crit.fit(0.3)
    assert len(calls) == 201
    for row, returned in calls:
        assert np.shares_memory(row, crit._fit)
        assert np.shares_memory(returned, row)
    assert np.shares_memory(fit, crit._fit[0])
    want = scipy_isotonic_regression((crit._f * 0.3 + crit._d).ravel(), weights=crit._weights.ravel()).x
    np.testing.assert_array_equal(fit, np.clip(want, 0.0, 0.3))


@pytest.mark.parametrize("case", sorted(_CASES))
def test_isotonized_cdf_matches_full_length_oracle(case):
    make, background = _CASES[case]
    s = make()
    for gamma in (0.01, 0.05, 0.2, 0.5, 0.77, 1.0):
        step = isotonized_cdf(s, background, gamma)
        jumps, values = naive_isotonized_cdf(s, background, gamma)
        np.testing.assert_array_equal(step.jumps, jumps)
        np.testing.assert_allclose(step.values, values, rtol=0.0, atol=1e-12)


def test_isotonized_cdf_at_gamma_one_is_the_ecdf():
    # the naive inversion at gamma = 1 is F_n itself, already a CDF
    s = SortedSample.from_data(np.round(beta_uniform_sample(500, 0.1, seed=3).values, 2))
    step = isotonized_cdf(s, UNIF, 1.0)
    last = np.searchsorted(s.values, step.jumps, side="right") - 1
    np.testing.assert_allclose(step.values, s.ecdf[last], rtol=0.0, atol=1e-15)


def test_isotonized_cdf_rejects_gamma_outside_unit_interval():
    s = SortedSample.from_data([0.2, 0.5])
    for g in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            isotonized_cdf(s, UNIF, g)


def test_hand_built_sample_keeps_ties_with_different_ecdf_apart(projections):
    s = SortedSample(values=[0.1, 0.2, 0.2, 0.2, 0.5, 0.5, 0.9],
                     ecdf=[1 / 7, 2 / 7, 3 / 7, 4 / 7, 6 / 7, 6 / 7, 1.0])
    for g in np.linspace(0.0, 1.0, 41).tolist():
        assert criterion(s, UNIF, g) == pytest.approx(loop_criterion(s, UNIF, g), abs=1e-12)
    # only the two points at 0.5 share both value and ecdf
    assert set(projections) == {6}


class _NanCdf:
    """A background whose CDF is not finite at the sample points."""

    def cdf(self, x):
        return np.full(np.shape(x), np.nan)


def test_non_finite_background_raises_at_every_gamma():
    s = beta_uniform_sample(50, 0.2, seed=7)
    calls = [lambda g=g: criterion(s, _NanCdf(), g) for g in (0.0, 0.3, 1.0)]
    calls += [lambda: criterion_curve(s, _NanCdf(), 20), lambda: estimate_alpha_cn(s, _NanCdf(), 1.0)]
    for call in calls:
        with pytest.raises(ValueError, match="values must be finite"):
            call()


@pytest.mark.parametrize("decimals", [None, 3, 2])
def test_curve_projects_once_per_gamma_over_distinct_values(projections, decimals):
    x = beta_uniform_sample(2000, 0.2, seed=9).values
    if decimals is not None:
        x = np.round(x, decimals)
    s = SortedSample.from_data(x)
    k = np.unique(s.values).size
    criterion_curve(s, UNIF, grid_size=200)
    assert len(projections) == 200
    assert set(projections) == {k}
    if decimals is not None:
        assert k < s.n


def test_background_cdf_is_evaluated_once_per_sample_and_background(monkeypatch):
    s = beta_uniform_sample(500, 0.2, seed=10)
    calls = []
    raw = Uniform.cdf

    def counting(self, x):
        calls.append(np.size(x))
        return raw(self, x)

    monkeypatch.setattr(Uniform, "cdf", counting)
    criterion_curve(s, UNIF, 200)
    estimate_alpha_cn(s, UNIF, default_cn(s.n))
    lower_bound(s, UNIF)
    homogeneity_test(s, UNIF)
    recover_signal(s, UNIF, 0.2)
    criterion(s, UNIF, 0.0)
    assert calls == [s.n]
    # an equal background that is another object builds another kernel
    other = Uniform(0.0, 1.0)
    criterion(s, other, 0.5)
    criterion(s, other, 0.7)
    assert calls == [s.n, s.n]
    criterion(s, UNIF, 0.5)
    assert calls == [s.n, s.n, s.n]


@pytest.mark.parametrize("decimals", [None, 3, 2])
def test_recover_signal_evaluates_and_projects_once(projections, monkeypatch, decimals):
    x = beta_uniform_sample(2000, 0.2, seed=14).values
    if decimals is not None:
        x = np.round(x, decimals)
    s = SortedSample.from_data(x)
    calls = []
    raw = Uniform.cdf

    def counting(self, x):
        calls.append(np.size(x))
        return raw(self, x)

    monkeypatch.setattr(Uniform, "cdf", counting)
    recover_signal(s, UNIF, 0.2)
    assert calls == [s.n]
    assert projections == [np.unique(s.values).size]


def test_criterion_allocates_no_sample_length_array_per_gamma():
    n = 20_000
    s = SortedSample.from_data(stream(16, 2024).random(n))
    crit = mixture_core._Criterion(s, UNIF)
    crit(0.5)
    tracemalloc.start()
    try:
        for g in np.linspace(0.05, 1.0, 20).tolist():
            crit(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 8


# --- metamorphic laws ---------------------------------------------------------------


@pytest.mark.parametrize("decimals", [None, 2])
def test_duplicating_every_observation_changes_nothing(decimals):
    x = beta_uniform_sample(400, 0.2, seed=12).values
    if decimals is not None:
        x = np.round(x, decimals)
    s = SortedSample.from_data(x)
    twice = SortedSample.from_data(np.concatenate([x, x]))
    np.testing.assert_allclose(criterion_curve(twice, UNIF, 200).values,
                               criterion_curve(s, UNIF, 200).values, rtol=0.0, atol=1e-12)
    # same threshold on the criterion scale: c_n / sqrt(n) is unchanged
    c_n = default_cn(s.n)
    assert estimate_alpha_cn(twice, UNIF, c_n * math.sqrt(2.0)) == pytest.approx(
        estimate_alpha_cn(s, UNIF, c_n), abs=1e-12)


@pytest.mark.parametrize("decimals", [None, 2])
def test_permuting_the_input_changes_nothing(decimals):
    x = beta_uniform_sample(400, 0.2, seed=13).values
    if decimals is not None:
        x = np.round(x, decimals)
    shuffled = stream(13, 65).permutation(x)
    s, t = SortedSample.from_data(x), SortedSample.from_data(shuffled)
    np.testing.assert_array_equal(criterion_curve(t, UNIF, 200).values,
                                  criterion_curve(s, UNIF, 200).values)
    c_n = default_cn(s.n)
    assert estimate_alpha_cn(t, UNIF, c_n) == estimate_alpha_cn(s, UNIF, c_n)


def test_criterion_curve_monotone_convex():
    s = beta_uniform_sample(600, 0.1, seed=21)
    curve = criterion_curve(s, UNIF, 100)
    assert np.all(np.diff(curve.values) <= 1e-10)
    assert np.all(curve.second_differences >= -1e-10)


def test_criterion_curve_rejects_small_grid():
    s = SortedSample.from_data([0.5, 0.6, 0.7])
    with pytest.raises(ValueError):
        criterion_curve(s, UNIF, 5)


def test_criterion_curve_rejects_non_integer_grid():
    s = beta_uniform_sample(200, 0.2, seed=22)
    for grid in (10.5, 20.0, True):
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            criterion_curve(s, UNIF, grid)
    np.testing.assert_array_equal(criterion_curve(s, UNIF, np.int64(20)).values,
                                  criterion_curve(s, UNIF, 20).values)


def test_isotonized_cdf_collapses_ties():
    s = SortedSample.from_data([0.2, 0.2, 0.7])
    step = isotonized_cdf(s, UNIF, 0.9)
    assert step.jumps.size == 2
    assert step.evaluate(0.1) == 0.0


# --- transform invariance --------------------------------------------------------


def test_probit_transform_leaves_estimates_unchanged():
    """Pushing data and background through the same strictly increasing map
    must not move the criterion or the thresholded estimate."""
    s_unif = beta_uniform_sample(400, 0.12, seed=31)
    z = Normal(0.0, 1.0).quantile(s_unif.values)
    s_norm = SortedSample.from_data(z)
    norm = Normal(0.0, 1.0)
    for gamma in (0.05, 0.12, 0.5, 0.9):
        assert criterion(s_norm, norm, gamma) == pytest.approx(
            criterion(s_unif, UNIF, gamma), abs=1e-12)
    c_n = default_cn(s_unif.n)
    assert estimate_alpha_cn(s_norm, norm, c_n) == estimate_alpha_cn(s_unif, UNIF, c_n)


# --- thresholded estimator ---------------------------------------------------------


def test_default_cn_pinned_values():
    assert default_cn(5000, 0.1) == pytest.approx(0.21420868489375267, abs=1e-15)
    assert default_cn(3, 0.1) == pytest.approx(0.00940478276166991, abs=1e-15)


def test_default_cn_rejects_bad_arguments():
    with pytest.raises(ValueError, match="tau"):
        default_cn(100, 0.0)
    with pytest.raises(ValueError, match="n must exceed e"):
        default_cn(2)


def test_estimate_alpha_rejects_nonpositive_threshold():
    s = SortedSample.from_data([0.5])
    with pytest.raises(ValueError):
        estimate_alpha_cn(s, UNIF, 0.0)
    for c_n in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_n must be positive and finite"):
            estimate_alpha_cn(s, UNIF, c_n)


def test_estimate_alpha_zero_when_background_fits():
    # generous threshold: the empirical CDF of uniforms is within c_n/sqrt(n)
    s = SortedSample.from_data(stream(9, 50).random(100))
    assert estimate_alpha_cn(s, UNIF, 50.0) == 0.0


def test_root_agrees_with_grid_scan():
    s = beta_uniform_sample(1000, 0.2, seed=41)
    c_n = default_cn(s.n)
    got = estimate_alpha_cn(s, UNIF, c_n)
    threshold = c_n / math.sqrt(s.n)
    gammas = np.arange(1, 10001) / 10000
    feasible = [g for g in gammas if criterion(s, UNIF, float(g)) <= threshold]
    want = feasible[0]
    assert got == pytest.approx(want, abs=2e-4)


def bisection_root(s, background, threshold):
    """The thresholded estimate by bisection to width 1e-6: the smallest
    feasible gamma lies in (lo, hi], and hi is returned."""
    crit = mixture_core._Criterion(s, background)
    if crit(0.0) <= threshold:
        return 0.0
    lo, hi = 0.0, 1.0  # criterion(1) == 0 < threshold, so hi stays feasible
    for _ in range(60):
        if hi - lo <= 1e-6:
            break
        mid = 0.5 * (lo + hi)
        if crit(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


_ROOT_CASES = {
    "continuous": (lambda: beta_uniform_sample(700, 0.1, seed=71), UNIF),
    "rounded_2": (lambda: _rounded(900, 72, 2), UNIF),
    "tabulated": _CASES["tabulated"],
    "hand_built": (lambda: _hand_built(400, 73), UNIF),
    "null": (lambda: _continuous(600, 74), UNIF),
    "null_rounded_2": (lambda: SortedSample.from_data(np.round(stream(75, 61).random(450), 2)), UNIF),
}


@pytest.mark.parametrize("threshold", ["default_cn", "critical_value"])
@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_root_is_the_smallest_feasible_gamma(projections, case, threshold):
    make, background = _ROOT_CASES[case]
    s = make()
    c_n = default_cn(s.n) if threshold == "default_cn" else critical_value(s.n, 0.05)
    t = c_n / math.sqrt(s.n)
    hi = bisection_root(s, background, t)
    projections.clear()
    root = estimate_alpha_cn(s, background, c_n)
    assert len(projections) <= 9
    assert root <= hi
    assert hi - root <= 1e-6
    assert (root == 0.0) == (criterion(s, background, 0.0) <= t)
    if root > 0.0:
        assert criterion(s, background, min(root + 1e-12, 1.0)) <= t
        assert t < criterion(s, background, max(root - 1e-9, 0.0))


# Rounded to 3 decimals, n = 50: at c_n = 1e-3 the computed criterion is
# flat to the last bit just below the root, where each Newton step rose by
# an ulp of gamma and a root took 157 passes.
_CRAWL_CASES = {
    **_ROOT_CASES,
    "small_rounded_3": (lambda: SortedSample.from_data(np.round(stream(116, 61).random(50), 3)), UNIF),
}


@pytest.mark.parametrize("c_n", [1e-3, 1e-9, 1e-30, 1e-200])
@pytest.mark.parametrize("case", sorted(_CRAWL_CASES))
def test_root_stays_below_the_oracle_at_small_thresholds(projections, case, c_n):
    # The smaller the threshold, the nearer the root lies to 1, where a
    # Newton step on the criterion can round up to 1 and stop short.
    make, background = _CRAWL_CASES[case]
    s = make()
    hi = bisection_root(s, background, c_n / math.sqrt(s.n))
    projections.clear()
    root = estimate_alpha_cn(s, background, c_n)
    assert len(projections) <= 16
    assert root <= hi
    assert hi - root <= 1e-6


@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_slope_is_the_right_derivative(case):
    make, background = _ROOT_CASES[case]
    crit = mixture_core._Criterion(make(), background)
    for gamma in (0.0, 0.03, 0.1, 0.4):
        s, slope = crit._sum_and_slope(gamma)
        assert s == crit._sums(np.array([[gamma]]))[0]
        h = 1e-7
        ahead = crit._sum_and_slope(gamma + h)[0]
        assert slope == pytest.approx((ahead - s) / h, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("decimals", [None, 3])
def test_root_allocates_no_sample_length_array(decimals):
    x = beta_uniform_sample(20_000, 0.1, seed=76).values
    s = SortedSample.from_data(x if decimals is None else np.round(x, decimals))
    crit = mixture_core._Criterion(s, UNIF)
    assert (crit._weights is None) == (decimals is None)
    threshold = default_cn(s.n) / math.sqrt(s.n)
    first = crit.root(threshold)
    # Another threshold, since the kernel keeps the roots it has found.
    tracemalloc.start()
    try:
        root = crit.root(0.9 * threshold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert root > first > 0.0
    assert peak < crit.values.size * 8


# --- the kernel a sample keeps ---------------------------------------------------


def mixed_calls(s, background):
    """Public results on one sample, in an order that leaves every kind of
    call's data in the shared buffers before the next."""
    c_n, cv = default_cn(s.n), critical_value(s.n, 0.05)
    step = isotonized_cdf(s, background, 0.3)
    return {
        "alpha_cn": estimate_alpha_cn(s, background, c_n),
        "curve": criterion_curve(s, background, 200).values,
        "alpha_lower": estimate_alpha_cn(s, background, cv),
        "at_zero": criterion(s, background, 0.0),
        "step": (step.jumps, step.values),
        "alpha_lower_again": estimate_alpha_cn(s, background, cv),
        "step_again": isotonized_cdf(s, background, 0.3).values,
        "at_0.37": criterion(s, background, 0.37),
        "alpha_cn_again": estimate_alpha_cn(s, background, c_n),
    }


def fresh_calls(s, background):
    """The same results, each from a kernel built for it alone: every call
    gets its own copy of the sample."""
    fresh = lambda: SortedSample(values=s.values, ecdf=s.ecdf)
    c_n, cv = default_cn(s.n), critical_value(s.n, 0.05)
    step = isotonized_cdf(fresh(), background, 0.3)
    return {
        "alpha_cn": mixture_core._Criterion(s, background).root(c_n / math.sqrt(s.n)),
        "curve": criterion_curve(fresh(), background, 200).values,
        "alpha_lower": estimate_alpha_cn(fresh(), background, cv),
        "at_zero": criterion(fresh(), background, 0.0),
        "step": (step.jumps, step.values),
        "alpha_lower_again": estimate_alpha_cn(fresh(), background, cv),
        "step_again": step.values,
        "at_0.37": mixture_core._Criterion(s, background)(0.37),
        "alpha_cn_again": estimate_alpha_cn(fresh(), background, c_n),
    }


def assert_same_results(got, want):
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(np.asarray(got[key]), np.asarray(want[key]), err_msg=key)


_ALL_CASES = {**{f"cases-{k}": v for k, v in _CASES.items()},
              **{f"root_cases-{k}": v for k, v in _ROOT_CASES.items()}}


@pytest.mark.parametrize("case", sorted(_ALL_CASES))
def test_kept_kernel_gives_a_fresh_kernels_results_bit_for_bit(case):
    make, background = _ALL_CASES[case]
    s = make()
    assert_same_results(mixed_calls(s, background), fresh_calls(s, background))
    kernel = s._kernel
    assert kernel is not None and kernel.background is background
    # another background object replaces the kernel, and the first comes back rebuilt
    other = Normal(0.5, 2.0)
    assert_same_results(mixed_calls(s, other), fresh_calls(s, other))
    assert s._kernel.background is other
    assert_same_results(mixed_calls(s, background), fresh_calls(s, background))
    assert s._kernel is not kernel and s._kernel.background is background


def test_small_fit_projects_each_root_once(projections):
    # The calls of one small_n benchmark op, against a sample of its own
    # for lower_bound alone.
    make = lambda: beta_uniform_sample(300, 0.3, seed=23)
    alone = lower_bound(make(), UNIF)
    on_fresh_sample = len(projections)
    s = make()
    projections.clear()
    estimate_alpha_cn(s, UNIF, default_cn(s.n))
    after_root = len(projections)
    criterion_curve(s, UNIF, 200)
    after_curve = len(projections)
    assert lower_bound(s, UNIF) == alone > 0.0
    after_bound = len(projections)
    assert homogeneity_test(s, UNIF).alpha_lower == alone
    assert after_root > 1
    assert after_curve - after_root == 200
    # the pass at gamma = 0 is shared with the first root
    assert after_bound - after_curve == on_fresh_sample - 1
    assert len(projections) == after_bound


@pytest.mark.parametrize("m, kept", [(mixture_core._CHUNK_VALUES, True),
                                     (mixture_core._CHUNK_VALUES + 1, False)])
def test_kernel_keeps_only_chunk_sized_buffers(m, kept):
    s = SortedSample.from_data(stream(24, 61).random(m))
    c_n = default_cn(s.n)
    alpha = estimate_alpha_cn(s, UNIF, c_n)
    kernel = s._kernel
    assert kernel.values.size == m
    assert (kernel._y is not None) == kept
    # the next call allocates what the last released, and computes the same
    curve = criterion_curve(s, UNIF, 20).values
    assert s._kernel is kernel
    fresh = SortedSample(values=s.values, ecdf=s.ecdf)
    np.testing.assert_array_equal(curve, criterion_curve(fresh, UNIF, 20).values)
    assert criterion(s, UNIF, alpha) == criterion(fresh, UNIF, alpha)


@pytest.mark.parametrize("n, decimals", [(400, 2), (mixture_core._CHUNK_VALUES + 500, None)],
                         ids=["chunk_buffers", "released_buffers"])
def test_threads_sharing_a_sample_match_serial_results(n, decimals):
    x = beta_uniform_sample(n, 0.2, seed=25).values
    s = SortedSample.from_data(x if decimals is None else np.round(x, decimals))
    backgrounds = (UNIF, Beta(1.0, 1.5))
    want = [mixed_calls(SortedSample(values=s.values, ecdf=s.ecdf), b) for b in backgrounds]
    got, errors = [], []

    def work(k):
        try:
            for _ in range(3):
                got.append((k % 2, mixed_calls(s, backgrounds[k % 2])))
        except BaseException as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(got) == 12
    for k, result in got:
        assert_same_results(result, want[k])


def test_estimate_alpha_close_to_truth_in_mixture():
    s = beta_uniform_sample(5000, 0.1, seed=51)
    got = estimate_alpha_cn(s, UNIF, default_cn(s.n))
    assert got == pytest.approx(0.1, abs=0.05)


# --- elbow -----------------------------------------------------------------------


def piecewise_linear_curve(kink, grid=10):
    """Criterion-like curve dropping linearly to zero at ``kink``."""
    gammas = np.arange(1, grid + 1) / grid
    values = np.maximum(kink - gammas, 0.0)
    h = 1.0 / grid
    second = (values[:-2] - 2 * values[1:-1] + values[2:]) / h ** 2
    return CriterionCurve(gammas=gammas, values=values, second_differences=second)


def loop_interior_peaks(second):
    """Local maxima, one index at a time: ``>=`` each neighbour that exists."""
    n = len(second)
    return [i for i in range(n)
            if (i == 0 or second[i] >= second[i - 1]) and (i == n - 1 or second[i] >= second[i + 1])]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=30))
def test_interior_peaks_match_loop(levels):
    second = np.asarray(levels, dtype=float)
    assert mixture_core._interior_peaks(second).tolist() == loop_interior_peaks(second)


def test_elbow_finds_the_kink():
    curve = piecewise_linear_curve(kink=0.3)
    assert elbow_estimate(curve) == pytest.approx(0.3)
    peaks = elbow_peaks(curve)
    assert peaks[0] == pytest.approx(0.3)


def test_elbow_flat_curve_raises():
    gammas = np.arange(1, 11) / 10
    values = np.zeros(10)
    curve = CriterionCurve(gammas=gammas, values=values,
                           second_differences=np.zeros(8))
    with pytest.raises(NoElbowError, match="flat"):
        elbow_estimate(curve)


def test_elbow_near_equal_peaks_resolve_to_smaller_gamma():
    gammas = np.arange(1, 11) / 10
    second = np.zeros(8)
    second[2] = 0.97   # gamma 0.4
    second[5] = 1.0    # gamma 0.7, within 5% of each other
    curve = CriterionCurve(gammas=gammas, values=np.linspace(1, 0, 10),
                           second_differences=second)
    assert elbow_estimate(curve) == pytest.approx(0.4)
    assert elbow_peaks(curve).size == 2


def test_elbow_recovers_proportion_on_average():
    vals = []
    for seed in range(10):
        s = beta_uniform_sample(3000, 0.1, seed=100 + seed)
        vals.append(elbow_estimate(criterion_curve(s, UNIF, 200)))
    assert 0.06 <= np.mean(vals) <= 0.14
