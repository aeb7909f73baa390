"""Isotonic projection and least concave majorant against brute-force oracles."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression as scipy_isotonic_regression

from mixsep.distributions import Beta, Uniform
from mixsep.mixture_core import SortedSample
from mixsep.shape_restricted import (
    PiecewiseLinearConcaveFn,
    _Pava,
    isotonic_regression,
    least_concave_majorant,
)
from mixsep.signal_recovery import estimate_fs


def isotonic_oracle(y, w=None):
    """Quadratic-time max-min formula for the weighted isotonic fit.

    iso[i] = max over s <= i of (min over t >= i of weighted mean y[s..t]).
    Slow but obviously correct, which is the point.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    w = np.ones(n) if w is None else np.asarray(w, dtype=float)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cyw = np.concatenate([[0.0], np.cumsum(y * w)])

    def block_mean(s, t):
        return (cyw[t + 1] - cyw[s]) / (cw[t + 1] - cw[s])

    out = np.empty(n)
    for i in range(n):
        out[i] = max(min(block_mean(s, t) for t in range(i, n)) for s in range(i + 1))
    return out


def stack_pava(y, w=None):
    """Linear-time pool-adjacent-violators in plain Python.

    A left-to-right pass that keeps a stack of pooled blocks and merges
    back whenever a new block mean falls below the one before it.  An
    oracle independent of scipy, fast enough for sizes the max-min formula
    cannot reach.
    """
    vv = np.asarray(y, dtype=float).tolist()
    ww = [1.0] * len(vv) if w is None else np.asarray(w, dtype=float).tolist()
    means: list[float] = []
    wts: list[float] = []
    counts: list[int] = []
    for m, wt in zip(vv, ww):
        c = 1
        while means and means[-1] > m:
            m0 = means.pop()
            w0 = wts.pop()
            c += counts.pop()
            tot = w0 + wt
            m = (m0 * w0 + m * wt) / tot
            wt = tot
        means.append(m)
        wts.append(wt)
        counts.append(c)
    return np.repeat(means, counts)


def lcm_oracle(x, y):
    """Least concave majorant at the knots via exhaustive chords."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    out = np.empty(n)
    for i in range(n):
        best = y[i]
        for j in range(i + 1):
            for k in range(i, n):
                if j == k:
                    continue
                chord = (y[j] * (x[k] - x[i]) + y[k] * (x[i] - x[j])) / (x[k] - x[j])
                best = max(best, chord)
        out[i] = best
    return out


# --- isotonic regression ---------------------------------------------------


def test_pava_pools_single_violation():
    got = isotonic_regression([0.5, 0.2, 0.8])
    np.testing.assert_allclose(got, [0.35, 0.35, 0.8], atol=1e-15)


def test_pava_all_decreasing_collapses_to_mean():
    np.testing.assert_allclose(isotonic_regression([3.0, 2.0, 1.0]), [2.0, 2.0, 2.0])


def test_pava_monotone_input_unchanged():
    y = [0.1, 0.4, 0.9]
    np.testing.assert_array_equal(isotonic_regression(y), y)


def test_pava_weights_shift_pooled_mean():
    # pooled mean of (1 w=1, 0 w=3) is 0.25
    got = isotonic_regression([1.0, 0.0], weights=[1.0, 3.0])
    np.testing.assert_allclose(got, [0.25, 0.25])


def test_pava_rejects_bad_input():
    with pytest.raises(ValueError, match="empty sample"):
        isotonic_regression([])
    with pytest.raises(ValueError):
        isotonic_regression([1.0, np.nan])
    with pytest.raises(ValueError):
        isotonic_regression([1.0, 2.0], weights=[1.0, 0.0])
    with pytest.raises(ValueError):
        isotonic_regression([1.0, 2.0], weights=[1.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        isotonic_regression([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n", [1_000, 10_000])
def test_pava_matches_stack_oracle_at_large_n(n, weighted):
    # A noisy increasing trend rounded to 2 decimals: long pooled blocks
    # and many exact ties, the shape the mixture criterion feeds in.
    rng = np.random.default_rng(n + weighted)
    ys = np.round(np.linspace(0.0, 1.0, n) + rng.normal(0.0, 0.3, n), 2)
    ws = rng.uniform(0.1, 10.0, n) if weighted else None
    np.testing.assert_allclose(isotonic_regression(ys, weights=ws),
                               stack_pava(ys, ws), rtol=0, atol=1e-12)


finite_vals = st.floats(min_value=-10.0, max_value=10.0,
                        allow_nan=False, allow_infinity=False)
pos_weights = st.floats(min_value=0.1, max_value=10.0,
                        allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_vals, min_size=1, max_size=50))
def test_pava_matches_oracle(ys):
    got = isotonic_regression(ys)
    want = isotonic_oracle(ys)
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(finite_vals, pos_weights), min_size=1, max_size=40))
def test_weighted_pava_matches_oracle(pairs):
    ys = [p[0] for p in pairs]
    ws = [p[1] for p in pairs]
    got = isotonic_regression(ys, weights=ws)
    want = isotonic_oracle(ys, ws)
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(finite_vals, min_size=1, max_size=60))
def test_pava_output_is_monotone_and_idempotent(ys):
    fit = isotonic_regression(ys)
    assert np.all(np.diff(fit) >= -1e-12)
    np.testing.assert_allclose(isotonic_regression(fit), fit, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(finite_vals, pos_weights), min_size=1, max_size=40))
def test_pava_preserves_weighted_mass(pairs):
    ys = np.asarray([p[0] for p in pairs])
    ws = np.asarray([p[1] for p in pairs])
    fit = isotonic_regression(ys, weights=ws)
    assert np.dot(ws, fit) == pytest.approx(np.dot(ws, ys), abs=1e-9 * (1 + abs(np.dot(ws, ys))))


@st.composite
def workspace_runs(draw):
    """One length, one weight vector and a sequence of value vectors.

    The weights are uniform (``None``), positive floats, or the integer run
    lengths that the mixture criterion builds for tied points; each value
    vector is either arbitrary or drawn from four values, so that it ties.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["uniform", "floats", "run_lengths"]))
    if kind == "uniform":
        w = None
    elif kind == "floats":
        w = np.asarray(draw(st.lists(pos_weights, min_size=n, max_size=n)))
    else:
        w = np.asarray(draw(st.lists(st.integers(min_value=1, max_value=50),
                                     min_size=n, max_size=n)), dtype=float)
    tied_vals = st.sampled_from([-1.0, 0.0, 0.25, 1.0])
    vector = st.one_of(st.lists(finite_vals, min_size=n, max_size=n),
                       st.lists(tied_vals, min_size=n, max_size=n))
    ys = draw(st.lists(vector, min_size=1, max_size=6))
    return w, [np.asarray(y, dtype=float) for y in ys]


intp_values = st.integers(min_value=int(np.iinfo(np.intp).min), max_value=int(np.iinfo(np.intp).max))


@settings(max_examples=200, deadline=None)
@given(workspace_runs(), st.lists(intp_values, min_size=1, max_size=4))
def test_reused_workspace_gives_scipys_fit_bit_for_bit(run, garbage):
    w, ys = run
    pava = _Pava(w, ys[0].size)
    for y in ys:
        # the block bounds are not refilled between calls: whatever the
        # buffer holds must not reach the result
        pava._r[:] = np.resize(garbage, pava._r.size)
        got, starts = pava(y)
        want = scipy_isotonic_regression(y, weights=w)
        np.testing.assert_array_equal(got.view(np.uint64), want.x.view(np.uint64))
        np.testing.assert_array_equal(starts, want.blocks[:-1])
        # the fit is the workspace's own buffer: the compiled routine was
        # handed it as is, not a converted copy
        assert np.shares_memory(got, pava._x)


def test_public_fit_is_a_fresh_array_each_call():
    y = np.array([0.5, 0.2, 0.8])
    first, second = isotonic_regression(y), isotonic_regression(y)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, y)
    np.testing.assert_array_equal(y, [0.5, 0.2, 0.8])


def loop_lcm(x, y):
    """Upper hull by one left-to-right pass over every point, with no
    pre-filter: the majorant's loop before flat runs were dropped."""
    hx: list[float] = []
    hy: list[float] = []
    for xi, yi in zip(np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()):
        while len(hx) >= 2:
            turn = (hy[-1] - hy[-2]) * (xi - hx[-1]) - (yi - hy[-1]) * (hx[-1] - hx[-2])
            if turn <= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(xi)
        hy.append(yi)
    return np.asarray(hx), np.asarray(hy)


# --- least concave majorant -------------------------------------------------


def test_lcm_of_convex_points_is_straight_line():
    # the sagging middle knot is absorbed into one chord
    hull = least_concave_majorant([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])
    np.testing.assert_allclose(hull.evaluate([0.0, 0.5, 1.0]), [0.0, 0.5, 1.0], atol=1e-15)
    assert hull.knots.size == 2


def test_lcm_keeps_concave_points():
    hull = least_concave_majorant([0.0, 0.5, 1.0], [0.0, 0.8, 1.0])
    np.testing.assert_allclose(hull.evaluate([0.0, 0.5, 1.0]), [0.0, 0.8, 1.0], atol=1e-15)
    assert hull.knots.size == 3


def test_lcm_rejects_tied_knots():
    with pytest.raises(ValueError):
        least_concave_majorant([0.0, 0.0, 1.0], [0.0, 0.1, 1.0])


@pytest.mark.parametrize("knots, values", [
    # a subnormal gap: the chord slope 2 / 1e-320 overflows to inf, and an
    # antitonic fit that pooled it would leave (1e-320, 2) under the result
    ([0.0, 1e-320, 2e-320, 1.0], [0.0, 2.0, 3.0, 3.0]),
    # a gap that overflows, which would be an infinite PAVA weight
    ([-1e308, 1e308, 1.5e308], [0.0, 1.0, 0.0]),
    # finite chords (1e308, 1.5e308) that pool into one block, whose chord
    # between the kept knots overflows
    ([0.0, 1.0, 2.0], [-1e308, 0.0, 1.5e308]),
], ids=["subnormal_gap", "overflowing_gap", "overflowing_pooled_chord"])
def test_lcm_rejects_overflowing_chord_slope(knots, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="chord slopes overflow"):
            least_concave_majorant(knots, values)


@st.composite
def knot_sets(draw, max_size=25):
    # gaps bounded away from zero keep every chord slope representable
    n = draw(st.integers(min_value=2, max_value=max_size))
    gaps = draw(st.lists(st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
                         min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                       min_size=n, max_size=n))
    return np.cumsum(np.asarray(gaps)), np.asarray(ys)


@settings(max_examples=150, deadline=None)
@given(knot_sets())
def test_lcm_matches_chord_oracle(knots_values):
    xs, ys = knots_values
    hull = least_concave_majorant(xs, ys)
    want = lcm_oracle(xs, ys)
    got = hull.evaluate(xs)
    np.testing.assert_allclose(got, want, atol=1e-12 * (1 + np.abs(want).max()))


@settings(max_examples=150, deadline=None)
@given(knot_sets())
def test_lcm_dominates_and_is_concave(knots_values):
    xs, ys = knots_values
    hull = least_concave_majorant(xs, ys)
    assert np.all(hull.evaluate(xs) >= ys - 1e-12)
    slopes = hull.slopes()
    assert np.all(np.diff(slopes) <= 1e-9)


def _flat_runs(seed, n):
    """Non-monotone values with flat runs at the start, in the middle and at the end."""
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.01, 1.0, n))
    ys = rng.normal(size=n)
    ys[:7] = ys[0]
    ys[n // 2:n // 2 + 9] = ys[n // 2]
    ys[-6:] = ys[-1]
    ys[n // 4:n // 4 + 5] = ys.max()
    return xs, ys


@pytest.mark.parametrize("seed", range(6))
def test_lcm_with_flat_runs_matches_unfiltered_loop(seed):
    xs, ys = _flat_runs(seed, 60 + 17 * seed)
    hull = least_concave_majorant(xs, ys)
    hx, hy = loop_lcm(xs, ys)
    np.testing.assert_array_equal(hull.knots, hx)
    np.testing.assert_array_equal(hull.values, hy)
    np.testing.assert_allclose(hull.evaluate(xs), lcm_oracle(xs, ys), atol=1e-12)


def _rounded_steps():
    """A monotone step CDF with long flat stretches, the shape signal recovery feeds in."""
    rng = np.random.default_rng(7)
    xs = np.unique(np.round(rng.random(5000), 4))
    ys = np.round(np.minimum(1.0, np.cumsum(rng.exponential(1.0, xs.size)) / 3000), 2)
    return xs, ys


def _anchored_signal_cdf(decimals):
    """The step CDF that ``concavify`` hands the majorant at n = 1e5.

    0.1 * Beta(1, 10) + 0.9 * Uniform(0, 1) p-values, optionally rounded,
    estimated at alpha = 0.1 and anchored at (0, 0) when the first jump is
    above 0.
    """
    rng = np.random.default_rng(2012)
    n = 100_000
    p = np.where(rng.random(n) < 0.1, Beta(1, 10).sample(n, rng), rng.random(n))
    if decimals is not None:
        p = np.round(p, decimals)
    fs = estimate_fs(SortedSample.from_data(p), Uniform(0.0, 1.0), 0.1)
    if fs.jumps[0] > 0.0:
        return np.append(0.0, fs.jumps), np.append(0.0, fs.values)
    return fs.jumps, fs.values


@pytest.mark.parametrize("points", [
    pytest.param(_rounded_steps, id="rounded_steps"),
    pytest.param(lambda: _anchored_signal_cdf(None), id="signal_cdf_n1e5"),
    pytest.param(lambda: _anchored_signal_cdf(3), id="signal_cdf_n1e5_3dp"),
])
def test_lcm_of_step_cdf_matches_unfiltered_loop(points):
    xs, ys = points()
    hull = least_concave_majorant(xs, ys)
    hx, hy = loop_lcm(xs, ys)
    np.testing.assert_array_equal(hull.knots, hx)
    np.testing.assert_array_equal(hull.values, hy)


@st.composite
def tied_knot_sets(draw, max_size=30):
    # values drawn from a few levels, so flat runs of every length occur
    xs, _ = draw(knot_sets(max_size=max_size))
    levels = draw(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                           min_size=1, max_size=3))
    ys = draw(st.lists(st.sampled_from(levels), min_size=xs.size, max_size=xs.size))
    return xs, np.asarray(ys)


@settings(max_examples=150, deadline=None)
@given(tied_knot_sets())
def test_lcm_with_tied_values_matches_loop_and_oracle(knots_values):
    xs, ys = knots_values
    hull = least_concave_majorant(xs, ys)
    hx, hy = loop_lcm(xs, ys)
    scale = 1e-12 * (1 + np.abs(ys).max())
    np.testing.assert_allclose(hull.evaluate(xs), PiecewiseLinearConcaveFn(hx, hy).evaluate(xs),
                               atol=scale)
    np.testing.assert_allclose(hull.evaluate(xs), lcm_oracle(xs, ys), atol=scale)


@settings(max_examples=100, deadline=None)
@given(knot_sets(max_size=15))
# xs[0] + 1.0 * span rounds one ulp past xs[-1] for these knots
@example(knots_values=(np.cumsum([0.3, 0.1, 0.5]), np.array([0.0, 1.0, 0.5])))
def test_lcm_left_derivative_is_nonincreasing(knots_values):
    xs, ys = knots_values
    hull = least_concave_majorant(xs, ys)
    span = xs[-1] - xs[0]
    if span <= 0:
        return
    qs = xs[0] + np.linspace(0.05, 1.0, 13) * span
    d = hull.left_derivative(qs)
    assert np.all(np.diff(d) <= 1e-9)


# --- piecewise linear concave function ---------------------------------------


def test_concave_fn_interpolates_and_extends_right():
    f = PiecewiseLinearConcaveFn(knots=np.array([0.0, 1.0, 2.0]),
                                 values=np.array([0.0, 1.0, 1.5]))
    assert f.evaluate(0.5) == pytest.approx(0.5)
    assert f.evaluate(1.5) == pytest.approx(1.25)
    # beyond the last knot the function stays at its final value
    assert f.evaluate(5.0) == pytest.approx(1.5)


def test_concave_fn_rejects_queries_below_domain():
    f = PiecewiseLinearConcaveFn(knots=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        f.evaluate(-0.1)


def test_concave_fn_rejects_convex_values():
    with pytest.raises(ValueError):
        PiecewiseLinearConcaveFn(knots=np.array([0.0, 1.0, 2.0]),
                                 values=np.array([0.0, 0.1, 1.0]))


@pytest.mark.parametrize("knots, values", [
    # a subnormal gap: the first slope 2 / 1e-320 overflows to inf
    ([0.0, 1e-320, 1.0], [0.0, 2.0, 3.0]),
    # finite values whose difference overflows
    ([0.0, 1.0], [-1e308, 1e308]),
], ids=["subnormal_gap", "overflowing_rise"])
def test_concave_fn_rejects_non_finite_slopes(knots, values):
    # the check itself raises no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="segment slopes must be finite"):
            PiecewiseLinearConcaveFn(knots=np.array(knots), values=np.array(values))


def test_left_derivative_matches_segment_slopes():
    f = PiecewiseLinearConcaveFn(knots=np.array([0.0, 1.0, 3.0]),
                                 values=np.array([0.0, 2.0, 3.0]))
    assert f.left_derivative(0.5) == pytest.approx(2.0)
    assert f.left_derivative(1.0) == pytest.approx(2.0)  # left limit at the knot
    assert f.left_derivative(2.0) == pytest.approx(0.5)
    assert f.left_derivative(3.0) == pytest.approx(0.5)
    # a query that rounds just past the last knot gets the last slope ...
    assert f.left_derivative(np.nextafter(3.0, np.inf)) == pytest.approx(0.5)
    # ... but the rounding slack does not reach further out
    with pytest.raises(ValueError):
        f.left_derivative(3.0 + 1e-6)
    with pytest.raises(ValueError):
        f.left_derivative(0.0)
