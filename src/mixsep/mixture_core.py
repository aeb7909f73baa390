"""Core estimation machinery for the two-component mixture.

The observed distribution is modelled as ``alpha * F_signal + (1 - alpha)
* F_background`` with the background fully known.  For a candidate
proportion ``gamma`` the naive inversion ``(F_n - (1 - gamma) * F_b) /
gamma`` need not be a CDF; projecting it onto the set of CDFs (isotonise,
then clamp to [0, 1]) and measuring how far the projection moved gives a
criterion that is flat for ``gamma`` above the identifiable proportion and
grows steeply below it.  The estimators in this module read the
identifiable proportion off that curve, either by thresholding
(:func:`estimate_alpha_cn`) or by locating the curve's elbow
(:func:`elbow_estimate`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import KnownCdf
from ._validate import check_count
from .shape_restricted import _pava

__all__ = [
    "SortedSample",
    "StepCdf",
    "CriterionCurve",
    "NoElbowError",
    "isotonized_cdf",
    "criterion",
    "criterion_curve",
    "default_cn",
    "estimate_alpha_cn",
    "elbow_estimate",
    "elbow_peaks",
]

# Second-difference level below which a criterion curve counts as flat
# (no detectable elbow), and the relative window for near-equal peaks.
_FLAT_TOL = 1e-12
_PEAK_WINDOW = 0.05

# Values per buffer of the criterion kernel (128 KB of float64): a chunk
# holds max(1, _CHUNK_VALUES // m) gammas for m collapsed points.
_CHUNK_VALUES = 16_384


class NoElbowError(ValueError):
    """Raised when a criterion curve is too flat to contain an elbow."""


@dataclass(frozen=True, eq=False)
class SortedSample:
    """A sample sorted ascending with its empirical CDF at each point.

    ``ecdf[i]`` is the fraction of sample values ``<= values[i]``, so tied
    values share the value at the upper end of their block (the
    right-continuous convention).
    """

    values: np.ndarray
    ecdf: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        ecdf = np.asarray(self.ecdf, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ecdf", ecdf)
        if values.ndim != 1 or values.shape != ecdf.shape:
            raise ValueError("values and ecdf must be one-dimensional and equal length")
        if values.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("values must be sorted ascending")
        if np.any(ecdf <= 0.0) or np.any(ecdf > 1.0) or np.any(np.diff(ecdf) < 0.0):
            raise ValueError("ecdf values must be non-decreasing and lie in (0, 1]")

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        """Sort raw observations and attach empirical CDF values."""
        x = np.sort(np.asarray(data, dtype=float).ravel())
        ecdf = np.searchsorted(x, x, side="right") / x.size
        return cls(values=x, ecdf=ecdf)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class StepCdf:
    """Right-continuous step function: 0 left of the first jump.

    ``values[i]`` is the function value on ``[jumps[i], jumps[i+1])``.
    """

    jumps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        jumps = np.asarray(self.jumps, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "values", values)
        if jumps.ndim != 1 or jumps.shape != values.shape or jumps.size == 0:
            raise ValueError("jumps and values must be one-dimensional, equal length, non-empty")
        if np.any(np.diff(jumps) <= 0.0):
            raise ValueError("jump locations must be strictly increasing")
        if np.any(np.diff(values) < -1e-12):
            raise ValueError("step values must be non-decreasing")
        if values[0] < -1e-12 or values[-1] > 1.0 + 1e-12:
            raise ValueError("step values must lie in [0, 1]")

    def evaluate(self, x):
        """Evaluate at ``x`` (scalar or array), right-continuously."""
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        idx = np.searchsorted(self.jumps, xq, side="right")
        out = np.where(idx > 0, self.values[np.maximum(idx - 1, 0)], 0.0)
        return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class CriterionCurve:
    """Criterion values on a uniform grid over (0, 1].

    ``second_differences`` holds the central second differences
    ``(v[k-1] - 2 v[k] + v[k+1]) / h**2`` for interior grid points, so it
    is two entries shorter than ``gammas``.
    """

    gammas: np.ndarray
    values: np.ndarray
    second_differences: np.ndarray

    def __post_init__(self):
        gammas = np.asarray(self.gammas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        second = np.asarray(self.second_differences, dtype=float)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "second_differences", second)
        if gammas.ndim != 1 or gammas.shape != values.shape:
            raise ValueError("gammas and values must be one-dimensional and equal length")
        if gammas.size < 3:
            raise ValueError("a criterion curve needs at least 3 grid points")
        if second.shape != (gammas.size - 2,):
            raise ValueError("second_differences must cover exactly the interior grid points")
        if np.any(values < -1e-12):
            raise ValueError("criterion values must be non-negative")


class _Criterion:
    """The criterion of one sample against one background, as a function of gamma.

    Built once per public call.  It keeps ``D = F_n - F_b`` and ``f = F_b``
    at the end of each run of points whose value and ecdf are both equal
    (such points share every coordinate of the naive vector, so isotonic
    regression treats the run as one point weighted by its length).  Since
    isotonic regression is positively homogeneous, ``gamma * naive = D +
    gamma * f`` is projected directly and clipped to ``[0, gamma]``, with
    no division; ``values`` holds the sample value of each collapsed point.

    One kernel, :meth:`_project`, evaluates a chunk of gammas at once, one
    row per gamma, in buffers of ``max(1, _CHUNK_VALUES // m)`` rows of the
    m collapsed points allocated here; a call uses as many rows as it has
    gammas.  No array of the sample's length is allocated per gamma or per
    chunk, and construction has already checked what the compiled routine
    needs (finite ``F_b``, positive run-length weights).  :meth:`curve`
    walks a grid chunk by chunk, and :meth:`__call__` passes a 1 x 1 column
    kept here, so that its value is a curve value bit for bit.  :meth:`fit`
    and each Newton step of :meth:`root`, whose pass also returns the
    slope, hand the kernel a float instead, which it projects on 1-D views
    of the first rows, without the column's broadcasting.
    """

    def __init__(self, sample: SortedSample, background: KnownCdf):
        values, ecdf = sample.values, sample.ecdf
        fb = np.asarray(background.cdf(values), dtype=float)
        if not np.all(np.isfinite(fb)):
            raise ValueError("values must be finite")
        new_run = (values[1:] != values[:-1]) | (ecdf[1:] != ecdf[:-1])
        if new_run.all():
            self._weights = None
        else:
            ends = np.flatnonzero(np.append(new_run, True))
            self._weights = np.diff(ends, prepend=-1).astype(float)[None]
            values, ecdf, fb = values[ends], ecdf[ends], fb[ends]
        self.values = values
        # D, f and the weights are one-row arrays, so that a 1 x 1 column
        # combines with arrays of its own rank; ``_row`` holds 1-D views.
        self._d = (ecdf - fb)[None]
        self._f = fb[None]
        self._n = sample.n
        m = fb.size
        rows = max(1, _CHUNK_VALUES // m)
        self._y = np.empty((rows, m))
        self._fit = np.empty((rows, m))
        self._w = np.empty((rows, m))
        self._r = np.empty(m + 1, dtype=np.intp)
        self._gamma = np.empty((1, 1))
        # 1-D views of the first rows, for a one-gamma pass given as a float.
        self._row = (self._y[0], self._fit[0], self._w[0], self._d[0], self._f[0],
                     None if self._weights is None else self._weights[0])

    def _project(self, g, mark_top: bool = False) -> np.ndarray:
        """``clip(iso(D + g * f), 0, g)`` for a float ``g`` or a column of at most one chunk.

        Returns one row per gamma in the fit buffer, which the next call
        overwrites, and leaves ``D + g * f`` in the same rows of ``self._y``;
        for a float ``g`` the row is 1-D.  With ``mark_top``, the same rows
        of the weights buffer, which the routine has pooled and no longer
        needs, end as 1.0 where the unclipped fit exceeds gamma (the points
        clipped at the top) and 0.0 elsewhere.
        """
        if isinstance(g, float):
            y, fit, w, d, f, weights = self._row
            rows = ((fit, w),)
        else:
            k = len(g)
            y, fit, w = self._y[:k], self._fit[:k], self._w[:k]
            d, f, weights = self._d, self._f, self._weights
            rows = zip(fit, w)
        np.multiply(g, f, out=y)
        y += d
        np.copyto(fit, y)
        if weights is None:
            w.fill(1.0)
        else:
            np.copyto(w, weights)
        # Each row is a C-contiguous float64 view, which pybind11 hands to
        # the routine as is, so it pools the row (and its weights) in place.
        # The routine writes r[0] and each r[b + 1] before reading them.
        for row, row_w in rows:
            _pava(row, row_w, self._r)
        if mark_top:
            # Read off the unclipped fit: at gamma = 0 every point clips to
            # 0, so the clipped fit cannot tell the two ends apart.
            np.greater(fit, g, out=w)
        if fit.ndim == 1 or len(fit) == 1:
            return fit.clip(0.0, g, out=fit)
        # Two ufuncs cost less than clip against a column of gammas.  Unlike
        # clip they turn a fitted -0.0 into 0.0, which no square can tell.
        np.maximum(fit, 0.0, out=fit)
        return np.minimum(fit, g, out=fit)

    def _totals(self, sq: np.ndarray) -> np.ndarray:
        """The weighted row totals of ``sq``, one chunk of squared residuals."""
        if self._weights is None:
            return np.add.reduce(sq, axis=1)
        # One dot product per row, as ``weights @ row`` computes it.
        return np.matmul(sq[:, None], self._weights.T).ravel()

    def _sums(self, g: np.ndarray) -> np.ndarray:
        """The fit's weighted residual sum of squares for a column ``g`` of at most one chunk."""
        r = self._project(g)
        r -= self._y[:len(r)]
        r *= r
        return self._totals(r)

    def _sum_and_slope(self, gamma: float) -> tuple[float, float]:
        """``S = n * criterion(gamma)**2`` and its right derivative in gamma, from one pass.

        With ``y = D + gamma * f``, the fit ``p`` and ``r = p - y``, the
        derivative is ``2 * (sum_{x > gamma} w r - sum w r f)``, where ``x``
        is the unclipped fit: within a block that is not clipped the
        weighted residuals sum to zero, and a block clipped at the top moves
        with gamma.  ``S`` is the total :meth:`_sums` gives, bit for bit.
        """
        y, _, top, _, f, weights = self._row
        fit = self._project(gamma, mark_top=True)
        r = np.subtract(fit, y, out=y)
        wr = r if weights is None else np.multiply(r, weights, out=fit)
        slope = 2.0 * (float(wr @ top) - float(wr @ f))
        sq = np.multiply(r, r, out=fit)
        # The totals of _totals, one row: a pairwise sum, or ``weights @ row``.
        return float(np.add.reduce(sq) if weights is None else weights @ sq), slope

    def root(self, threshold: float) -> float:
        """The smallest gamma whose criterion is at most ``threshold``.

        Newton's method on ``c(gamma) - threshold`` from gamma = 0, where
        ``c`` is the criterion, with the right derivative ``c' = S' / (2 n
        c)`` of ``S = n c**2``.  ``c`` is convex and non-increasing, so each
        step lands on or below the root and the iterates rise to it.  Near
        1, a step that should land just below 1 can round to 1; the step on
        ``S - n * threshold**2``, shorter by ``(c + threshold) / (2 c)``, is
        then taken instead.  The iteration stops at the first gamma within
        the threshold (0 when the background alone fits), or when neither
        step raises gamma below 1 in floating point, which leaves gamma
        within rounding of the root.  A slope that is not negative can only
        come from rounding there too, and also stops it.
        """
        n = self._n
        gamma = 0.0
        while True:
            s, slope = self._sum_and_slope(gamma)
            # The test __call__ makes, so that gamma = 0 is decided as by
            # criterion(0) <= threshold, bit for bit.
            c = math.sqrt(s / n)
            if c <= threshold or not slope < 0.0:
                return gamma
            step = gamma - 2.0 * n * c * (c - threshold) / slope
            if not step < 1.0:
                step = gamma - n * (c - threshold) * (c + threshold) / slope
            if not gamma < step < 1.0:
                return gamma
            gamma = step

    def fit(self, gamma: float) -> np.ndarray:
        """``gamma`` times the projected signal CDF at the collapsed points.

        Returns ``clip(iso(D + gamma * f), 0, gamma)`` in a row of the fit
        buffer, which the next call overwrites.
        """
        return self._project(float(gamma))

    def curve(self, gammas: np.ndarray) -> np.ndarray:
        """The criterion at each of ``gammas``, one chunk of rows per pass.

        Each value is the weighted root mean square, over the n sample
        points, of the fit's residual; at ``gamma = 0`` the fit is clipped
        to 0 and that is the distance from ``F_n`` to ``F_b``.
        """
        rows = len(self._y)
        sums = np.concatenate([self._sums(gammas[start:start + rows, None])
                               for start in range(0, gammas.size, rows)])
        return np.sqrt(sums / self._n)

    def __call__(self, gamma: float) -> float:
        self._gamma[0, 0] = gamma
        return math.sqrt(float(self._sums(self._gamma)[0]) / self._n)


def isotonized_cdf(sample: SortedSample, background: KnownCdf, gamma: float) -> StepCdf:
    """Project the naive signal-CDF values onto valid CDFs.

    The naive inversion ``(F_n - (1 - gamma) * F_b) / gamma`` is isotonised
    and clamped to [0, 1]; the result, read as a right-continuous step
    function with jumps at the distinct sample values, is the closest CDF
    to the naive inversion in the empirical L2 sense.  It is the
    criterion's projection at ``gamma``, rescaled by ``1 / gamma``.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    crit = _Criterion(sample, background)
    x = crit.values
    last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
    return StepCdf(jumps=x[last], values=crit.fit(gamma)[last] / gamma)


def criterion(sample: SortedSample, background: KnownCdf, gamma: float) -> float:
    """Scaled distance between the naive and projected signal CDFs.

    Returns ``gamma * d_n(naive, projected)`` where ``d_n`` is the L2
    distance over the sample points (duplicates counted separately).  By
    construction this equals the distance from the empirical CDF to the
    best fitting mixture with proportion ``gamma``; the convention at
    ``gamma == 0`` is the distance between the empirical CDF and the
    background.  Non-increasing and convex in ``gamma``.

    Points that share both their value and their ecdf enter the isotonic
    projection once, weighted by their count, which gives the same fit as
    projecting them one by one.  Raises ``ValueError`` when the background
    CDF is not finite at every sample point, whatever ``gamma``.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    return _Criterion(sample, background)(gamma)


def criterion_curve(sample: SortedSample, background: KnownCdf, grid_size: int = 200) -> CriterionCurve:
    """Criterion evaluated on the uniform grid ``k / grid_size``, k = 1..grid_size.

    The background CDF is evaluated once and tied points are collapsed
    once, as in :func:`criterion`: each grid point costs one isotonic
    projection over the distinct (value, ecdf) pairs, weighted by their
    counts.  The grid is evaluated a chunk of gammas at a time, so each
    numpy operation around the projections covers many grid points when
    the sample is small; the values are those :func:`criterion` returns,
    bit for bit.
    """
    check_count("grid_size", grid_size)
    if grid_size < 10:
        raise ValueError("grid_size must be at least 10")
    gammas = np.arange(1, grid_size + 1, dtype=float) / grid_size
    values = _Criterion(sample, background).curve(gammas)
    h = 1.0 / grid_size
    second = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / (h * h)
    return CriterionCurve(gammas=gammas, values=values, second_differences=second)


def default_cn(n: int, tau: float = 0.1) -> float:
    """Default threshold ``tau * log(log(n))`` for the thresholded estimator.

    ``tau`` in [0.05, 0.1] works well across the simulation scenarios; 0.1
    is the default everywhere in this package.
    """
    if tau <= 0.0 or not math.isfinite(tau):
        raise ValueError("tau must be positive")
    if n <= math.e:
        raise ValueError("cn undefined: n must exceed e (need n >= 3)")
    return tau * math.log(math.log(n))


def estimate_alpha_cn(sample: SortedSample, background: KnownCdf, c_n: float) -> float:
    """Thresholded estimate of the identifiable mixing proportion.

    The feasible set ``{gamma : sqrt(n) * criterion(gamma) <= c_n}`` is an
    interval stretching to 1.  Its left endpoint is found by Newton's
    method on the criterion, which is convex and non-increasing in gamma:
    started at 0, the iterates rise to the endpoint from below and stop
    within rounding of it, usually after six to eight projections.  Returns
    0 when the background alone already fits within the threshold.
    """
    if c_n <= 0.0 or not math.isfinite(c_n):
        raise ValueError("c_n must be positive and finite")
    return _Criterion(sample, background).root(c_n / math.sqrt(sample.n))


def _interior_peaks(second: np.ndarray) -> np.ndarray:
    """Indices of local maxima of the second-difference sequence.

    A point is a peak when it is ``>=`` each neighbour it has, so the end
    points are compared on one side only.
    """
    ge_left = np.append(True, second[1:] >= second[:-1])
    ge_right = np.append(second[:-1] >= second[1:], True)
    return np.flatnonzero(ge_left & ge_right)


def elbow_peaks(curve: CriterionCurve) -> np.ndarray:
    """Gamma locations of second-difference peaks within 5% of the maximum.

    Useful as a diagnostic: more than one entry signals an ambiguous
    elbow, and the smallest entry is what :func:`elbow_estimate` returns.
    """
    second = curve.second_differences
    top = float(second.max())
    if top <= _FLAT_TOL:
        raise NoElbowError("no elbow detected: criterion curve is flat")
    peaks = _interior_peaks(second)
    near = peaks[second[peaks] >= (1.0 - _PEAK_WINDOW) * top]
    return curve.gammas[1:-1][near]


def elbow_estimate(curve: CriterionCurve) -> float:
    """Elbow of the criterion curve: where its curvature peaks.

    Returns the gamma with the largest central second difference; if
    several peaks come within 5% of the maximum, the smallest gamma among
    them is returned (ties always resolve toward the smaller gamma).
    Raises :class:`NoElbowError` when the curve is flat to within 1e-12.
    """
    return float(elbow_peaks(curve)[0])
