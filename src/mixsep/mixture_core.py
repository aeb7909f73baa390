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
import threading
from dataclasses import dataclass, field

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

# Threshold roots a criterion kernel keeps, oldest dropped first.
_ROOT_MEMO = 16
# The largest float below 1, where a Newton step that rounds up to 1 lands.
_BELOW_ONE = math.nextafter(1.0, 0.0)

# Collapsed points below which a curve retires none: each look for settled
# points, repacking and scatter costs a few numpy calls whatever the number
# of points.  Timed against full projections on a grid of 200, retirement
# lost 2-5% of a curve at 450-500 points, was level at 550-700 and won from
# 800 on.
_RETIRE_POINTS = 600
# A curve retires its settled points once at least this share of the
# active ones has settled, so that each repacking saves more than it costs:
# on the same timings, retiring as soon as any point settled, or waiting
# for a quarter or half of them, was slower than this share at 600-5 000
# points.
_SETTLE_SHARE = 1 / 8
# Indices compacted per step of a retirement.
_PACK_VALUES = 4_096


class NoElbowError(ValueError):
    """Raised when a criterion curve is too flat to contain an elbow."""


@dataclass(frozen=True, eq=False)
class SortedSample:
    """A sample sorted ascending with its empirical CDF at each point.

    ``ecdf[i]`` is the fraction of sample values ``<= values[i]``, so tied
    values share the value at the upper end of their block (the
    right-continuous convention).

    ``values`` and ``ecdf`` are the sample's own read-only copies: the
    arrays a caller passes are copied and stay writeable.  The sample keeps
    one criterion kernel, for the background it was last used with, so
    that the criterion functions of this module, the thresholded estimates
    and signal recovery share one evaluation of the background CDF, one
    set of scratch buffers and the roots already found.  Any other
    background object replaces the kernel.  A sample may be shared between
    threads: each call holds the kernel's lock while it computes.
    """

    values: np.ndarray
    ecdf: np.ndarray
    _kernel: "_Criterion | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        ecdf = np.array(self.ecdf, dtype=float)
        values.flags.writeable = False
        ecdf.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ecdf", ecdf)
        if values.ndim != 1 or values.shape != ecdf.shape:
            raise ValueError("values and ecdf must be one-dimensional and equal length")
        if values.size == 0:
            raise ValueError("empty sample")
        # Each check is written so that a NaN fails it.
        if not np.isfinite(values).all():
            raise ValueError("sample values must be finite")
        if not (values[1:] >= values[:-1]).all():
            raise ValueError("values must be sorted ascending")
        if not (ecdf[0] > 0.0 and ecdf[-1] <= 1.0 and (ecdf[1:] >= ecdf[:-1]).all()):
            raise ValueError("ecdf values must be non-decreasing and lie in (0, 1]")

    def __reduce__(self):
        # The kernel holds a lock, which does not pickle; a copy builds its own.
        return type(self), (self.values, self.ecdf)

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
        # Each check is written so that a NaN fails it.
        if np.isnan(jumps).any() or not (jumps[1:] > jumps[:-1]).all():
            raise ValueError("jump locations must be strictly increasing")
        if not (np.diff(values) >= -1e-12).all():
            raise ValueError("step values must be non-decreasing")
        if not (values[0] >= -1e-12 and values[-1] <= 1.0 + 1e-12):
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
        if not (values >= -1e-12).all():  # a NaN fails too
            raise ValueError("criterion values must be non-negative")


class _Criterion:
    """The criterion of one sample against one background, as a function of gamma.

    Each sample keeps one, which every public call reaches through
    :func:`_criterion` and uses inside a ``with`` block: the block holds the
    kernel's lock while the call uses the scratch buffers.  It keeps ``D =
    F_n - F_b`` and ``f = F_b`` at the end of each run of points whose
    value and ecdf are both equal (such points share every coordinate of
    the naive vector, so isotonic regression treats the run as one point
    weighted by its length).  Since isotonic regression is positively
    homogeneous, ``gamma * naive = D + gamma * f`` is projected directly and
    clipped to ``[0, gamma]``, with no division; ``values`` holds the sample
    value of each collapsed point.

    One kernel, :meth:`_project`, evaluates a chunk of gammas at once, one
    row per gamma, in buffers of ``max(1, _CHUNK_VALUES // m)`` rows of the
    m collapsed points; a call uses as many rows as it has gammas.  Buffers
    of one chunk or less are kept for the kernel's lifetime.  Larger ones,
    a single row of more than ``_CHUNK_VALUES`` points, are released when a
    ``with`` block ends and allocated again by the next, so that a kept
    kernel costs no more than its sample's few arrays.  No array of the
    sample's length is allocated per gamma or per chunk, and construction
    has already checked what the compiled routine needs (finite ``F_b``,
    positive run-length weights).  :meth:`curve` walks a grid chunk by
    chunk, and :meth:`__call__` is the curve at one gamma.  :meth:`fit`
    and each Newton step of :meth:`root`, whose pass also returns the
    slope, hand the kernel a float instead, which it projects on 1-D views
    of the first rows, without the column's broadcasting.

    A curve of ``_RETIRE_POINTS`` collapsed points or more projects every
    point in its first chunk only.  Blocks only split as gamma rises, so a
    point that is a block of its own with its value ``D + gamma f`` inside
    ``[0, gamma]`` stays so at every later gamma, and its residual stays
    exactly 0.0 (:meth:`_settled`).  After each chunk the curve retires such
    points, and later chunks project only the points still active, packed
    into the first entries of the buffers (:meth:`_retire`); their squares
    are scattered into full-length rows that hold 0.0 at every retired
    point, so that each total is the one a full projection gives, bit for
    bit.  The packed copies of ``D``, ``f`` and the weights and the active
    indices, a few arrays of length m, are allocated by a curve's first
    look for settled points and released when its ``with`` block ends.
    :meth:`__call__`, :meth:`fit` and the Newton
    steps project every point.
    """

    def __init__(self, sample: SortedSample, background: KnownCdf):
        values, ecdf = sample.values, sample.ecdf
        fb = np.asarray(background.cdf(values), dtype=float)
        if not np.all(np.isfinite(fb)):
            raise ValueError("values must be finite")
        if not ((fb >= 0.0) & (fb <= 1.0)).all():
            raise ValueError("background CDF values must lie in [0, 1]")
        new_run = (values[1:] != values[:-1]) | (ecdf[1:] != ecdf[:-1])
        if new_run.all():
            self._weights = None
        else:
            ends = np.flatnonzero(np.append(new_run, True))
            self._weights = np.diff(ends, prepend=-1).astype(float)[None]
            values, ecdf, fb = values[ends], ecdf[ends], fb[ends]
            # Read-only like the sample's own, since isotonized_cdf hands
            # it out as a step function's jumps.
            values.flags.writeable = False
        self.background = background
        self.values = values
        # D, f and the weights are one-row arrays, so that a column of
        # gammas combines with arrays of its own rank; ``_row`` holds 1-D
        # views.
        self._d = (ecdf - fb)[None]
        self._f = fb[None]
        self._n = sample.n
        self._lock = threading.Lock()
        # Roots found so far, by threshold, and the pass at gamma = 0 that
        # every Newton iteration starts from.
        self._roots = {}
        self._zero = None
        self._allocate()

    def _allocate(self):
        m = self._f.size
        rows = max(1, _CHUNK_VALUES // m)
        self._y = np.empty((rows, m))
        self._fit = np.empty((rows, m))
        self._w = np.empty((rows, m))
        self._r = np.empty(m + 1, dtype=np.intp)
        # 1-D views of the first rows, for a one-gamma pass given as a float.
        self._row = (self._y[0], self._fit[0], self._w[0], self._d[0], self._f[0],
                     None if self._weights is None else self._weights[0])
        # The buffers of a curve's retirement, allocated when it first
        # looks for settled points: the active points' D, f and weights,
        # packed, and their indices.
        self._packed = self._index = None

    def _allocate_retirement(self):
        m = self._f.size
        self._packed = [np.empty(m) for _ in range(2 if self._weights is None else 3)]
        self._index = np.empty(m, dtype=np.intp)

    def __enter__(self) -> "_Criterion":
        self._lock.acquire()
        if self._y is None:
            try:
                self._allocate()
            except BaseException:
                self._lock.release()
                raise
        return self

    def __exit__(self, *exc) -> None:
        # A curve's retirement buffers serve that curve only.
        self._packed = self._index = None
        if self._y.size > _CHUNK_VALUES:
            self._y = self._fit = self._w = self._r = self._row = None
        self._lock.release()

    def _project(self, g, mark_top: bool = False,
                 active: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``clip(iso(D + g * f), 0, g)`` for a float ``g`` or a column of at most one chunk.

        Returns the fit, one row per gamma in the fit buffer, which the next
        call overwrites, and ``D + g * f`` in the same rows of ``self._y``;
        for a float ``g`` the rows are 1-D.  Given the indices of the
        ``active`` points of a curve, packed by :meth:`_retire`, the column
        is projected over those points only: the rows are then ``len(g)``
        contiguous rows of ``active.size`` values at the start of the fit
        buffer and of the weights buffer, which holds ``D + g * f``, so that
        the rows of ``self._y`` stay free for full-length squares.  With
        ``mark_top``, the same rows of the weights buffer, which the routine
        has pooled and no longer needs, end as 1.0 where the unclipped fit
        exceeds gamma (the points clipped at the top) and 0.0 elsewhere.
        """
        if isinstance(g, float):
            y, fit, w, d, f, weights = self._row
            rows = ((fit, w),)
        elif active is None:
            k = len(g)
            y, fit, w = self._y[:k], self._fit[:k], self._w[:k]
            d, f, weights = self._d, self._f, self._weights
            rows = zip(fit, w)
        else:
            k, a = len(g), active.size
            # k contiguous rows of a values at the start of each buffer,
            # which numpy passes over faster than the first a columns of k
            # rows.
            fit, w = (buf.reshape(-1)[:k * a].reshape(k, a) for buf in (self._fit, self._w))
            y = w
            d, f, *weights = (row[None, :a] for row in self._packed)
            weights = weights[0] if weights else None
            rows = zip(fit, w)
        np.multiply(g, f, out=fit)
        fit += d
        # Packed rows keep D + g * f in the weights' rows, so it is made
        # again once the routine has pooled them; a copy costs less than
        # the column's broadcast product.
        if y is not w:
            np.copyto(y, fit)
        if weights is None:
            w.fill(1.0)
        else:
            np.copyto(w, weights)
        # Each row is a C-contiguous float64 view, which pybind11 hands to
        # the routine as is, so it pools the row (and its weights) in place.
        # The routine writes r[0] and each r[b + 1] before reading them.
        for row, row_w in rows:
            _pava(row, row_w, self._r)
        if y is w:
            # The same operations as above, so the same bits.
            np.multiply(g, f, out=y)
            y += d
        if mark_top:
            # Read off the unclipped fit: at gamma = 0 every point clips to
            # 0, so the clipped fit cannot tell the two ends apart.
            np.greater(fit, g, out=w)
        if fit.ndim == 1 or len(fit) == 1:
            return fit.clip(0.0, g, out=fit), y
        # Two ufuncs cost less than clip against a column of gammas.  Unlike
        # clip they turn a fitted -0.0 into 0.0, which no square can tell.
        np.maximum(fit, 0.0, out=fit)
        return np.minimum(fit, g, out=fit), y

    def _totals(self, sq: np.ndarray) -> np.ndarray:
        """The weighted row totals of ``sq``, one chunk of squared residuals."""
        if self._weights is None:
            return np.add.reduce(sq, axis=1)
        # One dot product per row, as ``weights @ row`` computes it.
        return np.matmul(sq[:, None], self._weights.T).ravel()

    def _sum_and_slope(self, gamma: float) -> tuple[float, float]:
        """``S = n * criterion(gamma)**2`` and its right derivative in gamma, from one pass.

        With ``y = D + gamma * f``, the fit ``p`` and ``r = p - y``, the
        derivative is ``2 * sum w r (1{x > gamma} - f)``, where ``x``
        is the unclipped fit: within a block that is not clipped the
        weighted residuals sum to zero, and a block clipped at the top moves
        with gamma.  ``S`` is the total that :meth:`curve` takes at
        ``gamma`` alone, bit for bit.
        """
        _, _, top, _, f, weights = self._row
        fit, y = self._project(gamma, mark_top=True)
        r = np.subtract(fit, y, out=y)
        wr = r if weights is None else np.multiply(r, weights, out=fit)
        # Ufuncs in the pass's own rows, not a dot product, which BLAS may
        # spread over threads on a long row.
        np.subtract(top, f, out=top)
        top *= wr
        slope = 2.0 * float(np.add.reduce(top))
        sq = np.multiply(r, r, out=fit)
        # The totals of _totals, one row: a pairwise sum, or ``weights @ row``.
        return float(np.add.reduce(sq) if weights is None else weights @ sq), slope

    def root(self, threshold: float) -> float:
        """The smallest gamma whose criterion is at most ``threshold``.

        Newton's method on ``c(gamma) - threshold`` from gamma = 0, where
        ``c`` is the criterion, with the right derivative ``c' = S' / (2 n
        c)`` of ``S = n c**2``.  ``c`` is convex and non-increasing, so each
        step lands on or below the root and the iterates rise to it.  Near
        1, a step that should land just below 1 can round to 1; it then
        lands on the largest float below 1 instead, which is within
        rounding of the root.  The iteration stops at the first gamma within
        the threshold (0 when the background alone fits), or when the step
        does not raise gamma, which leaves gamma within rounding of the
        root.  A slope that is not negative can only
        come from rounding there too, and also stops it.  So does a
        computed ``c`` that has not fallen over two steps in a row: each
        step lowers the exact ``c``, so ``c - threshold`` then sits at the
        rounding floor of ``c``, where the steps would only crawl up an ulp
        of gamma at a time.

        Each root is found once per threshold and then returned as found,
        and the pass at gamma = 0 is made once for all of them.
        """
        gamma = self._roots.get(threshold)
        if gamma is None:
            if len(self._roots) >= _ROOT_MEMO:
                del self._roots[next(iter(self._roots))]
            gamma = self._roots[threshold] = self._newton(threshold)
        return gamma

    def _newton(self, threshold: float) -> float:
        if self._zero is None:
            self._zero = self._sum_and_slope(0.0)
        s, slope = self._zero
        n = self._n
        gamma, last, flat = 0.0, math.inf, 0
        while True:
            # The value __call__ gives, so that gamma = 0 is decided as by
            # criterion(0) <= threshold, bit for bit.
            c = math.sqrt(s / n)
            if c <= threshold or not slope < 0.0:
                return gamma
            flat = flat + 1 if c >= last else 0
            if flat == 2:
                return gamma
            step = gamma - 2.0 * n * c * (c - threshold) / slope
            if not step < 1.0:
                # The exact step lands on or below the root, so the root
                # lies within rounding of 1.
                step = _BELOW_ONE
            if not gamma < step:
                return gamma
            gamma, last = step, c
            s, slope = self._sum_and_slope(gamma)

    def fit(self, gamma: float) -> np.ndarray:
        """``gamma`` times the projected signal CDF at the collapsed points.

        Returns ``clip(iso(D + gamma * f), 0, gamma)`` in a row of the fit
        buffer, which the next call overwrites.
        """
        return self._project(float(gamma))[0]

    def curve(self, gammas: np.ndarray) -> np.ndarray:
        """The criterion at each of ``gammas``, one chunk of rows per pass.

        Each value is the weighted root mean square, over the n sample
        points, of the fit's residual; at ``gamma = 0`` the fit is clipped
        to 0 and that is the distance from ``F_n`` to ``F_b``.

        On an ascending grid, the points that can carry no residual at any
        later gamma retire after a chunk (:meth:`_settled`), and later
        chunks project only the active ones, packed (:meth:`_retire`).
        Their squares go to full-length rows of ``self._y`` that hold 0.0
        at every retired point, so each total is taken over the same row as
        before and every value is the one a projection of every point
        gives, bit for bit.  Projecting stops once no point is active.
        """
        rows = len(self._y)
        sums = np.zeros(gammas.size)
        guard = self._guard(gammas)
        # The indices of the points that may still carry a residual, or
        # None while every point may.
        active = None
        for start in range(0, gammas.size, rows):
            g = gammas[start:start + rows, None]
            k = len(g)
            if active is not None and not active.size:
                # Every residual left is exactly 0.0, and so is each total.
                break
            fit, y = self._project(g, active=active)
            settled = None
            if guard is not None and start + k < gammas.size:
                settled = self._settled(fit[-1], y[-1], guard, active)
            fit -= y
            fit *= fit
            if active is None:
                squares = fit
            else:
                squares = self._y[:k]
                for row, part in zip(squares, fit):
                    row[active] = part
            sums[start:start + k] = self._totals(squares)
            if settled is not None:
                # The chunk's last row of squares is 0.0 at every retired
                # point; every row of squares starts from it.
                if active is None:
                    np.copyto(self._y, squares[-1])
                else:
                    np.copyto(self._y[:-1], squares[-1])
                active = self._retire(settled, active)
        return np.sqrt(sums / self._n)

    def _guard(self, gammas: np.ndarray) -> tuple[int, int] | None:
        """The collapsed points that must not retire on ``gammas``, or ``None`` if none may.

        No point retires when there are fewer than ``_RETIRE_POINTS``
        collapsed points, on a grid of one chunk, which has no later gamma,
        on a grid that does not ascend within [0, 1], or against a
        background whose values at the sorted points ever fall: the argument
        of :meth:`_settled` needs the last three.

        A retired point's ``y = D + gamma f`` must stay inside ``[0,
        gamma]`` in floating point too.  It cannot fall below 0, since the
        rounded ``gamma * f + D`` is non-decreasing in gamma for ``f >= 0``,
        and it cannot pass gamma where ``D <= 0`` or ``f == 1``.  Elsewhere
        the exact margin to gamma grows by ``1 - f`` times the grid step,
        which outweighs the rounding of ``y`` unless ``1 - f`` is below
        ``2**-50`` over the step.  ``f`` is non-decreasing, so the points
        left out form the half-open range of indices returned.
        """
        f = self._f[0]
        if (f.size < _RETIRE_POINTS or gammas.size <= len(self._y)
                or not (f[1:] >= f[:-1]).all()):
            return None
        step = float(np.min(gammas[1:] - gammas[:-1]))
        if not (step > 0.0 and gammas[0] >= 0.0 and gammas[-1] <= 1.0):
            return None
        near = 1.0 - 2.0 ** -50 / step
        return int(np.searchsorted(f, near, side="right")), int(np.searchsorted(f, 1.0))

    def _settled(self, fit: np.ndarray, y: np.ndarray, guard: tuple[int, int],
                 active: np.ndarray | None) -> np.ndarray | None:
        """Flags of the active points that can carry no residual at any later gamma.

        ``fit`` and ``y`` are the clipped fit and ``D + gamma f`` of the
        chunk's last row.  A point settles when its fit is ``y`` itself and
        differs from both neighbours' fits: the routine leaves a one-point
        block's value as it was given, and adjacent blocks strictly
        increase, so the point is a block of its own, inside ``[0, gamma]``.
        Blocks only split as gamma rises, ``D + gamma f`` only rises and
        ``D - gamma (1 - f)`` only falls, so such a point stays a one-point
        block inside ``[0, gamma]`` and its residual stays exactly 0.0.
        The projection of the other points is then the same without it.
        Returns ``None`` while fewer than ``_SETTLE_SHARE`` of them settle.
        """
        if self._index is None:
            self._allocate_retirement()
        a = fit.size
        # Two rows of flags in the block bounds' buffer, which no projection
        # uses between this check and the retirement.
        flags, apart = self._r.view(bool)[:2 * a].reshape(2, a)
        apart = apart[:-1]
        np.equal(fit, y, out=flags)
        np.not_equal(fit[1:], fit[:-1], out=apart)
        flags[1:] &= apart
        flags[:-1] &= apart
        lo, hi = guard if active is None else np.searchsorted(active, guard)
        flags[lo:hi] = False
        return flags if np.count_nonzero(flags) >= max(1.0, _SETTLE_SHARE * a) else None

    def _retire(self, settled: np.ndarray, active: np.ndarray | None) -> np.ndarray:
        """Drop the ``settled`` points from the ``active`` ones and return the indices kept.

        The indices are compacted in place, a block of ``_PACK_VALUES`` at a
        time, so that no copy of the sample's length is made, and the kept
        points' ``D``, ``f`` and weights are packed from the full rows.
        """
        keep = np.logical_not(settled, out=settled)
        kept = 0
        for start in range(0, keep.size, _PACK_VALUES):
            part = keep[start:start + _PACK_VALUES]
            if active is None:
                taken = np.flatnonzero(part)
                taken += start
            else:
                # A copy, read before any of the block is overwritten.
                taken = active[start:start + _PACK_VALUES][part]
            self._index[kept:kept + taken.size] = taken
            kept += taken.size
        active = self._index[:kept]
        for row, full in zip(self._packed, (self._d, self._f, self._weights)):
            np.take(full[0], active, out=row[:kept], mode="clip")
        return active

    def __call__(self, gamma: float) -> float:
        return float(self.curve(np.array([float(gamma)]))[0])


def _criterion(sample: SortedSample, background: KnownCdf) -> _Criterion:
    """The sample's criterion kernel for ``background``, built on first use.

    The kernel is kept on the sample for the background object it was built
    from, compared by identity (a ``Tabulated`` holds arrays and has no
    value equality); another background builds and keeps a new one.  Use it
    in a ``with`` block, which holds its lock.
    """
    kernel = sample._kernel
    if kernel is None or kernel.background is not background:
        # Threads that race here each build a kernel and use their own;
        # the sample keeps the last one stored.
        kernel = _Criterion(sample, background)
        object.__setattr__(sample, "_kernel", kernel)
    return kernel


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
    with _criterion(sample, background) as crit:
        x = crit.values
        # Dividing or indexing copies the fit out of the buffer before the
        # lock is released.
        fit = crit.fit(gamma)
        if (x[1:] > x[:-1]).all():
            # Every collapsed point is a jump of its own, and the kernel's
            # read-only values are the jumps.
            jumps, values = x, fit / gamma
        else:
            last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
            jumps, values = x[last], fit[last] / gamma
    return StepCdf(jumps=jumps, values=values)


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
    with _criterion(sample, background) as crit:
        return crit(gamma)


def criterion_curve(sample: SortedSample, background: KnownCdf, grid_size: int = 200) -> CriterionCurve:
    """Criterion evaluated on the uniform grid ``k / grid_size``, k = 1..grid_size.

    The background CDF is evaluated and tied points are collapsed once per
    sample and background, as in :func:`criterion`, and the grid is
    evaluated a chunk of gammas at a time, so each numpy operation around
    the projections covers many grid points when the sample is small.  The
    first chunk projects every distinct (value, ecdf) pair, weighted by
    its count.  A pair whose isotonic block is itself alone and inside
    ``[0, gamma]`` carries no residual, and keeps carrying none as gamma
    rises, because blocks only split; after each chunk such pairs retire,
    and later chunks project only the pairs left, none once every pair has
    retired.  The values are those :func:`criterion` returns, bit for bit.
    """
    check_count("grid_size", grid_size)
    if grid_size < 10:
        raise ValueError("grid_size must be at least 10")
    gammas = np.arange(1, grid_size + 1, dtype=float) / grid_size
    with _criterion(sample, background) as crit:
        values = crit.curve(gammas)
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
    0 when the background alone already fits within the threshold.  The
    sample keeps the roots it has found, so the same threshold against the
    same background costs no projection the second time.
    """
    if c_n <= 0.0 or not math.isfinite(c_n):
        raise ValueError("c_n must be positive and finite")
    with _criterion(sample, background) as crit:
        return crit.root(c_n / math.sqrt(sample.n))


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
