"""Shape-restricted regression primitives.

Weighted isotonic regression (scipy's compiled pool-adjacent-violators
behind the package's own input checks), clipping to the unit interval, and
least concave majorants of finite point sets.  These are the projection
steps used to turn a raw component-CDF estimate into a valid distribution
function and, later, into a non-increasing density.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression as _scipy_isotonic_regression

__all__ = [
    "isotonic_regression",
    "clip_unit",
    "PiecewiseLinearConcaveFn",
    "least_concave_majorant",
]

# Absolute slack used when validating concavity of user-supplied knot sets.
_CONCAVITY_TOL = 1e-12


def isotonic_regression(values, weights=None) -> np.ndarray:
    """Weighted least-squares isotonic regression.

    Minimises ``sum(w_i * (theta_i - v_i)**2)`` over non-decreasing
    ``theta``.  The fit is delegated to
    :func:`scipy.optimize.isotonic_regression` (compiled
    pool-adjacent-violators, O(n)); this wrapper keeps the input checks and
    error messages below, which scipy does not make in the same form.

    Parameters
    ----------
    values : array_like
        Observations, one-dimensional, all finite.
    weights : array_like, optional
        Positive finite weights, same length as ``values``.  Defaults to
        uniform weights, which realise the empirical L2 metric used by the
        mixture criterion.

    Returns
    -------
    numpy.ndarray
        The fitted non-decreasing vector.  Constant on each pooled block,
        where the value is the weighted block average.

    Raises
    ------
    ValueError
        On empty input, length mismatch, non-finite entries, or
        non-positive weights.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if v.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if weights is None:
        w = None
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise ValueError("weights must match values in length")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be positive and finite")
    return _scipy_isotonic_regression(v, weights=w).x


def clip_unit(seq) -> np.ndarray:
    """Clamp a sequence into [0, 1] elementwise.

    Together with :func:`isotonic_regression` this realises the projection
    of an arbitrary vector onto the set of CDF values evaluated at the data
    points: isotonise first, then clamp.
    """
    x = np.asarray(seq, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    return np.clip(x, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearConcaveFn:
    """Concave piecewise-linear function defined by its knots.

    Linear between knots, constant beyond the last knot (the natural
    extension when the function is a CDF majorant).  Queries below the
    first knot are an error.

    Attributes
    ----------
    knots : numpy.ndarray
        Strictly increasing x-coordinates.
    values : numpy.ndarray
        Function values at the knots.  Segment slopes must be
        non-increasing (within a 1e-12 slack) for the function to be
        concave.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.ndim != 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be one-dimensional and equal length")
        if knots.size == 0:
            raise ValueError("empty sample")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("knots and values must be finite")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        slopes = self.slopes()
        if slopes.size >= 2 and np.any(np.diff(slopes) > _CONCAVITY_TOL):
            raise ValueError("segment slopes must be non-increasing")

    def slopes(self) -> np.ndarray:
        """Per-segment slopes, one fewer entries than knots."""
        if self.knots.size < 2:
            return np.empty(0)
        return np.diff(self.values) / np.diff(self.knots)

    def evaluate(self, x):
        """Evaluate at ``x`` (scalar or array).

        Constant at the last value beyond the final knot; raises for
        queries below the first knot.
        """
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        if np.any(xq < self.knots[0] - _CONCAVITY_TOL):
            raise ValueError("query point below the function's domain")
        out = np.interp(xq, self.knots, self.values)
        return float(out[0]) if scalar else out

    def left_derivative(self, x):
        """Left-hand slope at ``x`` (scalar or array).

        Piecewise constant and non-increasing; at a knot it returns the
        slope of the segment ending there.  ``x`` must lie in
        ``(knots[0], knots[-1] + slack]`` with
        ``slack = 1e-12 * max(1, |knots[0]|, |knots[-1]|)``, so that a query
        which is the last knot in exact arithmetic but rounds just past it
        gets the last segment's slope.  Queries farther out raise: the
        constant extension of :meth:`evaluate` has slope 0 there, which
        breaks concavity whenever the last slope is negative.
        """
        if self.knots.size < 2:
            raise ValueError("left derivative undefined for a single-knot function")
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        first, last = self.knots[0], self.knots[-1]
        slack = _CONCAVITY_TOL * max(1.0, abs(first), abs(last))
        if np.any(xq <= first) or np.any(xq > last + slack):
            raise ValueError("query point outside (first knot, last knot]")
        seg = np.searchsorted(self.knots, np.minimum(xq, last), side="left")
        out = self.slopes()[seg - 1]
        return float(out[0]) if scalar else out


def least_concave_majorant(knots, values) -> PiecewiseLinearConcaveFn:
    """Least concave majorant of the points ``(knots[i], values[i])``.

    Returns the upper convex hull of the point set as a piecewise-linear
    function: the smallest concave function lying on or above every input
    point.  Collinear interior points are dropped, so the returned knot set
    is minimal.

    Raises
    ------
    ValueError
        If lengths differ, the input is empty, or knots are tied or not
        increasing.
    """
    x = np.asarray(knots, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("knots and values must be one-dimensional and equal length")
    if x.size == 0:
        raise ValueError("empty sample")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("knots and values must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("knots must be strictly increasing (ties rejected)")

    # A point whose two neighbours share its value lies on the chord between
    # them, so it is never a hull vertex: drop such points before the loop.
    keep = np.ones(x.size, dtype=bool)
    keep[1:-1] = (y[1:-1] != y[:-2]) | (y[1:-1] != y[2:])
    x, y = x[keep], y[keep]

    hx: list[float] = []
    hy: list[float] = []
    for xi, yi in zip(x.tolist(), y.tolist()):
        # Pop the last hull point while it lies on or below the chord from
        # the point before it to the incoming point.
        while len(hx) >= 2:
            turn = (hy[-1] - hy[-2]) * (xi - hx[-1]) - (yi - hy[-1]) * (hx[-1] - hx[-2])
            if turn <= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(xi)
        hy.append(yi)
    return PiecewiseLinearConcaveFn(np.asarray(hx), np.asarray(hy))
