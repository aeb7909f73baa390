"""Shape-restricted regression primitives.

Weighted isotonic regression and least concave majorants of finite point
sets, both on scipy's compiled pool-adjacent-violators.  The isotonic fit is
the projection step that turns a raw component-CDF estimate into a valid
distribution function (the caller clamps the fit to the CDF's range), and
the majorant turns that CDF into one with a non-increasing density.  The
majorant needs no hull loop of its own: its slopes are the antitonic fit of
the chord slopes ``dy / dx`` weighted by ``dx`` (Barlow, Bartholomew,
Bremner & Brunk 1972; Robertson, Wright & Dykstra 1988, ch. 1).

The compiled routine, ``scipy.optimize._pava_pybind.pava``, is called
directly, not through the public :func:`scipy.optimize.isotonic_regression`.
The public wrapper allocates and first-touches three fresh arrays on every
call.  Here :class:`_Pava` owns the buffers of one projection, and the
mixture criterion (``mixture_core._Criterion``), which projects one vector
length hundreds of times per fit, calls the routine itself on the rows of
buffers it allocates once, a chunk of gammas per pass.

The extension module is loaded from its file in scipy's ``optimize``
directory rather than imported.  ``import scipy.optimize._pava_pybind``
first runs the ``scipy.optimize`` package ``__init__``, which imports much
of scipy (``scipy.special`` included) and takes longer than everything else
a ``mixsep`` command imports; the compiled module itself needs none of it.
The loaded module is not entered in ``sys.modules``.  If the file is not
where scipy's layout puts it, or cannot be loaded, the regular import is
the fallback, which gives the same routine at the old import cost.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "isotonic_regression",
    "PiecewiseLinearConcaveFn",
    "least_concave_majorant",
]

# Absolute slack used when validating concavity of user-supplied knot sets.
_CONCAVITY_TOL = 1e-12


def _load_pava():
    """scipy's compiled ``pava``, without importing ``scipy.optimize``.

    ``find_spec`` locates scipy's package directory without importing
    scipy.  pybind11 derives the module's init symbol from the last
    component of its name, so the name ends in ``_pava_pybind``.
    """
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_pava_pybind" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(f"{__name__}._pava_pybind", path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
            except (ImportError, OSError):
                continue
            return module.pava
    from scipy.optimize._pava_pybind import pava

    return pava


_pava = _load_pava()


class _Pava:
    """Reusable buffers for scipy's compiled pool-adjacent-violators.

    Owns the three arrays the compiled routine works in: the values ``x``
    and the weights ``w`` (``size`` floats each) and the block bounds ``r``
    (``size + 1`` ``intp``).  Each call refills ``x`` and ``w``, so
    projecting many vectors of one length allocates no array of that
    length.  ``weights`` (positive, finite, length ``size``) or ``None``
    for uniform weights is fixed at construction.  No input is checked:
    callers pass finite values of length ``size``.
    """

    def __init__(self, weights, size: int):
        self._weights = weights
        self._x = np.empty(size)
        self._w = np.empty(size)
        self._r = np.empty(size + 1, dtype=np.intp)

    def __call__(self, values) -> tuple[np.ndarray, np.ndarray]:
        """The weighted isotonic fit of ``values`` and its block starts.

        Returns the fit and the index at which each pooled block starts
        (ascending, beginning with 0).  Both are views of the workspace's
        buffers, which the next call overwrites.
        """
        np.copyto(self._x, values)
        if self._weights is None:
            self._w.fill(1.0)
        else:
            np.copyto(self._w, self._weights)
        # The routine writes r[0] and each r[b + 1] before reading them, so
        # r needs no refill.  pybind11 copies an input that is not a
        # contiguous array of the declared dtype, so read the fit from what
        # the routine returns.
        x, _, r, b = _pava(self._x, self._w, self._r)
        return x, r[:b]


def isotonic_regression(values, weights=None) -> np.ndarray:
    """Weighted least-squares isotonic regression.

    Minimises ``sum(w_i * (theta_i - v_i)**2)`` over non-decreasing
    ``theta``.  The fit is scipy's compiled pool-adjacent-violators
    (``scipy.optimize._pava_pybind.pava``, O(n)), the routine behind
    :func:`scipy.optimize.isotonic_regression`, called through a fresh
    :class:`_Pava` workspace whose buffer the caller then owns.  This
    function makes the input checks and raises the error messages below;
    the workspace makes none, so that a caller projecting validated data
    many times does not pay scipy's per-call allocations.

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
    return _Pava(w, v.size)(v)[0]


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
        Function values at the knots.  Segment slopes must be finite and
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
        with np.errstate(all="ignore"):
            slopes = self.slopes()
        if not np.all(np.isfinite(slopes)):
            raise ValueError("segment slopes must be finite")
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
    point.  Its slopes are the antitonic fit of the chord slopes, weighted
    by the gaps, on the same compiled routine as :func:`isotonic_regression`;
    its knots are the input points where the pooled blocks start, plus the
    last.  Collinear interior points are dropped, so the knot set is minimal.

    Raises
    ------
    ValueError
        If lengths differ, the input is empty or not finite, knots are tied
        or not increasing, or a gap or a chord slope (between input points or
        between the majorant's knots) overflows float64.
    """
    x = np.asarray(knots, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("knots and values must be one-dimensional and equal length")
    if x.size == 0:
        raise ValueError("empty sample")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("knots and values must be finite")
    with np.errstate(all="ignore"):
        dx = np.diff(x)
        chords = np.diff(y) / dx
    if np.any(dx <= 0.0):
        raise ValueError("knots must be strictly increasing (ties rejected)")
    if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(chords))):
        raise ValueError("chord slopes overflow: knot gaps too small or too large")
    if x.size == 1:
        return PiecewiseLinearConcaveFn(x, y)

    # Each pooled block's fitted slope is the chord between its end points,
    # so the knots keep the input's values.
    _, starts = _Pava(dx, dx.size)(-chords)
    at = np.append(starts, x.size - 1)
    kx, ky = x[at], y[at]
    # Pooled chords are finite, but the chord between two kept knots can
    # still overflow when their values span more than float64 holds.
    with np.errstate(all="ignore"):
        slopes = np.diff(ky) / np.diff(kx)
    if not np.all(np.isfinite(slopes)):
        raise ValueError("chord slopes overflow: values span more than float64 holds")
    # Adjacent blocks may share a slope: drop the knot between two equal
    # chords, so that the knot set is minimal.
    corner = np.ones(kx.size, dtype=bool)
    corner[1:-1] = slopes[1:] != slopes[:-1]
    return PiecewiseLinearConcaveFn(kx[corner], ky[corner])
