"""Recovery of the signal distribution once a mixing proportion is fixed.

Plugging an estimated proportion into the isotonized inversion gives a
step-function estimate of the signal CDF.  When the signal lives on
[0, inf) and is believed concave (equivalently, has a non-increasing
density, the typical shape of p-values under alternatives), taking the
least concave majorant yields a valid CDF whose left derivative is a
non-increasing density estimate; remarkably, the majorant is never farther
from a concave truth than the step function it wraps.  The density feeds a
local false discovery rate curve for individual observations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import KnownCdf
from .mixture_core import SortedSample, StepCdf, isotonized_cdf
from .shape_restricted import PiecewiseLinearConcaveFn, least_concave_majorant

__all__ = [
    "MonotoneStepDensity",
    "LfdrCurve",
    "SignalEstimate",
    "estimate_fs",
    "concavify",
    "density_estimate",
    "lfdr",
    "recover_signal",
]


@dataclass(frozen=True, eq=False)
class MonotoneStepDensity:
    """Left-continuous step density: ``values[i]`` on ``(knots[i], knots[i+1]]``.

    Below the first positive knot the first segment's value applies, and
    beyond the last knot the density is 0.  Values are non-increasing, so
    this is a monotone (Grenander-style) density estimate.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.ndim != 1 or values.ndim != 1 or knots.size != values.size + 1:
            raise ValueError("need one more knot than segment values")
        # Each check is written so that a NaN fails it.
        if np.isnan(knots).any() or not (knots[1:] > knots[:-1]).all():
            raise ValueError("knots must be strictly increasing")
        if not ((values >= 0.0).all() and (np.diff(values) <= 1e-12).all()):
            raise ValueError("density values must be non-negative and non-increasing")

    def evaluate(self, x):
        """Evaluate at ``x`` (scalar or array)."""
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        if self.values.size == 0:
            out = np.zeros_like(xq)
            return float(out[0]) if scalar else out
        idx = np.searchsorted(self.knots, xq, side="left")
        idx = np.clip(idx - 1, 0, self.values.size - 1)
        out = self.values[idx]
        out = np.where(xq > self.knots[-1], 0.0, out)
        return float(out[0]) if scalar else out

    def integral(self) -> float:
        """Total mass over the support (telescopes to the CDF increment)."""
        return float(np.sum(self.values * np.diff(self.knots)))


@dataclass(frozen=True, eq=False)
class LfdrCurve:
    """Local false discovery rate values at given evaluation points."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if points.shape != values.shape or points.ndim != 1:
            raise ValueError("points and values must be one-dimensional and equal length")
        # Each check is written so that a NaN fails it.
        if np.isnan(points).any() or not (points[1:] >= points[:-1]).all():
            raise ValueError("evaluation points must be non-decreasing")
        if not ((values >= -1e-12) & (values <= 1.0 + 1e-12)).all():
            raise ValueError("lfdr values must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class SignalEstimate:
    """Bundle of the signal-recovery outputs for one proportion."""

    alpha_used: float
    fs_step: StepCdf
    fs_concave: PiecewiseLinearConcaveFn
    density: MonotoneStepDensity


def estimate_fs(sample: SortedSample, background: KnownCdf, alpha: float) -> StepCdf:
    """Signal-CDF estimate at a given (estimated or known) proportion.

    This is the isotonized inversion evaluated at ``gamma = alpha``.
    ``alpha`` must be positive: with no signal mass the component is not
    defined.
    """
    if alpha == 0.0:
        raise ValueError("signal proportion zero: no signal component to estimate")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    return isotonized_cdf(sample, background, alpha)


def concavify(fs_step: StepCdf) -> PiecewiseLinearConcaveFn:
    """Least concave majorant of a signal-CDF step estimate on [0, inf).

    Anchored at (0, 0) (the step function is 0 left of its first jump), so
    the result is a genuine concave CDF majorising the input.  Supports
    only non-negative jump locations; shift data first if needed.
    """
    if fs_step.jumps[0] < 0.0:
        raise ValueError("concavification requires non-negative support")
    if fs_step.jumps[0] > 0.0:
        knots = np.concatenate([[0.0], fs_step.jumps])
        values = np.concatenate([[0.0], fs_step.values])
    else:
        knots = fs_step.jumps
        values = fs_step.values
    return least_concave_majorant(knots, values)


def density_estimate(f: PiecewiseLinearConcaveFn) -> MonotoneStepDensity:
    """Left derivative of a concave CDF majorant as a step density.

    Piecewise constant, non-negative and non-increasing; integrates over
    the support to ``f(last knot) - f(first knot)``.
    """
    slopes = f.slopes()
    slopes = np.maximum(slopes, 0.0)
    return MonotoneStepDensity(knots=f.knots, values=slopes)


def lfdr(points, alpha: float, density: MonotoneStepDensity, background: KnownCdf) -> LfdrCurve:
    """Local false discovery rate at the given points.

    ``(1 - alpha) f_b(x)`` over the mixture density ``alpha f_s(x) +
    (1 - alpha) f_b(x)``: the posterior probability that an observation at
    ``x`` came from the background.  Requires a background with a density.
    Where the mixture density vanishes the rate is set to 1 (no evidence
    against the background).
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError("points must be one-dimensional")
    if np.any(np.diff(pts) < 0.0):
        raise ValueError("evaluation points must be non-decreasing")
    fb = np.asarray(background.density(pts), dtype=float)  # raises when unavailable
    fs = density.evaluate(pts)
    numer = (1.0 - alpha) * fb
    denom = alpha * fs + numer
    values = np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0), 1.0)
    return LfdrCurve(points=pts, values=np.clip(values, 0.0, 1.0))


def recover_signal(sample: SortedSample, background: KnownCdf, alpha: float) -> SignalEstimate:
    """Full signal-recovery pipeline at a fixed proportion."""
    fs_step = estimate_fs(sample, background, alpha)
    fs_concave = concavify(fs_step)
    dens = density_estimate(fs_concave)
    return SignalEstimate(alpha_used=alpha, fs_step=fs_step, fs_concave=fs_concave, density=dens)

