"""Identifiable proportion of a fully specified mixture.

Writing the mixture as ``alpha * F_s + (1 - alpha) * F_b``, part of the
signal can be soaked up by the background whenever ``alpha * F_s - eps *
F_b`` remains a sub-CDF for some ``eps > 0``.  The identifiable proportion
``alpha_0 = alpha * (1 - inf f_s / f_b)`` (density or mass ratio, the
infimum taken where the background puts mass) is what any method relying
on the data alone can hope to recover.  This module computes it exactly
where closed forms exist (Poisson, binomial, normal, shifted exponential
pairs) and by a quantile-grid approximation of the essential infimum
otherwise; mixed continuous/discrete specifications combine the two parts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import check_count
from .distributions import Binomial, Exponential, KnownCdf, Normal, Poisson, Tabulated

__all__ = [
    "MixtureSpec",
    "MixedMixtureSpec",
    "alpha0_discrete",
    "alpha0_continuous",
    "alpha0_mixed",
    "alpha0_auto",
    "essinf_density_ratio",
]

_DEFAULT_GRID = 100_000


@dataclass(frozen=True)
class MixtureSpec:
    """A mixture ``alpha * signal + (1 - alpha) * background``."""

    alpha: float
    signal: KnownCdf
    background: KnownCdf

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")


def essinf_density_ratio(signal_density, background_density, background_quantile,
                         grid: int = _DEFAULT_GRID) -> float:
    """Essential infimum of ``f_s / f_b`` approximated on a quantile grid.

    Evaluates the ratio at ``grid`` background quantiles ``k / (grid+1)``;
    points where the background density vanishes impose no constraint and
    are skipped.  The result is capped at 1, the largest value the true
    essential infimum can take.  When the ratio attains its infimum only in
    the extreme tails the grid can overshoot; prefer the closed forms where
    they exist.
    """
    check_count("grid", grid)
    if grid < 1000:
        raise ValueError("grid must be at least 1000")
    probs = np.arange(1, grid + 1, dtype=float) / (grid + 1)
    xs = np.asarray(background_quantile(probs), dtype=float)
    fb = np.asarray(background_density(xs), dtype=float)
    fs = np.asarray(signal_density(xs), dtype=float)
    positive = fb > 0.0
    if not np.any(positive):
        return 1.0
    ratio = fs[positive] / fb[positive]
    return float(min(float(ratio.min()), 1.0))


def _atoms(d: KnownCdf) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(d, (Poisson, Binomial)):
        return d.atoms()
    if isinstance(d, Tabulated) and d.mode == "step":
        return d.atoms()
    raise ValueError("both components must be discrete (poisson, binomial, or step table)")


def _mass_at(d: KnownCdf, locations: np.ndarray) -> np.ndarray:
    if isinstance(d, (Poisson, Binomial)):
        return np.asarray(d.density(locations), dtype=float)
    if isinstance(d, Tabulated) and d.mode == "step":
        locs, masses = d.atoms()
        table = {float(x): float(m) for x, m in zip(locs, masses)}
        return np.asarray([table.get(float(x), 0.0) for x in locations], dtype=float)
    raise ValueError("both components must be discrete (poisson, binomial, or step table)")


def alpha0_discrete(spec: MixtureSpec, closed_form: bool = True) -> float:
    """Identifiable proportion for a purely discrete mixture.

    ``alpha * (1 - inf J_s(x)/J_b(x))`` over the background's atoms; when
    the background has an atom the signal misses entirely the infimum is 0
    and the full ``alpha`` is identifiable.  Poisson and equal-trials
    binomial pairs use their closed forms unless ``closed_form=False``
    forces the generic atom scan (the scan truncates unbounded supports at
    residual mass 1e-12, so ratios vanishing only far in the tail come out
    slightly positive).
    """
    alpha, fs, fb = spec.alpha, spec.signal, spec.background
    if fs == fb:
        return 0.0
    if closed_form and isinstance(fs, Poisson) and isinstance(fb, Poisson):
        if fs.rate < fb.rate:
            return alpha
        return alpha * (1.0 - math.exp(fb.rate - fs.rate))
    if (closed_form and isinstance(fs, Binomial) and isinstance(fb, Binomial)
            and fs.trials == fb.trials):
        n = fs.trials
        if fs.prob >= fb.prob:
            return alpha * (1.0 - ((1.0 - fs.prob) / (1.0 - fb.prob)) ** n)
        return alpha * (1.0 - (fs.prob / fb.prob) ** n)
    locs, bg_mass = _atoms(fb)
    sig_mass = _mass_at(fs, locs)
    ratio = sig_mass / bg_mass
    return float(np.clip(alpha * (1.0 - min(float(ratio.min()), 1.0)), 0.0, alpha))


def _normal_essinf(fs: Normal, fb: Normal) -> float:
    if fs.sd <= fb.sd:
        return 0.0
    # min_x f_s/f_b = (sd_b/sd_s) * exp(-(mu_s - mu_b)^2 / (2 (sd_s^2 - sd_b^2)))
    var_gap = (fs.sd - fb.sd) * (fs.sd + fb.sd)
    return (fb.sd / fs.sd) * math.exp(-(fs.mean - fb.mean) ** 2 / (2.0 * var_gap))


def _exponential_essinf(fs: Exponential, fb: Exponential) -> float:
    if fs.loc > fb.loc:
        return 0.0
    if fs.scale < fb.scale:
        return 0.0
    return (fb.scale / fs.scale) * math.exp((fs.loc - fb.loc) / fs.scale)


def alpha0_continuous(spec: MixtureSpec, grid: int = _DEFAULT_GRID,
                      closed_form: bool = True) -> float:
    """Identifiable proportion for a mixture of continuous components.

    ``alpha * (1 - essinf f_s / f_b)``.  Normal and shifted-exponential
    pairs short-circuit to closed forms (a normal signal is fully
    identifiable iff its sd does not exceed the background's; an
    exponential one iff it starts strictly later or decays no slower);
    everything else goes through the quantile-grid essential infimum.
    """
    alpha, fs, fb = spec.alpha, spec.signal, spec.background
    if fs == fb:
        return 0.0
    if closed_form and isinstance(fs, Normal) and isinstance(fb, Normal):
        return float(np.clip(alpha * (1.0 - _normal_essinf(fs, fb)), 0.0, alpha))
    if closed_form and isinstance(fs, Exponential) and isinstance(fb, Exponential):
        return float(np.clip(alpha * (1.0 - _exponential_essinf(fs, fb)), 0.0, alpha))
    if not (fs.has_density and fb.has_density):
        raise ValueError("both components need densities; mixed or tabulated "
                         "specifications are not continuous")
    essinf = essinf_density_ratio(fs.density, fb.density, fb.quantile, grid)
    return float(np.clip(alpha * (1.0 - essinf), 0.0, alpha))


@dataclass(frozen=True)
class MixedMixtureSpec:
    """Mixture whose components each split into continuous and discrete parts.

    The signal is ``kappa_signal * signal_continuous + (1 - kappa_signal) *
    signal_discrete`` and likewise for the background.  Parts whose weight
    is zero (resp. one) may be omitted.
    """

    alpha: float
    kappa_signal: float
    kappa_background: float
    signal_continuous: KnownCdf | None = None
    signal_discrete: KnownCdf | None = None
    background_continuous: KnownCdf | None = None
    background_discrete: KnownCdf | None = None

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        for name in ("kappa_signal", "kappa_background"):
            k = getattr(self, name)
            if not (0.0 <= k <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.kappa_signal > 0.0 and self.signal_continuous is None:
            raise ValueError("signal_continuous required when kappa_signal > 0")
        if self.kappa_signal < 1.0 and self.signal_discrete is None:
            raise ValueError("signal_discrete required when kappa_signal < 1")
        if self.kappa_background > 0.0 and self.background_continuous is None:
            raise ValueError("background_continuous required when kappa_background > 0")
        if self.kappa_background < 1.0 and self.background_discrete is None:
            raise ValueError("background_discrete required when kappa_background < 1")


def alpha0_mixed(spec: MixedMixtureSpec, grid: int = _DEFAULT_GRID) -> float:
    """Identifiable proportion when components mix continuous and atomic parts.

    The continuous and discrete sub-mixtures are handled separately and the
    binding constraint wins:

        alpha_0 = alpha - min(term_cont, term_disc)

    where each term measures how much proportion the corresponding part
    allows to be shifted into the background.  A term whose background part
    has zero weight imposes no constraint and is dropped; with both parts
    degenerate on the same side the formula reduces to the pure
    continuous/discrete computation.
    """
    alpha = spec.alpha
    ks, kb = spec.kappa_signal, spec.kappa_background
    kappa = alpha * ks + (1.0 - alpha) * kb
    terms = []
    if kb > 0.0:
        signal_mass = alpha * ks
        if signal_mass == 0.0:
            a0_cont = 0.0
        else:
            sub = MixtureSpec(signal_mass / kappa, spec.signal_continuous,
                              spec.background_continuous)
            a0_cont = alpha0_continuous(sub, grid)
        terms.append((signal_mass - a0_cont * kappa) / kb)
    if kb < 1.0:
        signal_mass = alpha * (1.0 - ks)
        if signal_mass == 0.0:
            a0_disc = 0.0
        else:
            sub = MixtureSpec(signal_mass / (1.0 - kappa), spec.signal_discrete,
                              spec.background_discrete)
            a0_disc = alpha0_discrete(sub)
        terms.append((signal_mass - a0_disc * (1.0 - kappa)) / (1.0 - kb))
    if not terms:
        raise ValueError("background weights degenerate on both sides")
    return float(np.clip(alpha - min(terms), 0.0, alpha))


def alpha0_auto(spec: MixtureSpec, grid: int = _DEFAULT_GRID) -> float:
    """Dispatch on the component types: discrete pair, else continuous pair."""
    if spec.signal.is_discrete and spec.background.is_discrete:
        return alpha0_discrete(spec)
    if spec.signal.is_discrete != spec.background.is_discrete:
        raise ValueError("mixed continuous/discrete components need an explicit "
                         "MixedMixtureSpec decomposition")
    return alpha0_continuous(spec, grid)
