"""Desk-scale simulation harness for the mixture estimators.

Four data-generating processes are built in:

* ``A`` - multiple-testing p-values: each of ``n`` units contributes ``j``
  normal observations (optionally block-correlated across units), and a
  two-sided one-sample t-test p-value per unit; alternatives get a mean
  drawn from a symmetric bi-triangular effect distribution.  Background is
  Uniform(0, 1).
* ``B`` - z-scores with moving-average dependence: overlapping windows of
  standard normals plus a random shift of magnitude Uniform(m*, m*+1) and
  random sign for alternatives.  Background is Normal(0, 1).
* ``setting_i`` / ``setting_ii`` - i.i.d. draws from Normal(2,1) vs
  Normal(0,1), resp. Beta(1,10) vs Uniform(0,1).

Replications use independent per-index streams keyed off the base seed, so
results are bit-identical regardless of evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from io import StringIO

import numpy as np
from scipy import special

from .confidence import critical_value
from .distributions import Beta, KnownCdf, Normal, Uniform
from .identifiability import essinf_density_ratio
from .mixture_core import (
    NoElbowError,
    SortedSample,
    criterion_curve,
    default_cn,
    elbow_estimate,
    estimate_alpha_cn,
)
from .rng import DEFAULT_SEED, stream

__all__ = [
    "ScenarioConfig",
    "MetricsRow",
    "MetricsTable",
    "bitriangular_sample",
    "block_correlated_normals",
    "gen_scenario_a",
    "gen_scenario_b",
    "generate",
    "background_for",
    "alpha0_reference",
    "scenario_b_signal_density",
    "scenario_b_alpha0_factor",
    "run_replications",
]

_SCENARIOS = ("A", "B", "setting_i", "setting_ii")

# Effect-size distribution bounds used throughout scenario A: shifts between
# a 1.2-fold and a 4-fold change on the log2 scale.
BITRIANGULAR_A = math.log2(1.2)
BITRIANGULAR_B = math.log2(4.0)

# Stream namespace separating scenario data from other subsystems sharing
# the base seed (the quantile simulation uses its own namespace).
_NS_DATA = 7919


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of one simulation experiment.

    ``estimators`` entries are ``"cn:<tau>"`` (thresholded estimate with
    threshold ``tau * log log n``), ``"elbow"``, or ``"lower_bound"``.
    """

    scenario: str
    n: int
    alpha: float
    replications: int = 200
    base_seed: int = DEFAULT_SEED
    # scenario A
    j: int = 10
    rho: float = 0.0
    block_size: int = 100
    # scenario B
    dependence_lag: int = 0
    m_star: float = 1.0
    # estimation
    estimators: tuple[str, ...] = ("cn:0.1", "elbow", "lower_bound")
    beta: float = 0.05
    curve_grid: int = 200

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"scenario must be one of {_SCENARIOS}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.j < 2:
            raise ValueError("scenario A needs at least 2 observations per unit")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.dependence_lag < 0:
            raise ValueError("dependence_lag must be non-negative")
        if self.m_star < 0.0:
            raise ValueError("m_star must be non-negative")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if self.curve_grid < 10:
            raise ValueError("curve_grid must be at least 10")
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        for spec in self.estimators:
            _parse_estimator(spec)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        allowed = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(payload) - set(allowed)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(payload)
        if "estimators" in kwargs:
            kwargs["estimators"] = tuple(kwargs["estimators"])
        return cls(**kwargs)


def _parse_estimator(spec: str):
    if spec == "elbow" or spec == "lower_bound":
        return spec, None
    if spec.startswith("cn:"):
        tau = float(spec[3:])
        if tau <= 0.0:
            raise ValueError("estimator cn:<tau> requires tau > 0")
        return "cn", tau
    raise ValueError(f"unknown estimator spec {spec!r}")


def bitriangular_sample(a: float, b: float, count: int, seed) -> np.ndarray:
    """Draw effect sizes from the symmetric bi-triangular density.

    Magnitudes follow a triangular density on [a, b] peaked at the
    midpoint; signs are independent fair flips, giving two mirrored
    triangles peaked at +-(a + b)/2.
    """
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else stream(int(seed))
    magnitudes = rng.triangular(a, 0.5 * (a + b), b, count)
    signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    return signs * magnitudes


def block_correlated_normals(n: int, draws: int, rho: float, block_size: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Standard normal noise with compound-symmetric correlation in blocks.

    Returns an ``(n, draws)`` array where units in the same block of
    ``block_size`` consecutive indices have correlation ``rho`` within each
    draw column, and columns are independent.
    """
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must lie in [0, 1)")
    eta = rng.standard_normal((n, draws))
    if rho == 0.0:
        return eta
    n_blocks = -(-n // block_size)
    shared = rng.standard_normal((n_blocks, draws))
    block_of = np.arange(n) // block_size
    return math.sqrt(rho) * shared[block_of, :] + math.sqrt(1.0 - rho) * eta


def gen_scenario_a(cfg: ScenarioConfig, replication: int = 0) -> np.ndarray:
    """One replication of scenario A: ``n`` two-sided t-test p-values."""
    rng = stream(cfg.base_seed, _NS_DATA, replication)
    n, j = cfg.n, cfg.j
    n_alt = round(cfg.alpha * n)
    means = np.zeros(n)
    if n_alt:
        alt_idx = rng.choice(n, size=n_alt, replace=False)
        means[alt_idx] = bitriangular_sample(BITRIANGULAR_A, BITRIANGULAR_B, n_alt, rng)
    noise = block_correlated_normals(n, j, cfg.rho, cfg.block_size, rng)
    data = means[:, None] + noise
    xbar = data.mean(axis=1)
    s2 = data.var(axis=1, ddof=1)
    t_stat = xbar / np.sqrt(s2 / j)
    return 2.0 * special.stdtr(j - 1, -np.abs(t_stat))


def gen_scenario_b(cfg: ScenarioConfig, replication: int = 0) -> np.ndarray:
    """One replication of scenario B: ``n`` shifted moving-average z-scores."""
    rng = stream(cfg.base_seed, _NS_DATA, replication)
    n, lag = cfg.n, cfg.dependence_lag
    w = rng.standard_normal(n + lag)
    window = np.ones(lag + 1)
    z = np.convolve(w, window, mode="valid") / math.sqrt(lag + 1)
    shifts = np.zeros(n)
    n_alt = round(cfg.alpha * n)
    if n_alt:
        alt_idx = rng.choice(n, size=n_alt, replace=False)
        magnitudes = rng.uniform(cfg.m_star, cfg.m_star + 1.0, n_alt)
        signs = np.where(rng.random(n_alt) < 0.5, -1.0, 1.0)
        shifts[alt_idx] = signs * magnitudes
    return z + shifts


def _gen_setting(cfg: ScenarioConfig, replication: int,
                 signal: KnownCdf, background: KnownCdf) -> np.ndarray:
    rng = stream(cfg.base_seed, _NS_DATA, replication)
    take_signal = rng.random(cfg.n) < cfg.alpha
    signal_draws = signal.sample(cfg.n, rng)
    background_draws = background.sample(cfg.n, rng)
    return np.where(take_signal, signal_draws, background_draws)


def generate(cfg: ScenarioConfig, replication: int = 0) -> np.ndarray:
    """Data for one replication of the configured scenario."""
    if cfg.scenario == "A":
        return gen_scenario_a(cfg, replication)
    if cfg.scenario == "B":
        return gen_scenario_b(cfg, replication)
    if cfg.scenario == "setting_i":
        return _gen_setting(cfg, replication, Normal(2.0, 1.0), Normal(0.0, 1.0))
    return _gen_setting(cfg, replication, Beta(1.0, 10.0), Uniform(0.0, 1.0))


def background_for(cfg: ScenarioConfig) -> KnownCdf:
    """The known background matching the scenario's data scale."""
    if cfg.scenario in ("A", "setting_ii"):
        return Uniform(0.0, 1.0)
    return Normal(0.0, 1.0)


def scenario_b_signal_density(m_star: float):
    """Analytic density of a scenario-B alternative observation.

    A standard normal shifted by a random magnitude Uniform(m*, m*+1) with
    random sign; the convolution has the closed form below.
    """
    ndtr = special.ndtr

    def density(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (ndtr(x - m_star) - ndtr(x - m_star - 1.0)
                      + ndtr(x + m_star + 1.0) - ndtr(x + m_star))

    return density


def scenario_b_alpha0_factor(m_star: float, grid: int = 100_000) -> float:
    """Ratio ``alpha_0 / alpha`` for scenario B via the numeric essential infimum."""
    fb = Normal(0.0, 1.0)
    essinf = essinf_density_ratio(scenario_b_signal_density(m_star), fb.density,
                                  fb.quantile, grid)
    return 1.0 - essinf


def alpha0_reference(cfg: ScenarioConfig) -> float:
    """Identifiable proportion implied by the scenario configuration.

    Scenarios A, setting_i and setting_ii are identifiable (the signal
    density ratio bottoms out at zero), so the reference is ``alpha``
    itself; scenario B's shrinkage factor is computed numerically from the
    analytic alternative density.
    """
    if cfg.scenario == "B":
        return cfg.alpha * scenario_b_alpha0_factor(cfg.m_star)
    return cfg.alpha


@dataclass(frozen=True)
class MetricsRow:
    estimator: str
    mean: float
    rmse: float
    coverage: float | None = None


@dataclass(frozen=True)
class MetricsTable:
    """Per-estimator summary over the replications of one configuration."""

    scenario: str
    n: int
    alpha: float
    alpha0: float
    replications: int
    base_seed: int
    rows: tuple[MetricsRow, ...]

    def to_csv_text(self) -> str:
        import csv as _csv

        buf = StringIO()
        writer = _csv.writer(buf)
        writer.writerow(["estimator", "alpha", "alpha0", "mean", "rmse", "coverage", "reps"])
        for row in self.rows:
            writer.writerow([
                row.estimator,
                repr(self.alpha),
                repr(self.alpha0),
                repr(row.mean),
                repr(row.rmse),
                "" if row.coverage is None else repr(row.coverage),
                self.replications,
            ])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "alpha": self.alpha,
            "alpha0": self.alpha0,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "rows": [
                {
                    "estimator": r.estimator,
                    "mean": r.mean,
                    "rmse": r.rmse,
                    "coverage": r.coverage,
                }
                for r in self.rows
            ],
        }


def run_replications(cfg: ScenarioConfig) -> MetricsTable:
    """Run the configured experiment and summarise each estimator.

    Point estimators report mean and RMSE against the scenario's
    identifiable proportion; the lower confidence bound also reports
    coverage (the fraction of replications with bound <= alpha_0).  The
    result is bit-identical for a given ``base_seed``.
    """
    background = background_for(cfg)
    alpha0 = alpha0_reference(cfg)
    parsed = [(_parse_estimator(spec), spec) for spec in cfg.estimators]
    needs_lower = any(kind == "lower_bound" for (kind, _), _ in parsed)
    c_lower = critical_value(cfg.n, cfg.beta, cfg.base_seed) if needs_lower else None

    def one_rep(rep: int) -> dict[str, float]:
        sample = SortedSample.from_data(generate(cfg, rep))
        out: dict[str, float] = {}
        curve = None
        for (kind, tau), spec in parsed:
            if kind == "cn":
                out[spec] = estimate_alpha_cn(sample, background,
                                              default_cn(sample.n, tau))
            elif kind == "elbow":
                if curve is None:
                    curve = criterion_curve(sample, background, cfg.curve_grid)
                try:
                    out[spec] = elbow_estimate(curve)
                except NoElbowError:
                    out[spec] = 0.0  # flat curve: no detectable signal
            else:
                out[spec] = estimate_alpha_cn(sample, background, c_lower)
        return out

    per_rep = [one_rep(rep) for rep in range(cfg.replications)]

    rows = []
    for (kind, _), spec in parsed:
        values = np.asarray([r[spec] for r in per_rep])
        mean = float(values.mean())
        rmse = float(np.sqrt(np.mean((values - alpha0) ** 2)))
        coverage = None
        if kind == "lower_bound":
            coverage = float(np.mean(values <= alpha0 + 1e-12))
        rows.append(MetricsRow(estimator=spec, mean=mean, rmse=rmse, coverage=coverage))
    return MetricsTable(
        scenario=cfg.scenario,
        n=cfg.n,
        alpha=cfg.alpha,
        alpha0=alpha0,
        replications=cfg.replications,
        base_seed=cfg.base_seed,
        rows=tuple(rows),
    )
