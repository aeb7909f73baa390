"""Finite-sample lower confidence bound for the mixing proportion.

The statistic ``sqrt(n) * d_n(F_n, F)`` computed at the true sampling
distribution is distribution-free for continuous ``F``, so its null
quantiles can be simulated once from uniforms and reused for any
background.  Thresholding the criterion at such a quantile turns the point
estimator into a lower confidence bound: ``P(alpha_0 >= bound) >= 1 -
beta``, with equality exactly when the sample is pure background.  The
same threshold yields a test of homogeneity (signal proportion zero) that
remains consistent against sparse alternatives whose proportion decays
slower than ``n**-0.5``.

The guarantee assumes i.i.d. observations and, against a continuous
background, untied data; neither is checked.  Both failures are
anti-conservative.  At n = 1 000 and beta = 0.05, moving-average
dependence (lag 20) cuts the coverage of ``alpha_0`` to 0.19-0.44, and
block correlation (rho 0.5, blocks of 100) to 0.35-0.66: the
``validation/dependence_*`` rows of the committed simulation record, 400
replications each.  Pure uniforms rounded to 2 decimals were rejected as
non-homogeneous on 10 of 10 samples at n = 1e5.
"""
from __future__ import annotations

import csv
import functools
import importlib.resources
import math
from dataclasses import dataclass
from io import StringIO
from types import MappingProxyType

import numpy as np

from ._validate import check_count, check_seed
from .distributions import KnownCdf
from .mixture_core import SortedSample, estimate_alpha_cn
from .rng import DEFAULT_SEED, stream

__all__ = [
    "HomogeneityResult",
    "critical_value",
    "simulate_hn_quantile",
    "asymptotic_cvm_quantile",
    "lower_bound",
    "homogeneity_test",
]

# Sample size from which the asymptotic quantile is used by default.
ASYMPTOTIC_N = 500

# Monte Carlo replications behind critical_value below ASYMPTOTIC_N.
_DEFAULT_B = 10_000

# Package data: the Monte Carlo quantiles at the library defaults (b =
# _DEFAULT_B, seed = DEFAULT_SEED) for n below ASYMPTOTIC_N, one
# ``n,beta,B,seed,quantile`` row per key under a _TABLE_HEADER line.
# scripts/make_hn_table.py writes it and checks it against
# simulate_hn_quantile.
_TABLE_FILE = "data/hn_quantiles.csv"
_TABLE_HEADER = ["n", "beta", "B", "seed", "quantile"]

# Simulated quantiles kept in memory per process, one float per
# (n, beta, b, seed) key.
_MEMO_SIZE = 256

# Uniforms per simulation chunk (512 KB of float64): a chunk holds
# max(1, _CHUNK_VALUES // n) replications.
_CHUNK_VALUES = 65_536

# Namespace tag separating the quantile simulation's streams from other
# subsystems that may share the same base seed.
_NS_HN = 104729

# Upper-tail quantiles of the square root of the limiting Cramer-von Mises
# statistic (integral of a squared Brownian bridge).  Keyed by beta.
_SQRT_CVM_QUANTILES = {
    0.10: math.sqrt(0.34730),
    0.05: math.sqrt(0.46136),
    0.01: math.sqrt(0.74346),
}


@dataclass(frozen=True)
class HomogeneityResult:
    """Outcome of the no-signal test: reject iff the lower bound is positive."""

    reject: bool
    alpha_lower: float
    critical_value: float
    beta: float


def simulate_hn_quantile(n: int, beta: float, b: int = _DEFAULT_B, seed: int = DEFAULT_SEED) -> float:
    """Upper ``1 - beta`` quantile of ``sqrt(n) * d_n(F_n, F)`` under the null.

    Simulated with ``b`` uniform samples of size ``n`` (the statistic is
    distribution-free for continuous sampling distributions, so uniforms
    lose nothing).  The quantile is the order statistic of rank
    ``ceil(b * (1 - beta))``.  Deterministic given ``seed``; replications
    use independent per-index streams, so any evaluation order gives the
    same result.  Each ``(n, beta, b, seed)`` is simulated once per
    process and then served from memory.
    """
    _check_quantile_args(n, beta, b, seed)
    return _hn_quantile(int(n), float(beta), int(b), int(seed))


def _check_quantile_args(n, beta, b, seed) -> None:
    """Checks every quantile entry point runs before it looks at a table or the memo."""
    check_count("n", n)
    check_count("b", b)
    check_seed(seed)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if b < 1000:
        raise ValueError("need at least 1000 replications for a stable quantile")


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _hn_quantile(n: int, beta: float, b: int, seed: int) -> float:
    grid = np.arange(1, n + 1, dtype=float) / n
    rows = max(1, _CHUNK_VALUES // n)
    buf = np.empty((rows, n))
    stats = np.empty(b)
    for start in range(0, b, rows):
        chunk = buf[:min(rows, b - start)]
        for i, row in enumerate(chunk):
            stream(seed, _NS_HN, start + i).random(out=row)
        chunk.sort(axis=1)
        diff = grid - chunk
        stats[start:start + len(chunk)] = np.sqrt(n * np.mean(diff * diff, axis=1))
    rank = math.ceil(b * (1.0 - beta))
    return float(np.partition(stats, rank - 1)[rank - 1])


def asymptotic_cvm_quantile(beta: float) -> float:
    """Upper ``1 - beta`` quantile of the limiting null statistic.

    Tabulated for beta = 0.10, 0.05 and 0.01 only (at 0.05 the value is
    0.6792); any other level raises ``ValueError``.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    for level, value in _SQRT_CVM_QUANTILES.items():
        if math.isclose(beta, level, rel_tol=0.0, abs_tol=1e-12):
            return value
    raise ValueError(
        f"asymptotic quantile tabulated only for beta in {{0.10, 0.05, 0.01}}, got {beta!r}"
    )


def critical_value(n: int, beta: float) -> float:
    """Threshold for a sample of size ``n`` at level ``beta``: one number per ``(n, beta)``.

    From ``n = ASYMPTOTIC_N`` on this is the asymptotic quantile.  Below
    it, it is the Monte Carlo quantile with the default ``b`` replications
    at ``DEFAULT_SEED``: read from the shipped table at the three tabulated
    levels, otherwise :func:`simulate_hn_quantile` (once per process).
    """
    _check_quantile_args(n, beta, _DEFAULT_B, DEFAULT_SEED)
    if n >= ASYMPTOTIC_N:
        return asymptotic_cvm_quantile(beta)
    tabulated = _table().get(_key(n, beta, _DEFAULT_B, DEFAULT_SEED))
    if tabulated is not None:
        return tabulated
    return simulate_hn_quantile(n, beta)


def lower_bound(sample: SortedSample, background: KnownCdf, beta: float = 0.05) -> float:
    """Lower confidence bound for the identifiable mixing proportion.

    ``P(alpha_0 >= bound) >= 1 - beta`` for every n, with equality when
    the sample is pure background, provided the observations are i.i.d.
    and, against a continuous background, untied (see the module
    docstring for what breaks otherwise).  The bound is the thresholded estimator
    evaluated at the ``1 - beta`` null quantile :func:`critical_value`
    (asymptotic from n = 500, Monte Carlo below); it equals 0 exactly when
    ``sqrt(n) * d_n(F_n, F_b)`` stays within that quantile.  For another
    threshold call :func:`~mixsep.mixture_core.estimate_alpha_cn` directly.
    """
    return homogeneity_test(sample, background, beta).alpha_lower


def homogeneity_test(sample: SortedSample, background: KnownCdf, beta: float = 0.05) -> HomogeneityResult:
    """Test whether the sample is pure background at level ``beta``.

    Rejects exactly when the lower confidence bound is positive, i.e. when
    even a zero signal proportion cannot bring the fit within the null
    quantile.  Consistent against fixed alternatives and against sparse
    ones with proportion ``~ n**-lambda`` for lambda < 1/2.  The level is
    ``beta`` only for i.i.d. observations and, against a continuous
    background, untied data; dependent or rounded samples are rejected
    far more often (module docstring).
    """
    c_n = critical_value(sample.n, beta)
    bound = estimate_alpha_cn(sample, background, c_n)
    return HomogeneityResult(reject=bound > 0.0, alpha_lower=bound, critical_value=c_n, beta=beta)


def _key(n, beta, b, seed) -> tuple:
    """Row key of the quantile table: ``(n, repr(beta), B, seed)``."""
    return (int(n), repr(float(beta)), int(b), int(seed))


def _read_rows(text: str):
    """Yield ``(key, quantile)`` for each row of the quantile table.

    The header line is skipped; any other row that does not parse raises
    ``ValueError``.
    """
    rows = csv.reader(StringIO(text))
    for row in rows:
        if row == _TABLE_HEADER:
            continue
        try:
            n, beta, b, seed, quantile = row
            key, value = _key(n, beta, b, seed), float(quantile)
        except ValueError:
            raise ValueError(f"quantile table line {rows.line_num}: malformed row {row!r}") from None
        yield key, value


@functools.lru_cache(maxsize=None)
def _table() -> MappingProxyType:
    """The shipped quantile table, parsed on first use."""
    text = importlib.resources.files(__package__).joinpath(_TABLE_FILE).read_text(encoding="utf-8")
    return MappingProxyType(dict(_read_rows(text)))
