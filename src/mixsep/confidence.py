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
"""
from __future__ import annotations

import csv
import functools
import importlib.resources
import math
import os
import tempfile
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ._validate import check_count, check_seed
from .distributions import KnownCdf
from .mixture_core import SortedSample, estimate_alpha_cn
from .rng import DEFAULT_SEED, uniform_rows

__all__ = [
    "HomogeneityResult",
    "critical_value",
    "simulate_hn_quantile",
    "asymptotic_cvm_quantile",
    "lower_bound",
    "homogeneity_test",
    "cached_hn_quantile",
    "resolve_cache_path",
]

# Sample size from which the asymptotic quantile is used by default.
ASYMPTOTIC_N = 500

# Monte Carlo replications behind critical_value below ASYMPTOTIC_N.
_DEFAULT_B = 10_000

# Package data: the Monte Carlo quantiles at the library defaults (b =
# _DEFAULT_B, seed = DEFAULT_SEED) for n below ASYMPTOTIC_N, in the disk
# cache's format.  scripts/make_hn_table.py writes it and checks it against
# simulate_hn_quantile.
_TABLE_FILE = "data/hn_quantiles.csv"

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
    process and then served from memory; the disk cache that persists
    across processes is :func:`cached_hn_quantile`, which the CLI uses.
    """
    _check_quantile_args(n, beta, b, seed)
    return _hn_quantile(int(n), float(beta), int(b), int(seed))


def _check_quantile_args(n, beta, b, seed) -> None:
    """Checks every quantile entry point runs before it looks at a cache."""
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
        uniform_rows(chunk, seed, _NS_HN, start=start)
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


def critical_value(n: int, beta: float, seed: int = DEFAULT_SEED, cache: bool = False) -> float:
    """Default threshold for a sample of size ``n`` at level ``beta``.

    From ``n = ASYMPTOTIC_N`` on this is the asymptotic quantile.  Below
    it, it is the Monte Carlo quantile with the default ``b`` replications
    and the given ``seed``: read from the shipped table at the default seed
    and levels, otherwise simulated, and read from and written to the disk
    cache when ``cache`` is true.
    """
    _check_quantile_args(n, beta, _DEFAULT_B, seed)
    if n >= ASYMPTOTIC_N:
        return asymptotic_cvm_quantile(beta)
    tabulated = _table().get(_key(n, beta, _DEFAULT_B, seed))
    if tabulated is not None:
        return tabulated
    if cache:
        return cached_hn_quantile(n, beta, seed=seed)
    return simulate_hn_quantile(n, beta, seed=seed)


def lower_bound(sample: SortedSample, background: KnownCdf, beta: float = 0.05) -> float:
    """Lower confidence bound for the identifiable mixing proportion.

    ``P(alpha_0 >= bound) >= 1 - beta`` for every n, with equality when
    the sample is pure background.  The bound is the thresholded estimator
    evaluated at the ``1 - beta`` null quantile :func:`critical_value`
    (asymptotic from n = 500, Monte Carlo below); it equals 0 exactly when
    ``sqrt(n) * d_n(F_n, F_b)`` stays within that quantile.  For another
    threshold call :func:`~mixsep.mixture_core.estimate_alpha_cn` directly.
    """
    return estimate_alpha_cn(sample, background, critical_value(sample.n, beta))


def homogeneity_test(sample: SortedSample, background: KnownCdf, beta: float = 0.05) -> HomogeneityResult:
    """Test whether the sample is pure background at level ``beta``.

    Rejects exactly when the lower confidence bound is positive, i.e. when
    even a zero signal proportion cannot bring the fit within the null
    quantile.  Consistent against fixed alternatives and against sparse
    ones with proportion ``~ n**-lambda`` for lambda < 1/2.
    """
    c_n = critical_value(sample.n, beta)
    bound = estimate_alpha_cn(sample, background, c_n)
    return HomogeneityResult(reject=bound > 0.0, alpha_lower=bound, critical_value=c_n, beta=beta)


# --- disk cache for simulated quantiles ---------------------------------

_CACHE_ENV = "MIXSEP_CACHE_DIR"
_CACHE_FILE = "hn_quantiles.csv"
_CACHE_HEADER = ["n", "beta", "B", "seed", "quantile"]


def resolve_cache_path(cache_dir: str | os.PathLike | None = None) -> Path:
    """Cache file location: explicit dir, else $MIXSEP_CACHE_DIR, else ~/.cache."""
    if cache_dir is None:
        cache_dir = os.environ.get(_CACHE_ENV)
    if cache_dir is None:
        cache_dir = Path.home() / ".cache" / "mixsep"
    return Path(cache_dir) / _CACHE_FILE


def cached_hn_quantile(
    n: int,
    beta: float,
    b: int = _DEFAULT_B,
    seed: int = DEFAULT_SEED,
    cache_dir: str | os.PathLike | None = None,
) -> float:
    """Like :func:`simulate_hn_quantile` but memoised on disk.

    Rows are keyed by ``(n, beta, B, seed)`` in a small CSV so repeated
    command-line runs with the same configuration skip the simulation.  A
    new row is written by replacing the whole file atomically.
    """
    _check_quantile_args(n, beta, b, seed)
    path = resolve_cache_path(cache_dir)
    key = _key(n, beta, b, seed)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        text = ""
    for row_key, value in _read_rows(text):
        if row_key == key:
            return value
    value = simulate_hn_quantile(n, beta, b, seed)
    _write_cache(path, text, [*key, repr(value)])
    return value


def _key(n, beta, b, seed) -> tuple:
    """Row key of a quantile CSV: ``(n, repr(beta), B, seed)``."""
    return (int(n), repr(float(beta)), int(b), int(seed))


def _read_rows(text: str):
    """Yield ``(key, quantile)`` for each well-formed row of a quantile CSV."""
    for row in csv.reader(StringIO(text)):
        if not row or row[0] == _CACHE_HEADER[0]:
            continue
        try:
            key, value = _key(*row[:4]), float(row[4])
        except (ValueError, IndexError, TypeError):
            continue
        yield key, value


@functools.lru_cache(maxsize=None)
def _table() -> MappingProxyType:
    """The shipped quantile table, parsed on first use and keyed like the disk cache."""
    text = importlib.resources.files(__package__).joinpath(_TABLE_FILE).read_text(encoding="utf-8")
    return MappingProxyType(dict(_read_rows(text)))


def _write_cache(path: Path, text: str, row: list) -> None:
    """Replace the cache file by ``text`` plus ``row`` in one rename.

    Concurrent writers cannot interleave rows; at worst one writer's new
    row is lost and simulated again on a later miss.
    """
    buf = StringIO()
    writer = csv.writer(buf)
    if not text:
        writer.writerow(_CACHE_HEADER)
    elif not text.endswith("\n"):
        buf.write("\r\n")
    writer.writerow(row)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text + buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
