"""Fully specified distributions usable as mixture components.

Each family exposes the same small surface: ``cdf``, ``density`` (density
or probability mass), ``quantile`` (the generalized inverse
``inf{t : p <= F(t)}``), and seeded ``sample``.  Heavy special-function
work is delegated to scipy; the classes here pin down conventions
(generalized inverses, tie handling, tabulated interpolation modes) that
the estimators rely on.

``scipy.special`` and ``scipy.stats`` take longer to import, and hold more
memory, than the rest of the package, so nothing here imports them before
a method needs them.  The Uniform, Exponential and tabulated backgrounds
need neither.  Every special function here is one of ``scipy.special``'s
compiled ufuncs, taken on first use from ``_compiled.special_ufunc``,
which loads the extension module that holds it without running the
``scipy.special`` package ``__init__``: ``scipy/special/_special_ufuncs``
where that module has the name (the normal CDF ``ndtr``, the only scipy
routine that a fit against a normal background calls, among them), else
``scipy/special/_ufuncs`` (the normal quantile, the Student t, beta,
Poisson and binomial CDFs, and scenario A's t-test p-values in
``sim_harness``).  It is the ufunc that ``scipy.special`` exports, so the
values are the same bit for bit.  The Poisson and binomial quantiles, the
Poisson atoms and the binomial mass function import ``scipy.stats`` on
first use.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._compiled import special_ufunc
from .rng import stream

__all__ = [
    "KnownCdf",
    "Uniform",
    "Normal",
    "StudentT",
    "Beta",
    "Exponential",
    "Poisson",
    "Binomial",
    "Tabulated",
    "load_tabulated_csv",
    "parse_distribution",
]

# Residual tail mass at which discrete supports are truncated when the
# support is unbounded (Poisson).
_ATOM_TAIL = 1e-12


def _prep(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _out(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _resolve_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(seed)


class KnownCdf:
    """Base class for the known distribution families.

    Subclasses implement the array-only hooks ``_cdf``, ``_density`` and
    ``_quantile``; the public methods handle scalar/array conversion and
    argument validation shared by every family.
    """

    #: True when ``density`` returns a Lebesgue density.
    has_density: bool = False
    #: True for purely atomic distributions.
    is_discrete: bool = False

    def cdf(self, x):
        """Right-continuous distribution function at ``x``."""
        xa, scalar = _prep(x)
        return _out(self._cdf(xa), scalar)

    def density(self, x):
        """Density (continuous families) or probability mass (discrete)."""
        xa, scalar = _prep(x)
        return _out(self._density(xa), scalar)

    def quantile(self, p):
        """Generalized inverse ``inf{t : p <= F(t)}`` for ``p`` in (0, 1)."""
        pa, scalar = _prep(p)
        if not ((pa > 0.0) & (pa < 1.0)).all():  # a NaN level fails too
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        return _out(self._quantile(pa), scalar)

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw ``n`` independent values; deterministic given ``seed``.

        ``seed`` may be an integer or a ``numpy.random.Generator`` (useful
        when a caller manages its own independent streams).
        """
        if n < 0:
            raise ValueError("sample size must be non-negative")
        rng = _resolve_rng(seed)
        return self._sample(int(n), rng)

    # hooks -------------------------------------------------------------
    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def label(self) -> str:
        """Short textual spec, mirrored in reports."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(KnownCdf):
    lo: float = 0.0
    hi: float = 1.0
    has_density = True

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if self.hi <= self.lo:
            raise ValueError("uniform requires lo < hi")

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _density(self, x):
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def _quantile(self, p):
        return self.lo + p * (self.hi - self.lo)

    def _sample(self, n, rng):
        return rng.uniform(self.lo, self.hi, n)

    def label(self):
        return f"uniform:{self.lo:g},{self.hi:g}"


@dataclass(frozen=True)
class Normal(KnownCdf):
    mean: float = 0.0
    sd: float = 1.0
    has_density = True

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
            raise ValueError("normal parameters must be finite")
        if self.sd <= 0.0:
            raise ValueError("normal requires sd > 0")

    def _cdf(self, x):
        return special_ufunc("ndtr")((x - self.mean) / self.sd)

    def _density(self, x):
        z = (x - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def _quantile(self, p):
        return self.mean + self.sd * special_ufunc("ndtri")(p)

    def _sample(self, n, rng):
        return rng.normal(self.mean, self.sd, n)

    def label(self):
        return f"normal:{self.mean:g},{self.sd:g}"


@dataclass(frozen=True)
class StudentT(KnownCdf):
    df: float
    has_density = True

    def __post_init__(self):
        if not math.isfinite(self.df) or self.df <= 0.0:
            raise ValueError("t requires df > 0")

    def _cdf(self, x):
        return special_ufunc("stdtr")(self.df, x)

    def _density(self, x):
        k = self.df
        gammaln = special_ufunc("gammaln")
        lognorm = gammaln((k + 1.0) / 2.0) - gammaln(k / 2.0) - 0.5 * math.log(k * math.pi)
        return np.exp(lognorm - ((k + 1.0) / 2.0) * np.log1p(x * x / k))

    def _quantile(self, p):
        # stdtrit alone is only good to ~1e-10 in x; one Newton step
        # against the exact CDF/density pair tightens it to float precision
        q = special_ufunc("stdtrit")(self.df, p)
        dens = self._density(q)
        return np.where(dens > 0.0, q - (self._cdf(q) - p) / np.where(dens > 0.0, dens, 1.0), q)

    def _sample(self, n, rng):
        return rng.standard_t(self.df, n)

    def label(self):
        return f"t:{self.df:g}"


@dataclass(frozen=True)
class Beta(KnownCdf):
    a: float
    b: float
    has_density = True

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("beta parameters must be finite")
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("beta requires a > 0 and b > 0")

    def _cdf(self, x):
        return special_ufunc("betainc")(self.a, self.b, np.clip(x, 0.0, 1.0))

    def _density(self, x):
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < 1.0)
        xi = x[inside]
        lognorm = special_ufunc("betaln")(self.a, self.b)
        out[inside] = np.exp((self.a - 1.0) * np.log(xi) + (self.b - 1.0) * np.log1p(-xi) - lognorm)
        # boundary limits so edge evaluations stay meaningful
        if self.a == 1.0:
            out[x == 0.0] = self.b
        elif self.a < 1.0:
            out[x == 0.0] = np.inf
        if self.b == 1.0:
            out[x == 1.0] = self.a
        elif self.b < 1.0:
            out[x == 1.0] = np.inf
        return out

    def _quantile(self, p):
        return special_ufunc("betaincinv")(self.a, self.b, p)

    def _sample(self, n, rng):
        return rng.beta(self.a, self.b, n)

    def label(self):
        return f"beta:{self.a:g},{self.b:g}"


@dataclass(frozen=True)
class Exponential(KnownCdf):
    """Shifted exponential with density exp(-(x - loc)/scale)/scale on (loc, inf)."""

    loc: float = 0.0
    scale: float = 1.0
    has_density = True

    def __post_init__(self):
        if not (math.isfinite(self.loc) and math.isfinite(self.scale)):
            raise ValueError("exponential parameters must be finite")
        if self.scale <= 0.0:
            raise ValueError("exponential requires scale > 0")

    def _cdf(self, x):
        z = (x - self.loc) / self.scale
        return np.where(z > 0.0, -np.expm1(-np.maximum(z, 0.0)), 0.0)

    def _density(self, x):
        z = (x - self.loc) / self.scale
        return np.where(z > 0.0, np.exp(-np.maximum(z, 0.0)) / self.scale, 0.0)

    def _quantile(self, p):
        return self.loc - self.scale * np.log1p(-p)

    def _sample(self, n, rng):
        return self.loc + rng.exponential(self.scale, n)

    def label(self):
        return f"exponential:{self.loc:g},{self.scale:g}"


@dataclass(frozen=True)
class Poisson(KnownCdf):
    rate: float
    is_discrete = True

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate <= 0.0:
            raise ValueError("poisson requires rate > 0")

    def _cdf(self, x):
        k = np.floor(x)
        out = np.zeros_like(x)
        ok = k >= 0.0
        out[ok] = special_ufunc("pdtr")(k[ok], self.rate)
        return out

    def _density(self, x):
        out = np.zeros_like(x)
        ints = (x >= 0.0) & (x == np.floor(x))
        k = x[ints]
        out[ints] = np.exp(k * math.log(self.rate) - self.rate - special_ufunc("gammaln")(k + 1.0))
        return out

    def _quantile(self, p):
        from scipy import stats

        return np.asarray(stats.poisson.ppf(p, self.rate), dtype=float)

    def _sample(self, n, rng):
        return rng.poisson(self.rate, n).astype(float)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Support points and masses, truncated at residual mass 1e-12."""
        from scipy import stats

        kmax = int(stats.poisson.isf(_ATOM_TAIL, self.rate)) + 1
        ks = np.arange(0, kmax + 1, dtype=float)
        return ks, self._density(ks)

    def label(self):
        return f"poisson:{self.rate:g}"


@dataclass(frozen=True)
class Binomial(KnownCdf):
    trials: int
    prob: float
    is_discrete = True

    def __post_init__(self):
        if not math.isfinite(self.trials) or self.trials < 1 or int(self.trials) != self.trials:
            raise ValueError("binomial requires an integer trials >= 1")
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError("binomial requires prob in [0, 1]")
        object.__setattr__(self, "trials", int(self.trials))

    def _cdf(self, x):
        k = np.floor(x)
        out = np.zeros_like(x)
        out[k >= self.trials] = 1.0
        mid = (k >= 0.0) & (k < self.trials)
        if np.any(mid):
            out[mid] = special_ufunc("bdtr")(k[mid], self.trials, self.prob)
        return out

    def _density(self, x):
        from scipy import stats

        out = np.zeros_like(x)
        ints = (x >= 0.0) & (x <= self.trials) & (x == np.floor(x))
        k = x[ints]
        out[ints] = np.asarray(stats.binom.pmf(k, self.trials, self.prob), dtype=float)
        return out

    def _quantile(self, p):
        from scipy import stats

        return np.asarray(stats.binom.ppf(p, self.trials, self.prob), dtype=float)

    def _sample(self, n, rng):
        return rng.binomial(self.trials, self.prob, n).astype(float)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        ks = np.arange(0, self.trials + 1, dtype=float)
        return ks, self._density(ks)

    def label(self):
        return f"binomial:{self.trials:d},{self.prob:g}"


@dataclass(frozen=True, eq=False)
class Tabulated(KnownCdf):
    """CDF given by a two-column table of (x, F(x)) grid points.

    ``mode="linear"`` interpolates linearly between grid points (a
    continuous surrogate); ``mode="step"`` treats the table as a
    right-continuous step CDF with atoms at the grid points.  Below the
    first grid point the CDF is 0 in both modes.  No density is available.
    """

    xs: np.ndarray
    values: np.ndarray
    mode: str = "linear"

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float, copy=True)
        values = np.array(self.values, dtype=float, copy=True)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise ValueError("table needs two equal-length columns with at least 2 rows")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(values))):
            raise ValueError("table entries must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("table x-values must be strictly increasing")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("table CDF values must be non-decreasing")
        if values[0] < 0.0 or abs(values[-1] - 1.0) > 1e-9:
            raise ValueError("table CDF must start >= 0 and end at 1")
        values[-1] = 1.0
        # Read-only, so that a criterion kernel built on this table stays valid.
        xs.flags.writeable = False
        values.flags.writeable = False
        if self.mode not in ("linear", "step"):
            raise ValueError("mode must be 'linear' or 'step'")
        object.__setattr__(self, "is_discrete", self.mode == "step")

    def _cdf(self, x):
        if self.mode == "linear":
            out = np.interp(x, self.xs, self.values)
        else:
            idx = np.searchsorted(self.xs, x, side="right")
            out = np.where(idx > 0, self.values[np.maximum(idx - 1, 0)], 0.0)
        out = np.asarray(out, dtype=float)
        out[x < self.xs[0]] = 0.0
        return out

    def _density(self, x):
        raise ValueError("no density available for a tabulated CDF")

    def _quantile(self, p):
        idx = np.searchsorted(self.values, p, side="left")
        idx = np.minimum(idx, self.values.size - 1)
        if self.mode == "step":
            return self.xs[idx]
        out = np.empty_like(p)
        low = idx == 0
        out[low] = self.xs[0]
        hi = ~low
        i = idx[hi]
        v0 = self.values[i - 1]
        v1 = self.values[i]
        frac = np.where(v1 > v0, (p[hi] - v0) / np.where(v1 > v0, v1 - v0, 1.0), 1.0)
        out[hi] = self.xs[i - 1] + frac * (self.xs[i] - self.xs[i - 1])
        return out

    def _sample(self, n, rng):
        return self._quantile(rng.random(n))

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        if self.mode != "step":
            raise ValueError("atoms are only defined for step mode")
        masses = np.diff(np.concatenate([[0.0], self.values]))
        keep = masses > 0.0
        return self.xs[keep], masses[keep]

    def label(self):
        return f"table:<{self.xs.size} rows>:{self.mode}"


def load_tabulated_csv(path, mode: str = "linear") -> Tabulated:
    """Load a two-column (x, F(x)) CSV; an optional header row is skipped."""
    xs: list[float] = []
    vals: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: line {lineno}: expected two columns")
            try:
                x, v = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}: line {lineno}: non-numeric entry {row!r}") from None
            xs.append(x)
            vals.append(v)
    return Tabulated(np.asarray(xs), np.asarray(vals), mode=mode)


_FAMILY_ARITY = {
    "uniform": (Uniform, 2, (0.0, 1.0)),
    "normal": (Normal, 2, (0.0, 1.0)),
    "t": (StudentT, 1, None),
    "beta": (Beta, 2, None),
    "exponential": (Exponential, 2, (0.0, 1.0)),
    "poisson": (Poisson, 1, None),
    "binomial": (Binomial, 2, None),
}


def parse_distribution(text: str) -> KnownCdf:
    """Parse a ``family:p1,p2`` or ``table:path[:step]`` spec string."""
    spec = text.strip()
    if not spec:
        raise ValueError("empty distribution spec")
    head, _, rest = spec.partition(":")
    family = head.strip().lower()
    if family == "table":
        if not rest:
            raise ValueError("table spec requires a CSV path, e.g. table:background.csv")
        path, _, mode = rest.rpartition(":")
        if path and mode in ("linear", "step"):
            return load_tabulated_csv(path, mode=mode)
        return load_tabulated_csv(rest, mode="linear")
    if family not in _FAMILY_ARITY:
        raise ValueError(f"unknown distribution family {family!r}")
    cls, arity, default = _FAMILY_ARITY[family]
    if not rest:
        if default is None:
            raise ValueError(f"{family} requires {arity} parameter(s), e.g. {family}:...")
        params = default
    else:
        try:
            params = tuple(float(tok) for tok in rest.split(","))
        except ValueError:
            raise ValueError(f"non-numeric parameter in distribution spec {spec!r}") from None
        if len(params) != arity:
            raise ValueError(f"{family} takes {arity} parameter(s), got {len(params)}")
    if cls is Binomial:
        trials = params[0]
        if not math.isfinite(trials) or int(trials) != trials:
            raise ValueError("binomial trials must be an integer")
        return Binomial(int(trials), params[1])
    return cls(*params)
