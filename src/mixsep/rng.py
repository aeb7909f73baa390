"""Seedable, splittable random streams.

Every randomized routine in the package draws from a stream derived from an
integer seed plus an explicit key, backed by the Philox counter-based
generator.  Distinct (seed, key) pairs give statistically independent
streams, so replications can run in any order (or in parallel) and still
reproduce bit-identically.
"""
from __future__ import annotations

import numpy as np

from ._validate import check_count, check_seed

# Default seed of the simulation harness and of the Monte Carlo critical
# values.  Documented so runs without an explicit seed are still
# reproducible.
DEFAULT_SEED = 1729


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator for the given seed and key path.

    Parameters
    ----------
    seed : int
        Base entropy, typically the user-facing seed.
    *key : int
        Optional path of non-negative integers separating subsystems and
        replication indices (e.g. ``stream(seed, 0, rep)``).
    """
    check_seed(seed)
    for k in key:
        check_count("key", k)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
