"""Argument checks shared across modules."""
from __future__ import annotations

import numpy as np


def check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy integers included).

    ``bool`` is an ``int`` subclass and floats truncate silently under
    ``int()``, so both are rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is a non-negative integer."""
    check_count("seed", seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
