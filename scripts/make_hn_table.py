"""Regenerate or check the shipped finite-n null quantile table.

``src/mixsep/data/hn_quantiles.csv`` holds
``simulate_hn_quantile(n, beta, 10_000, DEFAULT_SEED)`` for every
``n < ASYMPTOTIC_N`` and ``beta`` in {0.10, 0.05, 0.01}, written with
``repr`` as ``n,beta,B,seed,quantile`` rows.  ``critical_value`` reads it
instead of simulating at those keys, so the simulation stays the
specification and the file is a cache of it.

    python scripts/make_hn_table.py           # rewrite the file
    python scripts/make_hn_table.py --check   # recompute every row; exit 1 on any difference

Either run simulates all 1 497 quantiles, which takes 7 to 8 minutes on
one core of a 2-core VM (416 s and 482 s in two runs).
"""

import argparse
import csv
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mixsep.confidence import (  # noqa: E402
    _TABLE_HEADER,
    _DEFAULT_B,
    _TABLE_FILE,
    ASYMPTOTIC_N,
    _key,
    _read_rows,
    simulate_hn_quantile,
)
from mixsep.rng import DEFAULT_SEED  # noqa: E402

LEVELS = (0.10, 0.05, 0.01)
TABLE = ROOT / "src" / "mixsep" / _TABLE_FILE


def expected_rows() -> dict:
    return {
        _key(n, beta, _DEFAULT_B, DEFAULT_SEED): simulate_hn_quantile(n, beta, _DEFAULT_B, DEFAULT_SEED)
        for n in range(1, ASYMPTOTIC_N)
        for beta in LEVELS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare the file with a fresh simulation")
    args = parser.parse_args(argv)
    expected = expected_rows()
    if args.check:
        found = dict(_read_rows(TABLE.read_text(encoding="utf-8")))
        bad = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
        for key in bad:
            print(f"{key}: table {found.get(key)!r}, simulation {expected.get(key)!r}")
        print(f"{TABLE}: {len(bad)} of {len(expected.keys() | found.keys())} rows differ")
        return 1 if bad else 0
    with open(TABLE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_TABLE_HEADER)
        writer.writerows([*key, repr(value)] for key, value in expected.items())
    print(f"wrote {len(expected)} rows to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
