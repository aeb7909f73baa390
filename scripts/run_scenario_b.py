"""Desk-scale run of the z-score scenario (moving-average dependence,
uniform location shifts).

Here the identifiable proportion is strictly smaller than the mixing
proportion; the tables report bias against the identifiable value, so a
mean close to alpha0 (not alpha) is the expected outcome.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mixsep.sim_harness import (  # noqa: E402
    ScenarioConfig,
    alpha0_reference,
    run_replications,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--alphas", default="0.10,0.20")
    ap.add_argument("--lags", default="0,4",
                    help="comma-separated moving-average lags (0 = independent)")
    ap.add_argument("--m-star", type=float, default=1.0,
                    help="lower endpoint of the shift magnitude window")
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for lag_text in args.lags.split(","):
        for alpha_text in args.alphas.split(","):
            cfg = ScenarioConfig(
                scenario="B",
                n=args.n,
                alpha=float(alpha_text),
                replications=args.reps,
                base_seed=args.seed,
                dependence_lag=int(lag_text),
                m_star=args.m_star,
                estimators=("cn:0.1", "elbow", "lower_bound"),
            )
            table = run_replications(cfg)
            text = table.to_csv_text()
            path = out_dir / (f"scenario_b_n{args.n}_alpha{alpha_text.strip()}"
                              f"_lag{lag_text.strip()}.csv")
            path.write_text(text)
            print(f"# {path}  (alpha0 = {alpha0_reference(cfg):.4f})")
            print(text)


if __name__ == "__main__":
    main()
