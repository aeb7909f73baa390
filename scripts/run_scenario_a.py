"""Desk-scale run of the p-value scenario (grouped normal observations,
two-sided t-tests, bi-triangular effect sizes).

Writes one metrics CSV per mixing proportion and echoes each table to
stdout.  Defaults finish in a few minutes; raise --reps for smoother
numbers.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mixsep.sim_harness import ScenarioConfig, run_replications  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--alphas", default="0.05,0.10,0.20",
                    help="comma-separated mixing proportions")
    ap.add_argument("--rho", type=float, default=0.0,
                    help="within-block correlation of the unit-level noise")
    ap.add_argument("--block-size", type=int, default=100)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for alpha_text in args.alphas.split(","):
        alpha = float(alpha_text)
        cfg = ScenarioConfig(
            scenario="A",
            n=args.n,
            alpha=alpha,
            replications=args.reps,
            base_seed=args.seed,
            rho=args.rho,
            block_size=args.block_size,
            estimators=("cn:0.1", "elbow", "lower_bound"),
        )
        table = run_replications(cfg)
        text = table.to_csv_text()
        path = out_dir / f"scenario_a_n{args.n}_alpha{alpha_text.strip()}.csv"
        path.write_text(text)
        print(f"# {path}")
        print(text)


if __name__ == "__main__":
    main()
