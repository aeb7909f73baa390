"""Coverage of the lower confidence bound across both parametric settings.

For each (setting, n, alpha) cell this reports the fraction of
replications whose bound lies at or below the identifiable proportion;
nominal coverage is 1 - beta.  The bound is conservative, so observed
values above nominal are expected.
"""

import argparse
import csv
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mixsep.sim_harness import ScenarioConfig, run_replications  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--settings", default="setting_i,setting_ii")
    ap.add_argument("--ns", default="1000,5000")
    ap.add_argument("--alphas", default="0.01,0.05,0.10")
    ap.add_argument("--beta", type=float, default=0.05)
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--out", default="results/coverage.csv")
    args = ap.parse_args()

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["setting", "n", "alpha", "beta", "reps", "coverage", "mean_bound"])
    for setting in args.settings.split(","):
        for n_text in args.ns.split(","):
            for alpha_text in args.alphas.split(","):
                cfg = ScenarioConfig(
                    scenario=setting.strip(),
                    n=int(n_text),
                    alpha=float(alpha_text),
                    replications=args.reps,
                    base_seed=args.seed,
                    beta=args.beta,
                    estimators=("lower_bound",),
                )
                row = run_replications(cfg).rows[0]
                w.writerow([setting.strip(), int(n_text), float(alpha_text),
                            args.beta, args.reps, row.coverage, row.mean])
                print(f"{setting.strip():10s} n={int(n_text):6d} alpha={float(alpha_text):.2f}"
                      f"  coverage={row.coverage:.3f}  mean bound={row.mean:.4f}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(buf.getvalue())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
