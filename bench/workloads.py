"""Workloads of the mixsep benchmark: input pools, the timed operation, output checks.

Every workload draws its inputs from a fixed pool of items and the workload
seed only fixes the order in which a run visits them.  The inputs are thus a
function of the seed, and ``reference.json`` can hold the expected output of
every pool item.  It was generated once from the package by
``make_reference.py``; later versions of the package are checked against it.

An operation is one closed-loop call into the package (or one CLI process).
Each workload repeats a cycle of operation kinds, and a run always stops at
the end of a cycle, so every run times the same mix.
"""
from __future__ import annotations

import csv
import itertools
import json
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = ROOT / "fixtures"
REFERENCE = BENCH / "reference.json"

# Entropy prefix of every pool item, so pool data never depends on the package.
POOL_TAG = 12045488

# Absolute tolerances of the reference comparison.  Threshold estimates come
# from a bisection that stops at width 1e-6, so an exact root may sit up to
# 1e-6 away; the elbow lies on the 1/200 grid and critical values are seeded,
# so both must match to rounding.
TOL_THRESHOLD = 2e-6
TOL_EXACT = 1e-9
# Slack of the invariant checks: curve monotonicity, and the ordering of two
# bisection results that share a path until their thresholds part.
TOL_CURVE = 1e-12
TOL_ORDER = 2e-6

# --- large_n: one large fit per operation, three input kinds ---------------
LARGE_N = 100_000
LARGE_KINDS = ("pvalues", "pvalues_rounded", "zscores")
LARGE_ITEMS = 6

# --- small_n: Monte Carlo critical values, half on repeated sizes ----------
SMALL_FIXED = (60, 150, 300, 450)
SMALL_FIXED_VARIANTS = 4
SMALL_FRESH = tuple(n for n in range(50, 500) if n not in SMALL_FIXED)

# --- simulate: scenario-A replications ------------------------------------
SIM_N = 5000
SIM_ALPHAS = (0.05, 0.10, 0.20)
SIM_REPLICATIONS = 2
SIM_SEEDS = 12

# --- cli_cold: one fresh CLI process per operation -------------------------
CLI_CUTS = 16
CLI_CUT_ROWS = 300

# Smoke runs (the self-test) shrink the in-process sizes.
SMOKE_LARGE_N = 2_000
SMOKE_SIM_N = 1_000


@dataclass(frozen=True)
class Op:
    """One operation: its reference key, the inputs it needs, and its sample count."""

    key: str
    kind: str
    args: tuple
    samples: int = 1


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([POOL_TAG, *key])


def _seed_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([POOL_TAG, 1, seed])


# --- input generation (the benchmark's own numpy code) ---------------------


def large_input(kind: str, item: int, n: int) -> np.ndarray:
    """P-values (Beta(1,10) signal, alpha 0.1, uniform background), the same
    p-values rounded to 3 decimals, or z-scores (N(2,1) signal, alpha 0.2)."""
    if kind == "zscores":
        rng = _rng(2, item, n)
        signal = rng.random(n) < 0.2
        return np.where(signal, rng.normal(2.0, 1.0, n), rng.normal(0.0, 1.0, n))
    rng = _rng(1, item, n)
    signal = rng.random(n) < 0.1
    p = np.where(signal, rng.beta(1.0, 10.0, n), rng.random(n))
    return np.round(p, 3) if kind == "pvalues_rounded" else p


def small_input(n: int, variant: int) -> np.ndarray:
    """P-values with a Beta(1,10) signal at alpha 0.3 on a uniform background."""
    rng = _rng(3, n, variant)
    signal = rng.random(n) < 0.3
    return np.where(signal, rng.beta(1.0, 10.0, n), rng.random(n))


def cli_cut_rows(cut: int) -> list[str]:
    """Rows ``[cut * 300, (cut + 1) * 300)`` of the n = 5000 fixture, header kept."""
    lines = (FIXTURES / "setting_ii_n5000.csv").read_text(encoding="utf-8").splitlines()
    start = 1 + cut * CLI_CUT_ROWS
    return [lines[0], *lines[start:start + CLI_CUT_ROWS]]


# --- ops, pools and plans ----------------------------------------------------

CLI_COMMANDS = ("estimate_n5000", "estimate_velocities", "signal_n5000", "estimate_n300")


def _large_op(kind: str, item: int, n: int) -> Op:
    return Op(f"large_n/{kind}/n={n}/item={item}", kind, (item, n))


def _small_op(n: int, variant: int) -> Op:
    return Op(f"small_n/n={n}/variant={variant}", "pvalues", (n, variant))


def _sim_op(n: int, alpha: float, base_seed: int) -> Op:
    return Op(f"simulate/A/n={n}/alpha={alpha}/seed={base_seed}", "A", (n, alpha, base_seed),
              samples=SIM_REPLICATIONS)


def _cli_op(command: str, cut: int) -> Op:
    suffix = f"/cut={cut}" if command == "estimate_n300" else ""
    return Op(f"cli_cold/{command}{suffix}", command, (cut,))


def pool(workload: str, smoke: bool = False) -> list[Op]:
    """Every op a run of the workload can make: the keys of ``reference.json``."""
    if workload == "large_n":
        n = SMOKE_LARGE_N if smoke else LARGE_N
        return [_large_op(k, i, n) for k in LARGE_KINDS for i in range(LARGE_ITEMS)]
    if workload == "small_n":
        return ([_small_op(n, v) for n in SMALL_FIXED for v in range(SMALL_FIXED_VARIANTS)]
                + [_small_op(n, 0) for n in SMALL_FRESH])
    if workload == "simulate":
        n = SMOKE_SIM_N if smoke else SIM_N
        return [_sim_op(n, a, s) for a in SIM_ALPHAS for s in range(SIM_SEEDS)]
    return [_cli_op(c, 0) for c in CLI_COMMANDS[:3]] + \
        [_cli_op(CLI_COMMANDS[3], cut) for cut in range(CLI_CUTS)]


def plan(workload: str, seed: int, smoke: bool = False):
    """Endless op sequence of a run; the seed picks the order of pool items."""
    rng = _seed_rng(seed)
    if workload == "large_n":
        n = SMOKE_LARGE_N if smoke else LARGE_N
        order = rng.permutation(LARGE_ITEMS)
        for c in itertools.count():
            for kind in LARGE_KINDS:
                yield _large_op(kind, int(order[c % LARGE_ITEMS]), n)
    elif workload == "small_n":
        # Half the ops reuse the four fixed sizes (so their critical-value
        # key repeats), half take a size not yet seen in the run.
        fresh = rng.permutation(SMALL_FRESH)
        for c in itertools.count():
            n = int(fresh[c % len(fresh)])
            yield _small_op(SMALL_FIXED[c % len(SMALL_FIXED)], int(rng.integers(SMALL_FIXED_VARIANTS)))
            yield _small_op(n, 0)
    elif workload == "simulate":
        n = SMOKE_SIM_N if smoke else SIM_N
        order = rng.permutation(SIM_SEEDS)
        for c in itertools.count():
            for alpha in SIM_ALPHAS:
                yield _sim_op(n, alpha, int(order[c % SIM_SEEDS]))
    elif workload == "cli_cold":
        cut = int(rng.integers(CLI_CUTS))
        while True:
            for command in CLI_COMMANDS:
                yield _cli_op(command, cut)
    else:
        raise ValueError(f"unknown workload {workload!r}")


CYCLE = {"large_n": len(LARGE_KINDS), "small_n": 2,
         "simulate": len(SIM_ALPHAS), "cli_cold": len(CLI_COMMANDS)}
WORKLOADS = tuple(CYCLE)


# --- operations --------------------------------------------------------------


def prepare(mixsep, op: Op, tmp: Path, env: dict, launcher: list[str]):
    """Make the op's inputs (untimed) and return the call that the loop times.

    ``launcher`` is the interpreter prefix of a CLI process.
    """
    if op.key.startswith("large_n/"):
        x = large_input(op.kind, *op.args)
        pvalues = op.kind != "zscores"
        background = mixsep.Uniform(0.0, 1.0) if pvalues else mixsep.Normal(0.0, 1.0)
        return lambda: _fit(mixsep, x, background, large=True, recover=pvalues)
    if op.key.startswith("small_n/"):
        x = small_input(*op.args)
        background = mixsep.Uniform(0.0, 1.0)
        return lambda: _fit(mixsep, x, background, large=False, recover=False)
    if op.key.startswith("simulate/"):
        n, alpha, base_seed = op.args
        cfg = mixsep.ScenarioConfig(scenario="A", n=n, alpha=alpha,
                                    replications=SIM_REPLICATIONS, base_seed=base_seed)
        return lambda: {"table": mixsep.run_replications(cfg)}
    argv = [*launcher, *cli_argv(op.kind, tmp)]

    def cli():
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=150)
        return {"returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr, "tmp": tmp}

    return cli


def _fit(mixsep, x, background, large: bool, recover: bool) -> dict:
    """large_n: asymptotic lower bound and signal recovery for p-values;
    small_n: library defaults, so both confidence calls simulate a quantile."""
    sample = mixsep.SortedSample.from_data(x)
    out = {"n": sample.n}
    out["alpha_cn"] = mixsep.estimate_alpha_cn(sample, background, mixsep.default_cn(sample.n))
    curve = mixsep.criterion_curve(sample, background, 200)
    out["curve"] = curve.values
    out["alpha_elbow"] = mixsep.elbow_estimate(curve)
    if large:
        out["alpha_lower"] = mixsep.lower_bound(sample, background, beta=0.05)
    else:
        out["alpha_lower"] = mixsep.lower_bound(sample, background)
        test = mixsep.homogeneity_test(sample, background)
        out.update(test_alpha_lower=test.alpha_lower, critical_value=test.critical_value,
                   reject=test.reject)
    if recover:
        out["signal"] = mixsep.recover_signal(sample, background, out["alpha_cn"])
    return out


def cli_argv(command: str, tmp: Path) -> list[str]:
    n5000 = str(FIXTURES / "setting_ii_n5000.csv")
    if command == "estimate_n5000":
        return ["estimate", "--data", n5000, "--background", "uniform"]
    if command == "estimate_velocities":
        table = FIXTURES / "velocity_background.csv"
        return ["estimate", "--data", str(FIXTURES / "velocities_n1200.csv"),
                "--background", f"table:{table}"]
    if command == "signal_n5000":
        return ["signal", "--data", n5000, "--background", "uniform",
                "--out-prefix", str(tmp / "signal")]
    return ["estimate", "--data", str(tmp / "cut_n300.csv"), "--background", "uniform"]


def write_cli_inputs(tmp: Path, seed: int) -> None:
    """The n = 300 file the last CLI command reads, cut from the fixture."""
    cut = next(plan("cli_cold", seed)).args[0]
    (tmp / "cut_n300.csv").write_text("\n".join(cli_cut_rows(cut)) + "\n", encoding="utf-8")


# --- summaries and checks ----------------------------------------------------


def summarize(workload: str, result) -> dict:
    """The scalar outputs compared against the reference."""
    if workload in ("large_n", "small_n"):
        keys = ("n", "alpha_cn", "alpha_elbow", "alpha_lower", "critical_value", "reject")
        return {k: result[k] for k in keys if k in result}
    if workload == "simulate":
        table = result["table"]
        out = {"replications": table.replications, "alpha0": table.alpha0}
        for row in table.rows:
            name = row.estimator.split(":")[0]
            out[f"{name}.mean"] = row.mean
            out[f"{name}.rmse"] = row.rmse
            if row.coverage is not None:
                out[f"{name}.coverage"] = row.coverage
        return out
    payload = json.loads(result["stdout"])
    keys = ("n", "alpha_cn", "alpha_elbow", "alpha_lower", "critical_value",
            "reject_homogeneity", "alpha_used", "lfdr_available")
    return {k: payload[k] for k in keys if k in payload}


_THRESHOLD_FIELDS = {"alpha_cn", "alpha_lower", "cn.mean", "cn.rmse",
                     "lower_bound.mean", "lower_bound.rmse"}
_EXACT_FIELDS = {"n", "replications", "reject", "reject_homogeneity", "lfdr_available"}


def compare(summary: dict, expected: dict | None) -> list[str]:
    """Differences between an op's summary and its reference entry."""
    if expected is None:
        return ["no reference entry"]
    problems = []
    for field, want in expected.items():
        got = summary.get(field)
        if field in _EXACT_FIELDS or want is None:
            if got != want:
                problems.append(f"{field}: {got!r} != reference {want!r}")
            continue
        tol = TOL_THRESHOLD if field in _THRESHOLD_FIELDS else TOL_EXACT
        if got is None or not abs(float(got) - float(want)) <= tol:
            problems.append(f"{field}: {got!r} differs from reference {want!r} by more than {tol:g}")
    return problems


def _nonincreasing(values, tol: float) -> bool:
    return bool(np.all(np.diff(np.asarray(values, dtype=float)) <= tol))


def _bounds(lower, cn) -> list[str]:
    if not (0.0 <= lower <= cn + TOL_ORDER and cn <= 1.0):
        return [f"expected 0 <= alpha_lower ({lower}) <= alpha_cn ({cn}) <= 1"]
    return []


def invariants(workload: str, kind: str, result) -> list[str]:
    """Checks that hold for every correct output, whatever the reference says."""
    problems: list[str] = []
    if workload in ("large_n", "small_n"):
        problems += _bounds(result["alpha_lower"], result["alpha_cn"])
        if not _nonincreasing(result["curve"], TOL_CURVE):
            problems.append("criterion curve increases by more than 1e-12")
        if "reject" in result:
            if result["reject"] != (result["test_alpha_lower"] > 0.0):
                problems.append("reject disagrees with alpha_lower > 0")
            if abs(result["test_alpha_lower"] - result["alpha_lower"]) > TOL_EXACT:
                problems.append("homogeneity_test and lower_bound disagree on the bound")
        signal = result.get("signal")
        if signal is not None:
            dens = signal.density.values
            if np.any(dens < 0.0) or not _nonincreasing(dens, TOL_CURVE):
                problems.append("recovered density is negative or increasing")
    elif workload == "simulate":
        table = result["table"]
        for row in table.rows:
            if not 0.0 <= row.mean <= 1.0 or row.rmse < 0.0:
                problems.append(f"{row.estimator}: mean {row.mean} / rmse {row.rmse} out of range")
            if row.coverage is not None and not 0.0 <= row.coverage <= 1.0:
                problems.append(f"{row.estimator}: coverage {row.coverage} out of range")
    else:
        if result["returncode"] != 0:
            return [f"exit {result['returncode']}: {result['stderr'].strip()[-300:]}"]
        payload = json.loads(result["stdout"])
        if kind.startswith("estimate"):
            problems += _bounds(payload["alpha_lower"], payload["alpha_cn"])
            if payload["reject_homogeneity"] != (payload["alpha_lower"] > 0.0):
                problems.append("reject_homogeneity disagrees with alpha_lower > 0")
        else:
            with open(result["tmp"] / "signal_density.csv", newline="", encoding="utf-8") as fh:
                dens = np.asarray([float(row[2]) for row in list(csv.reader(fh))[1:]])
            if np.any(dens < 0.0) or not _nonincreasing(dens, TOL_CURVE):
                problems.append("recovered density is negative or increasing")
    return problems


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def child_env(cache_dir: Path) -> dict:
    """Environment of every benchmark child: package from ``src``, private cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["MIXSEP_CACHE_DIR"] = str(cache_dir)
    return env

