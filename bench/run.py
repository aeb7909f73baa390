"""mixsep benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  The package is imported from ``src``; every
child process gets a fresh ``MIXSEP_CACHE_DIR`` under ``.bench_build``, which
is removed at the end.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
for ``--trace 0`` and the per-layer metrics for ``--trace 1``.  Set-up time,
latencies and rates are adjusted to a reference host speed, which a
calibration kernel measures between imports and between operations.  The
line before the result records the run: environment, failures, raw values
and how the tail latency was taken.  See ``bench/README.md`` for the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

# Fresh-interpreter imports timed per run; setup_s is their median.
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT = 170
TAIL_BEYOND = 10

_TIMED_IMPORT = "import time; t = time.perf_counter(); import mixsep; print(time.perf_counter() - t)"


def _run(argv, env, timeout=CHILD_TIMEOUT) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} ... exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _phase_env(tmp: Path, phase: str) -> tuple[dict, Path]:
    phase_dir = tmp / phase
    (phase_dir / "cache").mkdir(parents=True)
    return workloads.child_env(phase_dir / "cache"), phase_dir


def _worker(args, tmp: Path, phase: str, trace: bool) -> dict:
    env, phase_dir = _phase_env(tmp, phase)
    argv = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
            str(args.seconds), "1" if trace else "0", "1" if args.smoke else "0", str(phase_dir)]
    return json.loads(_run(argv, env).stdout.strip().splitlines()[-1])


def _package_import_s(importtime_log: str, package: str) -> float:
    """Time spent importing ``package`` and its submodules, from ``-X importtime``.

    Sums the cumulative time of each ``package[.*]`` line whose parent line
    is outside the package.  A package imported through its parent's lazy
    ``__getattr__`` (``from scipy import stats``) prints no line of its own,
    so its submodules are summed instead.
    """
    lines = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$", line)
        if m:
            lines.append((int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3)))

    def inside(name):
        return name == package or name.startswith(package + ".")

    total, stack = 0.0, []  # a line's parent is the next line printed with less indent
    for cumulative, depth, name in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if inside(name) and not (stack and inside(stack[-1][1])):
            total += cumulative
        stack.append((depth, name))
    return total


def _import_times(env: dict) -> dict:
    """Median import times of mixsep, scipy.stats and numpy under ``import mixsep``."""
    runs = [_run([sys.executable, "-X", "importtime", "-c", "import mixsep"], env).stderr
            for _ in range(IMPORTTIME_REPEATS)]
    return {f"import.{package.replace('.', '_')}_s":
            statistics.median(_package_import_s(log, package) for log in runs)
            for package in ("mixsep", "scipy.stats", "numpy")}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 ops beyond it.

    Returns (value, percentile, ops beyond).  That is the op of rank
    N - 11 in ascending order.  With 10 ops or fewer no percentile qualifies
    and the rank clamps to the fastest op, which then has N - 1 ops beyond.
    """
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - rank - 1


def units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), "git_sha": sha, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def _reference_rate(report: dict, count: str = "attempted") -> float:
    """Per-second rate of ``count`` over the loop, at reference host speed."""
    return report[count] / report["reference_wall_s"]


def _timed_imports(env: dict, repeats: int) -> tuple[list[float], list[float]]:
    """Times of ``import mixsep`` in fresh interpreters: at reference speed, and raw.

    A calibration batch runs in this process before and after each import.
    """
    adjusted, raw, before = [], [], worker.calibrate(0.0)
    for _ in range(repeats):
        raw.append(float(_run([sys.executable, "-c", _TIMED_IMPORT], env).stdout))
        after = worker.calibrate(raw[-1])
        adjusted.append(raw[-1] / worker.host_speed(before, after))
        before = after
    return adjusted, raw


def _end_to_end(args, tmp: Path, env: dict, info: dict) -> tuple[dict, dict]:
    report = _worker(args, tmp, "run", trace=False)  # its import warms the bytecode
    setup, setup_raw = _timed_imports(env, 1 if args.smoke else SETUP_REPEATS)
    tail_s, tail_pct, beyond = tail(report["reference_latencies"])
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(report["reference_latencies"]),
        "latency_tail_s": tail_s,
        "ops_per_s": _reference_rate(report),
        "reps_per_s": _reference_rate(report, "samples"),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    info.update(setup_runs_s=setup, host_speed=report["host_speed"],
                latency_tail={"percentile": tail_pct, "ops": report["attempted"],
                              "ops_beyond": beyond},
                raw={"setup_s": statistics.median(setup_raw),
                     "latency_p50_s": statistics.median(report["latencies"]),
                     "latency_tail_s": tail(report["latencies"])[0],
                     "ops_per_s": report["attempted"] / report["wall_s"],
                     "reps_per_s": report["samples"] / report["wall_s"]})
    return report, values


def _per_layer(args, tmp: Path, env: dict, info: dict) -> tuple[dict, dict]:
    base = _worker(args, tmp, "untraced", trace=False)  # its import warms the bytecode
    report = _worker(args, tmp, "traced", trace=True)
    imports = _import_times(env)
    values = {**imports, **report["layers"],
              "trace.overhead_frac": 1.0 - _reference_rate(report) / _reference_rate(base)}
    info.update(span_self_sum_s=report["span_self_sum_s"], op_wall_sum_s=report["op_wall_sum_s"])
    for key in ("attempted", "failed", "failures"):
        report[key] += base[key]
    return report, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up import, for the self-test")
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "mixsep" / "__init__.py", workloads.FIXTURES,
                           workloads.REFERENCE, ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"error: not a mixsep checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        env, _ = _phase_env(tmp, "setup")
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "environment": environment()}
        measure = _per_layer if args.trace else _end_to_end
        report, values = measure(args, tmp, env, info)
        info.update(failed_frac=report["failed"] / report["attempted"],
                    failures=report["failures"], repeated_key_share=report["repeated_key_share"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    unit = units()
    metrics = {name: {"value": value, "unit": unit[name]} for name, value in values.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
