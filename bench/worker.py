"""One measured phase of a benchmark run, in a fresh interpreter.

``python3 worker.py WORKLOAD SEED SECONDS TRACE SMOKE TMP`` imports the
package from ``src``, runs the workload's closed loop (one client: the next
operation starts when the previous one returns) for the whole number of
cycles of operation kinds whose end comes nearest to SECONDS at reference
host speed (at least one), checks every output, and prints one JSON report
line.  With TRACE = 1 the package's functions are traced and the report
carries the per-layer metrics.

The host's speed drifts by up to a third within seconds, so a calibration
kernel runs before the first operation and after each one.  An operation's
host speed is the median kernel time of the batches on either side of it,
divided by the kernel's time at reference speed.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import tracing
import workloads

# A phase stops after any operation once this much time has passed, so a run
# stays within its time limit even if a cycle takes far longer than expected.
MAX_PHASE_SECONDS = 75.0
# A calibration batch is at least this many kernel passes, and lasts at least
# this share of the latency of the op before it.
CALIBRATION_PASSES = 3
CALIBRATION_SHARE = 0.05
# The kernel's time at reference speed: the 2-core Xeon VM on which the
# benchmark was defined takes 13-20 ms, depending on its neighbours' load.
CALIBRATION_REF_S = 0.015


def calibration_kernel() -> float:
    """Time one pass of fixed work that owes nothing to the package.

    Interpreted loops and numpy calls, like the operations.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    np.sort(np.random.default_rng(total % 7).random(100_000))
    return time.perf_counter() - t0


def calibrate(latency: float) -> list[float]:
    """One batch of kernel times, sized to the op that preceded it."""
    batch = []
    while len(batch) < CALIBRATION_PASSES or sum(batch) < CALIBRATION_SHARE * latency:
        batch.append(calibration_kernel())
    return batch


def host_speed(before: list[float], after: list[float]) -> float:
    """Host slowness around a timed span, from the kernel batches on either side.

    1 is reference speed; 1.2 means the host ran 20 % slower.
    """
    return statistics.median(before + after) / CALIBRATION_REF_S


def _check(workload: str, op, result, reference: dict) -> list[str]:
    try:
        problems = workloads.invariants(workload, op.kind, result)
        if not problems:
            problems = workloads.compare(workloads.summarize(workload, result),
                                         reference.get(op.key))
    except Exception as exc:  # a malformed output is a failed op, not a crash
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return problems


def main() -> int:
    workload, seed, seconds, trace, smoke, tmp = sys.argv[1:7]
    seed, seconds, trace, smoke, tmp = int(seed), float(seconds), trace == "1", smoke == "1", Path(tmp)
    import mixsep

    src = workloads.ROOT / "src"
    if Path(mixsep.__file__).resolve().parent != src / "mixsep":
        print(f"mixsep imported from {mixsep.__file__}, not from {src}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    env = dict(os.environ)
    if workload == "cli_cold":
        workloads.write_cli_inputs(tmp, seed)

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracing.install(tracer)
    latencies, speeds, failures, samples = [], [], [], 0
    wall = reference_wall = 0.0  # loop time without calibration, raw and at reference speed
    keys_seen, repeated = set(), 0
    cycle = workloads.CYCLE[workload]
    start = time.perf_counter()
    before = calibrate(0.0)
    for i, op in enumerate(workloads.plan(workload, seed, smoke)):
        segment_start = time.perf_counter()
        launcher = [sys.executable, "-m", "mixsep.cli"]
        spans_file = tmp / f"spans_{i}.json"
        if tracer and workload == "cli_cold":
            launcher = [sys.executable, str(workloads.BENCH / "cli_child.py"), str(spans_file),
                        "1" if op.kind == "estimate_n300" else "0"]
        if workload == "small_n":
            repeated += op.args[0] in keys_seen  # critical-value key (n, default beta)
            keys_seen.add(op.args[0])
        call = workloads.prepare(mixsep, op, tmp, env, launcher)
        result, problems = None, []
        with tracer.span("op") if tracer else nullcontext() as op_span:
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:
                problems = [f"raised {type(exc).__name__}: {exc}"]
            latencies.append(time.perf_counter() - t0)
        if tracer and spans_file.exists():
            tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")), op_span)
        if not problems:
            problems = _check(workload, op, result, reference)
        if problems:
            failures.append(f"{op.key}: {'; '.join(problems)}")
        samples += op.samples
        segment = time.perf_counter() - segment_start

        after = calibrate(latencies[-1])
        speeds.append(host_speed(before, after))
        before = after
        wall += segment
        reference_wall += segment / speeds[-1]
        if (i + 1) % cycle == 0:
            mean_cycle = reference_wall / ((i + 1) // cycle)
            # stop unless the next cycle would end nearer to SECONDS
            if reference_wall + mean_cycle / 2 >= seconds:
                break
        if time.perf_counter() - start >= MAX_PHASE_SECONDS:
            break

    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    report = {
        "latencies": latencies,
        "reference_latencies": [t / s for t, s in zip(latencies, speeds)],
        "host_speed": statistics.median(speeds),
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "wall_s": wall,
        "reference_wall_s": reference_wall,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "repeated_key_share": repeated / len(latencies) if workload == "small_n" else None,
    }
    if tracer:
        report["layers"] = tracing.layer_metrics(tracer.spans, len(latencies))
        report["span_self_sum_s"] = sum(tracing.self_times(tracer.spans))
        report["op_wall_sum_s"] = sum(s[2] - s[1] for s in tracer.spans if s[0] == "op")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
