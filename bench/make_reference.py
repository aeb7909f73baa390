"""Regenerate ``reference.json``: the expected output of every pool item.

``PYTHONPATH=src python3 bench/make_reference.py [WORKLOAD ...]`` from the
root of a checkout.  The committed file was generated from the package at the
commit that defined the benchmark; regenerate it only when a change of
output is intended, and say so in the change.  Named workloads are updated in
place, the others kept.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    import mixsep

    names = sys.argv[1:] or list(workloads.WORKLOADS)
    reference = workloads.load_reference() if workloads.REFERENCE.exists() else {}
    work = workloads.ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp_name:
        tmp = Path(tmp_name)
        for name in names:
            ops = workloads.pool(name) + (workloads.pool(name, smoke=True)
                                          if name in ("large_n", "simulate") else [])
            for i, op in enumerate(ops):
                if name == "cli_cold":
                    (tmp / "cut_n300.csv").write_text(
                        "\n".join(workloads.cli_cut_rows(op.args[0])) + "\n", encoding="utf-8")
                cache = tmp / f"cache_{i}"
                env = workloads.child_env(cache)
                launcher = [sys.executable, "-m", "mixsep.cli"]
                result = workloads.prepare(mixsep, op, tmp, env, launcher)()
                problems = workloads.invariants(name, op.kind, result)
                if problems:
                    raise SystemExit(f"{op.key}: {problems}")
                reference[op.key] = workloads.summarize(name, result)
                print(op.key, reference[op.key], flush=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
