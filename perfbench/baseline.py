"""Measure every workload over ten seeds and write perfbench/baseline.json.

    python3 perfbench/baseline.py

Runs run.py once per (workload, seed) with tracing off, seeds 0..SEEDS-1,
and once per workload with tracing on (seed 0), each for the ``run_seconds``
that BENCHMARK.json declares.  For each end-to-end metric it
records the ten values, their median and their spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, the figure the bounds in BENCHMARK.json are set
against.  The file also records the commit, the interpreter and library
versions, the number of usable cores and the thread settings.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, WORKLOADS, child_env, declared_run_seconds

SEEDS = 10
OUT = HERE / "baseline.json"


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["report"] = lines[:-1]
    return result


def _environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True,
    ).stdout.split()
    env = child_env()
    return {
        "commit": commit,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": versions[0] if versions else "missing",
        "scipy": versions[1] if len(versions) > 1 else "missing",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    seconds = declared_run_seconds()
    out = {**_environment(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = [_run(name, seed, seconds, 0) for seed in range(SEEDS)]
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = {"median": statistics.median(values), "spread": spread(values),
                               "unit": runs[0]["metrics"][metric]["unit"]}
            print(f"{name} {metric}: median {summary[metric]['median']:.4f}, "
                  f"spread {summary[metric]['spread']:.4f}", flush=True)
        traced = _run(name, 0, seconds, 1)
        ok = ok and all(r["correct"] for r in [*runs, traced])
        out["workloads"][name] = {"end_to_end": summary, "runs": runs, "traced": traced}
    with open(OUT, "w") as fh:
        fh.write(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
