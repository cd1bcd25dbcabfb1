"""Benchmark entry point: runs one workload (or all) and prints its metrics.

    python3 perfbench/run.py --workload thm3-rate --seed 0 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 0

``--seconds`` defaults to the ``run_seconds`` that BENCHMARK.json declares.

Every measured run is a fresh child process (child.py) running the workload
once, with the program imported from ``src/`` of this checkout and the BLAS
and OpenMP pools capped at the number of usable cores.  Children run one at
a time; new ones start while the next is expected to finish within
``--seconds`` (at least ``MIN_RUNS``).  Each child checks its own outputs.

With ``--trace 0`` the end-to-end metrics are the medians over the children:
``wall_s`` (entry call until the outputs are checked), ``setup_s`` (child
start until the entry call) and ``peak_rss_mb`` (the child's ru_maxrss).
With ``--trace 1`` traced and untraced children alternate; the per-layer
metrics are medians over the traced ones, their counts must repeat exactly,
and ``trace.overhead_s`` is the median traced minus the median untraced
``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for a reader, with ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("thm3-rate", "thm4-pauli", "run-dm-n64", "picard-xval")
MIN_RUNS = 3
HARD_LIMIT_S = 170.0      # a run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def declared_run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def child_env() -> dict:
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cores
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@contextmanager
def scratch_dir():
    """A fresh directory under .perfbench_tmp/ in the checkout, removed afterwards."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def run_child(name: str, seed: int, trace: bool, timeout: float) -> dict:
    """One fresh process: set-up, one entry call, output checks."""
    with scratch_dir() as workdir:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), name, str(seed), repr(spawned),
                 "1" if trace else "0", str(workdir)],
                env=child_env(), capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"failures": ["child timed out"], "elapsed": timeout}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return {"failures": [f"child exited with {proc.returncode}"], "elapsed": time.monotonic() - spawned}
    result = json.loads(lines[-1])
    if result["failures"]:
        sys.stderr.write(proc.stderr[-4000:])
    result["elapsed"] = time.monotonic() - spawned
    result["traced"] = trace
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    runs = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed + longest > seconds:
            break
        if elapsed + max(longest, 1.0) > HARD_LIMIT_S:
            break
        traced = trace and len(runs) % 2 == 0
        res = run_child(name, seed, traced, HARD_LIMIT_S - elapsed)
        runs.append(res)
        longest = max(longest, res["elapsed"])
    return summarize(name, runs, trace)


def _median(runs, key):
    """Median over the children that got as far as measuring ``key``."""
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else None


def summarize(name: str, runs: list, trace: bool) -> dict:
    failed = sum(1 for r in runs if r["failures"])
    for r in runs:
        for f in r["failures"]:
            print(f"{name}: FAILED check: {f}", file=sys.stderr)
    attempted = len(runs)
    metrics = {}
    if trace:
        traced = [r for r in runs if r.get("traced") and "layers" in r]
        untraced = [r for r in runs if not r.get("traced") and "wall_s" in r]
        if traced:
            counts = [r["counts"] for r in traced]
            if any(c != counts[0] for c in counts[1:]):
                failed += 1
                print(f"{name}: FAILED: trace counts differ between traced runs", file=sys.stderr)
            for metric, (_, unit) in traced[0]["layers"].items():
                value = statistics.median(r["layers"][metric][0] for r in traced)
                metrics[metric] = {"value": value, "unit": unit}
        traced_wall, untraced_wall = _median(traced, "wall_s"), _median(untraced, "wall_s")
        overhead = traced_wall - untraced_wall if traced and untraced else None
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{name}: traced wall_s {traced_wall} s, untraced {untraced_wall} s, overhead "
              f"{overhead} s ({len(traced)} traced, {len(untraced)} untraced runs)")
    else:
        for metric, unit in END_TO_END_UNITS.items():
            metrics[metric] = {"value": _median(runs, metric), "unit": unit}
        print(f"{name}: " + ", ".join(f"{m} {v['value']} {v['unit']}" for m, v in metrics.items())
              + f", failed_frac {failed / attempted:.3f} ({failed}/{attempted} runs)")
        print(f"{name}: wall_s per child: {[round(r['wall_s'], 4) for r in runs if 'wall_s' in r]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diracmaxwell" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'diracmaxwell'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
