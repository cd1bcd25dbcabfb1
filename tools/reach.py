"""Print the functions of the package that no shipped path calls.

A function is reached when one of these calls it, on the main thread or on
a thread started meanwhile (the transform and slab pool):

* every ``dmx`` run, study and probe command on a small config, and a
  2-step ``run-dm`` at n = 32, where transforms and slabs split over the
  cores (two are assumed for it, so the split runs on any host);
* every ``dmx check`` suite;
* acceptance criteria 01-13 (``tests/test_acceptance.py``, through pytest).

Calls are seen through ``sys.setprofile`` and ``threading.setprofile``.  A
function is every ``def`` in ``src/diracmaxwell``, methods and nested
functions included, named ``module.qualname``.  The tool lists the
unreached ones and exits 1 if one of them is not in ALLOWED, which gives the
reason each listed function may stay.  It takes no options:

    python tools/reach.py

The criteria dominate its run time: about 3 minutes on 2 vCPUs.
"""

from __future__ import annotations

import ast
import contextlib
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diracmaxwell"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from diracmaxwell import cli, fourier  # noqa: E402
from diracmaxwell.harness import CHECKS  # noqa: E402

ALLOWED = {
    "fourier._forget_workers": "the fork hook: it runs only in a child forked after the pool started",
    "spinors.total_charge": "only perfbench/workloads.py calls it, and only a benchmark change may edit perfbench/",
    "fourier.read_fld": "only perfbench/workloads.py and tests that read the program's own snapshots call it, "
                        "and only a benchmark change may edit perfbench/",
}

TWO_PI = 6.283185307179586
_DM = {"grid": {"n": 8, "period": TWO_PI}, "eps": 0.5, "T": 0.02, "dt": 0.01, "gauge": "bandlimited_divfree",
       "data": {"family": "upper_projected", "params": {"amplitude": 0.5, "gauge_amplitude": 0.3}}}
_STUDY = {"grid": {"n": 8, "period": TWO_PI}, "eps_list": [0.4, 0.2, 0.1], "T": 0.05, "dt_ref": 5e-3,
          "sample_every": 5, "gauge": "bandlimited_divfree",
          "data": {"family": "upper_projected", "params": {"amplitude": 0.5, "gauge_amplitude": 0.3}}}
_PROBE = {"grid": {"n": 16, "period": TWO_PI}, "case": "iii", "eps": 0.5, "mu_list": [1.0, 2.0], "lam_list": [2.0],
          "trials": 1, "T": 0.1, "dt": 0.05}
# (command, config) of every run, study and probe command, on small grids
COMMANDS = [
    ("run-dm", {**_DM, "dealias": True}),
    ("run-sp", {**{k: v for k, v in _DM.items() if k not in ("eps", "gauge")},
                "data": {"family": "upper_lower", "params": {"amplitude": 0.5, "minus_amplitude": 0.3}}}),
    ("run-pauli", _DM),
    ("converge", _STUDY),
    ("seminonrel", _STUDY),
    ("probe-dyadic", _PROBE),
]
# a 2-step run-dm at n = 32, the smallest grid whose transforms and slabs split over the cores
SPLIT = ("run-dm", {**_DM, "grid": {"n": 32, "period": TWO_PI}, "dealias": True})


def functions() -> dict:
    """'module.qualname' -> (file, first line of its code object) of every def
    in the package; a decorated def's code starts at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                found[name] = (path, min([child.lineno, *(d.lineno for d in child.decorator_list)]))
                walk(child, path, name)
            else:
                walk(child, path, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.resolve(), path.stem)
    return found


@contextlib.contextmanager
def traced():
    """Yields a set that collects the code object of every Python function
    called on this thread and on the threads started inside the block."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield codes
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def reached_names(codes) -> set:
    """The names (as functions() gives them) of the package functions among codes."""
    where = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}
    return {name for name, key in functions().items() if key in where}


def run_commands(commands, out_dir: Path) -> None:
    """cli.main on each (command, config), each config written to out_dir; a nonzero exit raises."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (command, config) in enumerate(commands):
        path = out_dir / f"config{i}.json"
        path.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(path), "--out", str(out_dir / f"out{i}")])
        if code:
            raise SystemExit(f"reach: dmx {command} on {config} exited {code}")


def run_everything(out_dir: Path) -> None:
    """Every command, the n = 32 split run on at least two cores, every check suite and the criteria."""
    run_commands(COMMANDS, out_dir / "commands")
    cores, fourier._CORES = fourier._CORES, max(2, fourier._CORES)
    try:
        run_commands([SPLIT], out_dir / "split")
    finally:
        fourier._CORES = cores
    for suite in CHECKS:
        if cli.main(["check", suite]):
            raise SystemExit(f"reach: dmx check {suite} failed")
    import pytest  # the criteria are tests; pytest is the one test dependency

    if pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]):
        raise SystemExit("reach: an acceptance criterion failed")


def report(reached: set) -> int:
    """Print the unreached functions; 1 if one of them is not in ALLOWED."""
    found = functions()
    unreached = sorted(set(found) - reached)
    print(f"reached {len(found) - len(unreached)} of {len(found)} functions in src/diracmaxwell")
    for name in unreached:
        path, line = found[name]
        reason = f"allowed: {ALLOWED[name]}" if name in ALLOWED else "NOT REACHED"
        print(f"  {name} ({path.relative_to(ROOT)}:{line}): {reason}")
    return 1 if any(name not in ALLOWED for name in unreached) else 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, traced() as codes:
        run_everything(Path(tmp))
    return report(reached_names(codes))


if __name__ == "__main__":
    sys.exit(main())
