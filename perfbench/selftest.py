"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # all tests, about 2 minutes
    python3 perfbench/selftest.py perturbed  # only tests whose name contains this

* Every check fails on a perturbed output: each number in each recorded
  reference summary, and a run with one program stage skipped or altered.
* A diagnostics.csv with an added column still passes: only the columns of
  the seed commit are compared.
* Every data variant has a reference, which is recorded only when its
  acceptance bands and invariants hold, so they hold on all seeds.
* Two traced runs of a workload give exactly the same counts, and every
  per-layer metric is nonzero on the workload where it should do most work,
  so a wrapper that misses its target fails here instead of reading zero.
* BENCHMARK.json names exactly the metrics that run.py prints.
* In a directory that holds only BENCHMARK.json and perfbench/, run.py
  exits nonzero without printing a result.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import subprocess
import sys
import types
from contextlib import contextmanager
from pathlib import Path

from run import END_TO_END_UNITS, HERE, ROOT, WORKLOADS, run_child, scratch_dir

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# per-layer metric -> the workload where it does most work
MOST_ON = {
    "fourier.fft.fwd_components_per_dm_step": "thm3-rate",
    "fourier.fft.inv_components_per_dm_step": "thm3-rate",
    "fourier.fft.real_input_components_per_dm_step": "thm3-rate",
    "fourier.fft.components_per_pauli_step": "thm4-pauli",
    "fourier.fft.self_s": "run-dm-n64",
    "fourier.fft.share": "run-dm-n64",
    "fourier.poisson_solve.calls_per_dm_step": "thm4-pauli",
    "fourier.gradient.calls_per_pauli_step": "thm4-pauli",
    "fourier.sobolev_norm.self_s": "run-dm-n64",
    "fourier.write_fld.self_s": "run-dm-n64",
    "fourier.write_fld.mb": "run-dm-n64",
    "spinors.pi_eps.self_s": "run-dm-n64",
    "spinors.mat.calls_per_dm_step": "thm3-rate",
    "spinors.mat.self_s": "thm3-rate",
    "spinors.current_density.ms_per_call": "thm3-rate",
    "spinors.charge_density.ms_per_call": "thm3-rate",
    "evolve_dm.dm_strang_step.ms_per_call": "thm3-rate",
    "evolve_dm.free_dirac_step.ms_per_call": "thm3-rate",
    "evolve_dm.free_dirac_step.calls_per_dm_step": "thm3-rate",
    "evolve_dm.potential_kick.ms_per_call": "thm4-pauli",
    "evolve_dm.potential_kick.calls_per_dm_step": "thm4-pauli",
    "evolve_dm.wave_step.ms_per_call": "thm4-pauli",
    "evolve_dm.diagnose.ms_per_call": "run-dm-n64",
    "evolve_dm.trajectory.retained_mb": "thm4-pauli",
    "evolve_dm.picard_solve.self_s": "picard-xval",
    "evolve_dm.picard_solve.free_dirac_calls": "picard-xval",
    "evolve_dm.duhamel_dirac.self_s": "picard-xval",
    "evolve_dm.picard.retained_mb": "picard-xval",
    "evolve_limits.sp_step.calls": "thm3-rate",
    "evolve_limits.sp_step.ms_per_call": "thm3-rate",
    "evolve_limits.pauli_step.ms_per_call": "thm4-pauli",
    "evolve_limits.advect_apply.ms_per_call": "thm4-pauli",
    "evolve_limits.gauge_source_at.ms_per_call": "thm4-pauli",
    "evolve_limits.trajectory.retained_mb": "thm4-pauli",
    "studies.study.self_s": "thm3-rate",
    "cli.cmd_run_dm.self_s": "run-dm-n64",
}


# -- helpers ---------------------------------------------------------------------------


@contextmanager
def replaced(module, name, make_replacement):
    """Replace ``module.name`` in every diracmaxwell module that binds it."""
    original = getattr(module, name)
    replacement = make_replacement(original)
    bound = [m for m in list(sys.modules.values())
             if isinstance(m, types.ModuleType) and m.__name__.startswith("diracmaxwell")
             and getattr(m, name, None) is original]
    for m in bound:
        setattr(m, name, replacement)
    try:
        yield
    finally:
        for m in bound:
            setattr(m, name, original)


def run_in_process(name: str, seed: int = 0) -> list:
    """Failures of one in-process run of a workload (no timing)."""
    wl = workloads.WORKLOADS[name]
    params = workloads.data_params(seed)
    with scratch_dir() as workdir:
        summary = wl.summarize(wl.run(wl.setup(params, workdir)))
    return workloads.check(wl, params, summary, workloads.load_reference())


def _leaves(x, path=()):
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(x, list) and x:
        for i, v in enumerate(x):
            yield from _leaves(v, path + (i,))
    else:
        yield path, x


def _set(x, path, value):
    for p in path[:-1]:
        x = x[p]
    x[path[-1]] = value


# -- tests -----------------------------------------------------------------------------


def test_reference_covers_every_variant():
    reference = workloads.load_reference()
    for name in WORKLOADS:
        have = sorted(reference.get(name, {}), key=int)
        assert have == [str(v) for v in range(workloads.N_VARIANTS)], f"{name}: variants {have}"


def test_checks_fail_on_perturbed_summaries():
    reference = workloads.load_reference()
    for name in WORKLOADS:
        wl = workloads.WORKLOADS[name]
        for variant in ("0", "5"):
            params = workloads.data_params(int(variant))
            want = reference[name][variant]
            assert not workloads.check(wl, params, copy.deepcopy(want), reference), f"{name}: clean summary fails"
            for path, value in _leaves(want):
                bad = copy.deepcopy(want)
                if isinstance(value, bool):
                    _set(bad, path, not value)
                elif isinstance(value, int):
                    _set(bad, path, value + 1)
                elif isinstance(value, float):
                    _set(bad, path, value * (1.0 + 1e-6) + 1e-9)
                else:
                    _set(bad, path, [*value, "extra.fld"] if isinstance(value, list) else None)
                assert workloads.check(wl, params, bad, reference), f"{name}: perturbed {path} passes"


def test_added_csv_column_passes():
    wl = workloads.WORKLOADS["run-dm-n64"]
    params = workloads.data_params(0)
    with scratch_dir() as workdir:
        code, out = wl.run(wl.setup(params, workdir))
        path = out / "diagnostics.csv"
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, [*rows[0], "energy"])
            writer.writeheader()
            writer.writerows({**r, "energy": "1.0"} for r in rows)
        summary = wl.summarize((code, out))
    failures = workloads.check(wl, params, summary, workloads.load_reference())
    assert not failures, f"an added CSV column fails the check: {failures}"


def _identity_kick(original):
    return lambda lat, psi, *args, **kwargs: psi


def _zero_potential(original):
    return lambda lat, psi, dealias_flag=False: np.zeros(psi.shape[1:])


def _skip_advect(original):
    return lambda lat, A, eps, dt, chi, **kwargs: chi


def _frozen_wave(original):
    return lambda lat, A, eps_dtA, J, dt, eps: (A.copy(), eps_dtA.copy())


def _drop_one_snapshot(original):
    def write(path, lat, values, time=0.0):
        if not Path(path).name.startswith("psi_0001"):
            original(path, lat, values, time)
    return write


def _free_flow_only(original):
    def duhamel(lat, psi0, forcing, dt, eps):
        return original(lat, psi0, [np.zeros_like(f) for f in forcing], dt, eps)
    return duhamel


def test_checks_fail_when_a_stage_is_skipped():
    from diracmaxwell import evolve_dm, evolve_limits, fourier

    mutations = [
        ("thm3-rate", evolve_dm, "derived_A0", _zero_potential),
        ("thm3-rate", evolve_dm, "potential_kick", _identity_kick),
        ("thm4-pauli", evolve_limits, "_advect_apply", _skip_advect),
        ("run-dm-n64", evolve_dm, "wave_step", _frozen_wave),
        ("run-dm-n64", fourier, "write_fld", _drop_one_snapshot),
        ("picard-xval", evolve_dm, "_duhamel_dirac", _free_flow_only),
    ]
    for name, module, attr, make in mutations:
        with replaced(module, attr, make):
            failures = run_in_process(name)
        assert failures, f"{name}: skipping {attr} passes every check"
        print(f"  {name} without {attr}: {len(failures)} failures, e.g. {failures[0][:100]}")


def test_trace_counts_repeat_and_cover_every_layer():
    for name in WORKLOADS:
        a, b = (run_child(name, 0, trace=True, timeout=170.0) for _ in range(2))
        assert not a["failures"] and not b["failures"], f"{name}: {a['failures'] + b['failures']}"
        assert a["counts"] == b["counts"], f"{name}: counts differ between two traced runs"
        missing = [m for m, w in MOST_ON.items() if w == name and not a["layers"][m][0] > 0]
        assert not missing, f"{name}: no calls recorded for {missing}"
        print(f"  {name}: {sum(a['counts']['calls'].values())} spans, counts repeat")


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    layer_names = [*Tracer().layer_metrics(), "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert set(MOST_ON) == set(layer_names) - {"trace.overhead_s"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_bare_directory_fails_without_result():
    with scratch_dir() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, "run.py succeeded without the program"
        assert '"correct"' not in proc.stdout, "run.py printed a result without the program"


def main(argv) -> int:
    selected = [(n, f) for n, f in globals().items()
                if n.startswith("test_") and (not argv or any(a in n for a in argv))]
    failed = 0
    for n, f in selected:
        try:
            f()
            print(f"PASS {n}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {n}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
