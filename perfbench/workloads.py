"""The benchmark's workloads: inputs made from a seed, the entry call into
the program, and the checks on its outputs.

Each workload copies the shape of a run users wait on, shortened so that one
run takes a few seconds on a 2-core machine:

* ``thm3-rate``   -- ``studies.nonrel_convergence_study`` on the Theorem 3
  preset data (n = 24, eps 0.4/0.2/0.1, eps_linear, zero gauge).  Mostly DM
  stepping at a small grid, where per-call overhead weighs most; the SP run
  is repeated per eps; no Pauli code runs.
* ``thm4-pauli``  -- ``studies.seminonrel_study`` on the Theorem 4 preset
  data with the ``bandlimited_divfree`` gauge.  DM stepping with nonzero A
  plus ``pauli_step``; the per-step gauge record sets its memory.
* ``run-dm-n64``  -- ``cli.main(["run-dm", ...])`` on a JSON config at
  n = 64, eps = 0.2, gauge on, a sample at every step.  A spinor is 16.8 MB,
  four times a 4 MiB L2, so transforms dominate and the sample path
  (``_diagnose``, ``Trajectory.record``, ``write_fld``, CSV) is a real share.
* ``picard-xval`` -- ``evolve_dm.picard_solve`` at n = 24, eps = 0.4,
  m_max = 6, dt = 1e-3, the shape of acceptance criterion 12.  The only
  caller of ``_duhamel_dirac``; it keeps every step of every iterate.

The seed picks one of ``N_VARIANTS`` data variants: the spinor amplitude
and the gauge amplitude move in steps of 2% around the preset values 0.5
and 0.3 (amplitude 0.47-0.54, gauge amplitude 0.282-0.324).  Seed 0 gives
the preset values.  The program receives only the generated config or
initial state.  Reference outputs are recorded for every variant
(``reference.json``), so every seed is compared against them.

Checks on every run: the acceptance bands and invariants (criteria 7, 8 and
12, charge drift on run-dm), then agreement with the reference within
``RTOL``/``ATOL``, a roundoff tolerance that any reordering of the same
arithmetic meets and any skipped or altered stage does not.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from diracmaxwell import cli, studies
from diracmaxwell import data_families as df
from diracmaxwell import evolve_dm as dm
from diracmaxwell import fourier as fc
from diracmaxwell import spinors as sp

TWO_PI = 6.283185307179586
N_VARIANTS = 8
_STEPS = (0, 1, -1, 2, -2, 3, -3, 4)    # 2% steps around the preset values
RTOL = 1e-9
ATOL = 1e-11
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def data_params(seed: int) -> dict:
    """Seed -> data variant: spinor and gauge amplitude."""
    v = seed % N_VARIANTS
    return {
        "variant": v,
        "amplitude": round(0.5 * (1.0 + 0.02 * _STEPS[v]), 6),
        "gauge_amplitude": round(0.3 * (1.0 + 0.02 * _STEPS[(3 * v) % N_VARIANTS]), 6),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[dict, Path], object]      # params, scratch dir -> program input
    # the timed entry call; it looks functions up at call time so that a
    # tracer installed later sees the call
    run: Callable[[object], object]
    summarize: Callable[[object], dict]        # output -> numbers compared with the reference
    bands: Callable[[dict], list]              # summary -> acceptance-band/invariant failures


# -- rate studies -----------------------------------------------------------------

def _study_setup(T, gauge):
    def setup(params, workdir):
        data = {"amplitude": params["amplitude"]}
        if gauge != "zero":
            data["gauge_amplitude"] = params["gauge_amplitude"]
        return studies.ExperimentConfig(
            n=24, period=TWO_PI, eps_list=[0.4, 0.2, 0.1], T=T,
            dt_ref=2e-3, eps_ref=0.4, dt_schedule="eps_linear",
            family="upper_projected", params=data, gauge=gauge, sample_every=5,
        )
    return setup


def _report_summary(report) -> dict:
    return {
        "errors": {k: [float(x) for x in v] for k, v in sorted(report.errors.items())},
        "rates": {k: float(report.rates[k]) for k in sorted(report.errors)},
    }


def _in_band(failures, label, value, lo, hi):
    if not lo <= value <= hi:
        failures.append(f"{label} {value:.4f} outside [{lo}, {hi}]")


def _thm3_bands(s) -> list:
    failures = []
    _in_band(failures, "h1_spinor rate", s["rates"]["h1_spinor"], 0.7, 1.3)
    for k in ("h1dot_A0", "lp1_charge", "lp2_charge", "lp3_charge"):
        e = s["errors"][k]
        if not all(b < a for a, b in zip(e, e[1:])):
            failures.append(f"{k} errors not decreasing in eps: {e}")
    return failures


def _thm4_bands(s) -> list:
    failures = []
    _in_band(failures, "h1_pauli_spinor rate", s["rates"]["h1_pauli_spinor"], 1.6, 2.4)
    _in_band(failures, "l1_current_defect rate", s["rates"]["l1_current_defect"], 0.6, 1.4)
    return failures


# -- run-dm at n = 64 -----------------------------------------------------------------

_RUN_DM_STEPS = 3
_RUN_DM_DT = 1e-3
# the diagnostics.csv columns of the seed commit; the CSV may gain columns
_RUN_DM_COLUMNS = ("t", "charge", "h1_psi", "h1dot_A", "eps_l2_dtA", "h1_pi_minus_psi")


def _run_dm_setup(params, workdir):
    config = {
        "kind": "run-dm",
        "grid": {"n": 64, "period": TWO_PI},
        "eps": 0.2,
        "T": _RUN_DM_STEPS * _RUN_DM_DT,
        "dt": _RUN_DM_DT,
        "data": {"family": "upper_projected",
                 "params": {"amplitude": params["amplitude"],
                            "gauge_amplitude": params["gauge_amplitude"]}},
        "gauge": "bandlimited_divfree",
        "sample_every": 1,
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    return ["run-dm", "--config", str(path), "--out", str(workdir / "out")]


def _run_dm_run(argv):
    return cli.main(argv), Path(argv[-1])


def _run_dm_summary(output) -> dict:
    code, out = output
    with open(out / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    columns = {c: [float(r[c]) for r in rows] for c in _RUN_DM_COLUMNS}
    snapshots = sorted(out.glob("psi_*.fld"))
    header, psi = fc.read_fld(snapshots[-1])
    lat = fc.make_lattice(header["grid_n"], header["period"])
    payload = header["grid_n"] ** 3 * 16 * header["components"]
    return {
        "exit_code": code,
        "diagnostics": columns,
        "snapshots": len(snapshots),
        "a_final": (out / "A_final.fld").exists(),
        "short_snapshots": [p.name for p in snapshots if p.stat().st_size <= payload],
        "last_snapshot_charge": sp.total_charge(lat, psi),
    }


def _run_dm_bands(s) -> list:
    failures = []
    if s["exit_code"] != 0:
        failures.append(f"dmx run-dm exited with {s['exit_code']}")
    charge = s["diagnostics"]["charge"]
    drift = max(abs(c - charge[0]) for c in charge)
    if not drift < 1e-8:
        failures.append(f"charge drift {drift:.2e} not below 1e-8")
    if s["snapshots"] != _RUN_DM_STEPS + 1 or len(charge) != _RUN_DM_STEPS + 1:
        failures.append(f"{s['snapshots']} snapshots, {len(charge)} diagnostic rows; "
                        f"expected {_RUN_DM_STEPS + 1}")
    if not s["a_final"] or s["short_snapshots"]:
        failures.append(f"missing A_final.fld or short snapshots {s['short_snapshots']}")
    if not math.isclose(s["last_snapshot_charge"], charge[-1], rel_tol=1e-12):
        failures.append("last snapshot charge disagrees with diagnostics.csv")
    return failures


# -- Picard cross-check ---------------------------------------------------------------

_PICARD = {"n": 24, "eps": 0.4, "T": 0.015, "m_max": 6, "dt": 1e-3}


def _picard_setup(params, workdir):
    n, eps = _PICARD["n"], _PICARD["eps"]
    lat = fc.make_lattice(n, TWO_PI)
    psi0 = df.spinor_data(lat, "upper_projected", eps, {"amplitude": params["amplitude"]})
    zero = np.zeros((3, n, n, n))
    return dm.DMState(lat, 0.0, psi0, zero, zero.copy(), eps)


def _picard_run(init):
    return init.lat, dm.picard_solve(init, _PICARD["T"], _PICARD["m_max"],
                                     dm.StepConfig(dt=_PICARD["dt"]))


def _picard_summary(output) -> dict:
    lat, res = output
    return {
        "cauchy": [float(c) for c in res.cauchy],
        "contraction_failed": bool(res.contraction_failed),
        "final_h1_psi": fc.sobolev_norm(lat, res.psis[-1], 1.0),
        "final_charge": sp.total_charge(lat, res.psis[-1]),
        "final_l2_A": fc.l2_norm(lat, res.As[-1]),
    }


def _picard_bands(s) -> list:
    failures = []
    c = s["cauchy"]
    if len(c) != _PICARD["m_max"] + 1:
        failures.append(f"{len(c)} Picard iterates, expected {_PICARD['m_max'] + 1}")
    tail = [c[i + 1] / c[i] if c[i] > 0 else math.inf for i in range(3, len(c) - 1)]
    if not tail or max(tail) >= 0.7:
        failures.append(f"Picard tail ratios {tail} not all below 0.7")
    if s["contraction_failed"]:
        failures.append("Picard contraction_failed is set")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("thm3-rate", _study_setup(0.02, "zero"),
                 lambda c: studies.nonrel_convergence_study(c), _report_summary, _thm3_bands),
        Workload("thm4-pauli", _study_setup(0.03, "bandlimited_divfree"),
                 lambda c: studies.seminonrel_study(c), _report_summary, _thm4_bands),
        Workload("run-dm-n64", _run_dm_setup, _run_dm_run, _run_dm_summary, _run_dm_bands),
        Workload("picard-xval", _picard_setup, _picard_run, _picard_summary, _picard_bands),
    )
}


# -- reference comparison ----------------------------------------------------------------


def compare(got, want, path="") -> list:
    """Differences between two summaries beyond RTOL/ATOL, by key path."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'summary'}: keys differ"]
        return [d for k in want for d in compare(got[k], want[k], f"{path}.{k}".lstrip("."))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else '-'} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - want) <= ATOL + RTOL * abs(want):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


def check(workload: Workload, params: dict, summary: dict, reference: dict) -> list:
    """All failures of one run: acceptance bands and invariants, then the
    comparison with the recorded reference of its data variant."""
    failures = workload.bands(summary)
    want = reference.get(workload.name, {}).get(str(params["variant"]))
    if want is None:
        failures.append(f"no reference recorded for variant {params['variant']}")
    else:
        failures += compare(summary, want)
    return failures
