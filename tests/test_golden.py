"""Golden regression fixtures: small runs of every solver path, compared
with values recorded in ``tests/data/golden.json``.

The fixtures pin the arithmetic of the run commands and the rate studies, so
a refactor of the stepping code that only moves storage and control flow
must reproduce them to roundoff.  ``golden_values()`` computes the recorded
quantities; the JSON was written once by dumping its result.
"""

import csv
import json
from pathlib import Path

import pytest

from diracmaxwell import cli
from diracmaxwell import fourier as fc
from diracmaxwell import studies as st

TWO_PI = 6.283185307179586
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden.json"
RTOL = 1e-12
ATOL = 1e-14

_DATA = {"family": "upper_projected", "params": {"amplitude": 0.5, "gauge_amplitude": 0.2}}
_RUNS = {
    "run-dm": ({"grid": {"n": 12, "period": TWO_PI}, "eps": 0.3, "T": 0.06, "dt": 0.01,
                "data": _DATA, "gauge": "bandlimited_divfree", "sample_every": 2}, "psi_*.fld"),
    "run-sp": ({"grid": {"n": 12, "period": TWO_PI}, "T": 0.06, "dt": 0.01,
                "data": {"family": "upper_lower", "params": {"amplitude": 0.5}},
                "sample_every": 4}, "vplus_*.fld"),
    "run-pauli": ({"grid": {"n": 12, "period": TWO_PI}, "eps": 0.3, "T": 0.06, "dt": 0.01,
                   "data": _DATA, "gauge": "bandlimited_divfree", "sample_every": 4}, "chi_*.fld"),
}


def _study_cfg(gauge, family="upper_projected"):
    params = {"amplitude": 0.5}
    if gauge != "zero":
        params["gauge_amplitude"] = 0.2
    return st.ExperimentConfig(
        n=8, period=TWO_PI, eps_list=[0.4, 0.2, 0.1], T=0.04, dt_ref=4e-3, eps_ref=0.4,
        dt_schedule="eps_linear", family=family, params=params, gauge=gauge, sample_every=5,
    )


def _run_command(command, config, pattern, workdir):
    path = workdir / f"{command}.json"
    path.write_text(json.dumps(config))
    out = workdir / command
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    with open(out / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    header, values = fc.read_fld(sorted(out.glob(pattern))[-1])
    lat = fc.make_lattice(header["grid_n"], header["period"])
    result = {
        "diagnostics": {c: [float(r[c]) for r in rows] for c in rows[0]},
        "last_snapshot": {"time": header["time"], "l2": fc.l2_norm(lat, values),
                          "h1": fc.sobolev_norm(lat, values, 1.0)},
    }
    if command == "run-dm":
        _, A = fc.read_fld(out / "A_final.fld")
        result["A_final_h1dot"] = fc.sobolev_norm(lat, A, 1.0, homogeneous=True)
    return result


def golden_values(workdir: Path) -> dict:
    values = {name: _run_command(name, cfg, pattern, workdir) for name, (cfg, pattern) in _RUNS.items()}
    for name, study, cfg in (
        ("nonrel", st.nonrel_convergence_study, _study_cfg("zero")),
        ("nonrel_gauge", st.nonrel_convergence_study, _study_cfg("bandlimited_divfree", "upper_lower")),
        ("seminonrel", st.seminonrel_study, _study_cfg("bandlimited_divfree")),
    ):
        values[name] = {k: [float(x) for x in v] for k, v in sorted(study(cfg).errors.items())}
    weak = st.weak_pairing_study(_study_cfg("zero", "counterexample"))
    values["weak_pairing"] = {"defects": weak["defects"], "pairing_limit": weak["pairing_limit"]}
    return values


def _flatten(x, path=""):
    if isinstance(x, dict):
        for k in sorted(x):
            yield from _flatten(x[k], f"{path}.{k}".lstrip("."))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _flatten(v, f"{path}[{i}]")
    else:
        yield path, x


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return golden_values(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("section", ["run-dm", "run-sp", "run-pauli", "nonrel", "nonrel_gauge",
                                     "seminonrel", "weak_pairing"])
def test_matches_golden(computed, golden, section):
    got = dict(_flatten(computed[section]))
    want = dict(_flatten(golden[section]))
    assert set(want) <= set(got)
    for key, w in want.items():
        assert got[key] == pytest.approx(w, rel=RTOL, abs=ATOL), key
