"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Criteria 01-04 assert the rows of harness.CHECKS,
the table ``dmx check`` prints, under their wall-time gates.  The heavy
rate studies (criteria 7, 8, 9, 10) run the shipped n = 24 presets and take
a few minutes together; everything is deterministic (fixed seeds, no
wall-clock dependence in any asserted value).
"""

import collections
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from diracmaxwell import cli
from diracmaxwell import data_families as df
from diracmaxwell import evolve_dm as dm
from diracmaxwell import fourier as fc
from diracmaxwell import harness as hn
from diracmaxwell import studies as st

TWO_PI = 2 * np.pi


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def thm3_config(family="upper_projected", gauge="zero", extra_params=None):
    params = {"amplitude": 0.5}
    params.update(extra_params or {})
    return st.ExperimentConfig(
        n=24,
        period=TWO_PI,
        eps_list=[0.4, 0.2, 0.1],
        T=0.5,
        dt_ref=2e-3,
        eps_ref=0.4,
        dt_schedule="eps_linear",
        family=family,
        params=params,
        gauge=gauge,
        sample_every=25,
    )


@pytest.fixture(scope="module")
def thm3_report():
    return st.nonrel_convergence_study(thm3_config())


@pytest.fixture(scope="module")
def thm4_report():
    return st.seminonrel_study(
        thm3_config(gauge="bandlimited_divfree", extra_params={"gauge_amplitude": 0.3})
    )


@pytest.fixture(scope="module")
def counterexample_report():
    return st.nonrel_convergence_study(thm3_config(family="counterexample"))


def assert_check_rows(criterion, suites, wall_gate):
    """Criteria 01-04: every row of the named harness.CHECKS suites passes
    (the rows `dmx check` prints), within the criterion's wall-time gate."""
    t0 = time.perf_counter()
    rows = [row for suite in suites for row in hn.check_rows(suite)]
    wall = time.perf_counter() - t0
    failed = [name for name, _, _, ok in rows if not ok]
    detail = f"{len(rows) - len(failed)} of {len(rows)} rows of {' + '.join(suites)} pass, {wall:.1f}s"
    report(criterion, bool(rows) and not failed and wall < wall_gate, detail + "".join(f"; FAIL {n}" for n in failed))


def test_criterion_01_algebra_suite():
    assert_check_rows("01 algebra", ["matrices", "projections"], 5.0)


def test_criterion_02_symbol_suite():
    assert_check_rows("02 symbols", ["symbols"], 5.0)


def test_criterion_03_null_identity_one():
    assert_check_rows("03 null identity (i)", ["null-1"], 30.0)


def test_criterion_04_null_identity_two():
    assert_check_rows("04 null identity (ii)", ["null-2"], 120.0)


def test_criterion_05_conservation():
    lat = fc.make_lattice(24, TWO_PI)
    eps = 0.25
    psi0 = df.spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5})
    a0, a1 = df.gauge_data(lat, "bandlimited_divfree", {"gauge_amplitude": 0.2})
    init = dm.DMState(lat, 0.0, psi0, a0, a1, eps)
    cfg = dm.StepConfig(dt=2e-3)
    charge, divs = [], []

    def observe(s):
        charge.append(dm.checked_diagnostics(s, cfg)["charge"])
        divs.extend(fc.l2_norm(lat, fc.divergence(lat, f)) for f in (s.A, s.eps_dtA))

    dm.run_dm(init, 1.0, cfg, 25, observe)
    charge = np.array(charge)
    drift = float(np.abs(charge - charge[0]).max())
    div_worst = max(divs)
    ok = drift < 1e-8 and div_worst < 1e-10
    report("05 conservation", ok, f"charge drift {drift:.2e}, max divergence {div_worst:.2e}")


def test_criterion_06_stationary_solution():
    lat = fc.make_lattice(8, TWO_PI)
    worst = 0.0
    for eps in (0.4, 0.2, 0.1):
        psi0 = np.zeros((4, 8, 8, 8), dtype=complex)
        psi0[0] = 1.0
        init = dm.DMState(lat, 0.0, psi0, np.zeros((3, 8, 8, 8)), np.zeros((3, 8, 8, 8)), eps)
        cfg = dm.StepConfig(dt=0.01)
        final = dm.run_dm(init, 1.0, cfg, 100, lambda s: dm.checked_diagnostics(s, cfg))
        ref = np.zeros_like(psi0)
        ref[0] = np.exp(-1j * final.t / eps**2)
        worst = max(worst, fc.sobolev_norm(lat, final.psi - ref, 1.0))
    report("06 stationary solution", worst < 1e-9, f"max H1 error {worst:.2e}")


def test_criterion_07_thm3_rates(thm3_report):
    rep = thm3_report
    rate = rep.rates["h1_spinor"]
    monotone = all(
        all(b < a for a, b in zip(rep.errors[k], rep.errors[k][1:]))
        for k in ("h1dot_A0", "lp1_charge", "lp2_charge", "lp3_charge")
    )
    ok = 0.7 <= rate <= 1.3 and monotone
    report(
        "07 theorem-3 desk scale",
        ok,
        f"H1 spinor rate {rate:.3f}, potential/charge errors monotone: {monotone}",
    )


def test_criterion_08_thm4_rates(thm4_report):
    rep = thm4_report
    spinor_rate = rep.rates["h1_pauli_spinor"]
    current_rate = rep.rates["l1_current_defect"]
    ok = 1.6 <= spinor_rate <= 2.4 and 0.6 <= current_rate <= 1.4
    report(
        "08 theorem-4 desk scale",
        ok,
        f"Pauli spinor rate {spinor_rate:.3f}, current defect rate {current_rate:.3f}",
    )


def test_criterion_09_weak_star_current():
    out = st.weak_pairing_study(
        thm3_config(family="upper_lower", extra_params={"minus_amplitude": 0.3})
    )
    defects = out["defects"]
    ok = out["strictly_decreasing"]
    report("09 weak-star current", ok, "defects " + ", ".join(f"{d:.3e}" for d in defects))


def test_criterion_10_counterexample(counterexample_report):
    lat = fc.make_lattice(24, TWO_PI)
    v = df.v_plus_profile(lat, 0.5)
    gaps = [hn.counterexample_current_gap(lat, v, eps) for eps in (0.4, 0.2, 0.1)]
    gap_ok = min(gaps) > 0.1 and (max(gaps) - min(gaps)) < 1e-9 * max(gaps)
    rate = counterexample_report.rates["h1_spinor"]
    rate_ok = 0.7 <= rate <= 1.3
    report(
        "10 counterexample",
        gap_ok and rate_ok,
        f"t=0 current gap {min(gaps):.3f} (eps-independent), spinor rate {rate:.3f}",
    )


def _sweep_stats(rows):
    by_mu = collections.defaultdict(list)
    for mu, lam, eps, trial, r in rows:
        by_mu[mu].append(r)
    medians = {mu: float(np.median(v)) for mu, v in by_mu.items()}
    ratios = np.array([r[-1] for r in rows])
    max_over_median = float(ratios.max() / np.median(ratios))
    mus = sorted(medians)
    slope = (
        float(np.polyfit(np.log2(mus), np.log2([medians[m] for m in mus]), 1)[0])
        if len(mus) >= 2
        else 0.0
    )
    return max_over_median, slope


def test_criterion_11_dyadic_probes():
    # The windowed lattice probe carries an intrinsic near-resonance factor of
    # at most mu^(1/2) in the wave-wave case, so "no growth trend" is gated at
    # slope < 0.8 per octave: a mu-power wrong by sqrt(mu) or more in the
    # claimed right-hand sides would push the fitted slope to >= 1.
    t0 = time.time()
    sweeps = {
        "i": st.dyadic_sweep("i", 32, TWO_PI, 0.25, [1.0, 2.0, 4.0], [4.0], trials=8, seed=0, T=1.0, dt=0.02),
        "ii": st.dyadic_sweep("ii", 64, TWO_PI, 0.5, [1.0, 2.0, 4.0], [8.0], trials=8, seed=0, T=1.0, dt=0.04),
        "iii": st.dyadic_sweep("iii", 32, TWO_PI, 0.25, [1.0, 2.0, 4.0], [2.0], trials=8, seed=0, T=1.0, dt=0.02),
    }
    details = []
    ok = True
    for case, rows in sweeps.items():
        max_over_median, slope = _sweep_stats(rows)
        details.append(f"case {case}: max/med {max_over_median:.2f}, mu-slope {slope:+.2f}")
        ok = ok and max_over_median < 10.0
        if case in ("i", "ii"):
            ok = ok and slope < 0.8
    wall = time.time() - t0
    ok = ok and wall < 600.0
    report("11 dyadic probes", ok, "; ".join(details) + f", {wall:.0f}s")


def test_criterion_12_picard_cross_validation():
    lat = fc.make_lattice(24, TWO_PI)
    eps, T = 0.4, 0.1
    psi0 = df.spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5})
    init = dm.DMState(lat, 0.0, psi0, np.zeros((3, 24, 24, 24)), np.zeros((3, 24, 24, 24)), eps)
    res = dm.picard_solve(init, T, 6, dm.StepConfig(dt=1e-3))
    tail_ratios = [res.cauchy[i + 1] / res.cauchy[i] for i in range(3, len(res.cauchy) - 1)]
    cauchy_ok = all(r < 0.7 for r in tail_ratios) and not res.contraction_failed
    cfg_a, cfg_b = dm.StepConfig(dt=1e-3), dm.StepConfig(dt=5e-4)
    final_a = dm.run_dm(init, T, cfg_a, 100, lambda s: dm.checked_diagnostics(s, cfg_a))
    final_b = dm.run_dm(init, T, cfg_b, 200, lambda s: dm.checked_diagnostics(s, cfg_b))
    self_err = fc.sobolev_norm(lat, final_a.psi - final_b.psi, 1.0)
    pic_err = fc.sobolev_norm(lat, res.psis[-1] - final_a.psi, 1.0)
    match_ok = pic_err < 5.0 * self_err
    report(
        "12 Picard cross-validation",
        cauchy_ok and match_ok,
        f"tail ratios max {max(tail_ratios):.3f}, picard-vs-splitting {pic_err:.2e} "
        f"<= 5 x self-error {self_err:.2e}: {match_ok}",
    )


def _hash_outputs(out_dir):
    digests = {}
    for p in sorted(Path(out_dir).iterdir()):
        if p.suffix not in (".csv", ".json"):
            continue
        data = p.read_bytes()
        if p.name == "manifest.json":
            m = json.loads(data)
            m.pop("wall_clock")
            data = json.dumps(m, sort_keys=True).encode()
        digests[p.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_criterion_13_determinism(tmp_path):
    pairs = {}
    for name, args in {
        "stationary": ["run-dm", "--config", "preset:stationary"],
        "dyadic-iii": ["probe-dyadic", "--config", "preset:dyadic-iii"],
    }.items():
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        pairs[name] = _hash_outputs(a) == _hash_outputs(b)
    ok = all(pairs.values())
    report("13 determinism", ok, ", ".join(f"{k}: {'identical' if v else 'DIFFERS'}" for k, v in pairs.items()))
