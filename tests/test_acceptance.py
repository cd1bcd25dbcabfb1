"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The heavy rate studies (criteria 7, 8, 9, 10) run
the shipped n = 24 presets and take a few minutes together; everything is
deterministic (fixed seeds, no wall-clock dependence in any asserted value).
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
from diracmaxwell import spinors as sp
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


def test_criterion_01_algebra_suite():
    t0 = time.time()
    lat = fc.make_lattice(16, TWO_PI)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((4, 16, 16, 16)) + 1j * rng.standard_normal((4, 16, 16, 16))
    worst = 0.0
    for j in range(3):
        for k in range(3):
            anti = sp.ALPHA[j] @ sp.ALPHA[k] + sp.ALPHA[k] @ sp.ALPHA[j] - 2.0 * (j == k) * np.eye(4)
            prod = sp.ALPHA[j] @ sp.ALPHA[k] - (
                (j == k) * np.eye(4) + 1j * sum(sp.LEVI_CIVITA[j, k, l] * sp.SPIN[l] for l in range(3))
            )
            worst = max(worst, float(np.abs(anti).max()), float(np.abs(prod).max()))
    for eps in (1.0, 0.5, 0.25):
        pp = sp.pi_eps(lat, psi, eps, +1)
        pm = sp.pi_eps(lat, psi, eps, -1)
        worst = max(worst, float(np.abs(pp + pm - psi).max()))
        worst = max(worst, float(np.abs(sp.pi_eps(lat, pp, eps, +1) - pp).max()))
        worst = max(worst, float(np.abs(sp.pi_eps(lat, pm, eps, +1)).max()))
        q = sp.free_dirac_apply(lat, psi, eps)
        rebuilt = fc.lambda_eps(lat, pp, eps, 1) - fc.lambda_eps(lat, pm, eps, 1)
        worst = max(worst, float(np.abs(q - rebuilt).max()))
    wall = time.time() - t0
    report("01 algebra", worst < 1e-12 and wall < 5.0, f"max residual {worst:.2e}, {wall:.1f}s")


def test_criterion_02_symbol_suite():
    t0 = time.time()
    lat = fc.make_lattice(16, TWO_PI)
    violations = 0
    for eps in (0.125, 0.25, 0.5, 1.0):
        sym = 1.0 - 1.0 / np.sqrt(1.0 + eps**2 * lat.k_sq)
        upper = np.minimum(1.0, np.minimum(eps * lat.k_abs, eps**2 * lat.k_sq))
        violations += int(np.sum(sym < -1e-15)) + int(np.sum(sym - upper > 1e-15))
        nz = ~lat.zero_modes
        gap = lat.k_abs[nz] / eps - fc.h_eps_symbol(lat, eps)[nz]
        violations += int(np.sum(gap < -1e-15)) + int(np.sum(gap > 1.0 / eps**2 + 1e-15))
    wall = time.time() - t0
    report("02 symbols", violations == 0 and wall < 5.0, f"{violations} violations, {wall:.1f}s")


def test_criterion_03_null_identity_one():
    t0 = time.time()
    lat = fc.make_lattice(24, TWO_PI)
    rng = np.random.default_rng(1)
    worst = 0.0
    for eps in (0.5, 0.25):  # identity is eps-free; swept per the criterion
        for _ in range(10):
            A = fc.leray_project(lat, fc.dealias(lat, rng.standard_normal((3, 24, 24, 24))))
            A -= A.mean(axis=(1, 2, 3), keepdims=True)
            psi = fc.dealias(
                lat, rng.standard_normal((4, 24, 24, 24)) + 1j * rng.standard_normal((4, 24, 24, 24))
            )
            worst = max(worst, hn.null_identity_one_residual(lat, A, psi))
    wall = time.time() - t0
    report("03 null identity (i)", worst < 1e-10 and wall < 30.0, f"max rel residual {worst:.2e}, {wall:.1f}s")


def test_criterion_04_null_identity_two():
    t0 = time.time()
    lat = fc.make_lattice(16, TWO_PI)
    eps, T = 0.5, 0.25
    psi0 = sp.pi_eps(lat, sp.embed_upper(df.v_plus_profile(lat, 0.5)), eps, +1) + sp.pi_eps(
        lat, sp.embed_lower(df.v_minus_profile(lat, 0.3)), eps, -1
    )
    Aprof = df.gauge_profile(lat, 0.2)
    om = 1.3
    A_t = np.cos(om * T) * Aprof
    W_t = -eps * om * np.sin(om * T) * Aprof
    residuals = {}
    for dt in (2e-3, 1e-3):
        psi, U, dtU = dm.free_dirac_U(lat, psi0, T, dt, eps)
        _, r2 = hn.null_identity_check(lat, A_t, W_t, psi, U, dtU, eps)
        residuals[dt] = r2
    ratio = residuals[2e-3] / residuals[1e-3]
    wall = time.time() - t0
    ok = residuals[1e-3] < 1e-5 and 2.5 < ratio < 6.0 and wall < 120.0
    report(
        "04 null identity (ii)",
        ok,
        f"residual(dt=1e-3) {residuals[1e-3]:.2e}, halving ratio {ratio:.2f}, {wall:.1f}s",
    )


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
