import json
from types import SimpleNamespace

import numpy as np
import pytest

from diracmaxwell import cli
from diracmaxwell import fourier as fc
from diracmaxwell import studies as st
from diracmaxwell.evolve_dm import n_steps_for

TWO_PI = 2 * np.pi


def small_cfg(**kw):
    base = dict(
        n=8,
        period=TWO_PI,
        eps_list=[0.4, 0.2, 0.1],
        T=0.1,
        dt_ref=2e-3,
        eps_ref=0.4,
        dt_schedule="eps_linear",
        family="upper_projected",
        params={"amplitude": 0.5},
        gauge="zero",
        sample_every=25,
    )
    base.update(kw)
    return st.ExperimentConfig(**base)


class TestConfig:
    def test_eps_list_must_decrease(self):
        with pytest.raises(ValueError):
            small_cfg(eps_list=[0.1, 0.2, 0.4])

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(dt_schedule="cubic")

    def test_default_schedule_matches_cli(self, tmp_path):
        # cli.KEYS is the one default table: eps_ref defaults to eps_list[0],
        # and the dataclass takes no default of its own
        class Seen(Exception):
            pass

        def study(cfg):
            raise Seen(cfg)

        values = cli.read_config("converge", {"grid": {"n": 8, "period": TWO_PI}, "eps_list": [0.2, 0.1, 0.05],
                                              "T": 0.1, "dt_ref": 2e-3, "data": {"family": "upper_projected"}})
        with pytest.raises(Seen) as seen:
            cli.cmd_converge(values, tmp_path / "o", study)
        cfg = seen.value.args[0]
        assert (cfg.eps_ref, cfg.dt_schedule, cfg.sample_every) == (0.2, "eps_linear", 10)
        assert cfg.dt_for(0.2) == pytest.approx(2e-3, rel=1e-15)
        with pytest.raises(TypeError, match="eps_ref"):
            st.ExperimentConfig(n=8, period=TWO_PI, eps_list=[0.4, 0.2, 0.1], T=0.1, dt_ref=2e-3)

    def test_misaligned_sample_grid_rejected_before_stepping(self, monkeypatch):
        # eps = 0.3 takes 18 steps of 1/180 and samples every 2nd: t = k/90,
        # which misses the study grid of multiples of dt_ref = 0.01
        def no_stepping(*args, **kwargs):
            raise AssertionError("stepped before the grid check")

        monkeypatch.setattr(st, "run_sp", no_stepping)
        cfg = small_cfg(dt_schedule="eps_squared", eps_list=[0.4, 0.3, 0.2], dt_ref=0.01, T=0.1, sample_every=1)
        with pytest.raises(ValueError, match="eps = 0.3"):
            st.nonrel_convergence_study(cfg)

    def test_run_shorter_than_half_a_step_rejected(self):
        cfg = small_cfg(T=0.001, dt_ref=0.004, gauge="bandlimited_divfree",
                        params={"amplitude": 0.5, "gauge_amplitude": 0.3})
        with pytest.raises(ValueError, match="T = 0.001"):
            st.seminonrel_study(cfg)

    def test_dt_for_schedules(self):
        cfg = small_cfg(dt_schedule="eps_squared")
        assert cfg.dt_for(0.4) == pytest.approx(2e-3)
        assert cfg.dt_for(0.2) == pytest.approx(5e-4)
        cfg2 = small_cfg(dt_schedule="fixed")
        assert cfg2.dt_for(0.1) == 2e-3


class TestRateFit:
    def test_exact_power_law(self):
        eps = [0.4, 0.2, 0.1]
        errors = [0.7 * e**1.5 for e in eps]
        rate, resid = st.fit_rate(eps, errors)
        assert rate == pytest.approx(1.5, abs=1e-12)
        assert resid < 1e-12

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            st.fit_rate([0.4, 0.2], [1.0, 0.5])

    def test_zero_errors_undefined(self):
        rate, _ = st.fit_rate([0.4, 0.2, 0.1], [0.0, 0.0, 0.0])
        assert np.isnan(rate)


class TestRateReportSerialization:
    def test_json_round_trip_and_undefined(self):
        rep = st.RateReport(
            [0.4, 0.2, 0.1],
            {"h1": [1.0, 0.5, 0.25]},
            {"h1": 1.0, "other": float("nan")},
            {"h1": 0.0, "other": float("nan")},
        )
        payload = json.loads(rep.to_json())
        assert payload["rates"]["other"] == "undefined"
        assert payload["errors"]["h1"] == [1.0, 0.5, 0.25]

    def test_csv_rows(self):
        rep = st.RateReport([0.4, 0.2, 0.1], {"h1": [1.0, 0.5, 0.25]}, {"h1": 1.0}, {"h1": 0.0})
        rows = rep.to_csv_rows()
        assert rows[0] == ("norm", "eps", "error")
        assert len(rows) == 4


class TestZeroDataStudies:
    def test_all_errors_zero_rate_undefined(self):
        cfg = small_cfg(family="zero", params={}, T=0.05, sample_every=5)
        rep = st.nonrel_convergence_study(cfg)
        assert all(max(v) == 0.0 for v in rep.errors.values())
        assert np.isnan(rep.rates["h1_spinor"])

    def test_stationary_family_spinor_error_negligible(self):
        cfg = small_cfg(family="stationary", params={"amplitude": 1.0}, T=0.05, sample_every=5)
        rep = st.nonrel_convergence_study(cfg)
        assert max(rep.errors["h1_spinor"]) < 1e-9


def pair_samples(lat, times, currents, g, b):
    """studies._run_pairing over a run that replays the samples (t, J)."""
    samples = [SimpleNamespace(t=t, J=J) for t, J in zip(times, currents)]
    return st._run_pairing(lat, lambda observe: [observe(s) for s in samples], lambda s: s.J, g, b)


class TestWeakPairing:
    def test_zero_test_function(self):
        lat = fc.make_lattice(8, TWO_PI)
        times = np.linspace(0, 1, 5)
        currents = [np.ones((3, 8, 8, 8)) for _ in times]
        out = pair_samples(lat, times, currents, lambda t: np.zeros_like(np.asarray(t)), np.ones((8, 8, 8)))
        assert np.allclose(out, 0.0)

    def test_constant_current_factorizes(self):
        lat = fc.make_lattice(8, TWO_PI)
        times = np.linspace(0, 1, 201)
        J = np.zeros((3, 8, 8, 8))
        J[0] = 2.0
        currents = [J for _ in times]
        g, b = st.test_bump(lat, 1.0)
        out = pair_samples(lat, times, currents, g, b)
        g_int = np.trapezoid(g(times), times)
        b_int = float(np.sum(b) * lat.cell_volume)
        assert out[0] == pytest.approx(2.0 * g_int * b_int, rel=1e-6)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_mode_family_pairings_vanish(self):
        cfg = small_cfg(family="stationary", params={"amplitude": 1.0}, T=0.1, sample_every=5)
        out = st.weak_pairing_study(cfg)
        assert np.allclose(out["defects"], 0.0, atol=1e-12)
        assert np.allclose(out["pairing_limit"], 0.0, atol=1e-12)


def reference_probe(lat, mu, lam, eps, trials, case, T, dt, seed):
    """Per-cell reference for dyadic_sweep: evolves u and v again for every (mu, lambda) cell."""
    if case not in ("i", "ii", "iii"):
        raise ValueError(f"case must be 'i', 'ii' or 'iii', got {case}")
    if max(mu, lam) > float(np.max(lat.k_abs)) / 2.0:
        raise ValueError("dyadic scale beyond lattice resolution")
    steps = n_steps_for(T, dt)
    times = np.arange(steps + 1) * dt
    omega = lat.k_abs / eps
    h_sym = fc.h_eps_symbol(lat, eps)
    beta_mu, _ = fc.lp_window(lat, mu, "mu"), fc.lp_window(lat, lam, "lam")
    ratios = []
    for trial in range(trials):
        f_scale = mu if case == "iii" else lam
        fhat = lat.fft(st.lp_localized_data(lat, f_scale, (seed, 11, trial)))
        ghat = lat.fft(st.lp_localized_data(lat, lam, (seed, 23, trial)))
        norm_f = np.sqrt(np.sum(np.abs(fhat) ** 2)) * np.sqrt(lat.volume) / lat.n**3
        norm_g = np.sqrt(np.sum(np.abs(ghat) ** 2)) * np.sqrt(lat.volume) / lat.n**3
        if norm_f == 0.0 or norm_g == 0.0:
            ratios.append(0.0)
            continue
        sq_accum = np.zeros(steps + 1)
        for it, t in enumerate(times):
            u = lat.ifft(np.cos(omega * t) * fhat)
            v = lat.ifft(np.exp(-1j * h_sym * t) * ghat)
            prod_hat = lat.fft(u * v)
            if case in ("i", "ii"):
                prod_hat = beta_mu * prod_hat
            sq_accum[it] = np.sum(np.abs(prod_hat) ** 2) * lat.volume / lat.n**6
        sq_spacetime = float(np.trapezoid(sq_accum, times))
        numerator = np.sqrt(sq_spacetime)
        if case == "i":
            denom = np.sqrt(eps) * mu * norm_f * norm_g
        elif case == "ii":
            denom = np.sqrt(eps) * np.sqrt(mu) * np.sqrt(lam) * norm_f * norm_g
        else:
            denom = np.sqrt(eps) * min(mu, lam) * norm_f * norm_g
        ratios.append(numerator / denom if denom > 0 else 0.0)
    return ratios


class TestDyadicProbe:
    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_sweep_matches_the_per_cell_reference(self, case):
        # lambda = 2 skips mu = 4 in cases i and ii; the rows stay mu-major, trials inner
        mu_list, lam_list, eps, T, dt = [1.0, 2.0, 4.0], [4.0, 2.0], 0.5, 0.2, 0.05
        rows = st.dyadic_sweep(case, 16, TWO_PI, eps, mu_list, lam_list, trials=2, seed=3, T=T, dt=dt)
        lat = fc.make_lattice(16, TWO_PI)
        cells = [(mu, lam) for mu in mu_list for lam in lam_list if case == "iii" or mu <= lam]
        expected = [(mu, lam, eps, trial, r) for mu, lam in cells
                    for trial, r in enumerate(reference_probe(lat, mu, lam, eps, 2, case, T, dt, 3))]
        assert [row[:4] for row in rows] == [row[:4] for row in expected]
        assert all(r > 0 for *_, r in expected)
        np.testing.assert_allclose([row[4] for row in rows], [row[4] for row in expected], rtol=1e-13, atol=0)

    def test_zero_data_ratio_zero(self):
        # a dyadic annulus that misses every lattice frequency produces zero
        # localized data, handled as ratio 0 rather than 0/0
        rows = st.dyadic_sweep("iii", 4, TWO_PI, 0.5, [0.25], [0.25], trials=2, seed=0, T=0.1, dt=0.05)
        assert [r[-1] for r in rows] == [0.0, 0.0]

    def test_nonzero_data_ratio_positive(self):
        rows = st.dyadic_sweep("iii", 16, TWO_PI, 0.5, [1.0], [2.0], trials=1, seed=0, T=0.1, dt=0.05)
        assert len(rows) == 1 and rows[0][-1] > 0

    def test_scale_beyond_lattice_rejected(self):
        with pytest.raises(ValueError, match="beyond lattice resolution"):
            st.dyadic_sweep("i", 8, TWO_PI, 0.5, [1.0], [64.0], 1, 0, 0.1, 0.05)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="case must be"):
            st.dyadic_sweep("iv", 8, TWO_PI, 0.5, [1.0], [2.0], 1, 0, 0.1, 0.05)

    def test_deterministic_given_seed(self):
        a = st.dyadic_sweep("i", 16, TWO_PI, 0.25, [1.0], [2.0], trials=3, seed=7, T=0.2, dt=0.05)
        b = st.dyadic_sweep("i", 16, TWO_PI, 0.25, [1.0], [2.0], trials=3, seed=7, T=0.2, dt=0.05)
        assert a == b
        c = st.dyadic_sweep("i", 16, TWO_PI, 0.25, [1.0], [2.0], trials=3, seed=8, T=0.2, dt=0.05)
        assert a != c

    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_sweep_rejects_a_later_cell_beyond_resolution_before_running(self, case, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("a cell ran before every scale was checked")

        monkeypatch.setattr(st, "lp_localized_data", no_data)
        # n = 8 (Nyquist zeroed) resolves scales up to sqrt(3) * 3 / 2; the cell (1, 8) comes after (1, 1)
        with pytest.raises(ValueError, match=r"^dyadic scale 8.0 beyond lattice resolution: at most 2.598"):
            st.dyadic_sweep(case, 8, TWO_PI, 0.5, [1.0], [1.0, 8.0], 1, 0, 0.04, 0.02)

    def test_ratio_invariant_under_data_rescaling(self):
        # the claim is bilinear: scaling f -> c f scales both sides alike
        lat = fc.make_lattice(16, TWO_PI)
        from diracmaxwell.fourier import h_eps_symbol
        from diracmaxwell.studies import lp_localized_data

        mu = lam = 2.0
        eps = 0.5
        f = lp_localized_data(lat, lam, (0, 11, 0))
        g = lp_localized_data(lat, lam, (0, 23, 0))

        def ratio(scale):
            fhat = lat.fft(scale * f)
            ghat = lat.fft(g)
            omega = lat.k_abs / eps
            h = h_eps_symbol(lat, eps)
            times = np.arange(0, 0.2 + 1e-12, 0.05)
            r_mu = lat.k_abs / mu
            beta = fc.bump_profile(r_mu) - fc.bump_profile(2 * r_mu)
            acc = []
            for t in times:
                u = lat.ifft(np.cos(omega * t) * fhat)
                v = lat.ifft(np.exp(-1j * h * t) * ghat)
                acc.append(np.sum(np.abs(beta * lat.fft(u * v)) ** 2) * lat.volume / lat.n**6)
            num = np.sqrt(np.trapezoid(acc, times))
            nf = np.sqrt(np.sum(np.abs(fhat) ** 2)) * np.sqrt(lat.volume) / lat.n**3
            ng = np.sqrt(np.sum(np.abs(ghat) ** 2)) * np.sqrt(lat.volume) / lat.n**3
            return num / (np.sqrt(eps) * mu * nf * ng)

        assert ratio(1.0) == pytest.approx(ratio(5.0), rel=1e-12)

    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    @pytest.mark.parametrize("mu_list, lam_list, key, bad", [([3.0], [4.0], "mu_list", 3.0),
                                                              ([1.0], [1.0, 3.0], "lam_list", 3.0),
                                                              ([0.0], [4.0], "mu_list", 0.0),
                                                              ([1.0], [-2.0, 4.0], "lam_list", -2.0)])
    def test_sweep_rejects_a_non_dyadic_scale_before_running(self, case, mu_list, lam_list, key, bad, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("a cell ran before the scales were checked")

        monkeypatch.setattr(st, "lp_localized_data", no_data)
        with pytest.raises(ValueError, match=f"^{key}: {bad} is not a dyadic number"):
            st.dyadic_sweep(case, 16, TWO_PI, 0.5, mu_list, lam_list, 1, 0, 0.04, 0.02)

    def test_probe_window_is_the_littlewood_paley_window(self):
        lat = fc.make_lattice(16, TWO_PI)
        for mu in (0.5, 1.0, 2.0, 4.0):
            r = lat.k_abs / mu
            assert np.array_equal(fc.lp_window(lat, mu, "mu"), fc.bump_profile(r) - fc.bump_profile(2.0 * r))

    def test_sweep_rows_format(self):
        rows = st.dyadic_sweep("iii", 16, TWO_PI, 0.5, [1.0, 2.0], [1.0], trials=2, seed=0, T=0.1, dt=0.05)
        assert all(len(r) == 5 for r in rows)
        assert {r[0] for r in rows} == {1.0, 2.0}
        # case i/ii skip mu > lam cells; case iii keeps them
        rows_i = st.dyadic_sweep("i", 16, TWO_PI, 0.5, [1.0, 2.0], [1.0], trials=1, seed=0, T=0.1, dt=0.05)
        assert {r[0] for r in rows_i} == {1.0}
