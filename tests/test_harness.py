import collections
import inspect
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diracmaxwell import evolve_dm as dm
from diracmaxwell import fourier as fc
from diracmaxwell import harness as hn
from diracmaxwell import spinors as sp
from diracmaxwell.data_families import (
    gauge_data,
    gauge_profile,
    sigma_grad,
    spinor_data,
    v_minus_profile,
    v_plus_profile,
)

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def lat():
    return fc.make_lattice(12, TWO_PI)


def random_divfree_meanfree(lat, seed, amp=1.0):
    rng = np.random.default_rng(seed)
    A = fc.leray_project(lat, fc.dealias(lat, rng.standard_normal((3, lat.n, lat.n, lat.n))))
    A -= A.mean(axis=(1, 2, 3), keepdims=True)
    return amp * A


def random_spinor(lat, seed):
    rng = np.random.default_rng(seed)
    shape = (4, lat.n, lat.n, lat.n)
    return fc.dealias(lat, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestNullForms:
    def test_constants_vanish(self, lat):
        u = np.full((lat.n,) * 3, 1.3 + 0j)
        v = np.full((lat.n,) * 3, -0.4 + 0j)
        for a in range(1, 4):
            for b in range(a + 1, 4):
                assert np.abs(hn.qab(lat, a, b, u, v)).max() < 1e-14

    def test_q12_product_rule(self, lat):
        X1, X2, _ = lat.grid()
        u = np.sin(X1) + np.zeros((lat.n,) * 3)
        v = np.sin(X2) + np.zeros((lat.n,) * 3)
        expected = np.cos(X1) * np.cos(X2) + np.zeros((lat.n,) * 3)
        assert np.abs(hn.qab(lat, 1, 2, u, v) - expected).max() < 1e-12

    def test_diagonal_vanishes(self, lat):
        f = random_spinor(lat, 0)[0]
        assert np.abs(hn.qab(lat, 1, 2, f, f)).max() < 1e-14 * max(1.0, np.abs(f).max() ** 2) or np.abs(hn.qab(lat, 1, 2, f, f)).max() == 0.0

    def test_antisymmetry(self, lat):
        u = random_spinor(lat, 1)[0]
        v = random_spinor(lat, 2)[0]
        for (a, b) in ((1, 2), (1, 3), (2, 3)):
            assert np.abs(hn.qab(lat, a, b, u, v) + hn.qab(lat, b, a, u, v)).max() < 1e-12

    def test_bilinearity(self, lat):
        u = random_spinor(lat, 5)[0]
        v = random_spinor(lat, 6)[0]
        w = random_spinor(lat, 7)[0]
        lhs = hn.qab(lat, 1, 3, u, 2.0 * v + 3.0 * w)
        rhs = 2.0 * hn.qab(lat, 1, 3, u, v) + 3.0 * hn.qab(lat, 1, 3, u, w)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestNullIdentityOne:
    def test_zero_potential_exact(self, lat):
        psi = random_spinor(lat, 9)
        A = np.zeros((3, lat.n, lat.n, lat.n))
        r = hn.null_identity_one_residual(lat, A, psi)
        assert r == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_inputs_exact(self, lat, seed):
        A = random_divfree_meanfree(lat, 100 + seed)
        psi = random_spinor(lat, 200 + seed)
        assert hn.null_identity_one_residual(lat, A, psi) < 1e-10

    def test_rejects_divergent_A(self, lat):
        X1, _, _ = lat.grid()
        A = np.zeros((3, lat.n, lat.n, lat.n))
        A[0] = np.sin(X1) + np.zeros((lat.n,) * 3)
        psi = random_spinor(lat, 10)
        U = np.zeros_like(psi)
        with pytest.raises(ValueError):
            hn.null_identity_check(lat, A, np.zeros_like(A), psi, U, U, 0.5)


class TestNullIdentityTwo:
    def test_residual_shrinks_with_solver_dt(self):
        lat = fc.make_lattice(8, TWO_PI)
        eps, T = 0.5, 0.2
        psi0 = sp.pi_eps(lat, sp.embed_upper(v_plus_profile(lat, 0.5)), eps, +1) + sp.pi_eps(
            lat, sp.embed_lower(v_minus_profile(lat, 0.3)), eps, -1
        )
        Aprof = gauge_profile(lat, 0.2)
        om = 1.3
        residuals = []
        A_t = np.cos(om * T) * Aprof
        W_t = -eps * om * np.sin(om * T) * Aprof
        for dt in (2e-3, 1e-3):
            psi, U, dtU = dm.free_dirac_U(lat, psi0, T, dt, eps)
            r1, r2 = hn.null_identity_check(lat, A_t, W_t, psi, U, dtU, eps)
            assert r1 < 1e-10
            residuals.append(r2)
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.5)

    def test_zero_gauge_gives_zero_both_sides(self, lat):
        psi = random_spinor(lat, 11)
        U = random_spinor(lat, 12)
        A = np.zeros((3, lat.n, lat.n, lat.n))
        r1, r2 = hn.null_identity_check(lat, A, A.copy(), psi, U, U.copy(), 0.5)
        assert r1 == 0.0 and r2 == 0.0


def checked_run(init, T, dt, every, *checks):
    """run_dm with every check observing each sample; returns their results."""
    dm.run_dm(init, T, dm.StepConfig(dt=dt), every, lambda s: [check(s) for check in checks])
    return [check.result() for check in checks]


class TestSquaredDirac:
    def _smooth_residuals(self, lat, eps, dt, T=0.1, gauge_amp=0.2):
        psi0 = spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5})
        a0 = gauge_profile(lat, gauge_amp)
        init = dm.DMState(lat, 0.0, psi0, a0, np.zeros((3, lat.n, lat.n, lat.n)), eps)
        return checked_run(init, T, dt, 1, hn.SquaredDiracResiduals())[0]

    def test_zero_fields_zero_residual(self, lat):
        n = lat.n
        init = dm.DMState(
            lat, 0.0, np.zeros((4, n, n, n), dtype=complex), np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), 0.5
        )
        (res,) = checked_run(init, 0.05, 0.01, 1, hn.SquaredDiracResiduals())
        assert np.max(res) == 0.0

    def test_stationary_solution_small_residual(self, lat):
        n = lat.n
        psi0 = np.zeros((4, n, n, n), dtype=complex)
        psi0[0] = 1.0
        init = dm.DMState(lat, 0.0, psi0, np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), 0.5)
        (res,) = checked_run(init, 0.05, 1e-3, 1, hn.SquaredDiracResiduals())
        # pure phase: centered differences of exp(-it/eps^2) are second order
        assert np.max(res) < 1e-1
        (res2,) = checked_run(init, 0.05, 5e-4, 1, hn.SquaredDiracResiduals())
        ratio = np.max(res) / np.max(res2)
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_dt_halving_ratio_in_window(self, lat):
        eps = 0.25
        r1 = np.max(self._smooth_residuals(lat, eps, 2e-3))
        r2 = np.max(self._smooth_residuals(lat, eps, 1e-3))
        assert 3.0 <= r1 / r2 <= 5.0

    def test_too_few_samples_rejected(self, lat):
        n = lat.n
        init = dm.DMState(
            lat, 0.0, np.zeros((4, n, n, n), dtype=complex), np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), 0.5
        )
        with pytest.raises(ValueError):
            checked_run(init, 0.02, 0.01, 2, hn.SquaredDiracResiduals())


class TestSmallComponent:
    def test_free_flow_preserves_zero_positron_part(self, lat):
        eps = 0.25
        psi0 = spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5})
        track = hn.SmallComponentTrack(order=1)
        zero = np.zeros((3, lat.n, lat.n, lat.n))
        for t in np.arange(0, 0.1, 0.01):
            track(dm.DMState(lat, t, lat.ifft(dm.free_flow_hat(lat, lat.fft(psi0), float(t), eps)), zero, zero, eps))
        out = track.result()
        assert out["pi_minus"].max() < 1e-12

    def test_coupled_run_order_one_scaling(self, lat):
        sups = {}
        for eps in (0.4, 0.2):
            psi0 = spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5})
            init = dm.DMState(lat, 0.0, psi0, gauge_profile(lat, 0.2), np.zeros((3, lat.n, lat.n, lat.n)), eps)
            (out,) = checked_run(init, 0.1, 1e-3 * eps / 0.4, 25, hn.SmallComponentTrack(order=1))
            sups[eps] = out["pi_minus"].max()
        # sup ||Pi_- psi|| scales like eps: halving eps halves the sup (30%)
        assert sups[0.4] / sups[0.2] == pytest.approx(2.0, rel=0.3)

    def test_eta_norm_is_that_of_the_demodulated_lower_components(self, lat):
        # the track drops the unit-modulus factor exp(i t/eps^2) of eta
        eps = 0.2
        psi0 = spinor_data(lat, "counterexample", eps, {"amplitude": 0.5})
        init = dm.DMState(lat, 0.0, psi0, gauge_profile(lat, 0.2), np.zeros((3, lat.n, lat.n, lat.n)), eps)
        track, want = hn.SmallComponentTrack(order=1), []

        def observe(s):
            track(s)
            want.append(fc.sobolev_norm(lat, sp.lower(np.exp(1j * s.t / eps**2) * s.psi), 1.0))

        dm.run_dm(init, 0.02, dm.StepConfig(dt=1e-3), 2, observe)
        assert len(want) == 11 and min(want) > 0.1
        np.testing.assert_allclose(track.result()["eta"], want, rtol=1e-13, atol=0)

    def test_counterexample_fails_order_two(self, lat):
        eps = 0.2
        psi0 = spinor_data(lat, "counterexample", eps, {"amplitude": 0.5})
        init = dm.DMState(lat, 0.0, psi0, np.zeros((3, lat.n, lat.n, lat.n)), np.zeros((3, lat.n, lat.n, lat.n)), eps)
        out1, out2 = checked_run(init, 0.02, 1e-3, 10, hn.SmallComponentTrack(order=1), hn.SmallComponentTrack(order=2))
        c1, c2 = out1["constant"], out2["constant"]
        # order-1 constant modest, order-2 constant blows past it by ~1/eps
        assert c2 > 3.0 * c1


class TestNaiveExpansion:
    def _residuals(self, lat, family, eps, T=0.2, dt=1e-3):
        # fine solver step, coarse O(1) sampling for the naive dt(eta)
        psi0 = spinor_data(lat, family, eps, {"amplitude": 0.5})
        init = dm.DMState(lat, 0.0, psi0, np.zeros((3, lat.n, lat.n, lat.n)), np.zeros((3, lat.n, lat.n, lat.n)), eps)
        return checked_run(init, T, dt, 50, hn.NaiveExpansionResiduals())[0]

    def test_zero_data(self, lat):
        n = lat.n
        init = dm.DMState(
            lat, 0.0, np.zeros((4, n, n, n), dtype=complex), np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), 0.25
        )
        (res,) = checked_run(init, 0.02, 1e-3, 1, hn.NaiveExpansionResiduals())
        assert np.max(res) == 0.0

    def test_constrained_data_small_residual(self, lat):
        res = {}
        for eps in (0.2, 0.1):
            res[eps] = np.max(self._residuals(lat, "constrained", eps))
        # O(eps^2): halving eps shrinks the residual ~4x
        assert res[0.2] / res[0.1] > 2.5
        assert res[0.2] < 0.1

    def test_counterexample_theta_eps(self, lat):
        res = {}
        for eps in (0.2, 0.1):
            res[eps] = self._residuals(lat, "counterexample", eps)[0]
        # Theta(eps): stays bounded below by a multiple of eps, and far above
        # the constrained family's O(eps^2) level
        for eps in (0.2, 0.1):
            assert res[eps] > 5.0 * eps
        assert res[0.2] / res[0.1] < 3.0  # not shrinking like eps^2


def uniform_dt(times):
    """The spacing of sample times that must be uniform: a check that takes
    centered differences over one spacing needs every spacing to match it."""
    dts = np.diff(np.asarray(times))
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValueError("samples must be uniformly spaced")
    return float(dts[0])


def squared_dirac_reference(lat, eps, times, psis, As, Ws):
    """The list-based squared-Dirac check that the window observer replaced."""
    if len(times) < 3:
        raise ValueError("need at least three samples")
    dt = uniform_dt(times)
    A0_series = [dm.derived_A0(lat, p) for p in psis]
    out = []
    for i in range(1, len(times) - 1):
        psi_m, psi, psi_p = psis[i - 1], psis[i], psis[i + 1]
        A0_m, A0, A0_p = A0_series[i - 1], A0_series[i], A0_series[i + 1]
        A, W = As[i], Ws[i]
        dt_psi = (psi_p - psi_m) / (2.0 * dt)
        dtt_psi = (psi_p - 2.0 * psi + psi_m) / dt**2
        dt_A0 = (A0_p - A0_m) / (2.0 * dt)
        res = eps**2 * (
            -dtt_psi + 1j * dt_A0 * psi + 2j * A0 * dt_psi + A0**2 * psi
        )
        res += fc.laplacian(lat, psi)
        res -= 2j * eps * np.sum(A * fc.gradient(lat, psi), axis=-4)
        res -= eps**2 * np.sum(A**2, axis=0) * psi
        res -= psi / eps**2
        E, B = dm.compute_EB(lat, A0, A, W)
        res -= 1j * eps * sp.alpha_dot(E, psi)
        res += eps * sp.spin_dot(B, psi)
        out.append(fc.l2_norm(lat, res))
    return np.array(out)


def small_component_reference(lat, eps, times, psis, order):
    """The list-based small-component track that the window observer replaced
    (order 2 requires uniform spacing); ||Pi_- psi||_H1 and ||eta||_H1 from
    one spectrum of psi, as the observer reads them."""
    series = np.array([fc.sobolev_norm_hat(lat, sp.pi_eps_hat(lat, lat.fft(p), eps, -1), 1.0) for p in psis])
    etas = [sp.lower(np.exp(1j * t / eps**2) * p) for t, p in zip(times, psis)]
    result = {
        "times": np.asarray(times),
        "pi_minus": series,
        "eta": np.array([fc.sobolev_norm_hat(lat, sp.lower(lat.fft(p)), 1.0) for p in psis]),
        "constant": float(series.max() / eps**order),
        "order": order,
    }
    if order == 2:
        dt = uniform_dt(times)
        result["dt_eta"] = np.array([
            fc.sobolev_norm(lat, (etas[i + 1] - etas[i - 1]) / (2.0 * dt), 0.0)
            for i in range(1, len(etas) - 1)
        ])
    return result


def naive_expansion_reference(lat, eps, times, psis, As):
    """The list-based naive-expansion check that the window observer replaced
    (it requires uniform spacing)."""
    dt = uniform_dt(times)
    phis = [np.exp(1j * t / eps**2) * p for t, p in zip(times, psis)]
    out = []
    for i in range(1, len(times) - 1):
        chi, eta = sp.upper(phis[i]), sp.lower(phis[i])
        dt_eta = (sp.lower(phis[i + 1]) - sp.lower(phis[i - 1])) / (2.0 * dt)
        A0 = dm.derived_A0(lat, psis[i])
        res = eta + 0.5j * eps * sigma_grad(lat, chi)
        res += 0.5 * eps**2 * (1j * dt_eta + A0 * eta + sp.sigma_dot(As[i], chi))
        out.append(fc.l2_norm(lat, res))
    return np.array(out)


class TestWindowChecks:
    """The window observers against the list-based checks they replaced."""

    def _gauged(self, lat, eps=0.25):
        psi0 = spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5})
        a0, a1 = gauge_data(lat, "bandlimited_divfree", {"gauge_amplitude": 0.2})
        return dm.DMState(lat, 0.0, psi0, a0, a1, eps)

    @pytest.mark.parametrize("every", [1, 3])  # 20 steps: at 3 the last sample falls off the stride
    def test_bit_identical_to_list_reference(self, lat, every):
        init, T, dt = self._gauged(lat), 0.04, 2e-3
        kept = collections.defaultdict(list)
        order_one = hn.SmallComponentTrack(order=1)

        def observe(s):
            for key, value in (("times", s.t), ("psis", s.psi.copy()), ("As", s.A.copy()), ("Ws", s.eps_dtA.copy())):
                kept[key].append(value)
            order_one(s)

        dm.run_dm(init, T, dm.StepConfig(dt=dt), every, observe)
        times, psis, As, Ws = kept["times"], kept["psis"], kept["As"], kept["Ws"]
        assert len(times) == (21 if every == 1 else 8)
        got, want = order_one.result(), small_component_reference(lat, init.eps, times, psis, 1)
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        real_space = [fc.sobolev_norm(lat, sp.pi_eps(lat, p, init.eps, -1), 1.0) for p in psis]
        np.testing.assert_allclose(got["pi_minus"], real_space, rtol=1e-12, atol=1e-14)

        # the checks that difference in time, with their list references
        differenced = (
            (hn.SmallComponentTrack(order=2), lambda: small_component_reference(lat, init.eps, times, psis, 2)),
            (hn.NaiveExpansionResiduals(), lambda: naive_expansion_reference(lat, init.eps, times, psis, As)),
            (hn.SquaredDiracResiduals(), lambda: squared_dirac_reference(lat, init.eps, times, psis, As, Ws)),
        )
        if every == 1:
            results = checked_run(init, T, dt, every, *(check for check, _ in differenced))
            for got, (_, reference) in zip(results, differenced):
                want = reference()
                if isinstance(want, dict):
                    assert got.keys() == want.keys()
                    assert all(np.array_equal(got[key], want[key]) for key in want)
                else:
                    assert len(got) == 19 and np.array_equal(got, want)
        else:
            for check, reference in differenced:
                for run in (lambda: checked_run(init, T, dt, every, check), reference):
                    with pytest.raises(ValueError, match="samples must be uniformly spaced"):
                        run()

    def test_window_memory_does_not_grow_with_samples(self):
        # a check that kept its run would add psi, A and eps dt A (7/4 of a
        # spinor) per sample: 42 spinors more for the 4x longer run.  The
        # schedule and the per-sample floats add about 8 kB (a quarter spinor).
        lat8 = fc.make_lattice(8, TWO_PI)
        init, dt = self._gauged(lat8), 1e-2

        def peak(steps):
            tracemalloc.start()
            try:
                checked_run(init, steps * dt, dt, 1, hn.SquaredDiracResiduals())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # warms the per-mode multiplier caches
        short, long = peak(8), peak(32)
        assert long <= short + init.psi.nbytes, f"peak {short} -> {long} bytes"


class TestNullTwoPath:
    def test_no_matrix_or_series_path(self):
        # U comes from the streaming free_dirac_U, spinor matrices act in block form
        retired = re.compile(r"einsum|free_dirac_trajectory|build_U|def mat\b")
        files = sorted(Path(hn.__file__).parent.rglob("*.py"))
        assert [p.name for p in files if retired.search(p.read_text())] == []

    def test_null_identity_check_takes_no_A0(self):
        assert "A0" not in inspect.signature(hn.null_identity_check).parameters


class TestCounterexampleGap:
    def test_gap_independent_of_eps(self, lat):
        v = v_plus_profile(lat, 0.5)
        gaps = [hn.counterexample_current_gap(lat, v, eps) for eps in (0.4, 0.2, 0.1)]
        assert all(g > 0.1 for g in gaps)
        assert max(gaps) - min(gaps) < 1e-10
