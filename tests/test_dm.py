import collections
import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diracmaxwell import evolve_dm as dm
from diracmaxwell import fourier as fc
from diracmaxwell import harness as hn
from diracmaxwell import spinors as sp
from diracmaxwell.data_families import gauge_profile, v_minus_profile, v_plus_profile
from test_spinors import per_mode, symbol_matrices

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def lat():
    return fc.make_lattice(8, TWO_PI)


@pytest.fixture(scope="module")
def lat12():
    return fc.make_lattice(12, TWO_PI)


def smooth_state(lat, eps, gauge_amp=0.0, seed=None):
    psi0 = sp.pi_eps(lat, sp.embed_upper(v_plus_profile(lat, 0.5)), eps, +1)
    n = lat.n
    if gauge_amp:
        a0 = gauge_profile(lat, gauge_amp)
    else:
        a0 = np.zeros((3, n, n, n))
    return dm.DMState(lat, 0.0, psi0, a0, np.zeros((3, n, n, n)), eps)


@pytest.fixture
def transform_counts(monkeypatch):
    """Components moved by each Lattice transform method from here on."""
    counts = collections.Counter()
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counting(self, f, _name=name, _transform=getattr(fc.Lattice, name)):
            counts[_name] += int(np.prod(np.shape(f)[:-3]))
            return _transform(self, f)
        monkeypatch.setattr(fc.Lattice, name, counting)
    return counts


def random_spinor(lat, seed):
    rng = np.random.default_rng(seed)
    shape = (4, lat.n, lat.n, lat.n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def free_step(lat, psi, dt, eps):
    """The exact free flow of a real-space spinor, through free_flow_hat."""
    return lat.ifft(dm.free_flow_hat(lat, lat.fft(psi), dt, eps))


def real_wave_step(lat, A, W, J, dt, eps):
    """wave_step on real fields: A and W = eps*dt(A) in and out in real space."""
    A_hat, W_hat = dm.wave_step(lat, lat.rfft(A), lat.rfft(W), J, dt, eps)
    return lat.irfft(A_hat), lat.irfft(W_hat)


class TestFreeDiracStep:
    def test_zero_mode_phases(self, lat):
        eps, dt = 0.5, 0.02
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[0] = 1.0
        out = free_step(lat, psi, dt, eps)
        assert np.abs(out[0] - np.exp(-1j * dt / eps**2)).max() < 1e-13
        psi2 = np.zeros_like(psi)
        psi2[2] = 1.0
        out2 = free_step(lat, psi2, dt, eps)
        assert np.abs(out2[2] - np.exp(1j * dt / eps**2)).max() < 1e-13

    def test_eigenwave_phase(self, lat):
        X1, _, _ = lat.grid()
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[0] = np.exp(1j * X1) + np.zeros((lat.n,) * 3)
        proj = sp.pi_eps(lat, psi, 1.0, +1)
        out = free_step(lat, proj, 0.1, 1.0)
        assert np.abs(out - np.exp(-1j * 0.1 * np.sqrt(2)) * proj).max() < 1e-13

    def test_unitary(self, lat):
        rng = np.random.default_rng(0)
        psi = rng.standard_normal((4, lat.n, lat.n, lat.n)) + 1j * rng.standard_normal(
            (4, lat.n, lat.n, lat.n)
        )
        q0 = sp.total_charge(lat, psi)
        out = free_step(lat, psi, 0.31, 0.5)
        assert sp.total_charge(lat, out) == pytest.approx(q0, rel=1e-12)

    def test_commutes_with_projections(self, lat):
        rng = np.random.default_rng(1)
        psi = rng.standard_normal((4, lat.n, lat.n, lat.n)) + 1j * rng.standard_normal(
            (4, lat.n, lat.n, lat.n)
        )
        a = sp.pi_eps(lat, free_step(lat, psi, 0.2, 0.5), 0.5, +1)
        b = free_step(lat, sp.pi_eps(lat, psi, 0.5, +1), 0.2, 0.5)
        assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("dt", [0.013, -0.013])
    def test_matches_cos_sin_formula(self, lat, dt):
        # cos(theta) psi - i sin(theta)/lam Q psi with Q as explicit matrices
        eps = 0.3
        psihat = np.fft.fftn(random_spinor(lat, 8), axes=(-3, -2, -1))  # Nyquist content on every axis
        q, lam = symbol_matrices(lat, eps)
        theta = dt * lam / eps**2
        want = np.cos(theta) * psihat - 1j * (np.sin(theta) / lam) * per_mode(q, psihat)
        got = dm.free_flow_hat(lat, psihat, dt, eps)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestPotentialKick:
    def test_identity_for_zero_potentials(self, lat):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal((4, lat.n, lat.n, lat.n)) + 0j
        zero3 = np.zeros((3, lat.n, lat.n, lat.n))
        out = dm.potential_kick(lat, psi, np.zeros((lat.n,) * 3), zero3, 0.1, 0.5)
        assert np.abs(out - psi).max() < 1e-14

    def test_constant_electric_phase(self, lat):
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((4, lat.n, lat.n, lat.n)) + 0j
        A0 = np.full((lat.n,) * 3, 0.9)
        out = dm.potential_kick(lat, psi, A0, np.zeros((3, lat.n, lat.n, lat.n)), 0.1, 0.5)
        assert np.abs(out - np.exp(1j * 0.9 * 0.1) * psi).max() < 1e-13

    def test_alpha3_eigenvector_phase(self, lat):
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[0] = psi[2] = 1 / np.sqrt(2)
        A = np.zeros((3, lat.n, lat.n, lat.n))
        A[2] = 0.8
        out = dm.potential_kick(lat, psi, np.zeros((lat.n,) * 3), A, 0.1, 0.5)
        assert np.abs(out - np.exp(1j * 0.8 * 0.1) * psi).max() < 1e-13

    def test_matches_unfused_formula(self, lat):
        # the kick before the phase and sin/|A| were folded into the sigma entries
        rng = np.random.default_rng(6)
        psi = rng.standard_normal((4, lat.n, lat.n, lat.n)) + 1j * rng.standard_normal((4, lat.n, lat.n, lat.n))
        A0 = rng.standard_normal((lat.n,) * 3)
        A = rng.standard_normal((3, lat.n, lat.n, lat.n))
        A[:, 0] = 0.0  # the |A| -> 0 limit of sin(dt |A|)/|A|
        dt = 0.2
        theta = dt * np.sqrt(np.sum(A**2, axis=0))
        phase = np.exp(1j * dt * A0)
        want = (phase * np.cos(theta)) * psi + (1j * dt * np.sinc(theta / np.pi) * phase) * sp.alpha_dot(A, psi)
        got = dm.potential_kick(lat, psi, A0, A, dt, 0.5)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_pointwise_unitary(self, lat):
        rng = np.random.default_rng(4)
        psi = rng.standard_normal((4, lat.n, lat.n, lat.n)) + 1j * rng.standard_normal(
            (4, lat.n, lat.n, lat.n)
        )
        X1, X2, _ = lat.grid()
        A0 = np.cos(X1) + np.zeros((lat.n,) * 3)
        A = gauge_profile(lat, 0.5)
        out = dm.potential_kick(lat, psi, A0, A, 0.2, 0.5)
        assert np.abs(sp.charge_density(out) - sp.charge_density(psi)).max() < 1e-12


class TestWaveStep:
    def test_cosine_oscillation(self, lat):
        eps, dt = 0.5, 0.3
        X1, _, _ = lat.grid()
        A = np.zeros((3, lat.n, lat.n, lat.n))
        A[0] = np.cos(X1) + np.zeros((lat.n,) * 3)
        out, _ = real_wave_step(lat, A, np.zeros_like(A), np.zeros_like(A), dt, eps)
        assert np.abs(out[0] - np.cos(dt / eps) * A[0]).max() < 1e-13

    def test_zero_mode_linear_drift(self, lat):
        eps, dt, v = 0.5, 0.3, 2.0
        W = np.zeros((3, lat.n, lat.n, lat.n))
        W[1] = eps * v  # stores eps * dt(A)
        out, w_out = real_wave_step(lat, np.zeros_like(W), W, np.zeros_like(W), dt, eps)
        assert np.abs(out[1] - v * dt).max() < 1e-13
        assert np.abs(w_out[1] - eps * v).max() < 1e-13

    def test_constant_source_particular_solution(self, lat):
        eps, dt = 0.5, 0.3
        X1, _, _ = lat.grid()
        J = np.zeros((3, lat.n, lat.n, lat.n))
        J[1] = np.cos(2 * X1) + np.zeros((lat.n,) * 3)
        out, _ = real_wave_step(lat, np.zeros_like(J), np.zeros_like(J), J, dt, eps)
        expected = (eps / 4.0) * (1 - np.cos(2 * dt / eps)) * J[1]
        assert np.abs(out[1] - expected).max() < 1e-14

    def test_homogeneous_energy_conserved(self, lat):
        eps = 0.4
        rng = np.random.default_rng(5)
        A = fc.leray_project(lat, rng.standard_normal((3, lat.n, lat.n, lat.n)))
        W = fc.leray_project(lat, rng.standard_normal((3, lat.n, lat.n, lat.n)))

        def energy(A, W):
            return fc.sobolev_norm(lat, A, 1.0, homogeneous=True) ** 2 + fc.l2_norm(lat, W) ** 2

        e0 = energy(A, W)
        for _ in range(5):
            A, W = real_wave_step(lat, A, W, np.zeros_like(A), 0.17, eps)
        assert energy(A, W) == pytest.approx(e0, rel=1e-12)


    def test_pure_gradient_current_is_projected_out(self, lat):
        # the wave equation is driven by P J, and P annihilates gradients
        X1, X2, X3 = lat.grid()
        J = fc.gradient(lat, np.sin(X1) * np.cos(X2) + np.cos(2 * X3) + np.zeros((lat.n,) * 3))
        A, W = real_wave_step(lat, np.zeros_like(J), np.zeros_like(J), J, 0.3, 0.5)
        assert np.abs(A).max() < 1e-14
        assert np.abs(W).max() < 1e-14


class TestStrangStep:
    def test_time_reversibility(self, lat12):
        eps = 0.25
        state = smooth_state(lat12, eps, gauge_amp=0.1)
        cfg = dm.StepConfig(dt=2e-3)
        fwd = dm.dm_strang_step(state, cfg)
        back = dm.dm_strang_step(fwd, dataclasses.replace(cfg, dt=-2e-3))
        assert np.abs(back.psi - state.psi).max() < 1e-10
        assert np.abs(back.A - state.A).max() < 1e-10
        assert np.abs(back.eps_dtA - state.eps_dtA).max() < 1e-10

    def test_zero_data_stays_zero(self, lat):
        n = lat.n
        state = dm.DMState(
            lat,
            0.0,
            np.zeros((4, n, n, n), dtype=complex),
            np.zeros((3, n, n, n)),
            np.zeros((3, n, n, n)),
            0.5,
        )
        out = dm.dm_strang_step(state, dm.StepConfig(dt=0.01))
        assert not out.psi.any() and not out.A.any()

    def test_charge_exactly_conserved(self, lat12):
        state = smooth_state(lat12, 0.25, gauge_amp=0.1)
        q0 = sp.total_charge(lat12, state.psi)
        out = dm.dm_strang_step(state, dm.StepConfig(dt=2e-3))
        assert sp.total_charge(lat12, out.psi) == pytest.approx(q0, rel=1e-12)


class TestCarried:
    """coulomb_gauge and dm_strang_step make states that carry A0 and the
    spectra of A and eps*dt(A) into the next step."""

    @pytest.mark.parametrize("dealias", [False, True])
    def test_carried_values_match_the_state(self, lat12, dealias):
        s1 = dm.dm_strang_step(smooth_state(lat12, 0.25, gauge_amp=0.1), dm.StepConfig(dt=2e-3, dealias=dealias))
        c = s1.carried
        assert c.dealias == dealias
        for got, want in ((c.A0, dm.derived_A0(lat12, s1.psi, dealias)),
                          (c.A_hat, lat12.rfft(s1.A)), (c.W_hat, lat12.rfft(s1.eps_dtA))):
            assert np.abs(want).max() > 1e-6
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("rebuild", ["constructor", "replace"])
    def test_state_without_carry_steps_the_same(self, lat12, rebuild):
        cfg = dm.StepConfig(dt=2e-3)
        s1 = dm.dm_strang_step(smooth_state(lat12, 0.25, gauge_amp=0.1), cfg)
        bare = {
            "constructor": lambda s: dm.DMState(s.lat, s.t, s.psi.copy(), s.A.copy(), s.eps_dtA.copy(), s.eps),
            "replace": lambda s: dataclasses.replace(s, t=s.t),
        }[rebuild](s1)
        assert bare.carried is None
        carried, fresh = dm.dm_strang_step(s1, cfg), dm.dm_strang_step(bare, cfg)
        for a, b in ((carried.psi, fresh.psi), (carried.A, fresh.A), (carried.eps_dtA, fresh.eps_dtA)):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    def test_carry_under_the_other_dealias_flag_is_not_used(self, lat12):
        s1 = dm.dm_strang_step(smooth_state(lat12, 0.25, gauge_amp=0.1), dm.StepConfig(dt=2e-3))
        cfg = dm.StepConfig(dt=2e-3, dealias=True)
        assert np.array_equal(dm.dm_strang_step(s1, cfg).psi, dm.dm_strang_step(dataclasses.replace(s1), cfg).psi)

    def test_coulomb_gauge_is_frozen_with_the_carry_of_an_unfrozen_copy(self, lat12):
        cfg = dm.StepConfig(dt=2e-3, dealias=True)
        # a random eps*dt(A) has a gradient part for the projection to remove
        W = np.random.default_rng(3).standard_normal((3, *(lat12.n,) * 3))
        init = dataclasses.replace(smooth_state(lat12, 0.25, gauge_amp=0.1), eps_dtA=W)
        gauged = dm.coulomb_gauge(init, cfg)
        assert np.abs(fc.divergence(lat12, gauged.eps_dtA)).max() < 1e-12
        for a in (gauged.psi, gauged.A, gauged.eps_dtA):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0, 0] = 0.0
        assert init.psi.flags.writeable and init.A.flags.writeable  # init is left as it was
        unfrozen = dm.DMState(lat12, gauged.t, gauged.psi.copy(), gauged.A.copy(), gauged.eps_dtA.copy(), gauged.eps)
        assert unfrozen.carried is None
        want = dm.carried_values(unfrozen, cfg)
        assert gauged.carried.dealias
        for got, w in zip(gauged.carried[1:], want[1:]):
            assert np.abs(w).max() > 1e-6
            assert np.array_equal(got, w)

    def test_k_step_run_derives_A0_k_plus_one_times(self, lat, monkeypatch):
        solves = []
        real_A0 = dm.derived_A0
        monkeypatch.setattr(dm, "derived_A0", lambda *a: solves.append(1) or real_A0(*a))
        rows = []
        dm.run_dm(smooth_state(lat, 0.25, gauge_amp=0.1), 4 * 2e-3, dm.StepConfig(dt=2e-3), 1,
                  lambda s: rows.append(dm.checked_diagnostics(s, dm.StepConfig(dt=2e-3))))
        assert len(rows) == 5
        assert len(solves) == 4 + 1  # coulomb_gauge, then each step (closing A0); the samples solve none

    def test_stepped_state_cannot_be_edited(self, lat):
        s1 = dm.dm_strang_step(smooth_state(lat, 0.25, gauge_amp=0.1), dm.StepConfig(dt=2e-3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s1.A = np.zeros_like(s1.A)
        for a in (s1.psi, s1.A, s1.eps_dtA):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0, 0] = 0.0


class TestTransformCounts:
    """Components per Lattice transform, pinned so that none comes back unnoticed."""

    def test_carried_step(self, lat, transform_counts):
        cfg = dm.StepConfig(dt=2e-3)
        s1 = dm.dm_strang_step(smooth_state(lat, 0.25, gauge_amp=0.1), cfg)
        transform_counts.clear()
        dm.dm_strang_step(s1, cfg)
        assert transform_counts == {"fft": 4, "ifft": 8, "rfft": 4, "irfft": 7}

    def test_picard_iterate_zero(self, lat, transform_counts):
        # iterate -1 is zero: the level loop transforms none of it, the data are
        # Leray-projected as spectra, so the only inverse transforms are the output
        steps = 5
        state = smooth_state(lat, 0.4, gauge_amp=0.3)
        transform_counts.clear()
        dm.picard_solve(state, steps * 2e-3, 0, dm.StepConfig(dt=2e-3))
        levels = steps + 1
        assert transform_counts == {"fft": 4, "ifft": 4 * levels, "rfft": 6, "irfft": 3 * levels}

    def test_diagnose(self, lat, transform_counts):
        # the field columns come from the carried spectra of a run's state
        cfg = dm.StepConfig(dt=2e-3)
        state = dm.coulomb_gauge(smooth_state(lat, 0.25, gauge_amp=0.1), cfg)
        transform_counts.clear()
        dm.checked_diagnostics(state, cfg)
        assert transform_counts == {"fft": 4}

    def test_small_component_sample(self, lat, transform_counts):
        # the eta norm comes from the spectrum that Pi_- takes
        state = smooth_state(lat, 0.25, gauge_amp=0.1)
        transform_counts.clear()
        hn.SmallComponentTrack(order=1)(state)
        assert transform_counts == {"fft": 4}


class TestWorkingSet:
    # Peak traced allocation of one carried step above live data, in (4, n, n, n)
    # complex arrays.  Before the block kernel (commit 66a055b) it read 6.230011:
    # `PYTHONPATH=src python -m pytest -q -s tests/test_dm.py -k working_set` with
    # this test, printing `peak`, against that commit's src/.
    PARENT_PEAK = 6.2301

    def test_carried_step_working_set(self):
        lat16 = fc.make_lattice(16, TWO_PI)
        cfg = dm.StepConfig(dt=2e-3)
        state = dm.coulomb_gauge(smooth_state(lat16, 0.25, gauge_amp=0.1), cfg)
        state = dm.dm_strang_step(dm.dm_strang_step(state, cfg), cfg)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            dm.dm_strang_step(state, cfg)
            peak = (tracemalloc.get_traced_memory()[1] - live) / (4 * lat16.n**3 * 16)
        finally:
            tracemalloc.stop()
        assert peak <= self.PARENT_PEAK, f"peak {peak:.3f} spinors above live data"


def diagnose_reference(state):
    """The real-space _diagnose that the one-spectrum one replaced."""
    lat = state.lat

    def h1(f, homogeneous=False):
        return fc.sobolev_norm_hat(lat, lat.fft(f), 1.0, homogeneous)

    return {
        "t": state.t,
        "charge": sp.total_charge(lat, state.psi),
        "h1_psi": h1(state.psi),
        "h1dot_A": h1(state.A, homogeneous=True),
        "eps_l2_dtA": fc.l2_norm(lat, state.eps_dtA),
        "h1_pi_minus_psi": h1(sp.pi_eps(lat, state.psi, state.eps, -1)),
    }


class TestDiagnose:
    @pytest.mark.parametrize("case", ["gauged", "random"])
    def test_matches_real_space_formulas(self, lat12, case):
        cfg = dm.StepConfig(dt=2e-3)
        if case == "gauged":
            state = dm.dm_strang_step(dm.coulomb_gauge(smooth_state(lat12, 0.3, gauge_amp=0.2), cfg), cfg)
        else:
            # random real A and eps*dt(A) carry Nyquist content on every axis
            rng = np.random.default_rng(7)
            shape = (lat12.n,) * 3
            psi = rng.standard_normal((4, *shape)) + 1j * rng.standard_normal((4, *shape))
            state = dm.DMState(lat12, 0.1, psi, rng.standard_normal((3, *shape)), rng.standard_normal((3, *shape)), 0.3)
        got, want = dm._diagnose(state, dm.carried_values(state, cfg)), diagnose_reference(state)
        assert list(got) == list(dm.DIAGNOSTIC_COLUMNS)
        for col in dm.DIAGNOSTIC_COLUMNS:
            assert want[col] > 0
            assert abs(got[col] - want[col]) <= 1e-13 * want[col]


class TestMultiplierCache:
    def test_interleaved_eps_matches_fresh_cache(self, lat):
        cfg = dm.StepConfig(dt=2e-3)
        s1, s2 = smooth_state(lat, 0.3, gauge_amp=0.1), smooth_state(lat, 0.2, gauge_amp=0.1)
        fc.mode_multipliers.cache_clear()
        fresh = dm.dm_strang_step(s1, cfg)
        dm.dm_strang_step(s2, cfg)
        again = dm.dm_strang_step(s1, cfg)
        for a, b in ((fresh.psi, again.psi), (fresh.A, again.A), (fresh.eps_dtA, again.eps_dtA)):
            assert np.array_equal(a, b)

    def test_bounded_after_many_times(self, lat):
        psihat = lat.fft(smooth_state(lat, 0.5).psi)
        info = fc.mode_multipliers.cache_info()
        for t in np.linspace(0.0, 1.0, 4 * info.maxsize):
            dm.free_flow_hat(lat, psihat, float(t), 0.5)
        assert fc.mode_multipliers.cache_info().currsize <= info.maxsize


def diagnosed_run(init, T, cfg, every):
    """run_dm with the checked diagnostics of every sample; returns the final
    state and the diagnostics by column."""
    rows = []
    final = dm.run_dm(init, T, cfg, every, lambda s: rows.append(dm.checked_diagnostics(s, cfg)))
    return final, {c: np.array([row[c] for row in rows]) for c in dm.DIAGNOSTIC_COLUMNS}


class TestSimulate:
    def test_stationary_zero_mode_closed_form(self, lat):
        for eps in (0.4, 0.2):
            n = lat.n
            psi0 = np.zeros((4, n, n, n), dtype=complex)
            psi0[0] = 1.0
            state = dm.DMState(lat, 0.0, psi0, np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), eps)
            final, diagnostics = diagnosed_run(state, 1.0, dm.StepConfig(dt=0.01), 100)
            ref = np.zeros_like(psi0)
            ref[0] = np.exp(-1j * final.t / eps**2)
            assert fc.sobolev_norm(lat, final.psi - ref, 1.0) < 1e-9
            drift = np.abs(diagnostics["charge"] - diagnostics["charge"][0]).max()
            assert drift < 1e-10

    def test_zero_data_all_diagnostics_zero(self, lat):
        n = lat.n
        state = dm.DMState(
            lat,
            0.0,
            np.zeros((4, n, n, n), dtype=complex),
            np.zeros((3, n, n, n)),
            np.zeros((3, n, n, n)),
            0.5,
        )
        _, diagnostics = diagnosed_run(state, 0.1, dm.StepConfig(dt=0.01), 5)
        for col in ("charge", "h1_psi", "h1dot_A", "eps_l2_dtA", "h1_pi_minus_psi"):
            assert not diagnostics[col].any()

    def test_second_order_self_convergence(self, lat12):
        eps = 0.25
        state = smooth_state(lat12, eps, gauge_amp=0.1)

        def run(dt):
            return diagnosed_run(state, 0.2, dm.StepConfig(dt=dt), int(round(0.2 / dt)))[0]

        e1 = fc.sobolev_norm(lat12, run(0.02).psi - run(0.01).psi, 1.0)
        e2 = fc.sobolev_norm(lat12, run(0.01).psi - run(0.005).psi, 1.0)
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    def test_divergence_constraint_held(self, lat12):
        state = smooth_state(lat12, 0.25, gauge_amp=0.1)
        divs = []

        def observe(s):
            divs.extend(fc.l2_norm(lat12, fc.divergence(lat12, f)) for f in (s.A, s.eps_dtA))

        dm.run_dm(state, 0.1, dm.StepConfig(dt=5e-3), 5, observe)
        assert len(divs) == 2 * 5
        assert max(divs) < 1e-10

    def test_blowup_guard_trips(self, lat):
        state = smooth_state(lat, 0.5)
        scale = 2.0 * dm.H1_CEILING / fc.sobolev_norm(lat, state.psi, 1.0)
        state = dataclasses.replace(state, psi=scale * state.psi)
        with pytest.raises(FloatingPointError, match=r"guard tripped at step 0, t = 0\.0: h1_psi = 2\.000e\+06"):
            diagnosed_run(state, 0.1, dm.StepConfig(dt=0.01), 1)

    def test_non_finite_initial_state_raises_before_observing(self, lat):
        state = smooth_state(lat, 0.5)
        state.psi[1, 2, 3, 4] = np.nan
        observed = []
        with pytest.raises(FloatingPointError, match=r"initial state, step 0, t = 0\.0"):
            dm.integrate(state, lambda s: dm.dm_strang_step(s, dm.StepConfig(dt=0.01)), 3, 1, observed.append)
        assert observed == []

    def test_t_not_multiple_of_dt_rejected(self, lat):
        state = smooth_state(lat, 0.5)
        with pytest.raises(ValueError):
            diagnosed_run(state, 0.105, dm.StepConfig(dt=0.01), 1)


class TestOneRunPath:
    def test_no_retained_run_api(self):
        # every DM run streams through run_dm; the names are split so that
        # this file does not match itself
        retired = re.compile("Traj" "ectory|simulate" "_dm")
        files = [p for d in (Path(dm.__file__).parent, Path(__file__).parent) for p in sorted(d.rglob("*"))
                 if p.is_file() and "__pycache__" not in p.parts]
        assert [p.name for p in files if retired.search(p.read_text())] == []

    def test_step_config_fields(self):
        assert [f.name for f in dataclasses.fields(dm.StepConfig)] == ["dt", "dealias"]


def picard_reference(init, T, m_max, cfg):
    """The real-space Picard loop that the spectral picard_solve replaced:
    every level goes through the real-space free flow, wave_step and sobolev_norm."""
    lat, eps, dt = init.lat, init.eps, cfg.dt
    steps = dm.n_steps_for(T, dt)
    a0, a1 = fc.leray_project(lat, init.A), fc.leray_project(lat, init.eps_dtA)
    psi_prev = [np.zeros_like(init.psi)] * (steps + 1)
    A_prev = [np.zeros_like(init.A)] * (steps + 1)
    cauchy = []
    for _ in range(m_max + 1):
        A0_prev = [dm.derived_A0(lat, p, cfg.dealias) for p in psi_prev]
        forcing = [-sp.alpha_dot(a, p) - a0_field * p for p, a, a0_field in zip(psi_prev, A_prev, A0_prev)]
        psi_next = [init.psi.copy()]
        for k in range(steps):
            f_mid = 0.5 * (forcing[k] + forcing[k + 1])
            psi_next.append(free_step(lat, psi_next[-1], dt, eps)
                            - 1j * dt * free_step(lat, f_mid, dt / 2.0, eps))
        J_prev = [sp.current_density(p, eps) for p in psi_prev]
        A_next, W = [a0], a1
        for k in range(steps):
            A, W = real_wave_step(lat, A_next[-1], W, 0.5 * (J_prev[k] + J_prev[k + 1]), dt, eps)
            A_next.append(A)
        cauchy.append(max(fc.sobolev_norm(lat, pn - pp, 1.0) for pn, pp in zip(psi_next, psi_prev)))
        psi_prev, A_prev = psi_next, A_next
    return psi_prev, A_prev, cauchy


class TestPicard:
    @pytest.mark.parametrize("dealias", [False, True])
    def test_matches_real_space_reference(self, lat, dealias):
        state = smooth_state(lat, 0.4, gauge_amp=0.3)
        state = dataclasses.replace(state, eps_dtA=0.5 * gauge_profile(lat, 0.3)[[1, 2, 0]])
        cfg = dm.StepConfig(dt=2e-3, dealias=dealias)
        res = dm.picard_solve(state, 0.02, 4, cfg)
        psis, As, cauchy = picard_reference(state, 0.02, 4, cfg)
        for got, want in ((res.psis, psis), (res.As, As)):
            assert len(got) == len(want) == 11
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()
        assert np.abs(As[-1]).max() > 0.1
        np.testing.assert_allclose(res.cauchy, cauchy, rtol=1e-9, atol=1e-11)

    def test_forcing_matches_alpha_dot(self, lat):
        rng = np.random.default_rng(9)
        psi = random_spinor(lat, 10)
        A0 = rng.standard_normal((lat.n,) * 3)
        A = rng.standard_normal((3, lat.n, lat.n, lat.n))
        want = -sp.alpha_dot(A, psi) - A0 * psi
        got = dm.picard_forcing(psi, A0, A)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("field", ["A", "psi"])
    def test_non_finite_input_raises(self, lat, field):
        state = smooth_state(lat, 0.4, gauge_amp=0.3)
        getattr(state, field)[0, 1, 2, 3] = np.inf if field == "A" else np.nan
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match=r"iterate \d+ at time level \d+, t = "):
            dm.picard_solve(state, 0.01, 4, dm.StepConfig(dt=2e-3))

    def test_zero_data_converges_immediately(self, lat):
        n = lat.n
        state = dm.DMState(
            lat,
            0.0,
            np.zeros((4, n, n, n), dtype=complex),
            np.zeros((3, n, n, n)),
            np.zeros((3, n, n, n)),
            0.5,
        )
        res = dm.picard_solve(state, 0.05, 2, dm.StepConfig(dt=0.01))
        assert res.cauchy[1] < 1e-14 and res.cauchy[2] < 1e-14
        assert not res.contraction_failed

    def test_stationary_sources_vanish(self, lat):
        # with zero-mode data the potentials vanish, so iterate 1 is exact
        n = lat.n
        psi0 = np.zeros((4, n, n, n), dtype=complex)
        psi0[0] = 1.0
        state = dm.DMState(lat, 0.0, psi0, np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), 0.5)
        res = dm.picard_solve(state, 0.05, 3, dm.StepConfig(dt=0.01))
        assert res.cauchy[2] < 1e-12 and res.cauchy[3] < 1e-12

    def test_cross_validates_against_splitting(self, lat12):
        eps = 0.4
        state = smooth_state(lat12, eps)
        res = dm.picard_solve(state, 0.1, 6, dm.StepConfig(dt=1e-3))
        ratios = [res.cauchy[i + 1] / res.cauchy[i] for i in range(3, len(res.cauchy) - 1)]
        assert all(r < 0.7 for r in ratios)
        final_a, _ = diagnosed_run(state, 0.1, dm.StepConfig(dt=1e-3), 100)
        final_b, _ = diagnosed_run(state, 0.1, dm.StepConfig(dt=5e-4), 200)
        self_err = fc.sobolev_norm(lat12, final_a.psi - final_b.psi, 1.0)
        pic_err = fc.sobolev_norm(lat12, res.psis[-1] - final_a.psi, 1.0)
        assert pic_err < 5.0 * self_err


class TestEBandU:
    def test_compute_EB_closed_forms(self, lat):
        X1, _, _ = lat.grid()
        n = lat.n
        A0 = np.cos(X1) + np.zeros((n,) * 3)
        E, B = dm.compute_EB(lat, A0, np.zeros((3, n, n, n)), np.zeros((3, n, n, n)))
        assert np.abs(E[0] + np.sin(X1)).max() < 1e-12
        assert np.abs(B).max() < 1e-14
        A = np.zeros((3, n, n, n))
        A[1] = np.sin(X1) + np.zeros((n,) * 3)
        _, B2 = dm.compute_EB(lat, np.zeros((n,) * 3), A, np.zeros((3, n, n, n)))
        assert np.abs(B2[2] - (np.cos(X1) + np.zeros((n,) * 3))).max() < 1e-12
        W = np.zeros((3, n, n, n))
        W[1] = 0.7
        E3, _ = dm.compute_EB(lat, np.zeros((n,) * 3), A, W)
        assert np.abs(E3[1] + 0.7).max() < 1e-13
        assert fc.l2_norm(lat, fc.divergence(lat, B2)) < 1e-10

    def test_free_dirac_U_zero(self, lat):
        psi, U, dtU = dm.free_dirac_U(lat, np.zeros((4, lat.n, lat.n, lat.n), dtype=complex), 0.04, 0.01, 0.5)
        assert not psi.any() and not U.any() and not dtU.any()

    def test_free_dirac_U_zero_mode_closed_form(self, lat):
        # constant upper data c: psi = exp(-it/eps^2) c, U(T) = eps (exp(-iT/eps^2) - 1) c,
        # reached to second order in dt
        n = lat.n
        eps, T = 0.5, 0.2
        c = np.array([0.3 + 0.1j, -0.2, 0.0, 0.0])[:, None, None, None]
        phase = np.exp(-1j * T / eps**2)
        errors = []
        for dt in (0.02, 0.01):
            psi, U, _ = dm.free_dirac_U(lat, np.zeros((4, n, n, n), dtype=complex) + c, T, dt, eps)
            assert np.abs(psi - phase * c).max() < 1e-13
            errors.append(np.abs(U - eps * (phase - 1.0) * c).max())
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)

    def test_reconstruction_identity_free_solution(self, lat):
        eps, dt, T = 0.5, 1e-3, 0.25
        psi0 = sp.pi_eps(lat, sp.embed_upper(v_plus_profile(lat, 0.5)), eps, +1) + sp.pi_eps(
            lat, sp.embed_lower(v_minus_profile(lat, 0.3)), eps, -1
        )
        psi, U, dtU = dm.free_dirac_U(lat, psi0, T, dt, eps)
        rec = dm.reconstruct_from_U(lat, U, dtU, eps)
        assert fc.l2_norm(lat, rec - psi) < 1e-4

    def test_insufficient_sampling_flagged(self, lat):
        eps = 0.25
        psi0 = sp.pi_eps(lat, sp.embed_upper(v_plus_profile(lat, 0.5)), eps, +1)
        with pytest.raises(ValueError):  # dt hopelessly coarse vs the 1/eps^2 phase
            dm.free_dirac_U(lat, psi0, 0.15, 0.05, eps)

    def test_free_dirac_U_memory_does_not_grow_with_steps(self):
        # the list-returning builder kept two spinors per level, here 96 more
        # for the 4x longer run
        lat8 = fc.make_lattice(8, TWO_PI)
        psi0 = smooth_state(lat8, 0.5).psi

        def peak(steps):
            tracemalloc.start()
            try:
                dm.free_dirac_U(lat8, psi0, steps * 1e-2, 1e-2, 0.5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # warms the per-mode multiplier caches
        short, long = peak(16), peak(64)
        assert long <= short + psi0.nbytes, f"peak {short} -> {long} bytes"
