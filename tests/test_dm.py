import collections
import dataclasses
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diracmaxwell import evolve_dm as dm
from diracmaxwell import evolve_limits as lim
from diracmaxwell import fourier as fc
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


def gauged_state(lat, eps, cfg, gauge_amp=0.0):
    """smooth_state as a run starts from it: Coulomb-gauged, carrying A0 and the spectra."""
    return dm.coulomb_gauge(smooth_state(lat, eps, gauge_amp), cfg)


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
        cfg = dm.StepConfig(dt=2e-3)
        state = gauged_state(lat12, eps, cfg, gauge_amp=0.1)
        fwd = dm.dm_strang_step(state, cfg)
        back = dm.dm_strang_step(fwd, dataclasses.replace(cfg, dt=-2e-3))
        assert np.abs(back.psi - state.psi).max() < 1e-10
        assert np.abs(back.A - state.A).max() < 1e-10
        assert np.abs(back.eps_dtA - state.eps_dtA).max() < 1e-10

    def test_zero_data_stays_zero(self, lat):
        n, cfg = lat.n, dm.StepConfig(dt=0.01)
        state = dm.coulomb_gauge(dm.DMState(lat, 0.0, np.zeros((4, n, n, n), dtype=complex), np.zeros((3, n, n, n)),
                                            np.zeros((3, n, n, n)), 0.5), cfg)
        out = dm.dm_strang_step(state, cfg)
        assert not out.psi.any() and not out.A.any()

    def test_charge_exactly_conserved(self, lat12):
        cfg = dm.StepConfig(dt=2e-3)
        state = gauged_state(lat12, 0.25, cfg, gauge_amp=0.1)
        q0 = sp.total_charge(lat12, state.psi)
        out = dm.dm_strang_step(state, cfg)
        assert sp.total_charge(lat12, out.psi) == pytest.approx(q0, rel=1e-12)


# the Pauli matrices; the covariance transformations act by them and by index arrays on the grid
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class TestCovariance:
    """dm_strang_step commutes with a 90-degree rotation about x3 and with
    parity (Thaller, The Dirac Equation, ch. 3): three steps from transformed
    data give the transformed steps of the data, to roundoff.  The (dt, -dt)
    round trip cannot see a sign or index error inside a stage; these can."""

    n, eps, dt = 8, 0.5, 0.01

    def transform(self, name):
        n = self.n
        I, J, K = np.indices((n, n, n))
        if name == "rotation":
            # R e1 = e2, R e2 = -e1: f(x) -> f(R^-1 x), R^-1 (i, j, k) = (j, -i, k);
            # psi -> (cos(pi/4) - i sin(pi/4) Sigma_3) psi and A -> R A
            idx, vector = (J, -I % n, K), np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
            spinor = np.cos(np.pi / 4) * np.eye(4) - 1j * np.sin(np.pi / 4) * np.kron(np.eye(2), PAULI[2])
        else:
            # parity: f(x) -> f(-x), psi -> gamma0 psi and A -> -A
            idx, vector = (-I % n, -J % n, -K % n), -np.eye(3)
            spinor = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        return lambda psi, A, W: tuple(np.tensordot(m, f[:, idx[0], idx[1], idx[2]], axes=1)
                                       for m, f in ((spinor, psi), (vector, A), (vector, W)))

    def run(self, fields, dealias):
        lat = fc.make_lattice(self.n, TWO_PI)
        cfg = dm.StepConfig(dt=self.dt, dealias=dealias)
        end = dm.run_dm(dm.DMState(lat, 0.0, *fields, self.eps), 3 * self.dt, cfg, 3, lambda s: None)
        return end.psi, end.A, end.eps_dtA

    def error(self, name, dealias):
        rng = np.random.default_rng(5)
        shape = (self.n,) * 3
        data = (0.3 * (rng.standard_normal((4, *shape)) + 1j * rng.standard_normal((4, *shape))),
                0.3 * rng.standard_normal((3, *shape)), 0.3 * rng.standard_normal((3, *shape)))
        move = self.transform(name)
        got, want = self.run(move(*data), dealias), move(*self.run(data, dealias))
        return max(float(np.abs(g - w).max() / np.abs(w).max()) for g, w in zip(got, want))

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("name", ["rotation", "parity"])
    def test_step_is_covariant(self, name, dealias):
        assert self.error(name, dealias) < 1e-13

    def test_swapped_kick_breaks_rotation_covariance(self, monkeypatch):
        # control: a kick that reads A_y for A_x and A_x for A_y passes the
        # round trip but fails the rotation check by orders of magnitude
        kick = dm.potential_kick
        monkeypatch.setattr(dm, "potential_kick",
                            lambda lat, psi, A0, A, dt, eps: kick(lat, psi, A0, A[[1, 0, 2]], dt, eps))
        assert self.error("rotation", False) > 1e-6


class TestCarried:
    """coulomb_gauge derives A0 and the spectra of A and eps*dt(A) for the
    start of every run, dm_strang_step sets them on each state it makes, and
    reading them on a state that no run made raises one ValueError."""

    def test_three_values(self):
        assert dm.Carried._fields == ("A0", "A_hat", "W_hat")

    @pytest.mark.parametrize("dealias", [False, True])
    def test_carried_values_match_the_state(self, lat12, dealias):
        cfg = dm.StepConfig(dt=2e-3, dealias=dealias)
        s1 = dm.dm_strang_step(gauged_state(lat12, 0.25, cfg, gauge_amp=0.1), cfg)
        c = s1.carried
        for got, want in ((c.A0, dm.derived_A0(lat12, s1.psi, dealias)),
                          (c.A_hat, lat12.rfft(s1.A)), (c.W_hat, lat12.rfft(s1.eps_dtA))):
            assert np.abs(want).max() > 1e-6
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("reader", ["dm_strang_step", "dm_pauli_step", "checked_diagnostics"])
    @pytest.mark.parametrize("rebuild", ["constructor", "replace"])
    def test_state_no_run_made_is_refused(self, lat, reader, rebuild):
        cfg = dm.StepConfig(dt=2e-3)
        s1 = dm.dm_strang_step(gauged_state(lat, 0.25, cfg, gauge_amp=0.1), cfg)
        bare = {
            "constructor": lambda s: dm.DMState(s.lat, s.t, s.psi.copy(), s.A.copy(), s.eps_dtA.copy(), s.eps),
            "replace": lambda s: dataclasses.replace(s, t=s.t),
        }[rebuild](s1)
        read = {
            "dm_strang_step": lambda s: dm.dm_strang_step(s, cfg),
            "dm_pauli_step": lambda s: lim.dm_pauli_step(lim.DMPauliState(s, sp.upper(s.psi).copy()), cfg),
            "checked_diagnostics": lambda s: dm.checked_diagnostics(s, cfg),
        }[reader]
        read(s1)
        with pytest.raises(ValueError, match="carries no A0.*coulomb_gauge or run_dm"):
            read(bare)

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
        psi, A, W = (a.copy() for a in (gauged.psi, gauged.A, gauged.eps_dtA))
        want = (dm.derived_A0(lat12, psi, cfg.dealias), lat12.rfft(A), lat12.rfft(W))
        for got, w in zip(gauged.carried, want):
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
        cfg = dm.StepConfig(dt=2e-3)
        s1 = dm.dm_strang_step(gauged_state(lat, 0.25, cfg, gauge_amp=0.1), cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s1.A = np.zeros_like(s1.A)
        for a in (s1.psi, s1.A, s1.eps_dtA):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0, 0] = 0.0


class TestTransformCounts:
    """Components per Lattice transform, pinned so that none comes back unnoticed."""

    def test_carried_step(self, lat, transform_counts):
        cfg = dm.StepConfig(dt=2e-3)
        s1 = dm.dm_strang_step(gauged_state(lat, 0.25, cfg, gauge_amp=0.1), cfg)
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
        state = gauged_state(lat, 0.25, cfg, gauge_amp=0.1)
        transform_counts.clear()
        dm.checked_diagnostics(state, cfg)
        assert transform_counts == {"fft": 4}

    def test_small_component_sample(self, lat, transform_counts):
        # the small-component suite's ||Pi_- psi||_H1 is the h1_pi_minus_psi
        # column, from the one spectrum of psi that the sample takes; the data
        # get a lower part, so that Pi_- psi is not zero
        cfg, zero = dm.StepConfig(dt=2e-3), np.zeros((3, lat.n, lat.n, lat.n))
        psi = smooth_state(lat, 0.25).psi + sp.embed_lower(v_minus_profile(lat, 0.3))
        state = dm.coulomb_gauge(dm.DMState(lat, 0.0, psi, gauge_profile(lat, 0.1), zero, 0.25), cfg)
        transform_counts.clear()
        got = dm.checked_diagnostics(state, cfg)["h1_pi_minus_psi"]
        assert transform_counts == {"fft": 4}
        want = fc.sobolev_norm(lat, sp.pi_eps(lat, state.psi, 0.25, -1), 1.0)
        assert want > 1e-6 and got == pytest.approx(want, rel=1e-12)


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
            state = random_gauged_state(lat12.n)
        got, want = dm._diagnose(state), diagnose_reference(state)
        assert list(got) == list(dm.DIAGNOSTIC_COLUMNS)
        for col in dm.DIAGNOSTIC_COLUMNS:
            assert want[col] > 0
            assert abs(got[col] - want[col]) <= 1e-13 * want[col]


@pytest.fixture(params=[1, 2, 3], ids=["1 core", "2 cores", "3 cores"])
def cores(request, monkeypatch):
    """A core count, assumed so that the pool runs on any host."""
    monkeypatch.setattr(fc, "_CORES", request.param)
    return request.param


def random_gauged_state(n, seed=7):
    """A run's start from random data: Nyquist content on every axis."""
    lat, rng = fc.make_lattice(n, TWO_PI), np.random.default_rng(seed)
    shape = (n, n, n)
    psi = rng.standard_normal((4, *shape)) + 1j * rng.standard_normal((4, *shape))
    init = dm.DMState(lat, 0.1, psi, rng.standard_normal((3, *shape)), rng.standard_normal((3, *shape)), 0.3)
    return dm.coulomb_gauge(init, dm.StepConfig(dt=2e-3))


def sobolev_norm_by_formula(lat, fhat, s, homogeneous=False):
    """sobolev_norm_hat as one full-grid sum with its weight built per call."""
    power = np.abs(fhat) ** 2
    if power.ndim > 3:
        power = power.reshape(-1, *power.shape[-3:]).sum(axis=0)
    if homogeneous:
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(lat.zero_modes, 0.0, lat.k_sq**s)
    else:
        w = (1.0 + lat.k_sq) ** s
    w = w[..., : fhat.shape[-1]]
    if fhat.shape[-1] != lat.n:
        w = w * np.r_[1.0, np.full(lat.n // 2 - 1, 2.0), 1.0]
    return float(np.sqrt(float(np.sum(w * power)) * lat.volume / lat.n**6))


def diagnose_by_formula(state):
    """_diagnose with full-grid sums and a full-grid Pi_- spectrum."""
    lat, c = state.lat, state.carried
    psihat = lat.fft(state.psi)
    half = (-0.5) / np.sqrt(1.0 + state.eps**2 * lat.k_sq)
    pi_minus = sp.dirac_symbol_apply(lat, psihat, 0.5 + half, 0.5 - half, 1j * state.eps * half)
    return {
        "t": state.t,
        "charge": sobolev_norm_by_formula(lat, psihat, 0.0) ** 2,
        "h1_psi": sobolev_norm_by_formula(lat, psihat, 1.0),
        "h1dot_A": sobolev_norm_by_formula(lat, c.A_hat, 1.0, homogeneous=True),
        "eps_l2_dtA": sobolev_norm_by_formula(lat, c.W_hat, 0.0),
        "h1_pi_minus_psi": sobolev_norm_by_formula(lat, pi_minus, 1.0),
    }


class TestSlabFieldKernels:
    """The wave oscillator, the Leray product and the charge density run slab by
    slab (fourier.slabwise); each equals its full-grid expression bit for bit,
    on full and real-transform spectra, whatever the core count.  n = 24 gives
    two slabs on the calling thread, n = 32 and 48 four and sixteen over the cores."""

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_equal_the_full_grid_expressions(self, n, cores):
        lat, rng = fc.make_lattice(n, TWO_PI), np.random.default_rng(n)
        A, W, J = (rng.standard_normal((3, n, n, n)) for _ in range(3))
        psi = random_spinor(lat, n)
        for spectrum in (lat.rfft, lat.fft):
            f, g, src = spectrum(A), spectrum(W), spectrum(J)
            for dt in (0.013, -0.013):
                c, s, a, b = (fc.on_modes(x, f) for x in fc.mode_multipliers(lat, 0.3, dt).wave)
                u, w = dm.wave_oscillator(lat, f, g, src, dt, 0.3)
                assert np.array_equal(u, c * f + s * g + a * src) and np.array_equal(w, b * f + c * g + s * src)
            kx, ky, kz, inv_lap = (fc.on_modes(x, f) for x in (lat.kx, lat.ky, lat.kz, lat.inv_laplacian))
            k_dot_u = (kx * f[0] + ky * f[1] + kz * f[2]) * inv_lap
            assert np.array_equal(fc.leray_hat(lat, f), np.stack([f[0] + kx * k_dot_u, f[1] + ky * k_dot_u,
                                                                   f[2] + kz * k_dot_u]))
        for p in (psi, psi[:2], psi.transpose(0, 3, 1, 2)):
            assert np.array_equal(sp.charge_density(p), np.sum(np.abs(p) ** 2, axis=0))

    @pytest.mark.parametrize("n", [24, 32])
    def test_no_slab_job_submits_a_job(self, n, monkeypatch):
        # every split (by_slab, slabwise, slab_sum, split transforms) goes through _on_cores
        monkeypatch.setattr(fc, "_CORES", 3)
        inside, nested, on_cores = threading.local(), [], fc._on_cores

        def guarded(run, k):
            if getattr(inside, "job", False):
                nested.append(k)

            def job(i):
                inside.job = True
                try:
                    run(i)
                finally:
                    inside.job = False
            on_cores(job, k)
        monkeypatch.setattr(fc, "_on_cores", guarded)
        cfg = dm.StepConfig(dt=2e-3, dealias=True)
        state = dm.dm_strang_step(random_gauged_state(n), cfg)
        dm._diagnose(state)
        sp.pi_eps_hat(state.lat, state.lat.fft(state.psi), state.eps, 1)
        assert nested == []


class TestSlabSample:
    """_diagnose takes one slab pass over the spectrum of psi, and
    sobolev_norm_hat sums slab by slab, the slab sums added in slab order."""

    @pytest.mark.parametrize("n", [32, 48])
    def test_bit_identical_for_every_core_count(self, n, monkeypatch):
        state = random_gauged_state(n)
        lat, psihat = state.lat, state.lat.fft(state.psi)
        got = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(fc, "_CORES", cores)
            norms = [fc.sobolev_norm_hat(lat, f, s, h) for f in (psihat, state.carried.A_hat, state.carried.W_hat)
                     for s, h in ((0.0, False), (1.0, False), (1.0, True), (-0.5, False))]
            got.append((dm._diagnose(state), norms))
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("n", [24, 32])
    def test_within_roundoff_of_the_full_grid_sums(self, n, cores):
        state = random_gauged_state(n)
        got, want = dm._diagnose(state), diagnose_by_formula(state)
        assert list(got) == list(dm.DIAGNOSTIC_COLUMNS)
        for col in dm.DIAGNOSTIC_COLUMNS:
            assert want[col] > 0 and abs(got[col] - want[col]) <= 1e-15 * want[col], col
        lat = state.lat
        for f in (lat.fft(state.psi), state.carried.A_hat, lat.fft(state.A)):
            for s, h in ((0.0, False), (1.0, False), (1.0, True), (-1.0, False), (0.5, True)):
                want = sobolev_norm_by_formula(lat, f, s, h)
                assert abs(fc.sobolev_norm_hat(lat, f, s, h) - want) <= 1e-15 * want, (s, h)

    def test_weights_are_cached_read_only_and_shared(self):
        state = random_gauged_state(24)
        lat = state.lat
        dm._diagnose(state)
        before = fc.sobolev_weight.cache_info()
        dm._diagnose(state)
        after = fc.sobolev_weight.cache_info()
        assert after.currsize == before.currsize and after.hits == before.hits + 3  # psi, A_hat, W_hat
        for half in (False, True):
            w = fc.sobolev_weight(lat, 1.0, False, half)
            assert w is fc.sobolev_weight(lat, 1.0, False, half) and not w.flags.writeable
            with pytest.raises(ValueError):
                w[0, 0, 0] = 2.0
        full, half = fc.sobolev_weight(lat, 1.0, True, False), fc.sobolev_weight(lat, 1.0, True, True)
        assert np.array_equal(half[..., 1:-1], 2.0 * full[..., 1:lat.n // 2])

    def test_one_sample_peaks_below_one_and_a_half_spinors(self):
        # the parent built a full-grid Pi_- spectrum and full-grid powers: 2.66 spinors
        state = random_gauged_state(64)
        dm._diagnose(state)  # the cached multipliers and weights
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            dm._diagnose(state)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * state.psi.nbytes, f"peak {peak / state.psi.nbytes:.2f} spinors"


class TestMultiplierCache:
    def test_interleaved_eps_matches_fresh_cache(self, lat):
        cfg = dm.StepConfig(dt=2e-3)
        s1, s2 = gauged_state(lat, 0.3, cfg, gauge_amp=0.1), gauged_state(lat, 0.2, cfg, gauge_amp=0.1)
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
