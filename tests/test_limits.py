import numpy as np
import pytest

from diracmaxwell import evolve_dm as dm
from diracmaxwell import evolve_limits as lim
from diracmaxwell import fourier as fc
from diracmaxwell import spinors as sp
from diracmaxwell.data_families import gauge_profile, initial_dm_state, v_minus_profile, v_plus_profile
from diracmaxwell.presets import get_preset

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def lat():
    return fc.make_lattice(12, TWO_PI)


@pytest.fixture(scope="module")
def lat8():
    return fc.make_lattice(8, TWO_PI)


def plane_wave(lat, kvec):
    X1, X2, X3 = lat.grid()
    return np.exp(1j * (kvec[0] * X1 + kvec[1] * X2 + kvec[2] * X3)) + np.zeros((lat.n,) * 3)


def run_sp(state, T, dt, sample_every=1):
    """Final SP state and the diagnostics rows of the samples, through the run entry."""
    rows = []
    final = lim.run_sp(state, T, dt, sample_every, lambda s: rows.append(lim.sp_diagnostics(s)))
    return final, rows


def random_two_spinor(lat, seed):
    rng = np.random.default_rng(seed)
    shape = (2, lat.n, lat.n, lat.n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSPStep:
    def test_plus_branch_kinetic_phase(self, lat):
        v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        v[0] = plane_wave(lat, (1, 0, 0))
        state = lim.SPState(lat, 0.0, v, np.zeros_like(v))
        out = lim.sp_step(state, 0.02)
        assert np.abs(out.v_plus - np.exp(-1j * 0.01) * v).max() < 1e-13

    def test_minus_branch_opposite_phase(self, lat):
        v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        v[1] = plane_wave(lat, (1, 0, 0))
        state = lim.SPState(lat, 0.0, np.zeros_like(v), v)
        out = lim.sp_step(state, 0.02)
        assert np.abs(out.v_minus - np.exp(1j * 0.01) * v).max() < 1e-13

    def test_zero_stays_zero(self, lat):
        z = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        out = lim.sp_step(lim.SPState(lat, 0.0, z, z.copy()), 0.02)
        assert not out.v_plus.any() and not out.v_minus.any()

    def test_mass_per_component_conserved(self, lat):
        vp = random_two_spinor(lat, 0)
        vm = random_two_spinor(lat, 1)
        state = lim.SPState(lat, 0.0, vp, vm)
        m_p, m_m = fc.l2_norm(lat, vp), fc.l2_norm(lat, vm)
        out = lim.sp_step(state, 0.02)
        assert fc.l2_norm(lat, out.v_plus) == pytest.approx(m_p, rel=1e-13)
        assert fc.l2_norm(lat, out.v_minus) == pytest.approx(m_m, rel=1e-13)

    def test_constant_data_is_stationary(self, lat):
        v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        v[0] = 0.8
        final, _ = run_sp(lim.SPState(lat, 0.0, v, np.zeros_like(v)), 0.2, 0.02)
        assert np.abs(final.v_plus - v).max() < 1e-12


class TestSimulateSP:
    def test_run_sp_is_the_hand_stepped_run(self, lat):
        v = random_two_spinor(lat, 4)
        state = lim.SPState(lat, 0.0, v, 0.5 * v)
        final, rows = run_sp(state, 0.05, 0.01, sample_every=2)
        assert [row["t"] for row in rows] == pytest.approx([0.0, 0.02, 0.04, 0.05])
        for _ in range(5):
            state = lim.sp_step(state, 0.01)
        assert np.array_equal(final.v_plus, state.v_plus) and np.array_equal(final.v_minus, state.v_minus)

    def test_plane_wave_exact_for_all_time(self, lat):
        v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        v[0] = plane_wave(lat, (1, 0, 0))
        final, _ = run_sp(lim.SPState(lat, 0.0, v, np.zeros_like(v)), 1.0, 0.01, sample_every=100)
        assert np.abs(final.v_plus - np.exp(-1j * 0.5) * v).max() < 1e-11

    def test_self_convergence_order_two(self, lat):
        vp = v_plus_profile(lat, 0.7)
        vm = v_minus_profile(lat, 0.4)

        def run(dt):
            st = lim.SPState(lat, 0.0, vp.copy(), vm.copy())
            return run_sp(st, 0.5, dt, sample_every=int(round(0.5 / dt)))[0]

        e1 = fc.sobolev_norm(lat, run(0.02).v_plus - run(0.01).v_plus, 1.0)
        e2 = fc.sobolev_norm(lat, run(0.01).v_plus - run(0.005).v_plus, 1.0)
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    def test_mass_conservation_over_unit_time(self, lat):
        vp = v_plus_profile(lat, 0.7)
        vm = v_minus_profile(lat, 0.4)
        _, rows = run_sp(lim.SPState(lat, 0.0, vp, vm), 1.0, 0.01, sample_every=10)
        for col in ("mass_plus", "mass_minus"):
            masses = np.array([r[col] for r in rows])
            drift = np.abs(masses - masses[0]).max()
            assert drift < 1e-8


class TestPauliStep:
    def test_reduces_to_schrodinger(self, lat):
        # eps = 0 and A = 0: identical to the + branch potential/kinetic split
        chi = random_two_spinor(lat, 2)
        X1, _, _ = lat.grid()
        A0 = np.cos(X1) + np.zeros((lat.n,) * 3)
        zero = np.zeros((3, lat.n, lat.n, lat.n))
        out = lim.pauli_step(lat, chi.copy(), 0.0, A0, zero, 0.02, B=zero)
        half = np.exp(1j * A0 * 0.01)
        ref = half * chi
        ref = lat.ifft(np.exp(-1j * lat.k_sq * 0.01) * lat.fft(ref))
        ref = half * ref
        assert np.abs(out - ref).max() < 1e-12

    def test_zeeman_phase_constant_B(self, lat):
        eps, dt, b = 0.5, 0.02, 0.7
        chi = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        chi[0] = 1.0
        B = np.zeros((3, lat.n, lat.n, lat.n))
        B[2] = b
        out = lim.pauli_step(lat, chi, eps, np.zeros((lat.n,) * 3), np.zeros((3, lat.n, lat.n, lat.n)), dt, B=B)
        assert np.abs(out[0] - np.exp(1j * eps * b * dt / 2.0)).max() < 1e-13

    def test_identity_for_zero_everything(self, lat):
        chi = random_two_spinor(lat, 3)
        zero = np.zeros((3, lat.n, lat.n, lat.n))
        out = lim.pauli_step(lat, chi.copy(), 0.4, np.zeros((lat.n,) * 3), zero, 0.02, B=zero)
        ref = lat.ifft(np.exp(-1j * lat.k_sq * 0.01) * lat.fft(chi))
        assert np.abs(out - ref).max() < 1e-13

    def test_unitary_with_full_fields(self, lat):
        chi = random_two_spinor(lat, 4)
        A = gauge_profile(lat, 0.3)
        X1, _, _ = lat.grid()
        A0 = np.cos(X1) + np.zeros((lat.n,) * 3)
        m0 = fc.l2_norm(lat, chi)
        out = lim.pauli_step(lat, chi, 0.4, A0, A, 0.02, B=fc.curl(lat, A))
        assert abs(fc.l2_norm(lat, out) - m0) < 1e-10 * m0


def kick_matrix_reference(A0, B, A_sq, eps, dt, chi):
    """The magnetic kick before its coefficients were built once per step:
    exp(-i dt V) chi with V = a + b.sigma, a = -A0 + (eps^2/2) A^2, b = -(eps/2) B."""
    a = -A0 + 0.5 * eps**2 * A_sq
    b = -0.5 * eps * B
    theta = dt * np.sqrt(np.sum(b**2, axis=0))
    sin_over = dt * np.sinc(theta / np.pi)
    return np.exp(-1j * dt * a) * (np.cos(theta) * chi - 1j * sin_over * sp.sigma_dot(b, chi))


class TestKick:
    def test_matches_matrix_exponential_formula(self, lat8):
        rng = np.random.default_rng(7)
        shape = (lat8.n,) * 3
        chi = random_two_spinor(lat8, 8)
        A0 = rng.standard_normal(shape)
        A, B = rng.standard_normal((3, *shape)), rng.standard_normal((3, *shape))
        B[:, 0] = 0.0  # the |B| -> 0 limit of sin(theta)/|b|
        eps, dt = 0.4, 0.3
        want = kick_matrix_reference(A0, B, np.sum(A**2, axis=0), eps, dt, chi)
        got = sp.sigma_block_apply(chi, *lim._kick_coefficients(A0, A, B, eps, dt))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def advect_reference(lat, A, eps, dt, chi, tol=1e-16, max_terms=24):
    """The mixed-term Taylor series with each term's gradient by one 3-D transform pair."""
    scale = float(np.max(np.abs(chi))) + 1e-300
    term, out = chi, chi.copy()
    for k in range(1, max_terms + 1):
        khat = lat.fft(term)
        grad = lat.ifft(1j * np.stack([lat.kx * khat, lat.ky * khat, lat.kz * khat], axis=-4))
        term = (-1j * dt / k) * (1j * eps * np.sum(A * grad, axis=1))
        out = out + term
        if float(np.max(np.abs(term))) < tol * scale:
            return out
    raise AssertionError("reference series did not converge")


class TestAdvectApply:
    @pytest.mark.parametrize("eps, dt", [(0.4, 0.005), (0.1, 0.05)])
    def test_matches_3d_gradient_series(self, lat, eps, dt):
        chi = random_two_spinor(lat, 7)
        A = gauge_profile(lat, 0.3)
        out = lim._advect_apply(lat, A, eps, dt, chi)
        ref = advect_reference(lat, A, eps, dt, chi)
        assert np.abs(out - ref).max() < 1e-13 * np.abs(ref).max()
        assert np.abs(out - chi).max() > 1e-4 * np.abs(chi).max()  # the series did act

    def test_leaves_its_input_unchanged(self, lat):
        chi = random_two_spinor(lat, 8)
        before = chi.copy()
        lim._advect_apply(lat, gauge_profile(lat, 0.3), 0.4, 0.01, chi)
        assert np.array_equal(chi, before)

    @staticmethod
    def terms_under_the_old_rule(lat, A, eps, dt, chi):
        """Terms the series took when it stopped only after adding a term
        below 1e-16 max|chi|."""
        scale = float(np.max(np.abs(chi))) + 1e-300
        term = chi
        for k in range(1, 25):
            term = (dt * eps / k) * sum(A[j] * fc.partial(lat, term, j) for j in range(3))
            if float(np.max(np.abs(term))) < 1e-16 * scale:
                return k
        raise AssertionError("the old rule did not converge")

    @pytest.mark.parametrize("eps", [0.4, 0.2, 0.1])
    def test_stop_rule_takes_one_term_fewer_on_thm4_data(self, eps, monkeypatch):
        # the Theorem 4 preset's gauge data and spinor at eps, half its dt there
        cfg = get_preset("thm4")
        lat = fc.make_lattice(cfg["grid"]["n"], cfg["grid"]["period"])
        init = initial_dm_state(lat, cfg["data"]["family"], cfg["gauge"], eps, cfg["data"]["params"])
        dt = cfg["dt_ref"] * eps / cfg["eps_ref"] / 2.0
        A, chi = dm.coulomb_gauge(init, dm.StepConfig(dt=dt)).A, sp.upper(init.psi)
        old_terms = self.terms_under_the_old_rule(lat, A, eps, dt, chi)
        calls = []
        real_partial = lim.partial
        monkeypatch.setattr(lim, "partial", lambda *a: calls.append(a[2]) or real_partial(*a))
        out = lim._advect_apply(lat, A, eps, dt, chi)
        assert len(calls) == 3 * old_terms - 3
        ref = advect_reference(lat, A, eps, dt, chi)
        assert np.abs(out - ref).max() < 1e-13 * np.abs(ref).max()

    def test_series_that_cannot_converge_raises(self, lat8):
        # dt eps k_max sum max|A_j| ~ 14: term 24 is still ~1e-3 max|chi|
        chi = random_two_spinor(lat8, 9)
        with pytest.raises(FloatingPointError, match="mixed-term exponential did not converge"):
            lim._advect_apply(lat8, gauge_profile(lat8, 3.0), 0.4, 1.0, chi)


class TestSimulatePauli:
    """The Pauli spinor advanced in lockstep with a DM run, in its fields."""

    def _dm_init(self, lat, eps, family_amp=0.5, gauge_amp=0.2):
        psi0 = sp.pi_eps(lat, sp.embed_upper(v_plus_profile(lat, family_amp)), eps, +1)
        a0 = gauge_profile(lat, gauge_amp) if gauge_amp else np.zeros((3, lat.n, lat.n, lat.n))
        return dm.DMState(lat, 0.0, psi0, a0, np.zeros((3, lat.n, lat.n, lat.n)), eps)

    @staticmethod
    def _start(init, chi0, cfg):
        """The lockstep start from the Pauli spinor chi0, built by hand."""
        return lim.DMPauliState(dm.coulomb_gauge(init, cfg), chi0)

    def _lockstep(self, init, chi0, T, dt, sample_every=1):
        """Final Pauli spinor and the sampled Pauli masses: run_pauli without
        chi0, the hand-built lockstep run from chi0 with one."""
        cfg = dm.StepConfig(dt=dt)
        masses = []

        def observe(s):
            masses.append(lim.pauli_diagnostics(s)["mass"])

        if chi0 is None:
            final = lim.run_pauli(init, T, cfg, sample_every, observe)
        else:
            final = dm.integrate(self._start(init, chi0, cfg), lambda s: lim.dm_pauli_step(s, cfg),
                                 dm.n_steps_for(T, dt), sample_every, observe)
        return final.chi, np.array(masses)

    def test_zero_potentials_free_schrodinger(self, lat):
        # DM run with zero data: gauge fields identically zero
        n = lat.n
        init = dm.DMState(
            lat, 0.0, np.zeros((4, n, n, n), dtype=complex), np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), 0.5
        )
        chi0 = np.zeros((2, n, n, n), dtype=complex)
        chi0[0] = plane_wave(lat, (1, 0, 0))
        chi, _ = self._lockstep(init, chi0, 0.1, 0.01)
        assert np.abs(chi - np.exp(-1j * 0.05) * chi0).max() < 1e-11

    def test_stationary_dm_gives_free_kinetic_phases(self, lat):
        n = lat.n
        psi0 = np.zeros((4, n, n, n), dtype=complex)
        psi0[0] = 1.0
        init = dm.DMState(lat, 0.0, psi0, np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), 0.5)
        chi0 = np.zeros((2, n, n, n), dtype=complex)
        chi0[1] = plane_wave(lat, (0, 2, 0))
        chi, _ = self._lockstep(init, chi0, 0.1, 0.01)
        assert np.abs(chi - np.exp(-2j * 0.1) * chi0).max() < 1e-11

    def test_self_convergence_order_two(self, lat):
        eps, T = 0.4, 0.1
        init = self._dm_init(lat, eps)

        def run(dt):
            return self._lockstep(init, None, T, dt, sample_every=int(round(T / dt)))[0]

        e1 = fc.sobolev_norm(lat, run(0.01) - run(0.005), 1.0)
        e2 = fc.sobolev_norm(lat, run(0.005) - run(0.0025), 1.0)
        assert e1 / e2 == pytest.approx(4.0, rel=0.35)

    def test_mass_conserved(self, lat):
        eps, T = 0.4, 0.1
        init = self._dm_init(lat, eps)
        _, masses = self._lockstep(init, None, T, 2e-3, sample_every=10)
        drift = np.abs(masses - masses[0]).max()
        assert drift < 1e-8

    def test_non_finite_spinor_names_the_step(self, lat):
        # zero DM data keeps the fields zero, so only the guard can stop the run;
        # it checks the initial state before anything is observed
        n = lat.n
        init = dm.DMState(
            lat, 0.0, np.zeros((4, n, n, n), dtype=complex), np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), 0.5
        )
        chi0 = np.zeros((2, n, n, n), dtype=complex)
        chi0[0] = plane_wave(lat, (1, 0, 0))
        chi0[1, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError, match=r"non-finite spinor in the initial state, step 0, t = 0\.0"):
            self._lockstep(init, chi0, 0.1, 0.01)


    def test_non_finite_dm_spinor_is_named_not_a_convergence_failure(self, lat8):
        # a NaN in the initial DM spinor is named at step 0, before the Pauli
        # step could see it through the fields and misreport it
        eps = 0.4
        init = self._dm_init(lat8, eps)
        init.psi[0, 0, 0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as info:
            lim.run_pauli(init, 0.03, dm.StepConfig(dt=0.01), 1, lambda s: None)
        assert "step 0" in str(info.value)
        assert "did not converge" not in str(info.value)

    def test_B_is_the_curl_of_the_midpoint_A(self, lat, monkeypatch):
        # B comes from the carried spectra of A, which the start carries too
        eps = 0.4
        init = self._dm_init(lat, eps)
        passed, states = [], []
        real_step = lim.pauli_step
        monkeypatch.setattr(lim, "pauli_step", lambda *args, B=None: passed.append(B) or real_step(*args, B=B))
        lim.run_pauli(init, 0.03, dm.StepConfig(dt=0.01), 1, states.append)
        assert len(states) == 4 and len(passed) == 3
        for B, opening, closing in zip(passed, states, states[1:]):
            want = fc.curl(lat, 0.5 * (opening.dm.A + closing.dm.A))
            assert np.abs(B - want).max() <= 1e-12 * np.abs(want).max()

    def test_first_step_derives_the_opening_values_once(self, lat, monkeypatch):
        # a k-step run derives A0 k + 1 times: the start's in coulomb_gauge,
        # then each step's closing one
        eps = 0.4
        init = self._dm_init(lat, eps)
        cfg = dm.StepConfig(dt=0.01)
        alone = dm.dm_strang_step(dm.coulomb_gauge(init, cfg), cfg)
        solves, states = [], []
        real_A0 = dm.derived_A0
        monkeypatch.setattr(dm, "derived_A0", lambda *a: solves.append(1) or real_A0(*a))
        lim.run_pauli(init, 0.03, cfg, 1, states.append)
        assert len(solves) == 3 + 1
        for name in ("psi", "A", "eps_dtA"):
            assert np.array_equal(getattr(states[1].dm, name), getattr(alone, name))

    def test_run_pauli_is_the_hand_built_lockstep_run(self, lat):
        init = self._dm_init(lat, 0.4)
        got = self._lockstep(init, None, 0.03, 0.01)
        want = self._lockstep(init, sp.upper(init.psi).copy(), 0.03, 0.01)
        assert len(got[1]) == 4
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestNonFiniteGuard:
    def test_sp_nan_only_in_v_minus_raises(self, lat, monkeypatch):
        # a NaN in v_minus spreads to v_plus through the shared potential one
        # step later, so the step is patched to corrupt v_minus alone in the
        # last step
        real_step = lim.sp_step

        def corrupting_step(state, dt):
            out = real_step(state, dt)
            if out.t > 2.5 * dt:
                out.v_minus[0, 0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(lim, "sp_step", corrupting_step)
        v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        v[0] = plane_wave(lat, (1, 0, 0))
        with pytest.raises(FloatingPointError, match="step 3"):
            run_sp(lim.SPState(lat, 0.0, v, v.copy()), 0.03, 0.01)
