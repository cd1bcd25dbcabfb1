import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diracmaxwell import evolve_dm as dm
from diracmaxwell import fourier as fc
from diracmaxwell import spinors as sp
from diracmaxwell.data_families import v_plus_profile

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def lat():
    return fc.make_lattice(8, TWO_PI)


def random_spinor(lat, seed, comps=4):
    rng = np.random.default_rng(seed)
    shape = (comps, lat.n, lat.n, lat.n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def plane_wave(lat, kvec):
    X1, X2, X3 = lat.grid()
    return np.exp(1j * (kvec[0] * X1 + kvec[1] * X2 + kvec[2] * X3)) + np.zeros((lat.n,) * 3)


class TestMatrices:
    def test_gamma0_block_form(self):
        assert np.array_equal(np.diag(sp.GAMMA0), [1, 1, -1, -1])

    def test_alpha1_on_basis_vector(self):
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.array_equal(sp.ALPHA[0] @ e0, np.array([0, 0, 0, 1], dtype=complex))

    def test_spin3_is_diag_sigma3(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[2, 2] = 1
        expected[1, 1] = expected[3, 3] = -1
        assert np.array_equal(sp.SPIN[2], expected)

    def test_spin_from_gammas(self):
        # S^m = i gamma^k gamma^l, (k,l,m) cyclic
        for (k, l, m) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert np.array_equal(1j * sp.GAMMA[k] @ sp.GAMMA[l], sp.SPIN[m])

    def test_anticommutation_exact(self):
        for j in range(3):
            for k in range(3):
                lhs = sp.ALPHA[j] @ sp.ALPHA[k] + sp.ALPHA[k] @ sp.ALPHA[j]
                assert np.array_equal(lhs, 2.0 * (j == k) * np.eye(4))

    def test_product_identity_exact(self):
        for j in range(3):
            for k in range(3):
                rhs = (j == k) * np.eye(4) + 1j * sum(
                    sp.LEVI_CIVITA[j, k, l] * sp.SPIN[l] for l in range(3)
                )
                assert np.array_equal(sp.ALPHA[j] @ sp.ALPHA[k], rhs)

    def test_hermitian(self):
        for m in (sp.GAMMA0, *sp.ALPHA):
            assert np.array_equal(m, m.conj().T)
        assert np.array_equal(sp.GAMMA0 @ sp.GAMMA0, np.eye(4))


class TestBlockForms:
    """The block-form products against einsum over the constant matrices."""

    def _fields(self, lat):
        rng = np.random.default_rng(11)
        shape = (3, lat.n, lat.n, lat.n)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape), random_spinor(lat, 12)

    def test_alpha_and_spin_dot(self, lat):
        v, psi = self._fields(lat)
        for block, matrices in ((sp.alpha_dot, sp.ALPHA), (sp.spin_dot, sp.SPIN)):
            ref = np.einsum("kab,k...,b...->a...", matrices, v, psi)
            assert np.abs(block(v, psi) - ref).max() < 1e-13

    def test_sigma_dot(self, lat):
        v, psi = self._fields(lat)
        ref = np.einsum("kab,k...,b...->a...", sp.SIGMA, v, psi[:2])
        assert np.abs(sp.sigma_dot(v, psi[:2]) - ref).max() < 1e-13

    def test_sigma_inner(self, lat):
        _, psi = self._fields(lat)
        ref = np.einsum("a...,kab,b...->k...", np.conj(psi[:2]), sp.SIGMA, psi[2:])
        assert np.abs(sp.sigma_inner(psi[:2], psi[2:]) - ref).max() < 1e-13

    def test_broadcast_wavevector(self, lat):
        # the free Dirac symbol passes (kx, ky, kz) of shapes (n,1,1), (1,n,1), (1,1,n)
        psi = random_spinor(lat, 13)
        k = np.stack(np.broadcast_arrays(lat.kx, lat.ky, lat.kz))
        ref = np.einsum("kab,k...,b...->a...", sp.ALPHA, k, psi)
        assert np.abs(sp.alpha_dot((lat.kx, lat.ky, lat.kz), psi) - ref).max() < 1e-12


def block_matrices(d_plus, d_minus, w):
    """Per-point 4x4 matrices [[d_+, w.sigma], [w.sigma, d_-]] from GAMMA0/ALPHA."""
    eye = np.eye(4)[:, :, None, None, None]
    g0 = sp.GAMMA0[:, :, None, None, None]
    return 0.5 * (d_plus + d_minus) * eye + 0.5 * (d_plus - d_minus) * g0 + np.einsum("kab,k...->ab...", sp.ALPHA, w)


class TestBlockApply:
    """block_apply and sigma_block_apply against einsum over the constant matrices."""

    def _coefficients(self, lat):
        rng = np.random.default_rng(14)
        shape = (lat.n,) * 3
        d_plus, d_minus, scale = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3))
        w = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
        return d_plus, d_minus, scale, w

    @staticmethod
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_four_spinor(self, lat):
        d_plus, d_minus, scale, w = self._coefficients(lat)
        psi = random_spinor(lat, 15)
        got = sp.block_apply(psi, d_plus, d_minus, sp.sigma_entries(w), scale)
        self.assert_close(got, np.einsum("ab...,b...->a...", block_matrices(d_plus, d_minus, scale * w), psi))

    def test_broadcast_wavevector_and_scalar_diagonal(self, lat):
        _, _, scale, _ = self._coefficients(lat)
        psi = random_spinor(lat, 16)
        k = np.stack(np.broadcast_arrays(lat.kx, lat.ky, lat.kz))
        got = sp.block_apply(psi, 1.0, -1.0, sp.sigma_entries((lat.kx, lat.ky, lat.kz)), scale)
        self.assert_close(got, np.einsum("ab...,b...->a...", block_matrices(1.0, -1.0, scale * k), psi))

    def test_two_spinor(self, lat):
        d, _, scale, w = self._coefficients(lat)
        chi = random_spinor(lat, 17, comps=2)
        want = d * chi + np.einsum("kab,k...,b...->a...", sp.SIGMA, scale * w, chi)
        self.assert_close(sp.sigma_block_apply(chi, d, sp.sigma_entries(w), scale), want)


def block_by_formula(psi, d_plus, d_minus, v, scale):
    """block_apply as one full-grid call of its row kernel."""
    out = np.empty(psi.shape, dtype=complex)
    sp.block_rows(out, psi, d_plus, d_minus, v, scale)
    return out


def sigma_block_by_formula(chi, d, v, scale):
    """sigma_block_apply as one full-grid call of its row kernel."""
    out = np.empty(chi.shape, dtype=complex)
    sp._sigma_rows(out, chi, d, v, chi, scale)
    return out


def kick_by_formula(psi, A0, A, dt):
    """potential_kick with full-grid coefficients and one full-grid product."""
    theta = dt * np.sqrt(np.sum(A**2, axis=0))
    diag = np.exp(1j * dt * A0)
    f = diag * np.sinc(theta / np.pi)
    f *= 1j * dt
    diag *= np.cos(theta)
    return block_by_formula(psi, diag, diag, sp.sigma_entries(A), f)


def current_by_formula(psi, eps):
    """current_density as one full-grid expression."""
    return 2.0 / eps * sp.sigma_inner(psi[:2], psi[2:]).real


class TestSlabKernels:
    """The pointwise spinor kernels run slab by slab (fourier.by_slab), spread
    over the cores from n = 32.  A slab is computed as the full grid is, so
    every output equals the full-grid formula bit for bit, on one core or on
    three (assumed, so that the pool runs on any host).  n = 24 gives slabs
    of 14 and 10 planes, n = 48 gives 16 slabs of 3 over three cores."""

    @pytest.fixture(params=[3, 1], ids=["3 cores", "1 core"])
    def cores(self, request, monkeypatch):
        monkeypatch.setattr(fc, "_CORES", request.param)

    @staticmethod
    def inputs(n, seed=0):
        """psi, a complex d, a complex 3-vector w, a complex scale, A0 and A."""
        rng = np.random.default_rng(seed)

        def field(*c):
            return rng.standard_normal((*c, n, n, n))

        def complex_field(*c):
            return field(*c) + 1j * field(*c)
        return complex_field(4), complex_field(), complex_field(3), complex_field(), field(), field(3)

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_block_kernels_equal_the_full_grid_product(self, n, cores):
        lat = fc.make_lattice(n, TWO_PI)
        psi, d, w, scale, _, _ = self.inputs(n)
        v, k = sp.sigma_entries(w), sp.sigma_entries((-1j * lat.kx, -1j * lat.ky, -1j * lat.kz))
        strided = psi.transpose(0, 2, 3, 1)
        for name, p, (d_plus, d_minus, entries, sc) in (
                ("full", psi, (d, np.conj(d), v, scale)),
                ("wavevector", psi, (d, np.conj(d), k, 0.3j)),  # as dirac_symbol_apply
                ("None and scalar", psi, (None, 2.0, v, None)),
                ("scalar scale", psi, (0.5, None, k, -1.0)),
                ("non-contiguous", strided, (d, None, k, scale))):
            assert np.array_equal(sp.block_apply(p, d_plus, d_minus, entries, sc),
                                  block_by_formula(p, d_plus, d_minus, entries, sc)), name
            chi = p[1:3]
            assert np.array_equal(sp.sigma_block_apply(chi, d_plus, entries, sc),
                                  sigma_block_by_formula(chi, d_plus, entries, sc)), name

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_kick_and_current_equal_the_full_grid_formulas(self, n, cores):
        lat = fc.make_lattice(n, TWO_PI)
        psi, _, _, _, A0, A = self.inputs(n)
        for p, a in ((psi, A), (psi.transpose(0, 3, 2, 1), A), (psi, np.zeros_like(A))):  # A = 0: the sinc limit
            for dt in (0.013, -0.013):
                assert np.array_equal(dm.potential_kick(lat, p, A0, a, dt, 0.3), kick_by_formula(p, A0, a, dt))
            assert np.array_equal(sp.current_density(p, 0.3), current_by_formula(p, 0.3))

    def test_concurrent_callers_get_their_own_results(self, monkeypatch):
        # more callers than cores, switching often, all sharing the pool
        lat = fc.make_lattice(32, TWO_PI)

        def call(case):
            p, d, w, sc, A0, A = case
            return dm.potential_kick(lat, p, A0, A, 0.013, 0.3), sp.block_apply(p, d, None, sp.sigma_entries(w), sc)
        cases = [self.inputs(32, seed) for seed in range(6)]
        monkeypatch.setattr(fc, "_CORES", 1)
        want = [call(case) for case in cases]
        monkeypatch.setattr(fc, "_CORES", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as callers:
                got = [job.result(timeout=60) for job in [callers.submit(call, case) for case in cases]]
        finally:
            sys.setswitchinterval(interval)
        for (kick, block), (kick_want, block_want) in zip(got, want):
            assert np.array_equal(kick, kick_want) and np.array_equal(block, block_want)


def symbol_matrices(lat, eps):
    """The free Dirac symbol gamma0 + eps sum_j alpha_j k_j per mode as explicit
    4x4 matrices (axes a, b, then the grid), built from GAMMA0 and ALPHA alone,
    and lam = sqrt(1 + eps^2 |k|^2)."""
    k = np.stack(np.broadcast_arrays(lat.kx, lat.ky, lat.kz))
    q = sp.GAMMA0[:, :, None, None, None] + eps * np.einsum("kab,k...->ab...", sp.ALPHA, k)
    return q, np.sqrt(1.0 + eps**2 * np.sum(k**2, axis=0))


def per_mode(m, psihat):
    return np.einsum("ab...,b...->a...", m, psihat)


class TestFreeDiracSymbol:
    """Q, Pi_+/- and the projection remainders against explicit per-mode 4x4
    matrices on a small lattice (the free flow: test_dm.py, test_matches_cos_sin_formula)."""

    eps = 0.35

    @pytest.fixture(scope="class")
    def lat6(self):
        return fc.make_lattice(6, TWO_PI)

    @staticmethod
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_free_dirac_apply(self, lat6):
        psi = random_spinor(lat6, 21)
        q, _ = symbol_matrices(lat6, self.eps)
        want = np.fft.ifftn(per_mode(q, np.fft.fftn(psi, axes=(-3, -2, -1))), axes=(-3, -2, -1))
        self.assert_close(sp.free_dirac_apply(lat6, psi, self.eps), want)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_pi_eps_hat(self, lat6, sign):
        psihat = np.fft.fftn(random_spinor(lat6, 22), axes=(-3, -2, -1))
        q, lam = symbol_matrices(lat6, self.eps)
        want = 0.5 * (psihat + sign * per_mode(q, psihat) / lam)
        self.assert_close(sp.pi_eps_hat(lat6, psihat, self.eps, sign), want)


# Pi_+^0, the eps -> 0 limit of the projection: it keeps the upper block
UPPER = np.array([1, 1, 0, 0])[:, None, None, None]


class TestProjections:
    def test_zero_mode_is_block_projector(self, lat):
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[:] = np.array([1, 2, 3, 4])[:, None, None, None]
        for eps in (1.0, 0.3):
            out = sp.pi_eps(lat, psi, eps, +1)
            assert np.abs(out - UPPER * psi).max() < 1e-13

    def test_plane_wave_value(self, lat):
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[0] = plane_wave(lat, (1, 0, 0))
        out = sp.pi_eps(lat, psi, 1.0, +1)
        vals = np.array([out[a][0, 0, 0] for a in range(4)]) / psi[0][0, 0, 0]
        expected = np.array([0.8535534, 0, 0, 0.3535534])
        assert np.abs(vals - expected).max() < 1e-7

    def test_resolution_of_identity(self, lat):
        psi = random_spinor(lat, 0)
        out = sp.pi_eps(lat, psi, 0.5, +1) + sp.pi_eps(lat, psi, 0.5, -1)
        assert np.abs(out - psi).max() < 1e-12

    def test_idempotent_orthogonal(self, lat):
        psi = random_spinor(lat, 1)
        for eps in (1.0, 0.5, 0.25):
            pp = sp.pi_eps(lat, psi, eps, +1)
            pm = sp.pi_eps(lat, psi, eps, -1)
            assert np.abs(sp.pi_eps(lat, pp, eps, +1) - pp).max() < 1e-12
            assert np.abs(sp.pi_eps(lat, pm, eps, +1)).max() < 1e-12

    def test_spectral_decomposition(self, lat):
        psi = random_spinor(lat, 2)
        for eps in (1.0, 0.5, 0.25):
            q = sp.free_dirac_apply(lat, psi, eps)
            rebuilt = fc.lambda_eps(lat, sp.pi_eps(lat, psi, eps, +1), eps, 1) - fc.lambda_eps(
                lat, sp.pi_eps(lat, psi, eps, -1), eps, 1
            )
            assert np.abs(q - rebuilt).max() < 1e-12

    def test_rejects_bad_eps_sign(self, lat):
        psi = random_spinor(lat, 3)
        with pytest.raises(ValueError):
            sp.pi_eps(lat, psi, -0.5, +1)
        with pytest.raises(ValueError):
            sp.pi_eps(lat, psi, 0.5, 2)


def projection_remainders(lat, f, eps):
    """L2 sizes of (Pi_+^eps - Pi_+^0) f and of its remainder after the
    first-order term -(i eps/2) alpha.grad f = (Q^eps - gamma0) f / 2."""
    rem1 = sp.pi_eps(lat, f, eps, +1) - UPPER * f
    rem2 = rem1 - 0.5 * (sp.free_dirac_apply(lat, f, eps) - np.diag(sp.GAMMA0)[:, None, None, None] * f)
    return fc.l2_norm(lat, rem1), fc.l2_norm(lat, rem2)


class TestProjectionRemainders:
    def test_zero_frequency_field(self, lat):
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[:] = np.array([1, 1j, 0.5, 0])[:, None, None, None]
        r1, r2 = projection_remainders(lat, psi, 0.3)
        assert r1 < 1e-13 and r2 < 1e-13

    def test_remainder_scaling(self, lat):
        f = sp.embed_upper(v_plus_profile(lat, 1.0))
        r1a, r2a = projection_remainders(lat, f, 0.2)
        r1b, r2b = projection_remainders(lat, f, 0.1)
        assert r1a / r1b == pytest.approx(2.0, rel=0.2)
        assert r2a / r2b == pytest.approx(4.0, rel=0.2)

    def test_data_lemma_monotone_vanishing(self, lat):
        # ||(Pi^eps - Pi^0) f||_{H^1} decreases to 0 along eps = 0.5, 0.25, 0.125
        f = sp.embed_upper(v_plus_profile(lat, 1.0)) + 0.3 * random_spinor(lat, 4)
        f = fc.dealias(lat, f)
        norms = []
        for eps in (0.5, 0.25, 0.125):
            diff = sp.pi_eps(lat, f, eps, +1) - UPPER * f
            norms.append(fc.sobolev_norm(lat, diff, 1.0))
        assert norms[0] > norms[1] - 1e-9 and norms[1] > norms[2] - 1e-9
        assert norms[2] < 0.5 * norms[0]


class TestDensities:
    def test_unit_spinor_charge(self, lat):
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[0] = 1.0
        assert np.abs(sp.charge_density(psi) - 1.0).max() < 1e-15
        assert sp.total_charge(lat, psi) == pytest.approx(TWO_PI**3, rel=1e-12)

    def test_normalized_pair(self, lat):
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[0] = 1 / np.sqrt(2)
        psi[1] = 1j / np.sqrt(2)
        assert np.abs(sp.charge_density(psi) - 1.0).max() < 1e-15

    def test_current_vanishes_for_single_block(self, lat):
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[0] = 1.0
        assert np.abs(sp.current_density(psi, 1.0)).max() < 1e-15

    def test_current_alpha3_eigenvector(self, lat):
        psi = np.zeros((4, lat.n, lat.n, lat.n), dtype=complex)
        psi[0] = psi[2] = 1 / np.sqrt(2)
        J = sp.current_density(psi, 1.0)
        assert np.abs(J[2] - 1.0).max() < 1e-14
        assert np.abs(J[:2]).max() < 1e-14

    def test_current_eps_scaling(self, lat):
        psi = random_spinor(lat, 11)
        J1 = sp.current_density(psi, 0.5)
        J2 = sp.current_density(psi, 0.25)
        assert np.abs(J2 - 2.0 * J1).max() < 1e-12

    def test_current_rejects_bad_eps(self, lat):
        with pytest.raises(ValueError):
            sp.current_density(random_spinor(lat, 12), 0.0)

    def test_charge_invariant_under_projection_split(self, lat):
        psi = random_spinor(lat, 13)
        q = sp.total_charge(lat, psi)
        rebuilt = sp.pi_eps(lat, psi, 0.5, +1) + sp.pi_eps(lat, psi, 0.5, -1)
        assert sp.total_charge(lat, rebuilt) == pytest.approx(q, rel=1e-12)


def limit_current_reference(lat, v_plus, v_minus):
    """limit_current as it was written before it went through pauli_current:
    the momentum and spin-curl terms of each nonzero branch built by hand."""
    out = np.zeros((3, lat.n, lat.n, lat.n))
    for v, s in ((v_plus, 1.0), (v_minus, -1.0)):
        if not np.any(v):
            continue
        grad_v = fc.gradient(lat, v)
        momentum = np.imag(np.sum(np.conj(v)[:, None] * grad_v, axis=0))
        out += s * (momentum + 0.5 * fc.curl(lat, sp.spin_density(v)))
    return out


class TestLimitCurrent:
    @pytest.mark.parametrize("branches", ["upper", "upper_lower", "lower"])
    def test_bit_identical_to_hand_built_reference(self, lat, branches):
        v = fc.dealias(lat, random_spinor(lat, 16, comps=2))
        w = fc.dealias(lat, random_spinor(lat, 17, comps=2))
        zero = np.zeros_like(v)
        v_plus, v_minus = {"upper": (v, zero), "upper_lower": (v, w), "lower": (zero, w)}[branches]
        assert np.array_equal(sp.limit_current(lat, v_plus, v_minus), limit_current_reference(lat, v_plus, v_minus))

    def test_constant_data(self, lat):
        v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        v[0] = 0.7
        out = sp.limit_current(lat, v, np.zeros_like(v))
        assert np.abs(out).max() < 1e-13

    def test_plane_wave_momentum(self, lat):
        v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        v[0] = plane_wave(lat, (1, 0, 0))
        out = sp.limit_current(lat, v, np.zeros_like(v))
        assert np.abs(out[0] - 1.0).max() < 1e-12
        assert np.abs(out[1:]).max() < 1e-12

    def test_antisymmetry_under_swap(self, lat):
        v = fc.dealias(lat, random_spinor(lat, 14, comps=2))
        fwd = sp.limit_current(lat, v, v)
        assert np.abs(fwd).max() < 1e-11  # equal inputs cancel

    def test_spin_part_divergence_free(self, lat):
        v = fc.dealias(lat, random_spinor(lat, 15, comps=2))
        spin_curl = 0.5 * fc.curl(lat, sp.spin_density(v))
        assert fc.l2_norm(lat, fc.divergence(lat, spin_curl)) < 1e-10


class TestPauliCurrent:
    def test_constant_chi_no_field(self, lat):
        chi = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        chi[0] = 1.0
        assert np.abs(sp.pauli_current(lat, chi, np.zeros((3, lat.n, lat.n, lat.n)), 0.5)).max() < 1e-14

    def test_plane_wave(self, lat):
        chi = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        chi[1] = plane_wave(lat, (0, 1, 0))
        J = sp.pauli_current(lat, chi, np.zeros((3, lat.n, lat.n, lat.n)), 0.0)
        assert np.abs(J[1] - 1.0).max() < 1e-12

    def test_constant_field_drift(self, lat):
        chi = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
        chi[0] = 0.8
        A = np.zeros((3, lat.n, lat.n, lat.n))
        A[2] = 1.5
        J = sp.pauli_current(lat, chi, A, 0.4)
        assert np.abs(J[2] + 0.4 * 0.64 * 1.5).max() < 1e-13

    def test_non_polarised_chi_in_a_field(self, lat):
        # the covariant-derivative form Im <chi, (grad - i eps A) chi> plus the spin curl
        eps = 0.4
        chi = fc.dealias(lat, random_spinor(lat, 18, comps=2))
        A = fc.leray_project(lat, fc.dealias(lat, np.random.default_rng(19).standard_normal((3, lat.n, lat.n, lat.n))))
        cov = fc.gradient(lat, chi) - 1j * eps * A[None] * chi[:, None]
        want = np.imag(np.sum(np.conj(chi)[:, None] * cov, axis=0)) + 0.5 * fc.curl(lat, sp.spin_density(chi))
        got = sp.pauli_current(lat, chi, A, eps)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestCounterexampleRemark:
    def test_current_misses_weak_limit_at_t0(self, lat):
        v = v_plus_profile(lat, 0.5)
        for eps in (0.4, 0.2, 0.1):
            psi0 = sp.embed_upper(v) + sp.embed_lower(eps * v)
            J = sp.current_density(psi0, eps)
            expected = 2.0 * sp.spin_density(v)
            assert np.abs(J - expected).max() < 1e-11  # eps-independent value
            J_lim = sp.limit_current(lat, v, np.zeros_like(v))
            assert fc.l2_norm(lat, J - J_lim) > 0.1
