import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from diracmaxwell import fourier as fc

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def lat():
    return fc.make_lattice(8, TWO_PI)


def plane_wave(lat, kvec):
    X1, X2, X3 = lat.grid()
    return np.exp(1j * (kvec[0] * X1 + kvec[1] * X2 + kvec[2] * X3)) + np.zeros((lat.n,) * 3)


def random_complex(lat, seed, shape=None):
    rng = np.random.default_rng(seed)
    shape = shape or (lat.n, lat.n, lat.n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestLattice:
    def test_frequencies_small(self):
        # FFT order, the unmatched Nyquist index -n/2 zeroed
        lat = fc.make_lattice(4, TWO_PI)
        for k, axis in ((lat.kx, 0), (lat.ky, 1), (lat.kz, 2)):
            assert k.shape == tuple(4 if a == axis else 1 for a in range(3))
            assert k.ravel().tolist() == [0.0, 1.0, 0.0, -1.0]

    def test_point_count_and_max_frequency(self):
        lat = fc.make_lattice(8, TWO_PI)
        assert lat.n**3 == 512
        assert max(np.max(np.abs(k)) for k in (lat.kx, lat.ky, lat.kz)) == 3.0

    def test_frequency_spacing(self):
        lat = fc.make_lattice(8, 2 * TWO_PI)
        for k in (lat.kx, lat.ky, lat.kz):
            freqs = np.sort(np.delete(k.ravel(), lat.n // 2))
            assert np.allclose(np.diff(freqs), 0.5)

    @pytest.mark.parametrize("n", [3, 2, 7])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            fc.make_lattice(n, TWO_PI)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            fc.make_lattice(8, 0.0)

    def test_roundtrip(self, lat):
        f = random_complex(lat, 0)
        assert np.abs(lat.ifft(lat.fft(f)) - f).max() < 1e-12

    def test_real_field_conjugate_symmetry(self, lat):
        f = random_complex(lat, 1).real
        fhat = lat.fft(f)
        n = lat.n
        idx = (-np.arange(n)) % n
        mirrored = np.conj(fhat[np.ix_(idx, idx, idx)])
        assert np.abs(fhat - mirrored).max() < 1e-12 * np.abs(fhat).max()


class TestSplitTransforms:
    """From n = 32 a multi-component transform is split by component across
    the cores; each component takes the 1-D passes of the batched call, so
    the result equals np.fft's bit for bit.  Three cores are assumed, so
    chunks of one and of two components run in the pool on any host."""

    AXES = (-3, -2, -1)

    @pytest.fixture(autouse=True)
    def three_cores(self, monkeypatch):
        monkeypatch.setattr(fc, "_CORES", 3)

    @staticmethod
    def fields(n, c):
        f = random_complex(fc.make_lattice(n, TWO_PI), 50 + c, shape=(c, n, n, n))
        return {"complex": f, "complex strided": f.transpose(0, 1, 3, 2), "leading slice": f[: max(1, c - 1)],
                "real": f.real.copy(), "real strided": f.imag.transpose(0, 2, 1, 3)}

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [32, 64])
    def test_forward_and_inverse_equal_numpy(self, n, c):
        lat = fc.make_lattice(n, TWO_PI)
        for name, f in self.fields(n, c).items():
            assert np.array_equal(lat.fft(f), np.fft.fftn(f, axes=self.AXES)), name
            assert np.array_equal(lat.ifft(f), np.fft.ifftn(f, axes=self.AXES)), name
            if np.isrealobj(f):
                assert np.array_equal(lat.rfft(f), np.fft.rfftn(f, axes=self.AXES)), name

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [32, 64])
    def test_real_inverse_equals_numpy(self, n, c):
        lat = fc.make_lattice(n, TWO_PI)
        f = self.fields(n, c)["real"]
        half = lat.rfft(f)
        # a carried half spectrum, and one cut from a full spectrum (strided)
        for fhat in (half, half[::-1], lat.fft(f)[..., : n // 2 + 1]):
            got = lat.irfft(fhat)
            assert np.array_equal(got, np.fft.irfftn(fhat, s=(n,) * 3, axes=self.AXES))
            assert got.dtype == np.float64
        assert np.array_equal(lat.rfft(f), half)  # the input spectrum is left as it was

    def test_small_grids_and_scalars_stay_serial(self, monkeypatch):
        monkeypatch.setattr(fc, "_by_component", None)  # a split would fail
        for n, shape in ((24, (4, 24, 24, 24)), (32, (32, 32, 32)), (32, (1, 32, 32, 32))):
            lat = fc.make_lattice(n, TWO_PI)
            f = random_complex(lat, 7, shape=shape)
            assert np.array_equal(lat.ifft(lat.fft(f)), np.fft.ifftn(np.fft.fftn(f, axes=self.AXES), axes=self.AXES))
            assert np.array_equal(lat.irfft(lat.rfft(f.real)), np.fft.irfftn(np.fft.rfftn(f.real, axes=self.AXES),
                                                                             s=(n,) * 3, axes=self.AXES))

    def test_concurrent_callers_get_their_own_results(self):
        # more callers than cores, switching often, all sharing the pool
        lat = fc.make_lattice(32, TWO_PI)
        fields = [random_complex(lat, s, shape=(3, 32, 32, 32)) for s in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as callers:
                got = [job.result(timeout=60) for job in [callers.submit(lat.fft, f) for f in fields]]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, np.fft.fftn(f, axes=self.AXES)) for g, f in zip(got, fields))


class TestSymbols:
    def test_identity_symbol(self, lat):
        f = plane_wave(lat, (1, 0, 0))
        m = np.ones((lat.n,) * 3)
        assert np.abs(fc.apply_symbol(lat, f, m) - f).max() < 1e-13

    def test_laplacian_symbol_on_plane_wave(self, lat):
        f = plane_wave(lat, (1, 0, 0))
        m = lat.kx**2 + lat.ky**2 + lat.kz**2
        assert np.abs(fc.apply_symbol(lat, f, m) - f).max() < 1e-12

    def test_abs_k_kills_constant(self, lat):
        f = np.ones((lat.n,) * 3, dtype=complex)
        m = np.sqrt(lat.kx**2 + lat.ky**2 + lat.kz**2)
        assert np.abs(fc.apply_symbol(lat, f, m)).max() < 1e-14

    def test_single_mode_diagonality(self, lat):
        # multiplier maps exp(i k0 x) to m(k0) exp(i k0 x) exactly
        m = 1.0 + lat.kx**2 + 0.5 * lat.ky - lat.kz
        for kvec in ((1, 0, 0), (2, -1, 0), (0, 3, -2)):
            f = plane_wave(lat, kvec)
            expected = (1.0 + kvec[0] ** 2 + 0.5 * kvec[1] - kvec[2]) * f
            assert np.abs(fc.apply_symbol(lat, f, m) - expected).max() < 1e-11


# every multiplier helper, with a real-even or imaginary-odd symbol
MULTIPLIER_HELPERS = {
    "apply_symbol": lambda lat, f: fc.apply_symbol(lat, f, 1j * lat.kx * (1.0 + lat.k_sq)),
    "dealias": fc.dealias,
    "laplacian": fc.laplacian,
    "poisson_solve": fc.poisson_solve,
    "inv_abs_nabla": fc.inv_abs_nabla,
    "riesz_transform": lambda lat, f: fc.riesz_transform(lat, f, 1),
    "littlewood_paley": lambda lat, f: littlewood_paley(lat, f, 2.0),
    "lambda_eps": lambda lat, f: np.stack([fc.lambda_eps(lat, f, 0.3, p) for p in (1, -1)]),
    "h_eps": lambda lat, f: fc.apply_symbol(lat, f, fc.h_eps_symbol(lat, 0.5)),
}


class TestSingleMultiplierPath:
    """A real field, with content in every mode (the Nyquist planes included),
    goes through the real transform pair and gives the real part of the
    complex path's result, as a float64 array."""

    @pytest.mark.parametrize("name", sorted(MULTIPLIER_HELPERS))
    def test_real_input_gives_real_part_of_complex_path(self, lat, name):
        helper = MULTIPLIER_HELPERS[name]
        f = random_complex(lat, 40, shape=(2, lat.n, lat.n, lat.n)).real.copy()
        out, ref = helper(lat, f), helper(lat, f + 0j)
        assert out.dtype == np.float64 and out.shape == ref.shape
        assert np.abs(out - ref.real).max() <= 1e-13 * np.abs(ref).max()

    def test_transforms_only_in_fourier(self):
        # every transform goes through this module, where it can be counted
        src = Path(fc.__file__).parent
        users = sorted(p.name for p in src.glob("*.py") if re.search(r"\b(np|numpy)\.fft\b", p.read_text()))
        assert users == ["fourier.py"]


class TestLambdaEps:
    def test_plane_wave_value(self, lat):
        f = plane_wave(lat, (2, 0, 0))
        out = fc.lambda_eps(lat, f, 0.5, 1)
        assert np.abs(out - np.sqrt(2.0) * f).max() < 1e-12

    def test_constant_unchanged(self, lat):
        f = np.full((lat.n,) * 3, 1.7 + 0.2j)
        for power in (1, -1):
            assert np.abs(fc.lambda_eps(lat, f, 0.3, power) - f).max() < 1e-13

    def test_inverse_value(self, lat):
        f = plane_wave(lat, (2, 0, 0))
        out = fc.lambda_eps(lat, f, 0.5, -1)
        assert np.abs(out - f / np.sqrt(2.0)).max() < 1e-12

    def test_rejects_nonpositive_eps(self, lat):
        with pytest.raises(ValueError):
            fc.lambda_eps(lat, plane_wave(lat, (1, 0, 0)), 0.0, 1)

    @pytest.mark.parametrize("eps", [0.125, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
    def test_inverse_sobolev_bound(self, lat, eps, r):
        # ||lam^-1 f||_{H^s} <= eps^-r ||f||_{H^{s-r}} for 0 <= r <= 1
        f = random_complex(lat, 5)
        sigma = 0.7
        lhs = fc.sobolev_norm(lat, fc.lambda_eps(lat, f, eps, -1), sigma)
        rhs = eps ** (-r) * fc.sobolev_norm(lat, f, sigma - r)
        assert lhs <= rhs * (1 + 1e-12)


class TestHEps:
    def test_eps_zero_is_half_laplacian(self, lat):
        f = plane_wave(lat, (1, 0, 0))
        assert np.abs(fc.apply_symbol(lat, f, fc.h_eps_symbol(lat, 0.0)) - 0.5 * f).max() < 1e-12

    def test_constant_killed(self, lat):
        f = np.ones((lat.n,) * 3, dtype=complex)
        assert np.abs(fc.apply_symbol(lat, f, fc.h_eps_symbol(lat, 0.7))).max() < 1e-14

    def test_eps_one_value(self, lat):
        f = plane_wave(lat, (1, 0, 0))
        out = fc.apply_symbol(lat, f, fc.h_eps_symbol(lat, 1.0))
        assert np.abs(out - f / (1.0 + np.sqrt(2.0))).max() < 1e-12

    @pytest.mark.parametrize("eps", [0.125, 0.25, 0.5, 1.0])
    def test_dispersion_gap_bound(self, eps):
        # 0 <= |k|/eps - h_eps(k) <= 1/eps^2 pointwise off the zero mode
        lat = fc.make_lattice(16, TWO_PI)
        nz = ~lat.zero_modes
        gap = lat.k_abs[nz] / eps - fc.h_eps_symbol(lat, eps)[nz]
        assert gap.min() >= 0.0
        assert gap.max() <= 1.0 / eps**2


class TestLeray:
    def test_divergence_free_fixed(self, lat):
        X1, X2, X3 = lat.grid()
        u = np.zeros((3, lat.n, lat.n, lat.n))
        u[0] = np.sin(X2) + np.zeros((lat.n,) * 3)
        assert np.abs(fc.leray_project(lat, u) - u).max() < 1e-13

    def test_gradients_annihilated(self, lat):
        X1, _, _ = lat.grid()
        g = fc.gradient(lat, np.sin(X1) + np.zeros((lat.n,) * 3))
        assert np.abs(fc.leray_project(lat, g)).max() < 1e-13

    def test_per_mode_projector(self, lat):
        X1, _, _ = lat.grid()
        cos1 = np.cos(X1) + np.zeros((lat.n,) * 3)
        u = np.stack([cos1, cos1, np.zeros((lat.n,) * 3)])
        out = fc.leray_project(lat, u)
        assert np.abs(out[0]).max() < 1e-13
        assert np.abs(out[1] - cos1).max() < 1e-13

    def test_idempotent_and_divergence_free(self, lat):
        u = np.stack([random_complex(lat, i).real for i in range(3)])
        pu = fc.leray_project(lat, u)
        assert np.abs(fc.leray_project(lat, pu) - pu).max() < 1e-12
        assert fc.l2_norm(lat, fc.divergence(lat, pu)) < 1e-12


class TestGradient:
    def test_batched_equals_per_component(self, lat):
        f = np.stack([random_complex(lat, 20), random_complex(lat, 21)])
        ref = np.stack([fc.gradient(lat, f[a]) for a in range(2)])
        out = fc.gradient(lat, f)
        assert out.shape == (2, 3, lat.n, lat.n, lat.n)
        assert np.abs(out - ref).max() < 1e-12

    def test_real_field_stays_real(self, lat):
        X1, X2, _ = lat.grid()
        f = np.sin(X1) * np.cos(2 * X2) + np.zeros((lat.n,) * 3)
        out = fc.gradient(lat, f)
        assert np.isrealobj(out) and out.shape == (3, lat.n, lat.n, lat.n)
        assert np.abs(out[0] - np.cos(X1) * np.cos(2 * X2)).max() < 1e-13
        assert np.abs(out[1] + 2 * np.sin(X1) * np.sin(2 * X2)).max() < 1e-13
        assert np.abs(out[2]).max() < 1e-13


def derivative_3d(lat, f, j):
    """d/dx_j by a full 3-D transform pair: ifftn(1j k_j fftn(f)), or the rfftn pair for real f."""
    k = (lat.kx, lat.ky, lat.kz)[j]
    if np.isrealobj(f):
        fhat = lat.rfft(f)
        return lat.irfft(1j * k[..., : fhat.shape[-1]] * fhat)
    return lat.ifft(1j * k * lat.fft(f))


class TestSerialTransforms:
    """Below 32**3 points per component, and for scalars, a transform runs
    np.fft's passes in one call on the calling thread, each pass writing into
    one preallocated output: the result equals np.fft's, dtype included."""

    AXES = (-3, -2, -1)

    @staticmethod
    def fields(n):
        z = random_complex(fc.make_lattice(n, TWO_PI), 60 + n, shape=(4, n, n, n))
        out = {"scalar": z[0], "strided": z[:2], "reversed": z[::-1], "transposed": z[:3].swapaxes(-1, -2)}
        out.update({f"{c} components": z[:c].copy() for c in range(1, 5)})
        out.update({f"real {name}": f.real for name, f in list(out.items())})
        return out

    @pytest.mark.parametrize("n", [8, 24])
    def test_equal_numpy_bit_for_bit(self, n):
        lat = fc.make_lattice(n, TWO_PI)
        for name, f in self.fields(n).items():
            for got, want in ((lat.fft(f), np.fft.fftn(f, axes=self.AXES)),
                              (lat.ifft(f), np.fft.ifftn(f, axes=self.AXES))):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            if np.isrealobj(f):
                half = np.fft.rfftn(f, axes=self.AXES)
                assert np.array_equal(lat.rfft(f), half), name
                for h in (half, half[::-1]):
                    got = lat.irfft(h)
                    assert got.dtype == np.float64, name
                    assert np.array_equal(got, np.fft.irfftn(h, s=(n,) * 3, axes=self.AXES)), name

    def test_single_precision_keeps_its_dtype(self, lat):
        f = random_complex(lat, 61, shape=(2, lat.n, lat.n, lat.n)).astype(np.complex64)
        assert lat.fft(f).dtype == lat.ifft(f).dtype == lat.rfft(f.real).dtype == np.complex64
        assert np.array_equal(lat.fft(f), np.fft.fftn(f, axes=self.AXES))
        assert lat.irfft(lat.rfft(f.real)).dtype == np.float32
        for g in (f, f.real):
            assert fc.partial(lat, g, 1).dtype == partial_by_formula(lat, g, 1).dtype

    @pytest.mark.parametrize("n", [8, 24])
    def test_partial_equals_the_formula_bit_for_bit(self, n):
        lat = fc.make_lattice(n, TWO_PI)
        f = random_complex(lat, 62, shape=(2, n, n, n))
        for g in (f, f.real.copy(), f[1], f.real[::-1]):
            for j in range(3):
                got, want = fc.partial(lat, g, j), partial_by_formula(lat, g, j)
                assert got.dtype == want.dtype and np.array_equal(got, want), (g.dtype, j)

    def test_one_output_array_per_transform(self, monkeypatch):
        # a pass that returned a fresh array would hold two outputs at its peak
        lat = fc.make_lattice(24, TWO_PI)
        f = random_complex(lat, 63, shape=(4, 24, 24, 24))
        monkeypatch.setattr(fc, "_CORES", 1)
        for transform, arg in ((lat.fft, f), (lat.ifft, f), (lambda g: fc.partial(lat, g, 1), f)):
            tracemalloc.start()
            try:
                out = transform(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * out.nbytes


class TestBySlab:
    """by_slab cuts the first spatial axis into slabs of 2**13 // n**2 planes
    (at least one) and, from n = 32, hands them to the cores in turn.  Three
    cores are assumed, so the pool runs on any host."""

    @pytest.fixture(autouse=True)
    def three_cores(self, monkeypatch):
        monkeypatch.setattr(fc, "_CORES", 3)

    @pytest.mark.parametrize("n, planes", [(24, [14, 10]), (32, [8] * 4), (48, [3] * 16), (64, [2] * 32),
                                           (128, [1] * 128)])
    def test_slabs_cover_the_axis_once(self, n, planes):
        seen = []
        fc.by_slab(lambda s: seen.append((s.start, len(range(n)[s]), threading.get_ident())), n)
        starts, sizes, threads = zip(*sorted(seen))
        assert list(sizes) == planes and list(starts) == [sum(planes[:i]) for i in range(len(planes))]
        assert (set(threads) == {threading.get_ident()}) == (n < 32)  # the pool from 32**3 points only

    @pytest.mark.parametrize("n, bad", [(24, 0), (24, 14), (32, 0), (32, 8), (32, 24)])
    def test_an_error_in_any_slab_reaches_the_caller(self, n, bad):
        # at n = 32 the calling thread runs slabs 0 and 24, the pool 8 and 16
        def job(s):
            if s.start == bad:
                raise ArithmeticError(f"slab {bad}")
        with pytest.raises(ArithmeticError, match=f"slab {bad}"):
            fc.by_slab(job, n)


def partial_by_formula(lat, f, j):
    """d/dx_j by the 1-D pair with a fresh array for each pass and the product."""
    axis, ik = j - 3, 1j * (lat.kx, lat.ky, lat.kz)[j]
    if np.isrealobj(f):
        ik = ik.take(range(lat.n // 2 + 1), axis=j)
        return np.fft.irfft(ik * np.fft.rfft(f, axis=axis), n=lat.n, axis=axis)
    return np.fft.ifft(ik * np.fft.fft(f, axis=axis), axis=axis)


def assert_rel_close(out, ref, rtol):
    assert out.shape == ref.shape and np.isrealobj(out) == np.isrealobj(ref)
    assert np.abs(out - ref).max() <= rtol * np.abs(ref).max()


class TestPartial:
    """One 1-D pair along axis j against the 3-D formula, on random fields,
    whose spectra fill every mode, the Nyquist planes included."""

    @pytest.fixture(params=["real", "complex"])
    def field(self, request, lat):
        f = random_complex(lat, 30, shape=(2, lat.n, lat.n, lat.n))
        return f.real.copy() if request.param == "real" else f

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_partial_matches_3d_transform(self, lat, field, j):
        assert_rel_close(fc.partial(lat, field, j), derivative_3d(lat, field, j), 1e-13)

    def test_gradient_divergence_curl_match_3d(self, lat, field):
        u = np.concatenate([field, field[:1] ** 2])  # a vector field
        d = [[derivative_3d(lat, u[c], j) for j in range(3)] for c in range(3)]
        grad = np.stack([derivative_3d(lat, field, j) for j in range(3)], axis=-4)
        assert_rel_close(fc.gradient(lat, field), grad, 1e-13)
        assert_rel_close(fc.divergence(lat, u), d[0][0] + d[1][1] + d[2][2], 1e-13)
        curl = np.stack([d[2][1] - d[1][2], d[0][2] - d[2][0], d[1][0] - d[0][1]])
        assert_rel_close(fc.curl(lat, u), curl, 1e-13)

    def test_div_curl_and_curl_grad_vanish(self, lat, field):
        u = np.concatenate([field, field[:1] ** 2])
        scale = np.abs(u).max() * np.abs(lat.kx).max() ** 2
        assert np.abs(fc.divergence(lat, fc.curl(lat, u))).max() < 1e-13 * scale
        assert np.abs(fc.curl(lat, fc.gradient(lat, field[0]))).max() < 1e-13 * scale

    def test_nyquist_content_is_annihilated(self, lat):
        # the unmatched -n/2 mode along the derivative axis has zeroed frequency
        X1, _, _ = lat.grid()
        f = np.cos(lat.n // 2 * X1) + np.zeros((lat.n,) * 3)
        assert np.abs(fc.partial(lat, f, 0)).max() < 1e-13
        assert np.abs(fc.partial(lat, f + 0j, 0)).max() < 1e-13


class TestModeMultipliers:
    def test_arrays_read_only(self, lat):
        mm = fc.mode_multipliers(lat, 0.3, 0.01)
        for a in (mm.lam, *mm.dirac, *mm.wave):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0, 0] = 1.0

    def test_rejects_nonpositive_eps(self, lat):
        with pytest.raises(ValueError):
            fc.mode_multipliers(lat, 0.0, 0.01)

    def test_one_lam_per_eps(self, lat):
        lam = fc.mode_multipliers(lat, 0.3, 0.0).lam
        for dt in (0.01, 0.005, -0.01):
            assert fc.mode_multipliers(lat, 0.3, dt).lam is lam

    def test_kinetic_arrays_read_only_and_exact(self, lat):
        dt = 0.013
        kin = np.exp(-1j * lat.k_sq * dt / 2.0)
        got = fc.kinetic_multipliers(lat, dt)
        for a, want in zip(got, (kin, np.conj(kin))):
            assert np.array_equal(a, want)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0, 0] = 1.0


class TestPoisson:
    def test_eigenfunction(self, lat):
        X1, _, _ = lat.grid()
        rho = np.cos(X1) + np.zeros((lat.n,) * 3)
        assert np.abs(fc.poisson_solve(lat, rho) + rho).max() < 1e-13

    def test_constant_source(self, lat):
        rho = np.full((lat.n,) * 3, 3.2)
        assert np.abs(fc.poisson_solve(lat, rho)).max() < 1e-13

    def test_two_modes(self, lat):
        X1, X2, _ = lat.grid()
        rho = np.cos(X1) + np.cos(2 * X2) + np.zeros((lat.n,) * 3)
        expected = -np.cos(X1) - 0.25 * np.cos(2 * X2) + np.zeros((lat.n,) * 3)
        assert np.abs(fc.poisson_solve(lat, rho) - expected).max() < 1e-13

    def test_laplacian_inverts_to_mean_free_source(self, lat):
        # band-limited source: corners carrying the unmatched Nyquist index
        # are zero-like under the lattice convention, so dealias first
        rho = fc.dealias(lat, random_complex(lat, 7).real)
        A0 = fc.poisson_solve(lat, rho)
        assert np.abs(fc.laplacian(lat, A0) - (rho - rho.mean())).max() < 1e-10


def littlewood_paley(lat, f, mu):
    """The dyadic block of f at scale mu: its lp_window applied as a multiplier."""
    return fc.apply_symbol(lat, f, fc.lp_window(lat, mu, "mu"))


class TestLittlewoodPaley:
    def test_unit_frequency_inside_unit_block(self, lat):
        f = plane_wave(lat, (1, 0, 0))
        assert np.abs(littlewood_paley(lat, f, 1.0) - f).max() < 1e-13

    def test_constant_killed(self, lat):
        f = np.ones((lat.n,) * 3, dtype=complex)
        for mu in (0.5, 1.0, 2.0):
            assert np.abs(littlewood_paley(lat, f, mu)).max() < 1e-14

    def test_three_block_resum(self, lat):
        f = plane_wave(lat, (0, 3, 0))
        resum = sum(littlewood_paley(lat, f, mu) for mu in (1.0, 2.0, 4.0))
        assert np.abs(resum - f).max() < 1e-12

    def test_partition_of_unity_random(self, lat):
        f = random_complex(lat, 9)
        fhat = lat.fft(f)
        fhat[lat.zero_modes] = 0.0  # blocks cover only the nonzero modes
        f = lat.ifft(fhat)
        # the nonzero |k| of this lattice lie in [1, 3 sqrt(3)], where the
        # blocks at these scales resum to the identity
        resum = sum(littlewood_paley(lat, f, mu) for mu in (1.0, 2.0, 4.0, 8.0, 16.0))
        assert np.abs(resum - f).max() < 1e-10

    def test_rejects_non_dyadic(self, lat):
        with pytest.raises(ValueError, match="mu: 3.0 is not a dyadic number"):
            fc.lp_window(lat, 3.0, "mu")


class TestNorms:
    def test_constant_l2(self, lat):
        f = np.ones((lat.n,) * 3)
        assert fc.sobolev_norm(lat, f, 0.0) == pytest.approx(TWO_PI**1.5, rel=1e-12)

    def test_plane_wave_h1(self, lat):
        f = plane_wave(lat, (1, 0, 0))
        assert fc.sobolev_norm(lat, f, 1.0) == pytest.approx(np.sqrt(2) * TWO_PI**1.5, rel=1e-12)

    def test_constant_homogeneous_is_zero(self, lat):
        f = np.ones((lat.n,) * 3)
        assert fc.sobolev_norm(lat, f, 1.0, homogeneous=True) == 0.0

    def test_homogeneous_negative_s_requires_mean_free(self, lat):
        f = np.ones((lat.n,) * 3)
        with pytest.raises(ValueError):
            fc.sobolev_norm(lat, f, -0.5, homogeneous=True)

    def test_parseval(self, lat):
        f = random_complex(lat, 15)
        assert fc.sobolev_norm(lat, f, 0.0) == pytest.approx(fc.l2_norm(lat, f), rel=1e-12)
        for s, homogeneous in ((0.0, False), (1.0, False), (1.0, True)):
            assert fc.sobolev_norm_hat(lat, lat.fft(f), s, homogeneous) == fc.sobolev_norm(lat, f, s, homogeneous)

    @pytest.mark.parametrize("components", [(), (3,)])
    @pytest.mark.parametrize("s, homogeneous", [(0.0, False), (1.0, False), (1.0, True), (-0.5, True)])
    def test_real_and_complex_paths_agree(self, lat, components, s, homogeneous):
        # a random real field has Nyquist content on every axis
        f = random_complex(lat, 21, shape=(*components, lat.n, lat.n, lat.n)).real
        if s < 0:
            f = f - f.mean(axis=(-3, -2, -1), keepdims=True)
        got = fc.sobolev_norm(lat, f, s, homogeneous)
        assert fc.sobolev_norm_hat(lat, lat.rfft(f), s, homogeneous) == got
        assert got == pytest.approx(fc.sobolev_norm_hat(lat, lat.fft(f), s, homogeneous), rel=1e-13)

    def test_lp_constant(self, lat):
        f = np.ones((lat.n,) * 3)
        assert fc.lp_norm(lat, f, 2.0) == pytest.approx(TWO_PI**1.5, rel=1e-12)

    def test_lp_zero(self, lat):
        f = np.zeros((lat.n,) * 3)
        for p in (1.0, 2.0, 3.0):
            assert fc.lp_norm(lat, f, p) == 0.0

    def test_lp_rejects_small_p(self, lat):
        with pytest.raises(ValueError):
            fc.lp_norm(lat, np.ones((lat.n,) * 3), 0.5)

    def test_lp_rejects_infinite_p(self, lat):
        with pytest.raises(ValueError, match="p must be finite and >= 1, got inf"):
            fc.lp_norm(lat, np.ones((lat.n,) * 3), np.inf)


class TestSnapshotIO:
    def test_roundtrip_complex(self, lat, tmp_path):
        f = random_complex(lat, 17, shape=(4, lat.n, lat.n, lat.n))
        path = tmp_path / "field.fld"
        fc.write_fld(path, lat, f, time=0.25)
        header, values = fc.read_fld(path)
        assert header["grid_n"] == lat.n
        assert header["components"] == 4
        assert header["time"] == 0.25
        assert np.array_equal(values, f)
        assert path.read_bytes().split(b"\n", 1)[1] == f.astype("<c16").tobytes()

    def test_roundtrip_real_scalar(self, lat, tmp_path):
        f = random_complex(lat, 19).real
        path = tmp_path / "rho.fld"
        fc.write_fld(path, lat, f, 0.0)
        header, values = fc.read_fld(path)
        assert header["dtype"] == "float64"
        assert np.array_equal(values, f)
        assert path.read_bytes().split(b"\n", 1)[1] == f.astype("<f8").tobytes()

    @pytest.mark.parametrize("change", [-8, 16])
    def test_payload_length_checked(self, lat, tmp_path, change):
        path = tmp_path / "x.fld"
        fc.write_fld(path, lat, np.zeros((2, lat.n, lat.n, lat.n), dtype=complex), 0.0)
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + bytes(change))
        expected = 2 * lat.n**3 * 16
        with pytest.raises(ValueError, match=f"payload has {expected + change} bytes.*needs {expected}"):
            fc.read_fld(path)

    def test_header_is_one_json_line(self, lat, tmp_path):
        path = tmp_path / "x.fld"
        fc.write_fld(path, lat, np.zeros((lat.n,) * 3), 0.0)
        import json

        with open(path, "rb") as fh:
            json.loads(fh.readline())
