"""Periodic Fourier lattice and the spectral operator toolbox.

Everything downstream (Dirac, wave and Schrodinger propagators, projections,
norms) is built on the plain-numpy primitives in this module.  Conventions,
fixed once and for all:

* The domain is the torus ``[0, L)^3`` sampled on an ``n**3`` grid.  Fields
  are bare ndarrays; scalars have shape ``(n, n, n)`` and multi-component
  fields carry a leading axis (3 for vectors, 2/4 for spinors).
* Dual frequencies are ``k * 2*pi/L`` with ``k in {-n/2, ..., n/2 - 1}`` per
  axis, stored in FFT order.  The unmatched Nyquist index ``-n/2`` has no
  conjugate partner on the grid, so every symbol is evaluated with that
  frequency component replaced by zero (``lat.kx/ky/kz``).  Odd symbols such
  as derivatives therefore annihilate Nyquist content and real fields stay
  real; modes whose zeroed frequency vanishes entirely (the mean mode and the
  Nyquist "corners") behave like the zero mode and are dropped wherever an
  inverse symbol or a homogeneous weight would be singular.
* Poisson inversion uses the jellium convention: the source mean is removed
  and the solution mean is pinned to zero.
* One multiplier path: every scalar Fourier multiplier is applied by
  ``apply_symbol``, the one place that picks the 3-D transform pair.  Real
  in gives real out: a real field takes ``Lattice.rfft``/``irfft``, whose
  spectra keep the modes with last-axis index <= n/2 (``on_modes`` cuts a
  full-grid multiplier to them); a complex field takes the complex pair.
  The real pair is exact because every multiplier applied to real fields
  satisfies m(-k) = conj(m(k)) on the lattice; the Schrodinger flows, which
  do not, act on complex spinors only.
* Derivatives (``partial``, and ``gradient``, ``divergence`` and ``curl`` on
  it) take one 1-D transform pair along the derivative axis, not a 3-D pair.
* The four 3-D transforms of ``Lattice`` run the 1-D passes of the batched
  ``np.fft`` call, every pass writing into one output allocated per call
  (``irfft`` takes the first two in place on a copy), so the result is
  ``np.fft``'s, bit for bit and dtype included.  From 32**3 points per
  component a multi-component float64/complex128 transform runs one chunk of
  components per usable core, and ``by_slab`` hands the slabs of a pointwise
  kernel (``slabwise``: block products, potential kick, current, charge, the
  wave and Leray products) or of a norm's sum (``slab_sum``, added in slab
  order) to the cores in turn: the calling thread and a pool of cores - 1
  threads started on first use.  A job writes into its slice of one output its
  caller allocated, or returns its partial sum, and submits no further job.
  Below 32**3 points the slabs run on the calling thread, as do ``partial``
  and the transforms of a scalar field (Poisson).

Everything here is a pure function of immutable inputs (the Lattice caches
are computed once and never mutated, and ``mode_multipliers``,
``kinetic_multipliers`` and ``sobolev_weight`` hand out read-only arrays),
and a split job writes only into the output of its own call, so concurrent
use from multiple threads is safe.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from dataclasses import dataclass, field

import numpy as np

_SPATIAL_AXES = (-3, -2, -1)


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t<=0, 1 for t>=1, strictly monotone between."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def bump_profile(r: np.ndarray) -> np.ndarray:
    """Radial cutoff theta(r): 1 on r<=1, 0 on r>=2, smooth in between.

    The Littlewood-Paley block at scale mu uses beta(xi) = theta(|xi|) -
    theta(2|xi|), supported on 1/2 <= |xi| <= 2, and sum_j beta(xi/2^j) = 1
    for xi != 0 by telescoping.
    """
    return 1.0 - _smooth_step(np.asarray(r, dtype=float) - 1.0)


@dataclass(frozen=True)
class Lattice:
    """Uniform periodic grid on [0, L)^3 together with its dual lattice."""

    n: int
    period: float
    # broadcastable frequency arrays with the Nyquist component zeroed
    kx: np.ndarray = field(init=False, repr=False, compare=False)
    ky: np.ndarray = field(init=False, repr=False, compare=False)
    kz: np.ndarray = field(init=False, repr=False, compare=False)
    k_sq: np.ndarray = field(init=False, repr=False, compare=False)
    k_abs: np.ndarray = field(init=False, repr=False, compare=False)
    # -1/|k|^2, zero on the zero-like modes: the jellium Poisson inverse
    inv_laplacian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, L = self.n, self.period
        if n % 2 != 0 or n < 4:
            raise ValueError(f"grid size n must be even and >= 4, got {n}")
        if not (L > 0):
            raise ValueError(f"period must be positive, got {L}")
        sym = 2.0 * np.pi / L * np.fft.fftfreq(n, d=1.0 / n)
        sym[n // 2] = 0.0  # unmatched Nyquist mode: zeroed in all symbols
        object.__setattr__(self, "kx", sym.reshape(n, 1, 1))
        object.__setattr__(self, "ky", sym.reshape(1, n, 1))
        object.__setattr__(self, "kz", sym.reshape(1, 1, n))
        k_sq = self.kx**2 + self.ky**2 + self.kz**2
        object.__setattr__(self, "k_sq", k_sq)
        object.__setattr__(self, "k_abs", np.sqrt(k_sq))
        object.__setattr__(self, "inv_laplacian", -_reciprocal(self, k_sq))

    # -- geometry ----------------------------------------------------------

    @property
    def cell_volume(self) -> float:
        return (self.period / self.n) ** 3

    @property
    def volume(self) -> float:
        return self.period**3

    def grid(self):
        """Sparse physical coordinate arrays (X1, X2, X3)."""
        x = np.arange(self.n) * (self.period / self.n)
        return (
            x.reshape(self.n, 1, 1),
            x.reshape(1, self.n, 1),
            x.reshape(1, 1, self.n),
        )

    @property
    def zero_modes(self) -> np.ndarray:
        """Mask of modes whose effective frequency vanishes (mean + corners)."""
        return self.k_sq == 0.0

    # -- transforms ---------------------------------------------------------

    def _run(self, transform, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """transform(f, out), split by component over the cores for a multi-component
        float64/complex128 field with at least 32**3 points per component."""
        if (_CORES > 1 and self.n**3 >= _SPLIT_POINTS and f.ndim > 3 and len(f) > 1
                and f.dtype in (np.float64, np.complex128)):
            return _by_component(transform, f, out)
        transform(f, out)
        return out

    def fft(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        return self._run(_fftn, f, np.empty(f.shape, np.result_type(f.dtype, 1j)))

    def ifft(self, fhat: np.ndarray) -> np.ndarray:
        fhat = np.asarray(fhat)
        return self._run(_ifftn, fhat, np.empty(fhat.shape, np.result_type(fhat.dtype, 1j)))

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Transform of a real field: the modes with last-axis index <= n/2."""
        f = np.asarray(f)
        return self._run(_rfftn, f, np.empty((*f.shape[:-1], self.n // 2 + 1), np.result_type(f.dtype, 1j)))

    def irfft(self, fhat: np.ndarray) -> np.ndarray:
        # the passes of irfftn, the first two in place on a copy; the output
        # goes first, since allocated after the copy it raised the peak RSS of
        # an n = 64 run-dm by 4 MB (heap layout)
        fhat = np.asarray(fhat)
        out = np.empty((*fhat.shape[:-1], self.n), np.result_type(fhat.real.dtype, 1.0))
        return self._run(_irfftn, fhat.astype(np.result_type(fhat.dtype, 1j)), out)

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True on modes kept (|index| <= n/3 per axis)."""
        idx = np.fft.fftfreq(self.n, d=1.0 / self.n)
        keep = np.abs(idx) <= self.n / 3.0
        return (
            keep.reshape(self.n, 1, 1)
            & keep.reshape(1, self.n, 1)
            & keep.reshape(1, 1, self.n)
        )


# -- component-parallel transforms ---------------------------------------------

_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# points per component from which transforms and by_slab's slabs use the pool
_SPLIT_POINTS = 32**3
_SLAB_POINTS = 2**13  # points of one by_slab slab: 128 KB per complex component
_pool = None
_pool_lock = threading.Lock()


def _workers():
    """The pool of _CORES - 1 threads, started on first use; runs that never
    split do not import concurrent.futures (~8 ms)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_CORES - 1, thread_name_prefix="fourier")
        return _pool


def _forget_workers():
    """A forked child has none of its parent's threads: it starts its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _fftn(f, out):
    np.fft.fftn(f, axes=_SPATIAL_AXES, out=out)


def _ifftn(fhat, out):
    np.fft.ifftn(fhat, axes=_SPATIAL_AXES, out=out)


def _rfftn(f, out):
    np.fft.rfftn(f, axes=_SPATIAL_AXES, out=out)


def _irfftn(fhat, out):
    np.fft.ifft(fhat, axis=-3, out=fhat)
    np.fft.ifft(fhat, axis=-2, out=fhat)
    np.fft.irfft(fhat, out.shape[-1], axis=-1, out=out)


def _on_cores(run, k: int) -> None:
    """run(0) on the calling thread and run(1), ..., run(k - 1) in the pool,
    joined before returning; an exception raised in any reaches the caller."""
    jobs = [_workers().submit(run, i) for i in range(1, k)]
    try:
        run(0)
    finally:
        for job in jobs:
            job.result()


def _by_component(transform, f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """transform(f[c], out[c]) over one chunk c of the leading axis per core.
    A job writes into its slice of out and allocates no full-grid array."""
    k = min(_CORES, len(f))
    edges = [-(-len(f) * i // k) for i in range(k + 1)]
    _on_cores(lambda i: transform(f[edges[i]:edges[i + 1]], out[edges[i]:edges[i + 1]]), k)
    return out


def by_slab(job, n: int) -> None:
    """job(s) for the slices s cutting axis -3 of an n**3 grid into slabs of
    max(1, _SLAB_POINTS // n**2) planes, which from _SPLIT_POINTS points the
    cores take in turn, the calling thread among them.  A job writes its slab
    of the caller's output, allocates only slab-sized arrays, submits no job."""
    step = max(1, _SLAB_POINTS // n**2)
    slabs = [slice(a, a + step) for a in range(0, n, step)]
    k = min(_CORES, len(slabs)) if n**3 >= _SPLIT_POINTS else 1

    def run(i):
        for s in slabs[i::k]:
            job(s)
    _on_cores(run, k)


def _on_slab(a, s):
    """a on the slab s of axis -3; tuples entry by entry, None, scalars and length-1 axes as they are."""
    if isinstance(a, tuple):
        return tuple([_on_slab(x, s) for x in a])
    return a if np.ndim(a) < 3 or a.shape[-3] == 1 else a[..., s, :, :]


def slabwise(kernel, out: np.ndarray, *args) -> np.ndarray:
    """out, filled by a pointwise kernel(out, *args) per slab (by_slab) on the slabs of out and args."""
    # lists, not generators: each resized tuple(generator) freed grows the tuple free list
    by_slab(lambda s: kernel(*[_on_slab(a, s) for a in (out, *args)]), out.shape[-3])
    return out


def slab_sum(job, n: int):
    """The sum of job(s) (floats or arrays) over the slabs s of by_slab, added in slab order."""
    parts = {}
    by_slab(lambda s: parts.__setitem__(s.start, job(s)), n)
    return sum(parts[a] for a in sorted(parts))


def make_lattice(n: int, L: float) -> Lattice:
    return Lattice(n, L)


def _transforms(lat: Lattice, f: np.ndarray):
    """(forward, inverse) transform pair for f: the real pair for real fields."""
    return (lat.rfft, lat.irfft) if np.isrealobj(f) else (lat.fft, lat.ifft)


def on_modes(a: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """A per-mode array (full grid, or broadcastable to it) on the modes of
    fhat, a full or a real-transform spectrum."""
    return a[..., : fhat.shape[-1]]


def _reciprocal(lat: Lattice, a: np.ndarray) -> np.ndarray:
    """1/a, and 0 on the zero-like modes, where a homogeneous symbol vanishes."""
    with np.errstate(divide="ignore"):
        return np.where(lat.zero_modes, 0.0, 1.0 / a)


def apply_symbol(lat: Lattice, f: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Multiply the Fourier coefficients of f pointwise by mult(k), a per-mode
    array; real f takes the real transform pair and gives a real result."""
    fwd, inv = _transforms(lat, f)
    fhat = fwd(f)
    return inv(on_modes(mult, fhat) * fhat)


def dealias(lat: Lattice, f: np.ndarray) -> np.ndarray:
    """Band-limit f to the 2/3 block (mandatory for exact identity checks)."""
    return apply_symbol(lat, f, lat.dealias_mask())


# -- paper-specific multipliers ---------------------------------------------


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


class ModeMultipliers:
    """Per-mode multipliers at one (lattice, eps, dt), computed on first use, read-only.

    lam = sqrt(1 + eps^2 |k|^2) = |Q| for the free Dirac symbol Q = gamma0 + eps alpha.k,
    one array per (lattice, eps): every dt takes it from the dt = 0 entry.  dirac = (d, h)
    with theta = dt lam / eps^2, d = cos theta - i sin theta / lam and the real
    h = eps sin theta / lam: exp(-i dt Q / eps^2) = cos theta - i (sin theta / lam) Q is
    [[d, V.sigma], [V.sigma, conj(d)]] per mode with V = -i h k.  wave = (c, s, a, b)
    advances eps^2 u'' + |k|^2 u = f (frozen), w = eps u', as u <- c u + s w + a f,
    w <- b u + c w + s f: with omega = |k|/eps, c = cos omega dt, s = sin(omega dt)/(eps omega),
    a = (1 - c)/|k|^2, b = -|k| sin omega dt, and sinc gives the zero-mode drift s = dt/eps,
    a = dt^2/(2 eps^2).
    """

    def __init__(self, lat: Lattice, eps: float, dt: float):
        self.lat, self.eps, self.dt = lat, eps, dt

    @functools.cached_property
    def lam(self) -> np.ndarray:
        if self.dt != 0.0:
            return mode_multipliers(self.lat, self.eps, 0.0).lam
        return _read_only(np.sqrt(1.0 + self.eps**2 * self.lat.k_sq))

    @functools.cached_property
    def dirac(self) -> tuple:
        # built in place: each full-grid temporary here, allocated mid-step on
        # first use, can leave a hole that raises the peak RSS of a run
        theta = self.dt / self.eps**2 * self.lam
        h = np.sin(theta)
        h /= self.lam
        d = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=d.real)
        np.negative(h, out=d.imag)
        h *= self.eps
        return _read_only(d, h)

    @functools.cached_property
    def wave(self) -> tuple:
        eps, dt = self.eps, self.dt
        omega_dt = self.lat.k_abs * (dt / eps)
        c = np.cos(omega_dt)
        s = (dt / eps) * np.sinc(omega_dt / np.pi)
        a = dt**2 / (2.0 * eps**2) * np.sinc(omega_dt / (2.0 * np.pi)) ** 2
        b = -self.lat.k_abs * np.sin(omega_dt)
        return _read_only(c, s, a, b)


@functools.lru_cache(maxsize=8)
def mode_multipliers(lat: Lattice, eps: float, dt: float) -> ModeMultipliers:
    """Cached ModeMultipliers; dt = 0 serves callers that need only lam."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    return ModeMultipliers(lat, eps, dt)


@functools.lru_cache(maxsize=2)
def kinetic_multipliers(lat: Lattice, dt: float) -> tuple:
    """Cached read-only exp(-i dt |k|^2 / 2) and its conjugate: the free
    Schrodinger flows over dt of the SP branches and the Pauli spinor.  A run
    steps at one dt, so two entries serve two runs in lockstep and keep little
    memory after a sweep over dt."""
    kin = np.exp(-1j * lat.k_sq * dt / 2.0)
    return _read_only(kin, np.conj(kin))


def lambda_eps(lat: Lattice, f: np.ndarray, eps: float, power: int) -> np.ndarray:
    """Apply (1 + eps^2 |k|^2)^(power/2), power in {+1, -1}."""
    if power not in (1, -1):
        raise ValueError(f"power must be +1 or -1, got {power}")
    lam = mode_multipliers(lat, eps, 0.0).lam
    return apply_symbol(lat, f, lam if power == 1 else 1.0 / lam)


def h_eps_symbol(lat: Lattice, eps: float) -> np.ndarray:
    """Symbol |k|^2 / (1 + sqrt(1 + eps^2 |k|^2)); |k|^2/2 at eps = 0."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return lat.k_sq / (1.0 + np.sqrt(1.0 + eps**2 * lat.k_sq))


# -- projections and inverses ------------------------------------------------


def partial(lat: Lattice, f: np.ndarray, j: int) -> np.ndarray:
    """d/dx_j of f (j = 0, 1, 2) by one 1-D transform pair along spatial axis j,
    the real pair for real f: the symbol i k_j varies along that axis only.
    The product, and a complex inverse, reuse the forward pass's array."""
    axis, ik, real = j - 3, 1j * (lat.kx, lat.ky, lat.kz)[j], np.isrealobj(f)
    if real:
        ik = ik.take(range(lat.n // 2 + 1), axis=j)
    fhat = np.fft.rfft(f, axis=axis) if real else np.fft.fft(f, axis=axis)
    fhat = np.multiply(fhat, ik, out=fhat if fhat.dtype == ik.dtype else None)  # single precision: upcast
    return np.fft.irfft(fhat, n=lat.n, axis=axis) if real else np.fft.ifft(fhat, axis=axis, out=fhat)


def gradient(lat: Lattice, f: np.ndarray) -> np.ndarray:
    """Spectral gradient, derivative index on axis -4:
    (n, n, n) -> (3, n, n, n) and (c, n, n, n) -> (c, 3, n, n, n)."""
    return np.stack([partial(lat, f, j) for j in range(3)], axis=-4)


def divergence(lat: Lattice, u: np.ndarray) -> np.ndarray:
    return sum(partial(lat, u[j], j) for j in range(3))


def curl(lat: Lattice, u: np.ndarray) -> np.ndarray:
    def d(c, j):
        return partial(lat, u[c], j)
    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)])


def laplacian(lat: Lattice, f: np.ndarray) -> np.ndarray:
    return apply_symbol(lat, f, -lat.k_sq)


def leray_hat(lat: Lattice, uhat: np.ndarray) -> np.ndarray:
    """Leray projection of a vector spectrum (full or real-transform): per
    mode I - k k^T / |k|^2, the identity where k = 0; written slab by slab."""
    def rows(out, uhat, kx, ky, kz, inv_lap):
        c = (kx * uhat[0] + ky * uhat[1] + kz * uhat[2]) * inv_lap  # -(k.u)/|k|^2
        for j, k in enumerate((kx, ky, kz)):
            np.add(uhat[j], k * c, out=out[j])
    k = [on_modes(a, uhat) for a in (lat.kx, lat.ky, lat.kz, lat.inv_laplacian)]
    return slabwise(rows, np.empty(uhat.shape, np.result_type(uhat, *k)), uhat, *k)


def curl_hat(lat: Lattice, uhat: np.ndarray) -> np.ndarray:
    """Spectrum of curl u from the spectrum of a vector field u (full or
    real-transform): i k x uhat per mode."""
    ikx, iky, ikz = (on_modes(1j * k, uhat) for k in (lat.kx, lat.ky, lat.kz))
    return np.stack([iky * uhat[2] - ikz * uhat[1], ikz * uhat[0] - ikx * uhat[2], ikx * uhat[1] - iky * uhat[0]])


def leray_project(lat: Lattice, u: np.ndarray) -> np.ndarray:
    """Project onto divergence-free fields."""
    fwd, inv = _transforms(lat, u)
    return inv(leray_hat(lat, fwd(u)))


def poisson_solve(lat: Lattice, rho: np.ndarray) -> np.ndarray:
    """Solve Delta A0 = rho - mean(rho) with zero-mean A0 (jellium)."""
    return apply_symbol(lat, rho, lat.inv_laplacian)


def inv_abs_nabla(lat: Lattice, f: np.ndarray) -> np.ndarray:
    """Apply |nabla|^-1; mean-like modes are mapped to zero."""
    return apply_symbol(lat, f, _reciprocal(lat, lat.k_abs))


def riesz_transform(lat: Lattice, f: np.ndarray, j: int) -> np.ndarray:
    """R_j = |nabla|^{-1} d_j as a single multiplier."""
    return apply_symbol(lat, f, 1j * (lat.kx, lat.ky, lat.kz)[j] * _reciprocal(lat, lat.k_abs))


# -- dyadic decomposition -----------------------------------------------------


def lp_window(lat: Lattice, scale: float, name: str) -> np.ndarray:
    """beta(k/scale), beta supported on 1/2<=|k|<=2; a non-dyadic scale raises ValueError naming ``name``."""
    if not (scale > 0 and np.isclose(np.log2(scale), np.round(np.log2(scale)))):
        raise ValueError(f"{name}: {scale} is not a dyadic number 2^j")
    r = lat.k_abs / scale
    return bump_profile(r) - bump_profile(2.0 * r)


# -- norms --------------------------------------------------------------------


def sobolev_norm(lat: Lattice, f: np.ndarray, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s) norm, matching the L^2 norm at s = 0.

    Multi-component fields are summed over the leading axes.  The zero-like
    modes (zeroed Nyquist corners included) are dropped from homogeneous
    norms; a homogeneous norm with s < 0 requires a mean-free field.  A real
    field takes the real transform, as in ``apply_symbol``.
    """
    fwd, _ = _transforms(lat, f)
    return sobolev_norm_hat(lat, fwd(f), s, homogeneous)


@functools.lru_cache(maxsize=8)
def sobolev_weight(lat: Lattice, s: float, homogeneous: bool, half: bool) -> np.ndarray:
    """Cached read-only weight of sobolev_norm_hat per mode: (1 + |k|^2)^s, or |k|^(2s) without
    the zero-like modes; on the half spectrum of a real transform the interior last-axis
    modes stand for their conjugates too and so count twice."""
    if homogeneous:
        with np.errstate(invalid="ignore", divide="ignore"):
            w = lat.k_sq**s
        w = np.where(lat.zero_modes, 0.0, w)
    else:
        w = (1.0 + lat.k_sq) ** s
    if half:
        w = w[..., : lat.n // 2 + 1] * np.r_[1.0, np.full(lat.n // 2 - 1, 2.0), 1.0]
    return _read_only(w)


def sobolev_norm_hat(lat: Lattice, fhat: np.ndarray, s: float, homogeneous: bool = False) -> float:
    """sobolev_norm of f from its spectrum by Parseval: fhat = lat.fft(f), or
    lat.rfft(f) of a real f (told apart by the last-axis length, as in
    ``on_modes``); summed slab by slab (slab_sum)."""
    if homogeneous and s < 0 and np.sum(np.abs(fhat[..., 0, 0, 0]) ** 2) / lat.n**6 > 1e-24:
        raise ValueError("homogeneous norm with s < 0 needs mean-zero input")
    w = sobolev_weight(lat, s, homogeneous, fhat.shape[-1] != lat.n)
    def weighted(sl):  # |fhat|^2 summed over the leading components, times the weight
        power = np.abs(fhat[..., sl, :, :]) ** 2
        return np.sum(w[sl] * power.reshape(-1, *power.shape[-3:]).sum(axis=0))
    return float(np.sqrt(float(slab_sum(weighted, lat.n)) * lat.volume / lat.n**6))


def l2_norm(lat: Lattice, f: np.ndarray) -> float:
    f = np.asarray(f)
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * lat.cell_volume))


def lp_norm(lat: Lattice, f: np.ndarray, p: float) -> float:
    """Grid quadrature of the pointwise magnitude, for finite p >= 1."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    f = np.asarray(f)
    mag = np.abs(f)
    if mag.ndim > 3:
        mag = np.sqrt((mag**2).reshape(-1, *mag.shape[-3:]).sum(axis=0))
    return float((np.sum(mag**p) * lat.cell_volume) ** (1.0 / p))


# -- snapshot format ----------------------------------------------------------


def write_fld(path, lat: Lattice, values: np.ndarray, time: float) -> None:
    """Write a field snapshot: one-line JSON header + little-endian payload."""
    values = np.asarray(values)
    components = 1 if values.ndim == 3 else int(np.prod(values.shape[:-3]))
    complex_data = np.iscomplexobj(values)
    header = {
        "grid_n": lat.n,
        "period": lat.period,
        "components": components,
        "dtype": "complex128" if complex_data else "float64",
        "time": float(time),
    }
    payload = np.ascontiguousarray(values, dtype="<c16" if complex_data else "<f8")
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        fh.write(payload.data)


def read_fld(path):
    """Read a .fld snapshot; returns (header dict, values ndarray)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = fh.read()
    n = header["grid_n"]
    c = header["components"]
    dtype = np.dtype("<c16" if header["dtype"] == "complex128" else "<f8")
    expected = n**3 * c * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: payload has {len(raw)} bytes, its header needs {expected}")
    values = np.frombuffer(raw, dtype=dtype).reshape((c, n, n, n) if c > 1 else (n, n, n))
    return header, values.astype(values.dtype.newbyteorder("="))
