"""Initial-data families for the convergence experiments.

All families are band-limited trigonometric polynomials on the torus (modes
|k| <= 2 per axis), smooth enough for every hypothesis in play, and
deterministic.  The eps-dependent spinor data are derived from a fixed limit
profile v0+ (and optionally v0-):

* ``upper_projected``:  psi0 = Pi_+^eps (v0+, 0)  -- positron part exactly
  zero, psi0 = (v0+, 0) + O(eps).
* ``upper_lower``:      psi0 = (v0+, v0-), eps-independent.
* ``constrained``:      psi0 = (v0+, -(eps/2) i sigma.grad v0+), matching the
  leading lower-component constraint.
* ``counterexample``:   psi0 = (v0+, eps v0+), which breaks strong current
  convergence at t = 0.
* ``stationary``:       psi0 = amp * (1,0,0,0), the zero-mode closed form.
* ``zero``:             everything zero.
"""

from __future__ import annotations

import numpy as np

from . import spinors as sp
from .fourier import Lattice, leray_project


def v_plus_profile(lat: Lattice, amplitude: float = 0.5) -> np.ndarray:
    """Fixed non-real 2-spinor profile, modes |k| <= 2."""
    X1, X2, X3 = lat.grid()
    zero = np.zeros((lat.n, lat.n, lat.n))
    v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
    v[0] = np.exp(1j * X1) + 0.5 * np.exp(1j * X2) + 0.25 * np.exp(1j * (X1 + X2)) + zero
    v[1] = 0.5j * np.exp(-1j * X3) + 0.25 * np.exp(2j * X1) + zero
    return amplitude * v


def v_minus_profile(lat: Lattice, amplitude: float = 0.3) -> np.ndarray:
    X1, X2, X3 = lat.grid()
    zero = np.zeros((lat.n, lat.n, lat.n))
    v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
    v[0] = 0.5 * np.exp(-1j * X2) + zero
    v[1] = np.exp(1j * X3) + 0.25j * np.exp(1j * (X2 - X3)) + zero
    return amplitude * v


def gauge_profile(lat: Lattice, amplitude: float = 0.1) -> np.ndarray:
    """Divergence-free real vector profile for magnetic data."""
    X1, X2, X3 = lat.grid()
    zero = np.zeros((lat.n, lat.n, lat.n))
    A = np.zeros((3, lat.n, lat.n, lat.n))
    A[0] = np.sin(X2) + 0.5 * np.cos(2.0 * X3) + zero
    A[1] = np.sin(X3) + zero
    A[2] = np.sin(X1) + 0.5 * np.cos(X2) + zero
    return leray_project(lat, amplitude * A)


def sigma_grad(lat: Lattice, v: np.ndarray) -> np.ndarray:
    """sigma^j d_j v for a 2-spinor: per mode i (k.sigma) v."""
    return lat.ifft(1j * sp.sigma_dot((lat.kx, lat.ky, lat.kz), lat.fft(v)))


def spinor_data(lat: Lattice, family: str, eps: float, params: dict | None = None) -> np.ndarray:
    """The eps-dependent Dirac datum psi0^eps of the requested family."""
    params = dict(params or {})
    amp = float(params.get("amplitude", 0.5))
    n = lat.n
    if family == "zero":
        return np.zeros((4, n, n, n), dtype=complex)
    if family == "stationary":
        psi = np.zeros((4, n, n, n), dtype=complex)
        psi[0] = amp
        return psi
    vp = v_plus_profile(lat, amp)
    if family == "upper_projected":
        return sp.pi_eps(lat, sp.embed_upper(vp), eps, +1)
    if family == "upper_lower":
        vm = v_minus_profile(lat, float(params.get("minus_amplitude", 0.3)))
        return sp.embed_upper(vp) + sp.embed_lower(vm)
    if family == "constrained":
        eta = -0.5j * eps * sigma_grad(lat, vp)
        return sp.embed_upper(vp) + sp.embed_lower(eta)
    if family == "counterexample":
        return sp.embed_upper(vp) + sp.embed_lower(eps * vp)
    raise ValueError(f"unknown data family {family!r}")


def limit_data(lat: Lattice, family: str, params: dict | None = None):
    """The limit profiles (v0+, v0-) the family converges to."""
    params = dict(params or {})
    amp = float(params.get("amplitude", 0.5))
    n = lat.n
    zero2 = np.zeros((2, n, n, n), dtype=complex)
    if family == "zero":
        return zero2, zero2.copy()
    if family == "stationary":
        v = np.zeros((2, n, n, n), dtype=complex)
        v[0] = amp
        return v, zero2.copy()
    vp = v_plus_profile(lat, amp)
    if family in ("upper_projected", "constrained", "counterexample"):
        return vp, zero2.copy()
    if family == "upper_lower":
        return vp, v_minus_profile(lat, float(params.get("minus_amplitude", 0.3)))
    raise ValueError(f"unknown data family {family!r}")


def gauge_data(lat: Lattice, kind: str, params: dict | None = None):
    """Magnetic data (a0, a1), both divergence-free."""
    params = dict(params or {})
    n = lat.n
    zero3 = np.zeros((3, n, n, n))
    if kind == "zero":
        return zero3, zero3.copy()
    if kind == "bandlimited_divfree":
        amp = float(params.get("gauge_amplitude", 0.1))
        return gauge_profile(lat, amp), zero3.copy()
    raise ValueError(f"unknown gauge data kind {kind!r}")
