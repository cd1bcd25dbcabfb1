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
from .evolve_dm import DMState
from .fourier import Lattice, leray_project


def v_plus_profile(lat: Lattice, amplitude: float) -> np.ndarray:
    """Fixed non-real 2-spinor profile, modes |k| <= 2."""
    X1, X2, X3 = lat.grid()
    zero = np.zeros((lat.n, lat.n, lat.n))
    v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
    v[0] = np.exp(1j * X1) + 0.5 * np.exp(1j * X2) + 0.25 * np.exp(1j * (X1 + X2)) + zero
    v[1] = 0.5j * np.exp(-1j * X3) + 0.25 * np.exp(2j * X1) + zero
    return amplitude * v


def v_minus_profile(lat: Lattice, amplitude: float) -> np.ndarray:
    X1, X2, X3 = lat.grid()
    zero = np.zeros((lat.n, lat.n, lat.n))
    v = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex)
    v[0] = 0.5 * np.exp(-1j * X2) + zero
    v[1] = np.exp(1j * X3) + 0.25j * np.exp(1j * (X2 - X3)) + zero
    return amplitude * v


def gauge_profile(lat: Lattice, amplitude: float) -> np.ndarray:
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


# psi0^eps from the limit profiles (v0+, v0-), by family; v0- is None where
# it is zero, so no zero array is made that the datum does not use
_DIRAC_DATA = {
    "zero": lambda lat, vp, vm, eps: sp.embed_upper(vp),
    "stationary": lambda lat, vp, vm, eps: sp.embed_upper(vp),
    "upper_lower": lambda lat, vp, vm, eps: np.concatenate([vp, vm]),
    "upper_projected": lambda lat, vp, vm, eps: sp.pi_eps(lat, sp.embed_upper(vp), eps, +1),
    "constrained": lambda lat, vp, vm, eps: np.concatenate([vp, -0.5j * eps * sigma_grad(lat, vp)]),
    "counterexample": lambda lat, vp, vm, eps: np.concatenate([vp, eps * vp]),
}


# the data.params keys each family and each gauge reads
PARAMS_READ = {
    "family": {"zero": (), "stationary": ("amplitude",), "upper_lower": ("amplitude", "minus_amplitude"),
               "upper_projected": ("amplitude",), "constrained": ("amplitude",), "counterexample": ("amplitude",)},
    "gauge": {"zero": (), "bandlimited_divfree": ("gauge_amplitude",)},
}


def check_params(params: dict, family: str, gauge: str | None = None) -> None:
    """Raise ValueError naming every key of params that neither the family
    nor the gauge (None: a run without gauge data) reads."""
    if family not in PARAMS_READ["family"]:
        raise ValueError(f"unknown data family {family!r}")
    if gauge is not None and gauge not in PARAMS_READ["gauge"]:
        raise ValueError(f"unknown gauge data kind {gauge!r}")
    unread = sorted(set(params) - {*PARAMS_READ["family"][family], *PARAMS_READ["gauge"].get(gauge, ())})
    if unread:
        raise ValueError(f"data.params key(s) not read by family {family!r}"
                         + ("" if gauge is None else f" or gauge {gauge!r}") + f": {', '.join(unread)}")


def _profiles(lat: Lattice, family: str, params: dict) -> tuple:
    """v0+ of the family, and v0- or None where it is zero."""
    if family not in _DIRAC_DATA:
        raise ValueError(f"unknown data family {family!r}")
    amp = float(params.get("amplitude", 0.5))
    zero_plus = family in ("zero", "stationary")
    vp = np.zeros((2, lat.n, lat.n, lat.n), dtype=complex) if zero_plus else v_plus_profile(lat, amp)
    if family == "stationary":
        vp[0] = amp
    if family == "upper_lower":
        return vp, v_minus_profile(lat, float(params.get("minus_amplitude", 0.3)))
    return vp, None


def limit_data(lat: Lattice, family: str, params: dict):
    """The limit profiles (v0+, v0-) the family converges to."""
    vp, vm = _profiles(lat, family, params)
    return vp, np.zeros_like(vp) if vm is None else vm


def spinor_data(lat: Lattice, family: str, eps: float, params: dict) -> np.ndarray:
    """The eps-dependent Dirac datum psi0^eps of the requested family."""
    vp, vm = _profiles(lat, family, params)
    return _DIRAC_DATA[family](lat, vp, vm, eps)


def gauge_data(lat: Lattice, kind: str, params: dict):
    """Magnetic data (a0, a1), both divergence-free."""
    n = lat.n
    zero3 = np.zeros((3, n, n, n))
    if kind == "zero":
        return zero3, zero3.copy()
    if kind == "bandlimited_divfree":
        amp = float(params.get("gauge_amplitude", 0.1))
        return gauge_profile(lat, amp), zero3.copy()
    raise ValueError(f"unknown gauge data kind {kind!r}")


def initial_dm_state(lat: Lattice, family: str, gauge: str, eps: float, params: dict) -> DMState:
    """The DM state at t = 0: the family's Dirac datum and the gauge data,
    which read one params dict between them."""
    check_params(params, family, gauge)
    return DMState(lat, 0.0, spinor_data(lat, family, eps, params), *gauge_data(lat, gauge, params), eps)
