"""Solvers for the limiting Schrodinger-Poisson system and the Pauli
equation, sharing the lattice substrate and the jellium Poisson convention
with the Dirac-Maxwell evolver.

The Schrodinger-Poisson pair carries the electron branch (+Delta/2) and the
negative-mass positron branch (-Delta/2) coupled through one Coulomb
potential.  ``run_pauli`` advances the Pauli spinor in lockstep with a
Dirac-Maxwell run (``DMPauliState``, ``dm_pauli_step``), driven by that
run's fields, with A0 and B from the values every state of the run carries.
Runs of either system are driven by ``evolve_dm.integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spinors as sp
from .evolve_dm import DMState, StepConfig, carried_values, coulomb_gauge, dm_strang_step, integrate, n_steps_for
from .fourier import (Lattice, apply_symbol, curl, curl_hat, divergence, kinetic_multipliers, l2_norm, partial,
                      poisson_solve, sobolev_norm)


@dataclass
class SPState:
    lat: Lattice
    t: float
    v_plus: np.ndarray     # (2, n, n, n) complex
    v_minus: np.ndarray

    def spinors(self) -> tuple:
        return (self.v_plus, self.v_minus)


def sp_potential(lat: Lattice, v_plus: np.ndarray, v_minus: np.ndarray) -> np.ndarray:
    """u with Delta u = |v+|^2 + |v-|^2 - mean (jellium)."""
    n = sp.charge_density(v_plus) + sp.charge_density(v_minus)
    return poisson_solve(lat, n)


def sp_step(state: SPState, dt: float) -> SPState:
    """Strang step: half potential phase, exact kinetic phases, half phase.

    The common local phase exp(i u dt/2) leaves both densities invariant, so
    u is recomputed only after the kinetic sweep.
    """
    lat = state.lat
    u = sp_potential(lat, state.v_plus, state.v_minus)
    half = np.exp(1j * u * dt / 2.0)
    vp = half * state.v_plus
    vm = half * state.v_minus
    kin, kin_conj = kinetic_multipliers(lat, dt)
    vp = apply_symbol(lat, vp, kin)
    vm = apply_symbol(lat, vm, kin_conj)
    u = sp_potential(lat, vp, vm)
    half = np.exp(1j * u * dt / 2.0)
    return SPState(lat, state.t + dt, half * vp, half * vm)


def sp_diagnostics(state: SPState) -> dict:
    lat = state.lat
    return {
        "t": state.t,
        "mass_plus": l2_norm(lat, state.v_plus) ** 2,
        "mass_minus": l2_norm(lat, state.v_minus) ** 2,
        "h1_plus": sobolev_norm(lat, state.v_plus, 1.0),
        "h1_minus": sobolev_norm(lat, state.v_minus, 1.0),
    }


# -- Pauli ----------------------------------------------------------------------


@dataclass
class PauliState:
    lat: Lattice
    t: float
    chi: np.ndarray        # (2, n, n, n) complex
    eps: float

    def spinors(self) -> tuple:
        return (self.chi,)


def _kick_coefficients(A0, A, B, eps, dt) -> tuple:
    """(d, v, scale) with exp(-i dt V) = d + (scale v).sigma pointwise, for
    V = -A0 - (eps/2) B.sigma + (eps^2/2) A^2: V = a I + b.sigma, and the
    exponential is exp(-i dt a) (cos theta - i sin theta (b/|b|).sigma) with
    theta = dt |b|; apply it with sp.sigma_block_apply.
    """
    a = 0.5 * eps**2 * np.sum(A**2, axis=0)
    a -= A0
    theta = (0.5 * eps * dt) * np.sqrt(np.sum(B**2, axis=0))
    d = np.exp(-1j * dt * a)
    scale = d * np.sinc(theta / np.pi)  # -i sin(theta)/|b| b = (i eps dt/2) sinc B
    scale *= 0.5j * eps * dt
    d *= np.cos(theta)
    return d, sp.sigma_entries(B), scale


def _advect_apply(lat: Lattice, A: np.ndarray, eps: float, dt: float, chi: np.ndarray) -> np.ndarray:
    """exp(-i dt M) chi for the mixed term M = i eps A.grad (Hermitian for
    divergence-free A) by the Taylor series term_k = (dt eps / k) A.grad term_{k-1},
    each A_j d_j taken by one 1-D transform pair along axis j (``partial``).

    Converges to roundoff in a handful of terms since dt*|M| << 1 at the
    resolutions used here; unitarity error is at the truncation level.  In L2,
    |A.grad f| <= (sum_j max|A_j|) k_max |f| with k_max = max|lat.kx| (the
    Nyquist mode is zeroed), so term k + 1 is at most rho / (k + 1) times term
    k, rho = |dt eps| k_max sum_j max|A_j|.  The series stops after the first
    term k with max|term_k| rho / (k + 1) below 1e-16 max|chi|, a bound on the
    next term (after Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011),
    and raises FloatingPointError if 24 terms do not get there.  A non-finite
    chi raises FloatingPointError before any term is taken.
    """
    scale = float(np.max(np.abs(chi)))
    if not np.isfinite(scale):
        raise FloatingPointError("non-finite Pauli spinor entering the mixed-term exponential")
    tol = 1e-16 * (scale + 1e-300)
    rho = abs(dt * eps) * float(np.max(np.abs(lat.kx))) * sum(float(np.max(np.abs(a))) for a in A)
    term = chi
    out = chi.copy()
    for k in range(1, 25):
        m = A[0] * partial(lat, term, 0)
        m += A[1] * partial(lat, term, 1)
        m += A[2] * partial(lat, term, 2)
        m *= dt * eps / k
        term = m
        out += term
        if float(np.max(np.abs(term))) * rho / (k + 1) < tol:
            return out
    raise FloatingPointError("mixed-term exponential did not converge; reduce dt")


def pauli_step(state: PauliState, A0: np.ndarray, A: np.ndarray, dt: float,
               B: np.ndarray | None = None) -> PauliState:
    """Strang step of the Pauli equation in the supplied (midpoint) fields.
    Without B, B = curl A, and an A with max |div A| above 1e-8 raises
    ValueError; a caller that passes B vouches for A (dm_pauli_step: the
    Coulomb-gauge A of a DM run)."""
    lat, eps = state.lat, state.eps
    advect = eps > 0 and bool(np.any(A))
    if B is None:
        if advect:
            div_max = float(np.max(np.abs(divergence(lat, A))))
            if not np.isfinite(div_max):
                raise FloatingPointError("non-finite gauge field A entering the Pauli step")
            if div_max > 1e-8:
                raise ValueError(f"A is not divergence-free (max |div A| = {div_max:.2e})")
        B = curl(lat, A)
    kick = _kick_coefficients(A0, A, B, eps, dt / 2.0)
    chi = sp.sigma_block_apply(state.chi, *kick)
    if advect:
        chi = _advect_apply(lat, A, eps, dt / 2.0, chi)
    chi = apply_symbol(lat, chi, kinetic_multipliers(lat, dt)[0])
    if advect:
        chi = _advect_apply(lat, A, eps, dt / 2.0, chi)
    chi = sp.sigma_block_apply(chi, *kick)
    return PauliState(lat, state.t + dt, chi, eps)


def pauli_diagnostics(state: PauliState) -> dict:
    lat = state.lat
    return {"t": state.t, "mass": l2_norm(lat, state.chi) ** 2, "h1": sobolev_norm(lat, state.chi, 1.0)}


@dataclass
class DMPauliState:
    """A DM state and the Pauli spinor driven by its fields, advanced in
    lockstep."""

    dm: DMState
    pauli: PauliState

    @property
    def t(self) -> float:
        return self.dm.t

    def spinors(self) -> tuple:
        return (self.dm.psi, self.pauli.chi)


def dm_pauli_step(state: DMPauliState, cfg: StepConfig) -> DMPauliState:
    """One DM step, and one Pauli step in the endpoint averages of A0 and A
    (the midpoint values of their linear interpolation), B the curl of the
    average carried spectrum of A."""
    c = carried_values(state.dm, cfg)
    dm = dm_strang_step(state.dm, cfg)
    B = dm.lat.irfft(curl_hat(dm.lat, 0.5 * (c.A_hat + dm.carried.A_hat)))
    pauli = pauli_step(state.pauli, 0.5 * (c.A0 + dm.carried.A0), 0.5 * (state.dm.A + dm.A), cfg.dt, B=B)
    return DMPauliState(dm, pauli)


def run_pauli(init: DMState, T: float, cfg: StepConfig, sample_every: int, observe) -> DMPauliState:
    """run_dm with the Pauli spinor of init's upper component (the modulation
    is the identity at t = 0) in lockstep, through dm_pauli_step."""
    return integrate(
        DMPauliState(coulomb_gauge(init, cfg), PauliState(init.lat, init.t, sp.upper(init.psi).copy(), init.eps)),
        lambda s: dm_pauli_step(s, cfg), n_steps_for(T, cfg.dt), sample_every, observe)
