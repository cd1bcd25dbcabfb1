"""Time integration of the scaled Dirac-Maxwell-Coulomb system.

The stiff rest-energy/transport part is integrated exactly per Fourier mode
through the energy projections, the magnetic wave equation by an exact
per-mode oscillator with the current frozen over the step, and the bounded
potential terms by pointwise-exact matrix exponentials.  Every spinor stage
is unitary, so the total charge is conserved to roundoff and the step size
is not constrained by eps.

Source freezing happens at the step midpoint (the current is evaluated after
the half kick and a half free flight), which makes a (dt, -dt) round trip
exact; see the tests.

One transform of the kicked spinor feeds both free half-steps, the real
fields use real transforms, and per-mode multipliers come from the bounded
cache fourier.mode_multipliers.  Every spinor matrix goes through the
2x2-block kernel spinors.block_rows: the potential kick per point, the
Picard forcing, and per mode the free flow (a + bQ of the free Dirac symbol,
with d, conj(d) and h cached), Pi_- and reconstruct_from_U's i alpha.k.  A
step moves 4 complex components forward and 8 back, 4 real forward and 7
back; a sample, one spectrum of psi, reduced to its sums in one slab pass.
Every transform writes its passes into one output allocated per call; the
kicks, block products, current, charge, wave and Leray products and norms run
slab by slab (fourier.slabwise, slab_sum), from n = 32 spread over the cores
(fourier), with the same bits on any core count.  Derivatives and the scalar
transforms of Poisson stay on the calling thread.  Not done: scipy.fft (its import
costs ~0.3 s and 27 MB per process) and merging consecutive half kicks
(first same as last: the step would depend on the sample times).

The Picard reference solve keeps its iterates as spectra (A as real-transform
spectra).  A time level takes one inverse and one forward 4-component
transform and one real transform each way (none in iterate 0, whose sources
are those of the zero iterate -1); Duhamel and the wave update act per mode
and the Cauchy H1 distances come by Parseval.  Besides the block kernel it
shares only free_flow_hat, wave_oscillator and leray_hat with dm_strang_step,
so it stays an independent check of the splitting.

Every run, of this system or of the limit systems, is driven by integrate():
it applies a pure state-to-state step, samples on one schedule and guards
against non-finite spinors.  Every state of a DM run carries A0, which the
charge fixes by a Poisson solve (the kick is pointwise unitary, so the
closing A0 of a step opens the next), and the spectra of A and eps*dt(A):
coulomb_gauge() derives them for the frozen start of every run, and
dm_strang_step sets them on each state it makes.  run_dm() integrates
dm_strang_step, evolve_limits.run_pauli() the lockstep Pauli step.
Nothing keeps a run: the observer reduces or writes each sample when it is
taken (the harness checks hold a window of three frozen states), and
free_dirac_U advances the free spinor and the null-identity field U together
as spectra and returns them at the end time only; the null-2 suite of
harness.CHECKS reads them in the second null identity and, through
reconstruct_from_U, as psi rebuilt from U.  Distinct runs share no
mutable state, and the results are independent of thread scheduling and of
the core count for a fixed configuration: a split transform gives the
batched transform's bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import spinors as sp
from .fourier import (Lattice, curl, dealias, gradient, leray_hat, leray_project, mode_multipliers, on_modes,
                      poisson_solve, slab_sum, slabwise, sobolev_norm_hat, sobolev_weight)


class Carried(NamedTuple):
    """What a state of a run hands on to the next step."""

    A0: np.ndarray     # derived_A0(lat, psi, cfg.dealias)
    A_hat: np.ndarray  # lat.rfft(A)
    W_hat: np.ndarray  # lat.rfft(eps_dtA)


@dataclass(frozen=True, eq=False)
class DMState:
    """State of the coupled system: spinor, magnetic potential, eps*dt(A).

    Frozen.  coulomb_gauge and dm_strang_step make the states of a run, with
    read-only arrays and their Carried values set; reading ``carried`` on a
    state built any other way raises ValueError."""

    lat: Lattice
    t: float
    psi: np.ndarray            # (4, n, n, n) complex
    A: np.ndarray              # (3, n, n, n) real, divergence-free
    eps_dtA: np.ndarray        # (3, n, n, n) real, stores eps * dt(A)
    eps: float
    _carried: Carried | None = field(default=None, init=False, repr=False)

    @property
    def carried(self) -> Carried:
        if self._carried is None:
            raise ValueError("this DMState carries no A0, as only a run's states do: start at coulomb_gauge or run_dm")
        return self._carried

    def spinors(self) -> tuple:
        return (self.psi,)


@dataclass
class StepConfig:
    dt: float
    dealias: bool = False

    def __post_init__(self):
        if self.dt == 0:
            raise ValueError("dt must be nonzero")


def derived_A0(lat: Lattice, psi: np.ndarray, dealias_flag: bool) -> np.ndarray:
    """Electric potential from the instantaneous charge (jellium Poisson)."""
    rho = sp.charge_density(psi)
    if dealias_flag:
        rho = dealias(lat, rho)
    return poisson_solve(lat, rho)


# -- elementary flows ----------------------------------------------------------


def free_flow_hat(lat: Lattice, psihat: np.ndarray, dt: float, eps: float) -> np.ndarray:
    """Exact free flow of a spinor spectrum: exp(-i dt Q / eps^2) per mode,
    a + b Q with a = cos(theta), b = -i sin(theta)/lam, theta = dt lam / eps^2;
    its d_+/- = a +/- b are the cached d and conj(d), its scale i eps b the
    cached real h = eps sin(theta)/lam (spinors.dirac_symbol_apply)."""
    d, h = mode_multipliers(lat, eps, dt).dirac
    return sp.dirac_symbol_apply(lat, psihat, d, np.conj(d), h)


def potential_kick(lat: Lattice, psi: np.ndarray, A0: np.ndarray, A: np.ndarray, dt: float, eps: float) -> np.ndarray:
    """Pointwise-exact solve of i dt(psi) = (-A.alpha - A0) psi over dt.

    exp(i dt (A.alpha + A0)) factorizes since A0*I commutes with A.alpha and
    (A.alpha)^2 = |A|^2: phase (cos + i sin * unit-alpha), phase = exp(i dt A0).
    The block form has d_+ = d_- = phase cos and V = i phase sin(dt |A|)/|A| A.
    It is built slab by slab (fourier.slabwise): no coefficient takes a full grid.
    """
    def kick(out, psi, A0, A):
        theta = dt * np.sqrt(np.sum(A**2, axis=0))
        diag = np.exp(1j * dt * A0)
        f = diag * np.sinc(theta / np.pi)  # sin(dt m)/(dt m) with the m -> 0 limit 1
        f *= 1j * dt
        diag *= np.cos(theta)
        sp.block_rows(out, psi, diag, diag, sp.sigma_entries(A), f)
    return slabwise(kick, np.empty(psi.shape, dtype=complex), psi, A0, A)


def wave_oscillator(lat: Lattice, fhat: np.ndarray, ghat: np.ndarray, srchat: np.ndarray, dt: float, eps: float):
    """Exact per-mode advance of eps^2 u'' + |k|^2 u = source (frozen).

    State is (u, w) with w = eps * dt(u), given and returned in Fourier space
    (full or real-transform spectra).  Modes with |k| = 0 get the exact
    polynomial drift.  Written slab by slab (fourier.slabwise).
    """
    def rows(u, w, f, g, src, c, s, a, b):
        np.add(c * f + s * g, a * src, out=u)
        np.add(b * f + c * g, s * src, out=w)
    w = np.empty(fhat.shape, dtype=complex)
    return slabwise(rows, np.empty(fhat.shape, dtype=complex), w, fhat, ghat, srchat,
                    *[on_modes(x, fhat) for x in mode_multipliers(lat, eps, dt).wave]), w


def wave_step(lat: Lattice, A_hat: np.ndarray, W_hat: np.ndarray, J: np.ndarray, dt: float, eps: float):
    """Exact step of eps^2 dtt(A) - Delta A = eps P J with J frozen, on the
    real-transform spectra of A and W = eps*dt(A); returns the new spectra.
    The Leray projection P of the (real-space) current is applied here."""
    return wave_oscillator(lat, A_hat, W_hat, eps * leray_hat(lat, lat.rfft(J)), dt, eps)


# -- coupled stepping ----------------------------------------------------------


def _frozen(state: DMState, carried: Carried) -> DMState:
    """A new state of a run: its arrays made read-only, its carried values set."""
    for a in (state.psi, state.A, state.eps_dtA):
        a.flags.writeable = False
    object.__setattr__(state, "_carried", carried)
    return state


def dm_strang_step(state: DMState, cfg: StepConfig) -> DMState:
    """Half kick, free flight with the wave step in the midpoint current, half
    kick; the closing A0 and the new spectra of A and eps*dt(A) are carried."""
    lat, eps, dt = state.lat, state.eps, cfg.dt
    c = state.carried
    psihat_mid = free_flow_hat(lat, lat.fft(potential_kick(lat, state.psi, c.A0, state.A, dt / 2.0, eps)),
                               dt / 2.0, eps)
    J = sp.current_density(lat.ifft(psihat_mid), eps)
    if cfg.dealias:
        J = dealias(lat, J)
    A_hat, W_hat = wave_step(lat, c.A_hat, c.W_hat, J, dt, eps)
    psi_b = lat.ifft(free_flow_hat(lat, psihat_mid, dt / 2.0, eps))
    del psihat_mid, J  # not kept alive through the closing kick, where the step peaks in memory
    A_new, W_new = lat.irfft(A_hat), lat.irfft(W_hat)
    A0_new = derived_A0(lat, psi_b, cfg.dealias)
    psi_new = potential_kick(lat, psi_b, A0_new, A_new, dt / 2.0, eps)
    return _frozen(DMState(lat, state.t + dt, psi_new, A_new, W_new, eps), Carried(A0_new, A_hat, W_hat))


DIAGNOSTIC_COLUMNS = ("t", "charge", "h1_psi", "h1dot_A", "eps_l2_dtA", "h1_pi_minus_psi")
H1_CEILING = 1e6  # checked_diagnostics raises above this h1_psi


def _diagnose(state: DMState) -> dict:
    """The DIAGNOSTIC_COLUMNS of a state of a run, all by Parseval: the
    spinor columns from one spectrum of psi in one slab pass (slab_sum, Pi_-
    per slab), the field columns from the carried spectra."""
    lat, c = state.lat, state.carried
    psihat, w = lat.fft(state.psi), sobolev_weight(lat, 1.0, False, False)

    def sums(s):
        slab, pi_minus = psihat[:, s], np.empty_like(psihat[:, s])
        sp.pi_eps_rows(pi_minus, slab, lat, state.eps, -1, s)
        power = (np.abs(slab) ** 2).sum(axis=0)
        return np.array([np.sum(power), np.sum(w[s] * power), np.sum(w[s] * (np.abs(pi_minus) ** 2).sum(axis=0))])
    charge, h1_sq, h1_pi_minus_sq = slab_sum(sums, lat.n) * lat.volume / lat.n**6
    return {
        "t": state.t,
        "charge": float(charge),
        "h1_psi": float(np.sqrt(h1_sq)),
        "h1dot_A": sobolev_norm_hat(lat, c.A_hat, 1.0, homogeneous=True),
        "eps_l2_dtA": sobolev_norm_hat(lat, c.W_hat, 0.0),
        "h1_pi_minus_psi": float(np.sqrt(h1_pi_minus_sq)),
    }


def checked_diagnostics(state: DMState, cfg: StepConfig) -> dict:
    """_diagnose, and the blow-up guard: h1_psi above H1_CEILING raises
    FloatingPointError (steps counted from t = 0)."""
    row = _diagnose(state)
    if row["h1_psi"] > H1_CEILING:
        raise FloatingPointError(
            f"H1 blow-up guard tripped at step {round(state.t / cfg.dt)}, t = {state.t}: "
            f"h1_psi = {row['h1_psi']:.3e} > {H1_CEILING:.3e}"
        )
    return row


def n_steps_for(T: float, dt: float) -> int:
    if not (T > 0 and dt > 0):
        raise ValueError(f"T and dt must be positive, got T = {T}, dt = {dt}")
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T = {T} is not an integer multiple of dt = {dt}")
    return steps


def sample_steps(n_steps: int, sample_every: int) -> list:
    """The steps at which integrate() samples: 0, every sample_every-th, the last."""
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    return [*range(0, n_steps, sample_every), n_steps]


def integrate(state, step, n_steps: int, sample_every: int, observe):
    """Apply ``step`` n_steps times and call ``observe`` on the state at each
    of sample_steps(n_steps, sample_every); returns the final state.

    Works for every solver state with a time ``t`` and a ``spinors()`` tuple.
    A non-finite value in any spinor array of the initial state raises
    FloatingPointError naming step 0 and t before anything is observed; in a
    new state it raises FloatingPointError too, and that error, and any
    raised inside a step, names the step and the time it started from.
    """
    def finite(s):
        return all(np.all(np.isfinite(a)) for a in s.spinors())

    samples = set(sample_steps(n_steps, sample_every))
    if not finite(state):
        raise FloatingPointError(f"non-finite spinor in the initial state, step 0, t = {state.t}")
    observe(state)
    for k in range(1, n_steps + 1):
        try:
            new = step(state)
            if not finite(new):
                raise FloatingPointError("non-finite spinor")
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} in step {k}, from t = {state.t}") from None
        state = new
        if k in samples:
            observe(state)
    return state


def coulomb_gauge(init: DMState, cfg: StepConfig) -> DMState:
    """The state every DM run starts from: a copy of init with A and
    eps*dt(A) Leray-projected, frozen as a stepped state is, with its carried
    values derived here (A0 dealiased under cfg.dealias)."""
    lat = init.lat
    psi, A, W = init.psi.copy(), leray_project(lat, init.A), leray_project(lat, init.eps_dtA)
    return _frozen(DMState(lat, init.t, psi, A, W, init.eps),
                   Carried(derived_A0(lat, psi, cfg.dealias), lat.rfft(A), lat.rfft(W)))


def run_dm(init: DMState, T: float, cfg: StepConfig, sample_every: int, observe) -> DMState:
    """integrate() dm_strang_step from the Coulomb-gauged data to time T,
    calling observe at each of sample_steps; returns the final state."""
    return integrate(coulomb_gauge(init, cfg), lambda s: dm_strang_step(s, cfg), n_steps_for(T, cfg.dt),
                     sample_every, observe)


# -- Picard reference integrator -----------------------------------------------


@dataclass
class PicardResult:
    """psis, As: the final iterate in real space at every time level (times);
    cauchy[m]: sup over levels of the H1 distance between iterates m and m-1;
    contraction_failed: cauchy grew three times in a row."""

    times: np.ndarray
    psis: list
    As: list
    cauchy: list
    contraction_failed: bool


def _duhamel_dirac(lat: Lattice, psi0: np.ndarray, forcing, dt: float, eps: float) -> list:
    """Solve i dt(psi) = H0 psi + F(t) per Fourier mode by the exponential
    midpoint rule: exact free flow over each step, with the endpoint average of
    the forcing riding a half-step of it.  psi0 is the spectrum at t = 0,
    forcing an iterable of the per-level forcing spectra, consumed in order;
    returns the spectra at every level."""
    out = [psi0]
    forcing = iter(forcing)
    f_prev = next(forcing)
    for f in forcing:
        out.append(free_flow_hat(lat, out[-1], dt, eps)
                   - 1j * dt * free_flow_hat(lat, 0.5 * (f_prev + f), dt / 2.0, eps))
        f_prev = f
    return out


def picard_forcing(psi: np.ndarray, A0: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The Dirac forcing -(A.alpha) psi - A0 psi of a Picard iterate, in one
    block_apply: d_+ = d_- = -A0 and V = -A."""
    minus_A0 = -A0
    return sp.block_apply(psi, minus_A0, minus_A0, sp.sigma_entries(-A))


def picard_solve(init: DMState, T: float, m_max: int, cfg: StepConfig) -> PicardResult:
    """Iterate the linearized system starting from identically-zero iterates.

    Iterate m = -1 is zero everywhere, so iterate 0 is the free evolution of
    the data.  Each Dirac update applies Duhamel with the previous iterate's
    potentials, each wave update the exact oscillator with the previous
    iterate's (Leray-projected) current.  A non-finite Cauchy distance raises
    FloatingPointError naming the iterate, the time level and t.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    lat, eps, dt = init.lat, init.eps, cfg.dt
    steps = n_steps_for(T, cfg.dt)
    times = np.arange(steps + 1) * dt
    a0, a1 = leray_hat(lat, lat.rfft(init.A)), leray_hat(lat, lat.rfft(init.eps_dtA))
    psihat0 = lat.fft(init.psi)

    zero_psi, zero_A = np.zeros_like(psihat0), np.zeros_like(a0)
    psi_prev = [zero_psi] * (steps + 1)
    A_prev = [zero_A] * (steps + 1)
    cauchy = []
    for m in range(m_max + 1):
        A_next = [a0]

        def forcing():
            # sources of the previous iterate, one level at a time; the wave
            # update rides along, driven by the average of adjacent currents.
            # Iterate -1 is zero, and so are its current and forcing spectra.
            W = a1
            for k, (psihat, Ahat) in enumerate(zip(psi_prev, A_prev)):
                J, F = zero_A, zero_psi
                if m:
                    psi = lat.ifft(psihat)
                    J = lat.rfft(sp.current_density(psi, eps))
                    F = lat.fft(picard_forcing(psi, derived_A0(lat, psi, cfg.dealias), lat.irfft(Ahat)))
                if k:
                    A_cur, W = wave_oscillator(lat, A_next[-1], W, eps * leray_hat(lat, 0.5 * (J_last + J)), dt, eps)
                    A_next.append(A_cur)
                J_last = J
                yield F

        psi_next = _duhamel_dirac(lat, psihat0, forcing(), dt, eps)
        diff = 0.0
        for k, (pn, pp) in enumerate(zip(psi_next, psi_prev)):
            d = sobolev_norm_hat(lat, pn - pp, 1.0)
            if not np.isfinite(d):
                raise FloatingPointError(f"non-finite Picard iterate {m} at time level {k}, t = {times[k]}")
            diff = max(diff, d)
        cauchy.append(diff)
        psi_prev, A_prev = psi_next, A_next

    failed = False
    if len(cauchy) >= 4:
        increasing = [cauchy[i + 1] > cauchy[i] for i in range(len(cauchy) - 1)]
        failed = any(all(increasing[i : i + 3]) for i in range(len(increasing) - 2))
    return PicardResult(times, [lat.ifft(p) for p in psi_prev], [lat.irfft(a) for a in A_prev], cauchy, failed)


# -- diagnostic constructions ----------------------------------------------------


def compute_EB(lat: Lattice, A0: np.ndarray, A: np.ndarray, eps_dtA: np.ndarray):
    """E = grad(A0) - eps dt(A), B = curl(A)."""
    return gradient(lat, A0) - eps_dtA, curl(lat, A)


def free_dirac_U(lat: Lattice, psi0: np.ndarray, T: float, dt: float, eps: float):
    """The free Dirac solution psi from psi0 and the field U of box_eps U =
    -i (eps dt + alpha.grad) psi with U(0) = 0 and i eps dt(U)(0) = psi0, both
    at time T; returns (psi, U, dt(U)).

    psi advances by the exact free flow, U by the exact per-mode oscillator
    with the source frozen at each step midpoint, all as spectra over
    n_steps_for(T, dt) steps; only the three results are inverted.  For a free
    solution eps dt(psi) = -i Q psi / eps, so the source is -gamma0 psi / eps
    per mode.  i (eps dt - alpha.grad) U reproduces psi up to the O(dt^2)
    error of the oscillator.  A source that changes by more than half its
    size in one step raises ValueError.
    """
    to_source = -np.diag(sp.GAMMA0).real[:, None, None, None] / eps  # -gamma0 / eps
    psihat = lat.fft(psi0)
    Uhat, What = np.zeros_like(psihat), -1j * psihat  # What = eps dt(U), i eps dt(U)(0) = psi0
    src_prev = to_source * psihat
    for _ in range(n_steps_for(T, dt)):
        psihat = free_flow_hat(lat, psihat, dt, eps)
        src_next = to_source * psihat
        var = float(np.max(np.abs(src_next - src_prev)) / (np.max(np.abs(src_prev)) + 1e-300))
        if var > 0.5:
            raise ValueError(f"source varies by {var:.2f} per step; refine dt")
        Uhat, What = wave_oscillator(lat, Uhat, What, 0.5 * (src_prev + src_next), dt, eps)
        src_prev = src_next
    return lat.ifft(psihat), lat.ifft(Uhat), lat.ifft(What) / eps


def reconstruct_from_U(lat: Lattice, U: np.ndarray, dtU: np.ndarray, eps: float) -> np.ndarray:
    """i (eps dt - alpha.grad) U; equals psi when U solves its wave equation."""
    grad_part = sp.dirac_symbol_apply(lat, lat.fft(U), None, None, -1.0)  # i alpha.k per mode
    return 1j * (eps * dtU - lat.ifft(grad_part))
