"""Identity checkers and run diagnostics.

These confront simulator output (or analytically generated fields) with the
algebraic structure of the coupled system: the two null-form identities
behind the Coulomb-gauge cancellations, the squared Dirac equation, the
smallness of the positron component, and the textbook lower-component
expansion with its initial constraint.

The second null identity is checked at one time: psi, U and dt(U) come from
evolve_dm.free_dirac_U, and alpha and S act in block form (alpha_dot,
spin_dot), as everywhere else.

The checks over a run (SquaredDiracResiduals, SmallComponentTrack,
NaiveExpansionResiduals) are integrate() observers: pass one to
evolve_dm.run_dm, then read result().  Each holds at most three sampled
states, by reference, and each that differences in time requires uniformly
spaced samples.

All spatial derivatives are spectral; time derivatives are exact where the
flow is per-mode exact and centered differences otherwise.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from . import spinors as sp
from .data_families import sigma_grad
from .evolve_dm import compute_EB, derived_A0
from .fourier import (Lattice, curl, divergence, gradient, inv_abs_nabla, l2_norm, laplacian, partial,
                      riesz_transform, sobolev_norm, sobolev_norm_hat)


# -- null bilinear forms --------------------------------------------------------


def qab(lat: Lattice, a: int, b: int, u, v):
    """Q_ab(u, v) = d_a u d_b v - d_b u d_a v, spatial indices a, b in 1..3."""
    return partial(lat, u, a - 1) * partial(lat, v, b - 1) - partial(lat, u, b - 1) * partial(lat, v, a - 1)


# -- identity (i): 2 A.grad psi as a null form ----------------------------------


def a_jk(lat: Lattice, A: np.ndarray, j: int, k: int) -> np.ndarray:
    """a_jk = R_j A_k - R_k A_j."""
    return riesz_transform(lat, A[k], j) - riesz_transform(lat, A[j], k)


def null_identity_one_residual(lat: Lattice, A: np.ndarray, psi: np.ndarray) -> float:
    """Relative residual of 2 A.grad psi + sum_jk Q_jk(|grad|^-1 a_jk, psi)."""
    lhs = 2.0 * np.sum(A * gradient(lat, psi), axis=-4)
    total = lhs.copy()
    for j, k in ((j, k) for j in range(3) for k in range(3) if j != k):
        phi = inv_abs_nabla(lat, a_jk(lat, A, j, k))
        total += qab(lat, j + 1, k + 1, phi, psi)
    denom = l2_norm(lat, lhs)
    return l2_norm(lat, total) / denom if denom > 0 else l2_norm(lat, total)


def null_identity_two_residual(lat: Lattice, A: np.ndarray, eps_dtA: np.ndarray,
                               psi: np.ndarray, U: np.ndarray, dtU: np.ndarray, eps: float) -> float:
    """Relative residual of the five-term null-form expansion of
    {i (E_j - d_j A0) alpha^j - B_j S^j} psi against its direct evaluation.

    A0 cancels from E_j - d_j A0 = -eps dt A_j, so only A, eps dt A, psi and
    the auxiliary wave field U (with its time derivative) enter.  alpha^l and
    S^l act in block form, as alpha_dot and spin_dot on the unit vector e_l.
    """
    B = curl(lat, A)
    lhs = -1j * sp.alpha_dot(eps_dtA, psi) - sp.spin_dot(B, psi)

    unit, eps_dt_U = np.eye(3), eps * dtU
    alpha_U = [sp.alpha_dot(e, U) for e in unit]
    alpha_dtU = [sp.alpha_dot(e, eps_dt_U) for e in unit]

    rhs = np.zeros_like(psi)
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            ajk = a_jk(lat, A, j, k)
            dt_ajk = riesz_transform(lat, eps_dtA[k], j) - riesz_transform(lat, eps_dtA[j], k)
            # term 1: Q_jk(|grad|^-1 eps dt a_jk, U)
            phi1 = inv_abs_nabla(lat, dt_ajk)
            rhs += qab(lat, j + 1, k + 1, phi1, U)
            # term 2: -Q_jk(|grad|^-1 d_l a_jk, alpha^l U)
            for l in range(3):
                phi2 = inv_abs_nabla(lat, partial(lat, ajk, l))
                rhs -= qab(lat, j + 1, k + 1, phi2, alpha_U[l])
            # term 5: -(i/2) Q_jk(A_m, eps^{jkl} S_l alpha^m U), l the third index
            l = 3 - j - k
            for m in range(3):
                w = sp.spin_dot(unit[l], alpha_U[m])
                rhs -= 0.5j * sp.LEVI_CIVITA[j, k, l] * qab(lat, j + 1, k + 1, A[m], w)
    for j in range(3):
        # term 3: Q0(A_j, alpha^j U)
        rhs += eps_dtA[j] * alpha_dtU[j]
        for l in range(3):
            rhs -= partial(lat, A[j], l) * partial(lat, alpha_U[j], l)
        # term 4: Q_0j(A_k, alpha^j alpha^k U)
        for k in range(3):
            w = sp.alpha_dot(unit[j], alpha_U[k])
            wt = sp.alpha_dot(unit[j], alpha_dtU[k])
            rhs += eps_dtA[k] * partial(lat, w, j) - partial(lat, A[k], j) * wt
    denom = l2_norm(lat, lhs)
    return l2_norm(lat, lhs - rhs) / denom if denom > 0 else l2_norm(lat, lhs - rhs)


def null_identity_check(lat: Lattice, A, eps_dtA, psi, U, dtU, eps: float):
    """Residuals of both null identities.

    Rejects A whose divergence or mean exceeds 1e-10.  A must be mean-free:
    the Riesz transforms annihilate the constant mode, which on the torus
    plays the role of the decay assumed on the whole space.
    """
    div_max = float(np.max(np.abs(divergence(lat, A))))
    if not div_max <= 1e-10:
        raise ValueError(f"A is not divergence-free (max |div A| = {div_max:.2e})")
    mean_max = float(np.max(np.abs(np.mean(A, axis=(1, 2, 3)))))
    if mean_max > 1e-10:
        raise ValueError(f"A must be mean-free (max |mean A| = {mean_max:.2e})")
    res1 = null_identity_one_residual(lat, A, psi)
    res2 = null_identity_two_residual(lat, A, eps_dtA, psi, U, dtU, eps)
    return res1, res2


# -- checks over a run: integrate() observers on a three-sample window -----------


class _Window:
    """Base of the run checks.  Called on each sample of a DM run, it keeps
    the last three as (state, derive(state)); stepped states are frozen and
    read-only, so they are held by reference.  interior() of each full window
    is appended to ``out``; it differences in time over dt, the spacing of the
    first two samples, so every later spacing must match dt.  A check whose
    interior is None takes no time difference: it keeps no window and accepts
    any spacing."""

    interior = None

    def __init__(self):
        self.times, self.out, self.dt = [], [], None
        self.window = deque(maxlen=3)

    def __call__(self, state):
        if self.interior is not None and self.times:
            spacing = state.t - self.times[-1]
            if self.dt is None:
                self.dt = spacing
            elif not np.allclose(spacing, self.dt, rtol=1e-8):
                raise ValueError("samples must be uniformly spaced")
        self.times.append(state.t)
        derived = self.derive(state)
        if self.interior is not None:
            self.window.append((state, derived))
            if len(self.window) == 3:
                self.out.append(self.interior(*self.window))

    def result(self) -> np.ndarray:
        return np.array(self.out)


class SquaredDiracResiduals(_Window):
    """L2 residual of the squared equation at interior samples, using
    centered second differences in time.

    Requires uniformly spaced samples."""

    def derive(self, state):
        return derived_A0(state.lat, state.psi)

    def interior(self, prev, mid, nxt):
        (s_m, A0_m), (s, A0), (s_p, A0_p) = prev, mid, nxt
        lat, eps, dt, psi = s.lat, s.eps, self.dt, s.psi
        dt_psi = (s_p.psi - s_m.psi) / (2.0 * dt)
        dtt_psi = (s_p.psi - 2.0 * psi + s_m.psi) / dt**2
        dt_A0 = (A0_p - A0_m) / (2.0 * dt)
        res = eps**2 * (-dtt_psi + 1j * dt_A0 * psi + 2j * A0 * dt_psi + A0**2 * psi)  # eps^2 (i dt + A0)^2 psi
        # (grad - i eps A)^2 psi, div A = 0
        res += laplacian(lat, psi)
        res -= 2j * eps * np.sum(s.A * gradient(lat, psi), axis=-4)
        res -= eps**2 * np.sum(s.A**2, axis=0) * psi
        res -= psi / eps**2
        E, B = compute_EB(lat, A0, s.A, s.eps_dtA)
        res -= 1j * eps * sp.alpha_dot(E, psi)
        res += eps * sp.spin_dot(B, psi)
        return l2_norm(lat, res)

    def result(self) -> np.ndarray:
        if len(self.times) < 3:
            raise ValueError("need at least three samples")
        return super().result()


# -- small component and naive expansion ------------------------------------------


class SmallComponentTrack(_Window):
    """Series of ||Pi_-^eps psi(t)||_{H^1} plus the measured constant in
    sup_t ||.|| <= C eps^order, with the eta-based surrogates; both norms
    come from one spectrum of psi (exp(i t/eps^2) has modulus 1).  Order 2
    adds the L2 norm of the centered dt(eta) and so requires uniformly
    spaced samples; order 1 takes no time difference."""

    def __init__(self, order: int):
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        super().__init__()
        self.order, self.pi_minus, self.eta = order, [], []
        if order == 1:
            self.interior = None

    def derive(self, state):
        lat, self.eps = state.lat, state.eps
        psihat = lat.fft(state.psi)
        self.pi_minus.append(sobolev_norm_hat(lat, sp.pi_eps_hat(lat, psihat, self.eps, -1), 1.0))
        self.eta.append(sobolev_norm_hat(lat, sp.lower(psihat), 1.0))
        if self.order == 2:
            return sp.lower(np.exp(1j * state.t / self.eps**2) * state.psi)

    def interior(self, prev, mid, nxt):
        return sobolev_norm(mid[0].lat, (nxt[1] - prev[1]) / (2.0 * self.dt), 0.0)

    def result(self) -> dict:
        series = np.array(self.pi_minus)
        return {"times": np.asarray(self.times), "pi_minus": series, "eta": np.array(self.eta),
                "constant": float(series.max() / self.eps**self.order), "order": self.order,
                **({"dt_eta": super().result()} if self.order == 2 else {})}


class NaiveExpansionResiduals(_Window):
    """L2 residual of the lower-component expansion
    eta + (eps/2) i sigma.grad chi + (eps^2/2){i dt eta + A0 eta + A_j sigma^j chi}
    at interior samples.

    dt(eta) is a centered difference over the run's sample spacing, which
    must be uniform.
    With the exact derivative the expansion is an identity; the quantity
    being probed is the textbook reading in which eta moves at an O(1) rate,
    so the samples must be spaced at an eps-independent O(1) interval that
    does not resolve the rest-energy oscillation.  Data satisfying the
    leading-order constraint then leave an O(eps^2) residual, while the
    (v, eps v) counterexample leaves Theta(eps)."""

    def derive(self, state):
        return np.exp(1j * state.t / state.eps**2) * state.psi

    def interior(self, prev, mid, nxt):
        s, phi = mid
        lat, eps = s.lat, s.eps
        chi, eta = sp.upper(phi), sp.lower(phi)
        dt_eta = (sp.lower(nxt[1]) - sp.lower(prev[1])) / (2.0 * self.dt)
        res = eta + 0.5j * eps * sigma_grad(lat, chi)
        res += 0.5 * eps**2 * (1j * dt_eta + derived_A0(lat, s.psi) * eta + sp.sigma_dot(s.A, chi))
        return l2_norm(lat, res)


def counterexample_current_gap(lat: Lattice, v_plus: np.ndarray, eps: float) -> float:
    """L2 distance at t = 0 between the current of psi0 = (v0+, eps v0+) and
    the weak-limit current of (v0+, 0); eps-independent and positive for
    spin-polarized v0+."""
    psi0 = sp.embed_upper(v_plus) + sp.embed_lower(eps * v_plus)
    J_eps = sp.current_density(psi0, eps)
    J_lim = sp.limit_current(lat, v_plus, np.zeros_like(v_plus))
    return l2_norm(lat, J_eps - J_lim)
