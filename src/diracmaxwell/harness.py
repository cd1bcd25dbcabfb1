"""Identity checkers and trajectory diagnostics.

These confront simulator output (or analytically generated fields) with the
algebraic structure of the coupled system: the two null-form identities
behind the Coulomb-gauge cancellations, the squared Dirac equation, the
smallness of the positron component, and the textbook lower-component
expansion with its initial constraint.

All spatial derivatives are spectral; time derivatives are exact where the
flow is per-mode exact and centered differences otherwise.
"""

from __future__ import annotations

import numpy as np

from . import spinors as sp
from .evolve_dm import Trajectory, compute_EB, derived_A0
from .fourier import (Lattice, curl, divergence, gradient, inv_abs_nabla, l2_norm, laplacian, partial,
                      riesz_transform, sobolev_norm)


# -- null bilinear forms --------------------------------------------------------


def q0(lat: Lattice, u, ut, v, vt, eps: float):
    """Q0(u, v) = (eps dt u)(eps dt v) - grad u . grad v."""
    if ut is None or vt is None:
        raise ValueError("Q0 needs both time derivatives")
    return eps**2 * ut * vt - np.sum(gradient(lat, u) * gradient(lat, v), axis=-4)


def qab(lat: Lattice, a: int, b: int, u, v, ut=None, vt=None, eps: float = 1.0):
    """Q_ab(u, v) = d_a u d_b v - d_b u d_a v with d_0 = eps dt.

    Indices 0..3; index 0 requires the matching time derivative.
    """
    if a == b:
        return np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)), dtype=complex)

    def d(f, ft, idx):
        if idx == 0:
            if ft is None:
                raise ValueError("Q_0j needs time derivatives")
            return eps * ft
        return partial(lat, f, idx - 1)

    return d(u, ut, a) * d(v, vt, b) - d(u, ut, b) * d(v, vt, a)


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
                               psi: np.ndarray, U: np.ndarray, dtU: np.ndarray,
                               eps: float, A0: np.ndarray | None = None) -> float:
    """Relative residual of the five-term null-form expansion of
    {i (E_j - d_j A0) alpha^j - B_j S^j} psi against its direct evaluation.

    A0 cancels from E_j - d_j A0 = -eps dt A_j, so only A, eps dt A, psi and
    the auxiliary wave field U (with its time derivative) enter.
    """
    B = curl(lat, A)
    lhs = -1j * sp.alpha_dot(eps_dtA, psi) - sp.spin_dot(B, psi)

    eps_dt_U = eps * dtU
    alpha_U = [sp.mat(sp.ALPHA[l], U) for l in range(3)]
    alpha_dtU = [sp.mat(sp.ALPHA[l], eps_dt_U) for l in range(3)]

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
                w = alpha_U[l]
                rhs -= qab(lat, j + 1, k + 1, phi2, w)
            # term 5: -(i/2) Q_jk(A_m, eps^{jkl} S_l alpha^m U)
            for l in range(3):
                lev = sp.LEVI_CIVITA[j, k, l]
                if lev == 0.0:
                    continue
                for m in range(3):
                    w = sp.mat(sp.SPIN[l], alpha_U[m])
                    rhs -= 0.5j * lev * qab(lat, j + 1, k + 1, A[m], w)
    for j in range(3):
        # term 3: Q0(A_j, alpha^j U)
        rhs += eps_dtA[j] * alpha_dtU[j]
        for l in range(3):
            rhs -= partial(lat, A[j], l) * partial(lat, alpha_U[j], l)
        # term 4: Q_0j(A_k, alpha^j alpha^k U)
        for k in range(3):
            w = sp.mat(sp.ALPHA[j] @ sp.ALPHA[k], U)
            wt = sp.mat(sp.ALPHA[j] @ sp.ALPHA[k], eps_dt_U)
            rhs += eps_dtA[k] * partial(lat, w, j) - partial(lat, A[k], j) * wt
    denom = l2_norm(lat, lhs)
    return l2_norm(lat, lhs - rhs) / denom if denom > 0 else l2_norm(lat, lhs - rhs)


def null_identity_check(lat: Lattice, A0, A, eps_dtA, psi, U, dtU, eps: float):
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
    res2 = null_identity_two_residual(lat, A, eps_dtA, psi, U, dtU, eps, A0)
    return res1, res2


# -- squared Dirac equation ------------------------------------------------------


def squared_dirac_residuals(traj: Trajectory) -> np.ndarray:
    """L2 residual of the squared equation at interior samples, using
    centered second differences in time.

    Requires uniformly spaced samples with psi, A and eps dt A stored.
    """
    lat, eps = traj.lat, traj.eps
    times = np.asarray(traj.times)
    if len(times) < 3:
        raise ValueError("need at least three samples")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValueError("samples must be uniformly spaced")
    dt = float(dts[0])
    A0_series = [derived_A0(lat, p) for p in traj.psis]
    out = []
    for i in range(1, len(times) - 1):
        psi_m, psi, psi_p = traj.psis[i - 1], traj.psis[i], traj.psis[i + 1]
        A0_m, A0, A0_p = A0_series[i - 1], A0_series[i], A0_series[i + 1]
        A, W = traj.As[i], traj.Ws[i]
        dt_psi = (psi_p - psi_m) / (2.0 * dt)
        dtt_psi = (psi_p - 2.0 * psi + psi_m) / dt**2
        dt_A0 = (A0_p - A0_m) / (2.0 * dt)
        # eps^2 (i dt + A0)^2 psi
        res = eps**2 * (
            -dtt_psi + 1j * dt_A0 * psi + 2j * A0 * dt_psi + A0**2 * psi
        )
        # (grad - i eps A)^2 psi, div A = 0
        res += laplacian(lat, psi)
        res -= 2j * eps * np.sum(A * gradient(lat, psi), axis=-4)
        res -= eps**2 * np.sum(A**2, axis=0) * psi
        res -= psi / eps**2
        E, B = compute_EB(lat, A0, A, W)
        res -= 1j * eps * sp.alpha_dot(E, psi)
        res += eps * sp.spin_dot(B, psi)
        out.append(l2_norm(lat, res))
    return np.array(out)


# -- small component and naive expansion ------------------------------------------


def small_component_track(traj: Trajectory, order: int, m: int = 1) -> dict:
    """Series of ||Pi_-^eps psi(t)||_{H^m} plus the measured constant in
    sup_t ||.|| <= C eps^order, with the eta-based surrogates."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    lat, eps = traj.lat, traj.eps
    series = np.array(
        [sobolev_norm(lat, sp.pi_eps(lat, p, eps, -1), float(m)) for p in traj.psis]
    )
    etas = [sp.lower(np.exp(1j * t / eps**2) * p) for t, p in zip(traj.times, traj.psis)]
    eta_series = np.array([sobolev_norm(lat, e, float(m)) for e in etas])
    result = {
        "times": np.asarray(traj.times),
        "pi_minus": series,
        "eta": eta_series,
        "constant": float(series.max() / eps**order),
        "order": order,
    }
    if order == 2:
        times = np.asarray(traj.times)
        dt = float(times[1] - times[0])
        dt_eta = [
            sobolev_norm(lat, (etas[i + 1] - etas[i - 1]) / (2.0 * dt), float(m - 1))
            for i in range(1, len(etas) - 1)
        ]
        result["dt_eta"] = np.array(dt_eta)
    return result


def naive_expansion_residuals(traj: Trajectory) -> np.ndarray:
    """L2 residual of the lower-component expansion
    eta + (eps/2) i sigma.grad chi + (eps^2/2){i dt eta + A0 eta + A_j sigma^j chi}
    at interior samples.

    dt(eta) is a centered difference over the trajectory's sample spacing.
    With the exact derivative the expansion is an identity; the quantity
    being probed is the textbook reading in which eta moves at an O(1) rate,
    so the samples must be spaced at an eps-independent O(1) interval that
    does not resolve the rest-energy oscillation.  Data satisfying the
    leading-order constraint then leave an O(eps^2) residual, while the
    (v, eps v) counterexample leaves Theta(eps)."""
    from .data_families import sigma_grad

    lat, eps = traj.lat, traj.eps
    times = np.asarray(traj.times)
    dt = float(times[1] - times[0])
    phis = [np.exp(1j * t / eps**2) * p for t, p in zip(traj.times, traj.psis)]
    out = []
    for i in range(1, len(times) - 1):
        chi, eta = sp.upper(phis[i]), sp.lower(phis[i])
        dt_eta = (sp.lower(phis[i + 1]) - sp.lower(phis[i - 1])) / (2.0 * dt)
        A0 = derived_A0(lat, traj.psis[i])
        A = traj.As[i]
        res = eta + 0.5j * eps * sigma_grad(lat, chi)
        res += 0.5 * eps**2 * (1j * dt_eta + A0 * eta + sp.sigma_dot(A, chi))
        out.append(l2_norm(lat, res))
    return np.array(out)


def counterexample_current_gap(lat: Lattice, v_plus: np.ndarray, eps: float) -> float:
    """L2 distance at t = 0 between the current of psi0 = (v0+, eps v0+) and
    the weak-limit current of (v0+, 0); eps-independent and positive for
    spin-polarized v0+."""
    psi0 = sp.embed_upper(v_plus) + sp.embed_lower(eps * v_plus)
    J_eps = sp.current_density(psi0, eps)
    J_lim = sp.limit_current(lat, v_plus, np.zeros_like(v_plus))
    return l2_norm(lat, J_eps - J_lim)
