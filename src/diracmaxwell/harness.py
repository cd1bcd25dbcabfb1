"""Identity checkers and run diagnostics.

These confront simulator output (or analytically generated fields) with the
algebraic structure of the coupled system: the two null-form identities
behind the Coulomb-gauge cancellations, the squared Dirac equation, the
smallness of the positron component, and the textbook lower-component
expansion with its initial constraint.

The second null identity is checked at one time: psi, U and dt(U) come from
evolve_dm.free_dirac_U, and alpha and S act in block form (alpha_dot,
spin_dot), as everywhere else.

The checks over a run (SquaredDiracResiduals, NaiveExpansionResiduals) are
integrate() observers: pass one to evolve_dm.run_dm, then read result().
Each holds at most three sampled states, by reference, requires uniformly
spaced samples, and reads A0 from the values each state of a run carries
(DMState.carried), so it is the run's own, dealiased or not; a state that no
run made raises ValueError.  The positron part ||Pi_- psi||_H1 is the
h1_pi_minus_psi column of every DM sample (evolve_dm.checked_diagnostics).

CHECKS maps each fixed-input suite to the function that computes its rows
(name, residual, tol); a row passes when residual < tol.  ``dmx check``
prints one suite, and acceptance criteria 01-04 assert the rows of the first
five.  A lower-bound or window row reads as its excess over the bound (such
as 2.5 - ratio), negative exactly when it holds.

All spatial derivatives are spectral; time derivatives are exact where the
flow is per-mode exact and centered differences otherwise.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from . import spinors as sp
from .data_families import gauge_data, gauge_profile, sigma_grad, spinor_data, v_minus_profile, v_plus_profile
from .evolve_dm import (DMState, StepConfig, checked_diagnostics, compute_EB, free_dirac_U, free_flow_hat,
                        reconstruct_from_U, run_dm)
from .fourier import (Lattice, curl, dealias, divergence, gradient, h_eps_symbol, inv_abs_nabla, l2_norm, lambda_eps,
                      laplacian, leray_project, make_lattice, mode_multipliers, partial, riesz_transform,
                      sobolev_norm_hat)


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
    the last three states; stepped states are frozen and read-only, so they
    are held by reference.  interior(prev, mid, nxt) of each full window is
    appended to ``out``; it differences in time over dt, the spacing of the
    first two samples, so every later spacing must match dt."""

    def __init__(self):
        self.out, self.dt = [], None
        self.window = deque(maxlen=3)

    def __call__(self, state):
        self.window.append(state)
        if len(self.window) == 3:
            prev, mid, nxt = self.window
            if self.dt is None:
                self.dt = mid.t - prev.t
            if not np.allclose(nxt.t - mid.t, self.dt, rtol=1e-8):
                raise ValueError("samples must be uniformly spaced")
            self.out.append(self.interior(prev, mid, nxt))

    def result(self) -> np.ndarray:
        return np.array(self.out)


class SquaredDiracResiduals(_Window):
    """L2 residual of the squared equation at interior samples, using
    centered second differences in time.

    Requires uniformly spaced samples."""

    def interior(self, s_m, s, s_p):
        lat, eps, dt, psi = s.lat, s.eps, self.dt, s.psi
        A0_m, A0, A0_p = s_m.carried.A0, s.carried.A0, s_p.carried.A0
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
        if not self.out:  # a window is full from the third sample on
            raise ValueError("need at least three samples")
        return super().result()


# -- the naive lower-component expansion ---------------------------------------


def _phased(state) -> np.ndarray:
    """exp(i t/eps^2) psi: the spinor with its rest-energy phase removed."""
    return np.exp(1j * state.t / state.eps**2) * state.psi


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

    def interior(self, prev, s, nxt):
        lat, eps, phi = s.lat, s.eps, _phased(s)
        chi, eta = sp.upper(phi), sp.lower(phi)
        dt_eta = (sp.lower(_phased(nxt)) - sp.lower(_phased(prev))) / (2.0 * self.dt)
        res = eta + 0.5j * eps * sigma_grad(lat, chi)
        res += 0.5 * eps**2 * (1j * dt_eta + s.carried.A0 * eta + sp.sigma_dot(s.A, chi))
        return l2_norm(lat, res)


def counterexample_current_gap(lat: Lattice, v_plus: np.ndarray, eps: float) -> float:
    """L2 distance at t = 0 between the current of psi0 = (v0+, eps v0+) and
    the weak-limit current of (v0+, 0); eps-independent and positive for
    spin-polarized v0+."""
    psi0 = sp.embed_upper(v_plus) + sp.embed_lower(eps * v_plus)
    J_eps = sp.current_density(psi0, eps)
    J_lim = sp.limit_current(lat, v_plus, np.zeros_like(v_plus))
    return l2_norm(lat, J_eps - J_lim)


# -- the check table: dmx check and acceptance criteria 01-04 ---------------------


def _matrices() -> list:
    rows, eye = [], np.eye(4)
    for j, k in ((j, k) for j in range(3) for k in range(3)):
        anti = sp.ALPHA[j] @ sp.ALPHA[k] + sp.ALPHA[k] @ sp.ALPHA[j] - 2 * (j == k) * eye
        spin = sum(sp.LEVI_CIVITA[j, k, l] * sp.SPIN[l] for l in range(3))
        prod = sp.ALPHA[j] @ sp.ALPHA[k] - ((j == k) * eye + 1j * spin)
        rows += [(f"anticommute_{j}{k}", float(np.abs(anti).max()), 1e-15),
                 (f"spin_identity_{j}{k}", float(np.abs(prod).max()), 1e-15)]
    herm = max(float(np.abs(m - m.conj().T).max()) for m in (sp.GAMMA0, *sp.ALPHA))
    return [*rows, ("gamma0_sq", float(np.abs(sp.GAMMA0 @ sp.GAMMA0 - eye).max()), 1e-15), ("hermitian", herm, 1e-15)]


def _projections() -> list:
    lat, rng = make_lattice(16, 2 * np.pi), np.random.default_rng(0)
    psi = rng.standard_normal((4, 16, 16, 16)) + 1j * rng.standard_normal((4, 16, 16, 16))
    rows = []
    for eps in (1.0, 0.5, 0.25):
        pp, pm = sp.pi_eps(lat, psi, eps, +1), sp.pi_eps(lat, psi, eps, -1)
        q = sp.free_dirac_apply(lat, psi, eps) - (lambda_eps(lat, pp, eps, 1) - lambda_eps(lat, pm, eps, 1))
        rows += [(f"completeness_eps{eps}", float(np.abs(pp + pm - psi).max()), 1e-12),
                 (f"idempotent_eps{eps}", float(np.abs(sp.pi_eps(lat, pp, eps, +1) - pp).max()), 1e-12),
                 (f"orthogonal_eps{eps}", float(np.abs(sp.pi_eps(lat, pm, eps, +1)).max()), 1e-12),
                 (f"spectral_decomp_eps{eps}", float(np.abs(q).max()), 1e-12)]
    return rows


def _symbols() -> list:
    """Violations past 1e-15 of 0 <= 1 - 1/lambda <= min(1, eps|k|, eps^2|k|^2),
    lambda from mode_multipliers, and of 0 <= |k|/eps - h_eps_symbol <= 1/eps^2;
    + 0.0 makes a -0.0 excess 0.0, and a NaN excess stays NaN and fails."""
    lat = make_lattice(16, 2 * np.pi)
    nz, rows = lat.k_sq > 0, []
    for eps in (0.125, 0.25, 0.5, 1.0):
        sym = 1.0 - 1.0 / mode_multipliers(lat, eps, 0.0).lam
        upper = np.minimum(1.0, np.minimum(eps * lat.k_abs, eps**2 * lat.k_sq))
        gap = lat.k_abs[nz] / eps - h_eps_symbol(lat, eps)[nz]
        rows += [(f"{name}_eps{eps}", max(float(excess.max()), 0.0) + 0.0, 1e-15) for name, excess in (
            ("one_minus_invlambda_lower", -sym), ("one_minus_invlambda_upper", sym - upper),
            ("dispersion_gap_lower", -gap), ("dispersion_gap_upper", gap - 1.0 / eps**2))]
    return rows


def _null_one() -> list:
    """20 draws of a dealiased, divergence- and mean-free A and a dealiased spinor."""
    lat, rng, rows = make_lattice(24, 2 * np.pi), np.random.default_rng(1), []
    for trial in range(20):
        A = leray_project(lat, dealias(lat, rng.standard_normal((3, 24, 24, 24))))
        A -= A.mean(axis=(1, 2, 3), keepdims=True)
        psi = dealias(lat, rng.standard_normal((4, 24, 24, 24)) + 1j * rng.standard_normal((4, 24, 24, 24)))
        rows.append((f"null_identity_1_trial{trial}", null_identity_one_residual(lat, A, psi), 1e-10))
    return rows


def _null_two() -> list:
    """A free Dirac solution and an oscillating A, U stepped at dt = 1e-3 and
    2e-3.  The (ii) residual is U's O(dt^2) error, so halving dt divides it by
    2.5 to 6: max(2.5 - ratio, ratio - 6) is negative exactly inside.  The same
    U rebuilds psi as i (eps dt - alpha.grad) U (reconstruct_from_U)."""
    lat, eps, T, om = make_lattice(16, 2 * np.pi), 0.5, 0.25, 1.3
    psi0 = sp.pi_eps(lat, sp.embed_upper(v_plus_profile(lat, 0.5)), eps, +1) + sp.pi_eps(
        lat, sp.embed_lower(v_minus_profile(lat, 0.3)), eps, -1)
    Aprof = gauge_profile(lat, 0.2)
    A_t, W_t = np.cos(om * T) * Aprof, -eps * om * np.sin(om * T) * Aprof
    rows, res2 = [], {}
    for dt, suffix in ((1e-3, ""), (2e-3, "_dt0.002")):
        psi, U, dtU = free_dirac_U(lat, psi0, T, dt, eps)
        r1, res2[dt] = null_identity_check(lat, A_t, W_t, psi, U, dtU, eps)
        rebuilt = l2_norm(lat, reconstruct_from_U(lat, U, dtU, eps) - psi)
        rows += [(f"null_identity_1_freedirac{suffix}", r1, 1e-10),
                 (f"null_identity_2_freedirac{suffix}", res2[dt], 1e-5),
                 (f"reconstruct_from_U_freedirac{suffix}", rebuilt, 1e-4)]
    ratio = res2[2e-3] / res2[1e-3]
    return [*rows, ("null_identity_2_halving_ratio_in_2.5_6", max(2.5 - ratio, ratio - 6.0), 0.0)]


def _squared_dirac() -> list:
    lat, eps = make_lattice(12, 2 * np.pi), 0.25
    psi0 = spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5})
    a0, a1 = gauge_data(lat, "bandlimited_divfree", {"gauge_amplitude": 0.2})
    res = {}
    for dt in (2e-3, 1e-3):
        check = SquaredDiracResiduals()
        run_dm(DMState(lat, 0.0, psi0, a0, a1, eps), 0.1, StepConfig(dt=dt), 1, check)
        res[dt] = float(np.max(check.result()))
    ratio = res[2e-3] / res[1e-3]
    return [*((f"squared_dirac_dt{dt}", r, 1.0) for dt, r in res.items()),
            ("squared_dirac_halving_ratio_ge_3", 3.0 - min(ratio, 3.0), 1e-9)]


def _pi_minus_sup(init: DMState, T: float, dt: float, every: int) -> float:
    """sup over the samples of a DM run of ||Pi_- psi||_H1, the h1_pi_minus_psi column of run-dm."""
    cfg = StepConfig(dt=dt)
    sups = []
    run_dm(init, T, cfg, every, lambda s: sups.append(checked_diagnostics(s, cfg)["h1_pi_minus_psi"]))
    return max(sups)


def _small_component() -> list:
    """sup_t ||Pi_-^eps psi||_H1 at n = 12.  It is 0 under the free flow of
    upper-projected data and O(eps) in a gauged run of them: halving eps
    divides it by 1.4 to 2.6.  For the counterexample (v, eps v) it is O(eps),
    not O(eps^2): each halving ratio stays below 3."""
    lat, zero = make_lattice(12, 2 * np.pi), np.zeros((3, 12, 12, 12))
    psihat = lat.fft(spinor_data(lat, "upper_projected", 0.25, {"amplitude": 0.5}))
    free = max(sobolev_norm_hat(lat, sp.pi_eps_hat(lat, free_flow_hat(lat, psihat, float(t), 0.25), 0.25, -1), 1.0)
               for t in np.arange(0, 0.1, 0.01))
    gauged = {eps: _pi_minus_sup(DMState(lat, 0.0, spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5}),
                                         gauge_profile(lat, 0.2), zero, eps), 0.1, 1e-3 * eps / 0.4, 25)
              for eps in (0.4, 0.2)}
    counter = {eps: _pi_minus_sup(DMState(lat, 0.0, spinor_data(lat, "counterexample", eps, {"amplitude": 0.5}),
                                          zero, zero, eps), 0.02, 1e-3, 10) for eps in (0.4, 0.2, 0.1)}
    ratio = gauged[0.4] / gauged[0.2]
    return [("free_flow_pi_minus", free, 1e-12),
            ("upper_projected_halving_ratio_in_1.4_2.6", max(1.4 - ratio, ratio - 2.6), 0.0),
            *((f"counterexample_halving_ratio_lt_3_eps{a}", counter[a] / counter[b], 3.0)
              for a, b in ((0.4, 0.2), (0.2, 0.1)))]


def _naive_expansion() -> list:
    """NaiveExpansionResiduals at n = 12 over T = 0.2, dt = 1e-3, sampled
    every 0.05: an O(1) spacing, blind to the rest-energy phase.  The
    constrained data leave O(eps^2): below 0.1 at eps = 0.2, and halving eps
    divides the sup by more than 2.5.  The counterexample leaves Theta(eps) at
    the first interior sample: above 5 eps, with a halving ratio below 3."""
    lat, zero = make_lattice(12, 2 * np.pi), np.zeros((3, 12, 12, 12))
    res = {}
    for family in ("constrained", "counterexample"):
        for eps in (0.2, 0.1):
            check = NaiveExpansionResiduals()
            run_dm(DMState(lat, 0.0, spinor_data(lat, family, eps, {"amplitude": 0.5}), zero, zero, eps), 0.2,
                   StepConfig(dt=1e-3), 50, check)
            res[family, eps] = check.result()
    con = {eps: float(np.max(res["constrained", eps])) for eps in (0.2, 0.1)}
    cex = {eps: float(res["counterexample", eps][0]) for eps in (0.2, 0.1)}
    return [("constrained_residual_eps0.2", con[0.2], 0.1),
            ("constrained_halving_ratio_gt_2.5", 2.5 - con[0.2] / con[0.1], 0.0),
            *((f"counterexample_residual_gt_5eps_eps{eps}", 5.0 * eps - cex[eps], 0.0) for eps in (0.2, 0.1)),
            ("counterexample_halving_ratio_lt_3", cex[0.2] / cex[0.1], 3.0)]


CHECKS = {"matrices": _matrices, "projections": _projections, "symbols": _symbols, "null-1": _null_one,
          "null-2": _null_two, "squared-dirac": _squared_dirac, "small-component": _small_component,
          "naive-expansion": _naive_expansion}


def check_rows(suite: str) -> list:
    """(name, residual, tol, passed) of each row of CHECKS[suite]: a row passes when residual < tol."""
    return [(name, residual, tol, residual < tol) for name, residual, tol in CHECKS[suite]()]
