"""Dirac/Pauli matrix constants, energy projections and density formulas.

Spinor fields are complex ndarrays with a leading component axis: 4-spinors
``(4, n, n, n)``, 2-spinors ``(2, n, n, n)``.  The upper/lower split of a
4-spinor is ``psi[:2]`` / ``psi[2:]``.

The pointwise C^m inner product used throughout is conjugate-linear in the
first slot, ``inner(u, v) = sum_a conj(u_a) v_a``.  Current-type quantities
are written as ``Im inner(v, Dv)`` so that a plane wave exp(i k.x) carries
current +k; spin densities ``inner(v, sigma v)`` are real either way.
"""

from __future__ import annotations

import numpy as np

from .fourier import Lattice, lambda_eps

# Pauli matrices and the 4x4 Dirac set (2x2 block form).
SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

GAMMA0 = np.block([[_I2, _Z2], [_Z2, -_I2]])
GAMMA = np.array([np.block([[_Z2, s], [-s, _Z2]]) for s in SIGMA])
ALPHA = np.array([np.block([[_Z2, s], [s, _Z2]]) for s in SIGMA])
# S^m = i gamma^k gamma^l for (k,l,m) cyclic: diag(sigma^m, sigma^m)
SPIN = np.array([np.block([[s, _Z2], [_Z2, s]]) for s in SIGMA])

LEVI_CIVITA = np.zeros((3, 3, 3))
for _j, _k, _l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    LEVI_CIVITA[_j, _k, _l] = 1.0
    LEVI_CIVITA[_j, _l, _k] = -1.0


def mat(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply a constant component matrix at every grid point."""
    return np.einsum("ab,b...->a...", m, psi)


def inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise C^m inner product, conjugate-linear first slot."""
    return np.sum(np.conj(u) * v, axis=0)


def upper(psi: np.ndarray) -> np.ndarray:
    return psi[:2]


def lower(psi: np.ndarray) -> np.ndarray:
    return psi[2:]


def embed_upper(chi: np.ndarray) -> np.ndarray:
    return np.concatenate([chi, np.zeros_like(chi)])


def embed_lower(eta: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros_like(eta), eta])


# -- free Dirac spectral data --------------------------------------------------


def _q_hat_apply(lat: Lattice, psihat: np.ndarray, eps: float) -> np.ndarray:
    """Per-mode action of the free Dirac symbol eps*alpha.k + gamma0."""
    out = mat(GAMMA0, psihat)
    out += eps * lat.kx * mat(ALPHA[0], psihat)
    out += eps * lat.ky * mat(ALPHA[1], psihat)
    out += eps * lat.kz * mat(ALPHA[2], psihat)
    return out


def free_dirac_apply(lat: Lattice, psi: np.ndarray, eps: float) -> np.ndarray:
    """Apply Q^eps = -i eps alpha.grad + gamma0."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    return lat.ifft(_q_hat_apply(lat, lat.fft(psi), eps))


def pi_eps(lat: Lattice, psi: np.ndarray, eps: float, sign: int) -> np.ndarray:
    """Energy projection: per mode (I +/- (eps alpha.k + gamma0)/lambda)/2."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    psihat = lat.fft(psi)
    lam = np.sqrt(1.0 + eps**2 * lat.k_sq)
    qpsi = _q_hat_apply(lat, psihat, eps)
    return lat.ifft(0.5 * (psihat + sign * qpsi / lam))


def pi_zero(psi: np.ndarray, sign: int) -> np.ndarray:
    """Formal eps -> 0 limit of the projections: keep upper/lower block."""
    out = np.zeros_like(psi)
    if sign == 1:
        out[:2] = psi[:2]
    elif sign == -1:
        out[2:] = psi[2:]
    else:
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return out


def projection_remainders(lat: Lattice, f: np.ndarray, eps: float, sign: int = 1):
    """L2 sizes of Pi^eps - Pi^0 and of the expansion through order eps.

    The first remainder is O(eps), the second O(eps^2) for fixed band-limited
    f; the first-order term of the expansion is -/+ (i eps/2) alpha.grad.
    """
    from .fourier import l2_norm

    fhat = lat.fft(f)
    lam = np.sqrt(1.0 + eps**2 * lat.k_sq)
    qf = _q_hat_apply(lat, fhat, eps)
    proj = 0.5 * (fhat + sign * qf / lam)
    proj0 = np.zeros_like(fhat)
    if sign == 1:
        proj0[:2] = fhat[:2]
    else:
        proj0[2:] = fhat[2:]
    rem1 = lat.ifft(proj - proj0)
    # (-/+ i eps/2 alpha.grad) has mode matrix +/- (eps/2) alpha.k
    first = 0.5 * eps * sign * (
        lat.kx * mat(ALPHA[0], fhat) + lat.ky * mat(ALPHA[1], fhat) + lat.kz * mat(ALPHA[2], fhat)
    )
    rem2 = lat.ifft(proj - proj0 - first)
    return l2_norm(lat, rem1), l2_norm(lat, rem2)


# -- splittings and modulation -------------------------------------------------


def kg_split(lat: Lattice, psi: np.ndarray, dtpsi: np.ndarray, A0: np.ndarray, eps: float):
    """Klein-Gordon splitting psi_pm = (psi +/- eps^2 lam^-1 (i dtpsi + A0 psi))/2."""
    aux = lambda_eps(lat, 1j * dtpsi + A0 * psi, eps, -1)
    plus = 0.5 * (psi + eps**2 * aux)
    minus = 0.5 * (psi - eps**2 * aux)
    return plus, minus


def modulate(psi_pm: np.ndarray, t: float, eps: float, sign: int) -> np.ndarray:
    """Remove the rest-energy phase: phi_pm = exp(+/- i t / eps^2) psi_pm."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return np.exp(sign * 1j * t / eps**2) * psi_pm


# -- densities -----------------------------------------------------------------


def charge_density(psi: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(psi) ** 2, axis=0)


def current_density(psi: np.ndarray, eps: float) -> np.ndarray:
    """J_k = eps^-1 <alpha^k psi, psi>; real, vanishes for one-block spinors."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    chi, eta = psi[:2], psi[2:]
    # psi^dag alpha^k psi = 2 Re(chi^dag sigma^k eta)
    return np.stack(
        [2.0 / eps * np.real(inner(chi, mat(SIGMA[k], eta))) for k in range(3)]
    )


def total_charge(lat: Lattice, psi: np.ndarray) -> float:
    return float(np.sum(np.abs(psi) ** 2) * lat.cell_volume)


def spin_density(v: np.ndarray) -> np.ndarray:
    """Real 3-vector <sigma v, v> of a 2-spinor field."""
    return np.stack([np.real(inner(v, mat(SIGMA[k], v))) for k in range(3)])


def limit_current(lat: Lattice, v_plus: np.ndarray, v_minus: np.ndarray) -> np.ndarray:
    """Limit current: momentum parts of v+ and v- (opposite signs) plus the
    divergence-free spin-curl corrections."""
    from .fourier import curl, gradient

    out = np.zeros((3, lat.n, lat.n, lat.n))
    for v, s in ((v_plus, 1.0), (v_minus, -1.0)):
        if not np.any(v):
            continue
        grad_v = np.stack([gradient(lat, v[a]) for a in range(2)])  # (2, 3, n,n,n)
        momentum = np.imag(np.sum(np.conj(v)[:, None] * grad_v, axis=0))
        out += s * (momentum + 0.5 * curl(lat, spin_density(v)))
    return out


def pauli_current(lat: Lattice, chi: np.ndarray, A: np.ndarray, eps: float) -> np.ndarray:
    """J_P = Im <chi, (grad - i eps A) chi>."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    from .fourier import gradient

    grad_chi = np.stack([gradient(lat, chi[a]) for a in range(2)])
    cov = grad_chi - 1j * eps * A[None] * chi[:, None]
    return np.imag(np.sum(np.conj(chi)[:, None] * cov, axis=0))


def density_expansions(lat: Lattice, phi_plus: np.ndarray, phi_minus: np.ndarray, t: float, eps: float):
    """Charge and current evaluated from the modulated splitting.

    Agrees with charge_density / current_density applied to
    psi = exp(-it/eps^2) phi_+ + exp(+it/eps^2) phi_- up to roundoff.
    """
    osc = np.exp(2j * t / eps**2)
    rho = charge_density(phi_plus) + charge_density(phi_minus)
    rho = rho + 2.0 * np.real(osc * inner(phi_plus, phi_minus))

    chi_p, eta_p = phi_plus[:2], phi_plus[2:]
    chi_m, eta_m = phi_minus[:2], phi_minus[2:]
    J = np.stack(
        [
            2.0
            / eps
            * np.real(
                inner(chi_p, mat(SIGMA[k], eta_p))
                + inner(chi_m, mat(SIGMA[k], eta_m))
                + osc * inner(chi_p, mat(SIGMA[k], eta_m))
                + np.conj(osc) * inner(chi_m, mat(SIGMA[k], eta_p))
            )
            for k in range(3)
        ]
    )
    return rho, J
