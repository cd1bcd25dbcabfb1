"""Dirac/Pauli matrix constants, energy projections and density formulas.

Spinor fields are complex ndarrays with a leading component axis: 4-spinors
``(4, n, n, n)``, 2-spinors ``(2, n, n, n)``.  The upper/lower split of a
4-spinor is ``psi[:2]`` / ``psi[2:]``.

The pointwise C^m product used throughout, ``<u, v> = sum_a conj(u_a) v_a``,
is conjugate-linear in the first slot.  Current-type quantities are written
as ``Im <v, Dv>`` so that a plane wave exp(i k.x) carries current +k; spin
densities ``<v, sigma v>`` are real either way.

Per mode, the free Dirac symbol Q = gamma0 + eps alpha.k has Q^2 = lam^2, so
each function of it is a + b Q: the block form [[a + b, V.sigma],
[V.sigma, a - b]] with V = eps b k.  dirac_symbol_apply applies that block
form; Q (free_dirac_apply) and the free flow (evolve_dm.free_flow_hat) go
through it as a + b Q, i alpha.k (evolve_dm.reconstruct_from_U) as the block
form with no diagonal, and Pi_+/- (pi_eps_rows) as a + b Q on one slab at a
time, with the same entries.
"""

from __future__ import annotations

import numpy as np

from .fourier import Lattice, by_slab, curl, gradient, mode_multipliers, slabwise

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


# -- block forms: v is a 3-vector field, or a triple of broadcastable arrays ----


def sigma_entries(v) -> tuple:
    """The entries (v_z, v_-, v_+) of v.sigma = [[v3, v1 - i v2], [v1 + i v2, -v3]]."""
    return v[2], v[0] - 1j * v[1], v[0] + 1j * v[1]


def _sigma_rows(out, chi, d, v, eta, scale):
    """out = d chi + scale (v.sigma) eta for 2-spinor fields (or slabs), one
    component at a time by in-place multiply-adds through a one-component
    scratch.  d or scale None drops that term or factor."""
    vz, vm, vp = v
    tmp = np.empty(out.shape[1:], dtype=complex)
    for o, c, a, b, add in ((out[0], chi[0], vz, vm, np.add), (out[1], chi[1], vp, vz, np.subtract)):
        np.multiply(a, eta[0], out=o)
        add(o, np.multiply(b, eta[1], out=tmp), out=o)
        if scale is not None:
            o *= scale
        if d is not None:
            o += np.multiply(d, c, out=tmp)


def block_rows(out, psi, d_plus, d_minus, v, scale) -> None:
    """block_apply of a slab of a 4-spinor field, written into out."""
    _sigma_rows(out[:2], psi[:2], d_plus, v, psi[2:], scale)
    _sigma_rows(out[2:], psi[2:], d_minus, v, psi[:2], scale)


def block_apply(psi: np.ndarray, d_plus, d_minus, v, scale=None) -> np.ndarray:
    """[[d_+, V.sigma], [V.sigma, d_-]] psi of a 4-spinor field (upper, lower).

    V = scale * v, with v the entries (v_z, v_-, v_+) of sigma_entries, full
    arrays or broadcast ones such as the wavevector's; d_+, d_- and scale are
    scalars or arrays, and None drops the term or factor.  One new array is
    written slab by slab (slabwise, block_rows), spread over the cores from
    32**3 points.
    """
    return slabwise(block_rows, np.empty(psi.shape, dtype=complex), psi, d_plus, d_minus, v, scale)


def sigma_block_apply(chi: np.ndarray, d, v, scale=None) -> np.ndarray:
    """d chi + (V.sigma) chi of a 2-spinor field, V = scale * v: the one-block
    form of block_apply."""
    return slabwise(_sigma_rows, np.empty(chi.shape, dtype=complex), chi, d, v, chi, scale)


def sigma_dot(v, chi: np.ndarray) -> np.ndarray:
    """(v.sigma) chi of a 2-spinor field."""
    return sigma_block_apply(chi, None, sigma_entries(v))


def alpha_dot(v, psi: np.ndarray) -> np.ndarray:
    """(v.alpha) psi of a 4-spinor field: v.sigma on the swapped 2-blocks."""
    return block_apply(psi, None, None, sigma_entries(v))


def spin_dot(v, psi: np.ndarray) -> np.ndarray:
    """(v.S) psi of a 4-spinor field, S^m = diag(sigma^m, sigma^m)."""
    e = sigma_entries(v)
    return np.concatenate([sigma_block_apply(psi[:2], None, e), sigma_block_apply(psi[2:], None, e)])


def sigma_inner(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The 3-vector field <u, sigma^k w> of two 2-spinor fields."""
    u0, u1 = np.conj(u[0]), np.conj(u[1])
    a, b = u0 * w[1], u1 * w[0]
    return np.stack([a + b, 1j * (b - a), u0 * w[0] - u1 * w[1]])


def upper(psi: np.ndarray) -> np.ndarray:
    return psi[:2]


def lower(psi: np.ndarray) -> np.ndarray:
    return psi[2:]


def embed_upper(chi: np.ndarray) -> np.ndarray:
    return np.concatenate([chi, np.zeros_like(chi)])


def embed_lower(eta: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros_like(eta), eta])


# -- free Dirac spectral data --------------------------------------------------


def dirac_symbol_apply(lat: Lattice, psihat: np.ndarray, d_plus, d_minus, scale) -> np.ndarray:
    """[[d_+, V.sigma], [V.sigma, d_-]] of a spinor spectrum, per mode, with
    V = scale (-i k), whose entries _k_entries alone builds.  Its main use is
    a + b Q, Q = gamma0 + eps alpha.k, with d_+/- = a +/- b and scale = i eps b;
    scale -1 with no d_+/- gives i alpha.k."""
    return block_apply(psihat, d_plus, d_minus, _k_entries(lat, slice(None)), scale)


def _k_entries(lat: Lattice, s: slice) -> tuple:
    """sigma_entries of V = -i k, broadcast over the modes of the slab s."""
    return sigma_entries((-1j * lat.kx[s], -1j * lat.ky, -1j * lat.kz))


def free_dirac_apply(lat: Lattice, psi: np.ndarray, eps: float) -> np.ndarray:
    """Apply Q^eps = -i eps alpha.grad + gamma0."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    return lat.ifft(dirac_symbol_apply(lat, lat.fft(psi), 1.0, -1.0, 1j * eps))


def pi_eps_rows(out, psihat, lat: Lattice, eps: float, sign: int, s: slice) -> None:
    """Energy projection of the slab s of a spinor spectrum, written into out:
    per mode (I +/- (eps alpha.k + gamma0)/lambda)/2, that is 1/2 + c Q with c = +/- 1/(2 lam)."""
    c = (0.5 * sign) / mode_multipliers(lat, eps, 0.0).lam[s]
    block_rows(out, psihat, 0.5 + c, 0.5 - c, _k_entries(lat, s), 1j * eps * c)


def pi_eps_hat(lat: Lattice, psihat: np.ndarray, eps: float, sign: int) -> np.ndarray:
    """Energy projection Pi_+/- of a spinor spectrum, slab by slab (pi_eps_rows)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    out = np.empty(psihat.shape, dtype=complex)
    by_slab(lambda s: pi_eps_rows(out[..., s, :, :], psihat[..., s, :, :], lat, eps, sign, s), lat.n)
    return out


def pi_eps(lat: Lattice, psi: np.ndarray, eps: float, sign: int) -> np.ndarray:
    """Energy projection Pi_+/- of a spinor field (pi_eps_hat in real space)."""
    return lat.ifft(pi_eps_hat(lat, lat.fft(psi), eps, sign))


# -- densities -----------------------------------------------------------------


def charge_density(psi: np.ndarray) -> np.ndarray:
    return slabwise(lambda out, psi: np.sum(np.abs(psi) ** 2, axis=0, out=out), np.empty(psi.shape[1:]), psi)


def current_density(psi: np.ndarray, eps: float) -> np.ndarray:
    """J_k = eps^-1 <alpha^k psi, psi>; real, vanishes for one-block spinors."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    # psi^dag alpha^k psi = 2 Re(chi^dag sigma^k eta), slab by slab
    return slabwise(lambda out, psi: np.multiply(2.0 / eps, sigma_inner(psi[:2], psi[2:]).real, out=out),
                    np.empty((3, *psi.shape[1:])), psi)


def total_charge(lat: Lattice, psi: np.ndarray) -> float:
    return float(np.sum(np.abs(psi) ** 2) * lat.cell_volume)


def spin_density(v: np.ndarray) -> np.ndarray:
    """Real 3-vector <sigma v, v> of a 2-spinor field."""
    return sigma_inner(v, v).real


def pauli_current(lat: Lattice, chi: np.ndarray, A, eps: float) -> np.ndarray:
    """The Pauli current J_P = Im <chi, (grad - i eps A) chi> + (1/2) curl <chi, sigma chi>,
    the magnetic term taken as -eps A |chi|^2; A may be 0.0."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    J = np.imag(np.sum(np.conj(chi)[:, None] * gradient(lat, chi), axis=0))
    J -= eps * A * charge_density(chi)
    return J + 0.5 * curl(lat, spin_density(chi))


def limit_current(lat: Lattice, v_plus: np.ndarray, v_minus: np.ndarray) -> np.ndarray:
    """Limit current J_P(v+) - J_P(v-) at A = 0 (pauli_current), a zero branch skipped."""
    out = np.zeros((3, lat.n, lat.n, lat.n))
    for v, s in ((v_plus, 1.0), (v_minus, -1.0)):
        if np.any(v):
            out += s * pauli_current(lat, v, 0.0, 0.0)
    return out
