"""Reference values computed apart from qfibounds.

Nothing here imports from ``src/``: the functions take plain arrays (a Kraus
stack and its derivative, or eigendata and its derivative) and return the
SLD information H, the channel bound C, the representation bound C_E and
the classical Fisher information by routes the program does not use.

- H solves rho L + L rho = 2 rho' as a d^2 x d^2 linear system with a
  pseudo-inverse, so rank-deficient states need no special case
  (Safranek, PRA 97, 042322, 2018).
- C diagonalizes the Gram matrix M = V^dag V of the vectors V = [E_k psi]
  and differentiates the canonical vectors to first order in the
  parallel-transport gauge: the mixing columns u_k move by
  u_k' = sum_{j != k} u_j (u_j^dag M' u_k) / (D_k - D_j).
- The closed forms at the bottom hold for the built-in families named.
"""

from __future__ import annotations

import numpy as np

# Gram eigenvalues below this are the null space; the benchmark only feeds
# points whose supported eigenvalues sit far above it.
NULL_TOL = 1e-12
# Relative cut-off of the least-squares solve for the SLD.
RCOND = 1e-10


def kraus_state(kraus: np.ndarray, dkraus: np.ndarray, psi: np.ndarray):
    """Output state rho and its derivative for a Kraus curve on a pure input."""
    v = np.asarray(kraus) @ psi
    dv = np.asarray(dkraus) @ psi
    rho = v.T @ v.conj()
    drho = dv.T @ v.conj() + v.T @ dv.conj()
    return rho, drho


def spectral_state(values, vectors, dvalues, dvectors):
    """Output state rho and its derivative from eigendata and its derivative."""
    p = np.asarray(values, dtype=float)
    w = np.asarray(vectors, dtype=complex)
    dw = np.asarray(dvectors, dtype=complex)
    rho = (w * p) @ w.conj().T
    drho = (w * np.asarray(dvalues, dtype=float)) @ w.conj().T
    drho = drho + (dw * p) @ w.conj().T + (w * p) @ dw.conj().T
    return rho, drho


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Minimum-norm Hermitian solution L of rho L + L rho = 2 rho'."""
    d = rho.shape[0]
    eye = np.eye(d)
    # Column-major vec: vec(rho L + L rho) = (I (x) rho + rho^T (x) I) vec(L).
    system = np.kron(eye, rho) + np.kron(rho.T, eye)
    rhs = 2.0 * drho.reshape(-1, order="F")
    sol = np.linalg.lstsq(system, rhs, rcond=RCOND)[0]
    lam = sol.reshape(d, d, order="F")
    return (lam + lam.conj().T) / 2


def sld_information(rho: np.ndarray, drho: np.ndarray) -> float:
    """H = tr(rho' L) for the SLD L of the pair."""
    return float(np.real(np.trace(drho @ sld(rho, drho))))


def fisher_information(rho: np.ndarray, drho: np.ndarray, elements: np.ndarray) -> float:
    """Classical Fisher information sum_m tr(M_m rho')^2 / tr(M_m rho)."""
    p = np.real(np.einsum("ij,mji->m", rho, elements))
    dp = np.real(np.einsum("ij,mji->m", drho, elements))
    keep = p > 1e-12
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def channel_bound_kraus(kraus: np.ndarray, dkraus: np.ndarray, psi: np.ndarray) -> float:
    """C = 4 sum_k |y_k'|^2 for the canonical vectors y_k = V u_k, parallel-transported."""
    v = (np.asarray(kraus) @ psi).T          # d x n, column k is E_k psi
    dv = (np.asarray(dkraus) @ psi).T
    gram = v.conj().T @ v
    dgram = dv.conj().T @ v + v.conj().T @ dv
    g, u = np.linalg.eigh(gram)
    supported = g > NULL_TOL
    coupling = u.conj().T @ dgram @ u         # (u_j^dag M' u_k)
    total = 0.0
    for k in range(len(g)):
        dy = dv @ u[:, k]
        for j in np.flatnonzero(supported):
            if j == k:
                continue
            if supported[k] and abs(g[k] - g[j]) <= NULL_TOL:
                raise ValueError("degenerate supported Gram eigenvalues")
            dy = dy + (v @ u[:, j]) * coupling[j, k] / (g[k] - g[j])
        total += float(np.real(np.vdot(dy, dy)))
    return 4.0 * total


def channel_bound_spectral(values, vectors, dvalues, dvectors) -> float:
    """C = sum p_k'^2 / p_k + 4 sum p_k |w_k'|^2 over the support.

    The eigenvector derivatives are taken in the family's own gauge, which is
    how the channel bound is defined for a family given by its spectrum.
    """
    p = np.asarray(values, dtype=float)
    dp = np.asarray(dvalues, dtype=float)
    dw = np.asarray(dvectors, dtype=complex)
    keep = p > NULL_TOL
    moving = np.sum(np.abs(dw[:, keep]) ** 2, axis=0)
    return float(np.sum(dp[keep] ** 2 / p[keep] + 4.0 * p[keep] * moving))


def representation_bound(dkraus: np.ndarray, psi: np.ndarray) -> float:
    """C_E = 4 sum_k |E_k' psi|^2 for the Kraus curve as given."""
    dv = np.asarray(dkraus) @ psi
    return 4.0 * float(np.real(np.vdot(dv, dv)))


def random_pure_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure states as rows."""
    z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def dephasing_plus(theta: float) -> float:
    """Dephasing on |+>: H = C = F_x = 1 / (theta (1 - theta))."""
    return 1.0 / (theta * (1.0 - theta))


def example1(t: float) -> float:
    """example1: H = C = 4 (1 + t^2) / (1 - t^2)."""
    return 4.0 * (1.0 + t * t) / (1.0 - t * t)


def rotation_z_plus(theta: float) -> float:
    """z rotation on |+>: H = C = 1."""
    return 1.0


def amplitude_damping_one(theta: float) -> float:
    """Amplitude damping on |1>: H = 1 / (theta (1 - theta))."""
    return 1.0 / (theta * (1.0 - theta))
