"""Validated quantum primitives.

Density matrices, pure states, Kraus sets and POVMs are thin immutable
wrappers around numpy arrays whose defining invariants are checked at
construction.  Construction-time tolerances sit at 1e-9/1e-10; operations
that accept possibly sloppy user input re-check at 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import hermitian_part, max_abs

CONSTRUCT_HERM_TOL = 1e-10
CONSTRUCT_SUM_TOL = 1e-9
USER_TOL = 1e-6

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def diagnose_density(matrix: np.ndarray) -> dict[str, float]:
    """Per-invariant residuals of a density-matrix candidate."""
    m = np.asarray(matrix, dtype=complex)
    herm = max_abs(m - m.conj().T)
    trace = abs(complex(np.trace(m)) - 1.0)
    min_eig = float(np.linalg.eigvalsh(hermitian_part(m))[0])
    return {"hermiticity": herm, "trace": trace, "min_eigenvalue": min_eig}


def diagnose_kraus(operators) -> dict[str, float]:
    """Completeness residual of a Kraus-set candidate: || sum E^dag E - I ||_max."""
    ops = np.asarray(operators, dtype=complex)
    d = ops.shape[-1]
    total = np.einsum("kij,kil->jl", ops.conj(), ops)
    return {"completeness": max_abs(total - np.eye(d))}


def diagnose_povm(elements) -> dict[str, float]:
    """Per-invariant residuals of a POVM candidate."""
    els = np.asarray(elements, dtype=complex)
    d = els.shape[-1]
    herm = max(max_abs(m - m.conj().T) for m in els)
    min_eig = min(float(np.linalg.eigvalsh(hermitian_part(m))[0]) for m in els)
    resolution = max_abs(els.sum(axis=0) - np.eye(d))
    return {"hermiticity": herm, "min_eigenvalue": min_eig, "resolution": resolution}


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        defect = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        if defect > CONSTRUCT_HERM_TOL:
            raise ValidationError(f"state is not normalized: norm defect {defect:.3e}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-one matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        diag = diagnose_density(m)
        if diag["hermiticity"] > CONSTRUCT_HERM_TOL:
            raise ValidationError(f"not Hermitian: defect {diag['hermiticity']:.3e}")
        if diag["trace"] > CONSTRUCT_HERM_TOL:
            raise ValidationError(f"trace defect {diag['trace']:.3e}")
        if diag["min_eigenvalue"] < -CONSTRUCT_HERM_TOL:
            raise ValidationError(f"not PSD: min eigenvalue {diag['min_eigenvalue']:.3e}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class KrausSet:
    """Operators E_1..E_n with sum E_k^dag E_k = I."""

    operators: np.ndarray
    completeness_tol: float = CONSTRUCT_SUM_TOL

    def __post_init__(self):
        ops = np.array(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValidationError(f"expected a stack of square matrices, got shape {ops.shape}")
        defect = diagnose_kraus(ops)["completeness"]
        if defect > self.completeness_tol:
            raise ValidationError(f"completeness defect {defect:.3e}")
        object.__setattr__(self, "operators", _freeze(ops))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def __len__(self) -> int:
        return self.operators.shape[0]


@dataclass(frozen=True)
class POVM:
    """Hermitian PSD elements resolving the identity; any element count r >= 1."""

    elements: np.ndarray

    def __post_init__(self):
        els = np.array(self.elements, dtype=complex)
        if els.ndim != 3 or els.shape[1] != els.shape[2] or els.shape[0] < 1:
            raise ValidationError(f"expected a stack of square matrices, got shape {els.shape}")
        diag = diagnose_povm(els)
        if diag["hermiticity"] > CONSTRUCT_HERM_TOL:
            raise ValidationError(f"element not Hermitian: defect {diag['hermiticity']:.3e}")
        if diag["min_eigenvalue"] < -CONSTRUCT_HERM_TOL:
            raise ValidationError(f"element not PSD: min eigenvalue {diag['min_eigenvalue']:.3e}")
        if diag["resolution"] > CONSTRUCT_SUM_TOL:
            raise ValidationError(f"identity-resolution defect {diag['resolution']:.3e}")
        object.__setattr__(self, "elements", _freeze(els))

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return self.elements.shape[0]


def measurement_distribution(rho: DensityMatrix, povm: POVM) -> np.ndarray:
    """Outcome probabilities tr(rho M_m), clamped and renormalized at round-off scale."""
    if rho.dim != povm.dim:
        raise ValidationError(f"dimension mismatch: state {rho.dim}, POVM {povm.dim}")
    probs = np.real(np.einsum("ij,mji->m", rho.matrix, povm.elements))
    if np.min(probs) < -CONSTRUCT_HERM_TOL:
        raise ValidationError(f"negative probability {np.min(probs):.3e}")
    probs = np.clip(probs, 0.0, None)
    total = float(probs.sum())
    if abs(total - 1.0) > USER_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, defect exceeds {USER_TOL}")
    if abs(total - 1.0) <= CONSTRUCT_SUM_TOL and total > 0:
        probs = probs / total
    return probs


def computational_basis_povm(dim: int) -> POVM:
    """Projectors onto the computational basis."""
    eye = np.eye(dim, dtype=complex)
    return POVM(np.array([np.outer(eye[:, i], eye[:, i].conj()) for i in range(dim)]))


def pauli_basis_povm(axis: str) -> POVM:
    """Projectors onto the +1/-1 eigenvectors of a Pauli operator, + first."""
    if axis not in PAULIS:
        raise ValidationError(f"unknown Pauli axis {axis!r}")
    _, vectors = np.linalg.eigh(PAULIS[axis])
    v = vectors[:, ::-1]
    return POVM(np.array([np.outer(v[:, i], v[:, i].conj()) for i in range(v.shape[1])]))
