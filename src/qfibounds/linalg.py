"""Dense complex-matrix kernel.

Hermitian eigendecomposition with a deterministic gauge, positive-semidefinite
square roots, Loewner-order tests, finite-difference differentiation of
matrix-valued curves, and the unitary exp(-i H) of a Hermitian generator with
its exact Frechet derivatives from one eigendecomposition.  Everything here
is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-10
CLUSTER_TOL = 1e-8
PSD_NEG_TOL = 1e-8


def max_abs(a: np.ndarray) -> float:
    """Max-entry norm, the norm used by most tolerance checks."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class DiffConfig:
    """The central-4 finite-difference stencil; step is in parameter units."""

    step: float = 1e-4

    def __post_init__(self):
        if self.step <= 0:
            raise ValidationError(f"finite-difference step must be positive, got {self.step}")

    @property
    def max_offset(self) -> float:
        """Largest |offset| from the expansion point that will be evaluated."""
        return 2 * self.step


DEFAULT_DIFF = DiffConfig()


def differentiate_curve(
    curve: Callable[[float], np.ndarray], theta: float, cfg: DiffConfig = DEFAULT_DIFF
) -> np.ndarray:
    """Central-4 finite-difference derivative of an array-valued curve at theta."""
    h = cfg.step
    weights = {-2 * h: 1 / (12 * h), -h: -8 / (12 * h), h: 8 / (12 * h), 2 * h: -1 / (12 * h)}
    out = None
    for off, w in weights.items():
        sample = np.asarray(curve(theta + off), dtype=complex)
        out = w * sample if out is None else out + w * sample
    return out


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _normalize_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive."""
    out = vecs.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        j = int(np.argmax(np.abs(col)))
        z = col[j]
        if np.abs(z) > 0:
            out[:, i] = col * (np.conj(z) / np.abs(z))
    return out


def _cluster_slices(values: np.ndarray, tol: float):
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            yield slice(start, i)
            start = i


def hermitian_eigendecompose(a: np.ndarray) -> EigenSystem:
    """Eigendecompose a Hermitian matrix with a reproducible gauge.

    Eigenvalues come back ascending.  Each eigenvector has its
    largest-magnitude entry made real positive, and columns inside a
    degenerate cluster are ordered lexicographically by (Re, Im) entries so
    repeated calls on equal inputs give identical output.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    asym = max_abs(a - a.conj().T)
    if asym >= HERMITICITY_TOL:
        raise ValidationError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    values, vectors = np.linalg.eigh(hermitian_part(a))
    vectors = _normalize_phases(vectors)
    for sl in _cluster_slices(values, CLUSTER_TOL):
        if sl.stop - sl.start > 1:
            block = vectors[:, sl]
            keys = [
                tuple(x for e in block[:, i] for x in (round(e.real, 10), round(e.imag, 10)))
                for i in range(block.shape[1])
            ]
            order = sorted(range(block.shape[1]), key=keys.__getitem__)
            vectors[:, sl] = block[:, order]
    return EigenSystem(values, vectors)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in (-PSD_NEG_TOL, 0) are clamped to zero; anything more
    negative is rejected.  Eigenvalues at or below d eps lambda_max are
    round-off and count as zero, so the root of a projector (a pure state
    among them) is the projector itself, not a sum with ~1e-8 roots of noise.
    """
    sys = hermitian_eigendecompose(a)
    values = sys.eigenvalues
    lo, hi = (float(values[0]), float(values[-1])) if values.size else (0.0, 0.0)
    if lo < -PSD_NEG_TOL:
        raise ValidationError(f"matrix is not PSD: min eigenvalue {lo:.3e}")
    floor = values.size * np.finfo(float).eps * max(hi, 0.0)
    roots = np.sqrt(np.where(values > floor, values, 0.0))
    v = sys.eigenvectors
    return hermitian_part((v * roots) @ v.conj().T)


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """Test A <= B in the Loewner order; returns (verdict, min eigenvalue of B - A)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = hermitian_part(b - a)
    min_eig = float(np.linalg.eigvalsh(diff)[0])
    return min_eig >= -tol, min_eig


@dataclass(frozen=True)
class UnitaryExponential:
    """U = exp(-i H) for a Hermitian H = W diag(lambda) W^dag, with its derivatives.

    One eigendecomposition gives U = W diag(e^{-i lambda}) W^dag and, by the
    Daleckii-Krein formula (Higham, Functions of Matrices, SIAM 2008, sec.
    3.2), the exact derivative of U along a Hermitian direction G:
    W (Gamma o W^dag (-i G) W) W^dag with the divided differences
    Gamma_jk = e^{-i (lambda_j + lambda_k) / 2} sinc((lambda_j - lambda_k) / 2 pi).
    numpy's sinc is normalized and smooth at zero, so the form holds at and
    near equal eigenvalues; at H = 0 the derivative is -i G.

    `columns` selects the columns of U (or of its derivative) to return, so a
    caller that needs U applied to a few basis states skips the rest of the
    last product.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @cached_property
    def _divided_differences(self) -> np.ndarray:
        """-i Gamma, so that the derivative along G is W (-i Gamma o W^dag G W) W^dag."""
        lam = self.eigenvalues
        mean = (lam[:, np.newaxis] + lam) / 2
        half_gap = (lam[:, np.newaxis] - lam) / (2 * np.pi)
        return -1j * np.exp(-1j * mean) * np.sinc(half_gap)

    def unitary(self, columns=slice(None)) -> np.ndarray:
        w = self.eigenvectors
        return np.dot(w * np.exp(-1j * self.eigenvalues), w[columns].conj().T)

    def partial(self, direction: np.ndarray, columns=slice(None)) -> np.ndarray:
        w = self.eigenvectors
        adjoint = w.conj().T
        inner = adjoint @ direction @ w
        return w @ (self._divided_differences * inner) @ adjoint[:, columns]


def unitary_exponential(h: np.ndarray) -> UnitaryExponential:
    """Decompose the Hermitian generator h once for exp(-i h) and its derivatives."""
    values, vectors = np.linalg.eigh(h)
    return UnitaryExponential(values, vectors)
