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


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, for a matrix or a stack of them."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + adjoint(a)) / 2


STENCIL_STEP = 1e-4  # central-4 step, in parameter units
STENCIL_REACH = 2 * STENCIL_STEP  # largest |offset| from the expansion point it evaluates


def differentiate_curve(
    curve: Callable[[float], np.ndarray], theta, step: float = STENCIL_STEP
) -> np.ndarray:
    """Central-4 finite-difference derivative of an array-valued curve at theta.

    theta may be an array of points, for a curve that maps it to one stack.
    """
    return sum(
        w / (12 * step) * np.asarray(curve(theta + k * step), dtype=complex)
        for k, w in ((-2, 1), (-1, -8), (1, 8), (2, -1))
    )


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _normalize_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each unit column real positive (over any stack)."""
    flat = vecs.reshape(-1, *vecs.shape[-2:])
    top = flat[
        np.arange(len(flat))[:, np.newaxis],
        np.argmax(np.abs(flat), axis=-2),
        np.arange(flat.shape[-1]),
    ]
    return vecs * (np.conj(top) / np.abs(top)).reshape(*vecs.shape[:-2], 1, -1)


def cluster_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster index of each ascending value along the last axis.

    A new cluster starts wherever two neighbours are more than tol apart.
    """
    labels = np.zeros(values.shape, dtype=int)
    np.cumsum(values[..., 1:] - values[..., :-1] > tol, axis=-1, out=labels[..., 1:])
    return labels


def _hermitian(a) -> np.ndarray:
    """The Hermitian part of a square matrix (or stack), refused beyond HERMITICITY_TOL."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    asym = max_abs(a - adjoint(a))
    if asym >= HERMITICITY_TOL:
        raise ValidationError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    return hermitian_part(a)


def hermitian_eigendecompose(a: np.ndarray) -> EigenSystem:
    """Eigendecompose a Hermitian matrix, or a stack of them, with a reproducible gauge.

    Eigenvalues come back ascending.  Each eigenvector has its
    largest-magnitude entry made real positive, and columns inside a
    degenerate cluster are ordered lexicographically by their (Re, Im)
    entries rounded to 10 decimals, so repeated calls on equal inputs give
    identical output.  A stack (..., n, n) is fixed matrix by matrix.
    """
    values, vectors = np.linalg.eigh(_hermitian(a))
    vectors = _normalize_phases(vectors)
    if (values[..., 1:] - values[..., :-1] <= CLUSTER_TOL).any():
        labels = cluster_labels(values, CLUSTER_TOL)
        # lexsort reads its last key first: the cluster, then row 0 (Re, Im), row 1, ...
        parts = np.round(np.stack([vectors.real, vectors.imag], axis=-2), 10)
        keys = parts.reshape(*parts.shape[:-3], -1, parts.shape[-1])[..., ::-1, :]
        keys = np.concatenate([keys, labels[..., np.newaxis, :]], axis=-2)
        order = np.lexsort(np.moveaxis(keys, -2, 0), axis=-1)
        vectors = np.take_along_axis(vectors, order[..., np.newaxis, :], axis=-1)
    return EigenSystem(values, vectors)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix, or of each of a stack.

    Eigenvalues in (-PSD_NEG_TOL, 0) are clamped to zero; anything more
    negative is rejected.  Eigenvalues at or below d eps lambda_max of their
    matrix are round-off and count as zero, so the root of a projector (a pure
    state among them) is the projector itself, not a sum with ~1e-8 roots of
    noise.  The root does not depend on the eigenvector gauge, so none is fixed.
    """
    values, v = np.linalg.eigh(_hermitian(a))
    lo = values.min(initial=0.0)
    if lo < -PSD_NEG_TOL:
        raise ValidationError(f"matrix is not PSD: min eigenvalue {lo:.3e}")
    floor = values.shape[-1] * np.finfo(float).eps * np.maximum(values[..., -1:], 0.0)
    roots = np.sqrt(np.where(values > floor, values, 0.0))
    return hermitian_part((v * roots[..., np.newaxis, :]) @ adjoint(v))


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """Test A <= B in the Loewner order; returns (verdict, min eigenvalue of B - A), per pair."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = hermitian_part(b - a)
    min_eig = np.linalg.eigvalsh(diff)[..., 0]
    min_eig = float(min_eig) if min_eig.ndim == 0 else min_eig
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
    last product.  A stack (..., n, n) of generators gives a stack of each,
    matrix by matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @cached_property
    def _divided_differences(self) -> np.ndarray:
        """-i Gamma, so that the derivative along G is W (-i Gamma o W^dag G W) W^dag."""
        lam = self.eigenvalues
        half_gap = (lam[..., :, np.newaxis] - lam[..., np.newaxis, :]) / (2 * np.pi)
        out = -1j * np.exp(-1j * ((lam[..., :, np.newaxis] + lam[..., np.newaxis, :]) / 2))
        out *= np.sinc(half_gap)  # in place: a stack of these is large
        return out

    def unitary(self, columns=slice(None)) -> np.ndarray:
        w = self.eigenvectors
        phases = np.exp(-1j * self.eigenvalues)[..., np.newaxis, :]
        return (w * phases) @ adjoint(w[..., columns, :])

    def partial(self, direction: np.ndarray, columns=slice(None)) -> np.ndarray:
        w, gamma = self.eigenvectors, self._divided_differences
        back = adjoint(w)
        inner = back @ direction @ w
        np.multiply(gamma, inner, out=inner)  # in place: a stack of these is large
        return w @ inner @ back[..., :, columns]


def unitary_exponential(h: np.ndarray) -> UnitaryExponential:
    """Decompose the Hermitian generator h (or a stack) once for exp(-i h) and its derivatives."""
    values, vectors = np.linalg.eigh(h)
    return UnitaryExponential(values, vectors)
