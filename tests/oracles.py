"""Reference implementations that the tests compare the library against.

No `qfi` command needs these, so they live with the tests: a Kraus-curve
remixing with its bound penalty (acceptance criterion 7, and the oracle of
the `verify` ordering suite's own remixing), a seeded Haar unitary (random
bases and remixings for the tests) and the matrix-by-matrix Hermitian draw
(the oracle of `random_hermitian`'s one-call stack and of the `verify`
battery's generators) and the element-by-element POVM condition checks (the
oracle of the stacked fits in `bounds`).  Not collected by pytest.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from qfibounds.bounds import (
    DP_FLOOR,
    P_FLOOR,
    ConditionElement,
    ConditionReport,
    SpectralCurve,
    sld_score,
)
from qfibounds.channels import ParametricChannel
from qfibounds.errors import SingularTermError, ValidationError
from qfibounds.linalg import hermitian_part, psd_sqrt
from qfibounds.quantum import POVM, DensityMatrix, measurement_distribution


def haar_unitary(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with the diagonal of R made positive; a stack of z, matrix by matrix."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return haar_unitary(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def sample_outcomes(rho: DensityMatrix, povm: POVM, shots: int, seed: int) -> np.ndarray:
    """Multinomial outcome counts from a new Philox keyed by the 64-bit seed."""
    probs = measurement_distribution(rho, povm)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return rng.multinomial(shots, probs / probs.sum())


def fisher_by_outcome(rho: np.ndarray, partials: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """(m, m) Fisher information of one point's (k, d, d) POVM elements, outcome by outcome:
    a floored outcome whose steepest derivative exceeds DP_FLOOR is a singular term."""
    probs = np.clip(np.real(np.einsum("ij,mji->m", rho, elements)), 0.0, None)
    dprobs = np.real(np.einsum("lij,mji->lm", partials, elements))
    entries = np.zeros((len(partials), len(partials)))
    for i, pm in enumerate(probs):
        if pm > P_FLOOR:
            entries += np.outer(dprobs[:, i], dprobs[:, i]) / pm
        else:
            steepest = dprobs[np.argmax(np.abs(dprobs[:, i])), i]
            if abs(steepest) > DP_FLOOR:
                raise SingularTermError(
                    f"outcome {i}: probability {pm:.3e} at the support boundary with "
                    f"derivative {steepest:.3e}"
                )
    return entries


def random_hermitians(dim: int, rng: np.random.Generator, count: int, scale: float = 1.0):
    """count Hermitian matrices drawn one at a time, each from its real normals then its
    imaginary ones, and scaled by scale / sqrt(dim)."""
    mats = []
    for _ in range(count):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append((a + a.conj().T) / 2 * scale / np.sqrt(dim))
    return np.array(mats)


def remix_channel(
    channel: ParametricChannel,
    mixing_fn: Callable[[np.ndarray], np.ndarray],
    mixing_grad_fn: Callable[[np.ndarray, int], np.ndarray],
    name: str | None = None,
) -> ParametricChannel:
    """Remix a Kraus curve: F_j(theta) = sum_k u_jk(theta) E_k(theta).

    The mixing matrix u must be square and unitary at every theta.
    mixing_grad_fn(theta, l) gives its partial along parameter l, which
    with the family's own partials gives the remixed Kraus derivative.
    Both broadcast like kraus_fn, (..., m) to (..., n, n); a constant (n, n)
    matrix serves every point.
    """
    if not channel.is_kraus_form:
        raise ValidationError("only Kraus-form channels can be remixed")

    def mix(u, ops: np.ndarray) -> np.ndarray:
        flat = ops.reshape(*ops.shape[:-2], -1)
        return (np.asarray(u, dtype=complex) @ flat).reshape(ops.shape)

    def kraus(theta: np.ndarray) -> np.ndarray:
        return mix(mixing_fn(theta), channel.kraus_fn(theta))

    def grad(theta: np.ndarray, index: int) -> np.ndarray:
        ops, dops = channel.kraus_fn(theta), np.asarray(channel.kraus_grad_fn(theta, index))
        return mix(mixing_grad_fn(theta, index), ops) + mix(mixing_fn(theta), dops)

    return dataclasses.replace(
        channel,
        name=name or f"{channel.name}-remixed",
        kraus_fn=kraus,
        kraus_grad_fn=grad,
    )


def remixing_penalty(mixing_grad: np.ndarray, weights: np.ndarray) -> float:
    """Penalty term 4 sum_{j,k} p_k |du_jk|^2 of a theta-dependent remixing.

    weights are the canonical Gram eigenvalues indexed like the second
    (canonical) axis of the mixing matrix.  For the canonical curve Y remixed
    by a unitary u, the bound of u Y is C_E = C + penalty + 8 Re sum_jk
    (u^dag du)_jk <Y_j' psi|Y_k psi>.  The cross term vanishes where the
    attainability residual does, and only there is the penalty the whole
    extra cost C_E - C; elsewhere the cross term has either sign, so C_E can
    fall below C + penalty.
    """
    du = np.asarray(mixing_grad, dtype=complex)
    return 4.0 * float(np.sum(np.abs(du) ** 2 @ np.asarray(weights, dtype=float)))


def _fit_real_scale(pairs: list[tuple[np.ndarray, np.ndarray]], tol: float):
    """Least-squares real xi with A_i ~ xi B_i stacked over i."""
    norm_b = sum(float(np.real(np.vdot(b, b))) for _, b in pairs)
    if np.sqrt(norm_b) < tol:
        return 0.0, 0.0, True
    z = sum(complex(np.vdot(b, a)) for a, b in pairs)
    xi = float(np.real(z)) / norm_b
    residual = np.sqrt(sum(float(np.linalg.norm(a - xi * b) ** 2) for a, b in pairs))
    residual += abs(float(np.imag(z))) / norm_b
    return xi, residual, False


def sld_condition_by_element(povm: POVM, curve: SpectralCurve, tol: float = 1e-6):
    """M^(1/2) L rho^(1/2) = xi_m M^(1/2) rho^(1/2), fitted one POVM element at a time."""
    lam = sld_score(curve)
    w = curve.vectors
    root_rho = hermitian_part((w * np.sqrt(curve.values)) @ w.conj().T)
    elements = []
    for m, root_m in enumerate(psd_sqrt(povm.elements)):
        xi, residual, vacuous = _fit_real_scale([(root_m @ lam @ root_rho, root_m @ root_rho)], tol)
        elements.append(ConditionElement(m, xi, residual, vacuous))
    satisfied = all(e.vacuous or e.residual < tol for e in elements)
    return ConditionReport(tuple(elements), satisfied, tol)


def sm_condition_by_element(povm: POVM, operators, derivatives, rho0: DensityMatrix,
                            tol: float = 1e-6):
    """M^(1/2) Y_k' rho0^(1/2) = xi_m M^(1/2) Y_k rho0^(1/2) for all k, fitted one POVM element
    at a time over a list of its (element, operator) pairs."""
    root_rho = psd_sqrt(rho0.matrix)
    elements = []
    for m, root_m in enumerate(psd_sqrt(povm.elements)):
        pairs = [(root_m @ dk @ root_rho, root_m @ ek @ root_rho)
                 for ek, dk in zip(operators, derivatives)]
        xi, residual, vacuous = _fit_real_scale(pairs, tol)
        elements.append(ConditionElement(m, xi, residual, vacuous))
    satisfied = all(e.vacuous or e.residual < tol for e in elements)
    return ConditionReport(tuple(elements), satisfied, tol)
