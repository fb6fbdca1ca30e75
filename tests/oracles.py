"""Reference implementations that the tests compare the library against.

No `qfi` command needs these, so they live with the tests: a Kraus-curve
remixing with its bound penalty (acceptance criterion 7, and the oracle of
the `verify` ordering suite's own remixing), a seeded Haar unitary (the
oracle of the ordering suite's batched unitaries) and the matrix-by-matrix
Hermitian draw (the oracle of `random_hermitian`'s one-call stack).  Not
collected by pytest.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from qfibounds.channels import ParametricChannel, haar_unitary
from qfibounds.errors import ValidationError


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return haar_unitary(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


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
