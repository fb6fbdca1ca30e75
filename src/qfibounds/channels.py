"""Parametric channel families.

A ParametricChannel is a differentiable family given either as a Kraus curve
theta -> {E_k(theta)} with its analytic partials and a pure input state, or
directly as a spectral curve (output eigenvalues and eigenvectors with
analytic derivatives).  A Kraus-form channel must carry kraus_grad_fn: no
Kraus derivative is taken by finite differences.  Built-in families cover
the standard qubit channels, the two rank-two three-level families used
throughout the test suite, and seeded random Kraus curves generated from
random Hamiltonians on system + environment.  The exponential families
(`random-kraus`, `rotation-2p`; exponential_family) take their Kraus stack
and every partial from eigendecompositions of the generator, one for the
channel's life with one parameter and one per theta with more; no scipy.
Every family evaluates a stack of points in one call (see ParametricChannel),
and an exponential family with generators per row evaluates N channels at once.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .linalg import adjoint, hermitian_part, max_abs, unitary_exponential
from .quantum import PAULI_Z, PAULIS, DensityMatrix, PureState

SPECTRAL_SUM_TOL = 1e-10
CURVE_DERIV_TOL = 1e-6


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues/eigenvectors of the output state with analytic partials.

    values: (r,) nonnegative, summing to one.
    vectors: (d, r) orthonormal columns.
    value_grads: (m, r) partial derivatives of the eigenvalues.
    vector_grads: (m, d, r) partial derivatives of the eigenvector columns.
    The data of a stack of points give every array the stack's leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray
    value_grads: np.ndarray
    vector_grads: np.ndarray


@dataclass(frozen=True)
class ParametricChannel:
    """A differentiable family of channels over a box-shaped parameter domain.

    Broadcast contract: kraus_fn(theta) and kraus_grad_fn(theta, l) map
    (..., m) points to (..., n, d, d), and spectral_fn(theta) maps them to
    SpectralData with arrays (..., r), (..., d, r), (..., m, r) and
    (..., m, d, r); each point has the bits of its own call, so an (N, m)
    stack is one call.  kraus_matrices, kraus_partials, spectral_at,
    output_matrix and output_partials take a point or an (N, m) stack.
    """

    name: str
    dim: int
    param_count: int
    domain: tuple[tuple[float, float], ...]
    input_state: PureState | None = None
    kraus_fn: Callable[[np.ndarray], np.ndarray] | None = None
    kraus_grad_fn: Callable[[np.ndarray, int], np.ndarray] | None = None
    spectral_fn: Callable[[np.ndarray], SpectralData] | None = None

    def __post_init__(self):
        if (self.kraus_fn is None) == (self.spectral_fn is None):
            raise ValidationError("channel needs exactly one of kraus_fn / spectral_fn")
        if self.kraus_fn is not None and self.kraus_grad_fn is None:
            raise ValidationError(f"Kraus-form channel {self.name!r} needs kraus_grad_fn")
        if len(self.domain) != self.param_count:
            raise ValidationError("domain box must have one interval per parameter")
        if self.input_state is not None and self.input_state.dim != self.dim:
            raise ValidationError("input state dimension does not match channel")

    @property
    def is_kraus_form(self) -> bool:
        return self.kraus_fn is not None

    def theta_vector(self, theta) -> np.ndarray:
        vec = np.atleast_1d(np.asarray(theta, dtype=float))
        if vec.shape != (self.param_count,):
            raise ValidationError(
                f"theta must have {self.param_count} component(s), got shape {vec.shape}"
            )
        return vec

    def theta_stack(self, theta) -> np.ndarray:
        """(N, m) stack of points: an (N, m) array as given, anything else as one point."""
        arr = np.asarray(theta, dtype=float)
        if arr.ndim == 2 and arr.shape[1] == self.param_count:
            return arr
        return self.theta_vector(arr)[np.newaxis]

    def in_domain(self, theta, margin: float = 0.0):
        """Whether the point lies margin inside the box; (N,) verdicts for an (N, m) stack."""
        lo, hi = np.array(self.domain, dtype=float).T
        points = self.theta_stack(theta)
        inside = ((lo + margin <= points) & (points <= hi - margin)).all(axis=1)
        return inside if np.ndim(theta) == 2 else bool(inside[0])

    def require_in_domain(self, theta) -> np.ndarray:
        """The point as an (m,) vector, or the (N, m) stack; the first point outside is named."""
        points = self.theta_stack(theta)
        inside = self.in_domain(points)
        if not inside.all():
            raise ValidationError(
                f"theta {points[np.argmin(inside)].tolist()} outside domain {self.domain}"
            )
        return points if np.ndim(theta) == 2 else points[0]

    def kraus_matrices(self, theta, refusals: list | None = None) -> np.ndarray:
        """Raw (n, d, d) Kraus stack at theta, or (N, n, d, d); element order is fixed."""
        return self._finite_kraus(self.kraus_fn, theta, "Kraus evaluation", refusals)

    def kraus_partials(self, theta, refusals: list | None = None) -> np.ndarray:
        """Raw (m, n, d, d) partials at theta, or (N, m, n, d, d); a diverging one is refused."""
        grads = lambda t: np.stack([self.kraus_grad_fn(t, l) for l in range(self.param_count)], -4)
        return self._finite_kraus(grads, theta, "Kraus derivative", refusals)

    def _finite_kraus(self, fn, theta, what: str, refusals: list | None) -> np.ndarray:
        """fn at theta; a point with a non-finite entry raises the ValidationError naming it, or,
        given refusals (one per point), is refused there unless refused before, its entries 0."""
        if self.kraus_fn is None:
            raise ValidationError(f"channel {self.name!r} has no Kraus form")
        points = self.theta_stack(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.asarray(fn(points if np.ndim(theta) == 2 else points[0]), dtype=complex)
        finite = np.isfinite(out).reshape(len(points), -1).all(axis=1)
        if not finite.all():
            refuse = lambda i: ValidationError(
                f"{what} at theta {points[i].tolist()} produced non-finite entries")
            if refusals is None:
                raise refuse(np.argmin(finite))
            for i in np.flatnonzero(~finite):
                refusals[i] = refusals[i] or refuse(i)
            out = np.where(finite.reshape(-1, *[1] * (out.ndim - 1)), out, 0.0)
        return out

    def spectral_at(self, theta) -> SpectralData:
        """spectral_fn at theta or an (N, m) stack, refused at the first point that fails a check."""
        if self.spectral_fn is None:
            raise ValidationError(f"channel {self.name!r} has no spectral form")
        points = self.theta_stack(theta)
        data = self.spectral_fn(points if np.ndim(theta) == 2 else points[0])
        w, count = data.vectors, len(points)
        for what, defect in (
            ("values sum", np.abs(data.values.sum(axis=-1) - 1.0).reshape(count)),
            ("vectors orthonormality",
             np.abs(adjoint(w) @ w - np.eye(w.shape[-1])).reshape(count, -1).max(axis=-1)),
        ):
            if (bad := defect > SPECTRAL_SUM_TOL).any():
                raise ValidationError(f"spectral {what} defect {defect[np.argmax(bad)]:.3e}")
        return data

    def with_input_state(self, state: PureState) -> "ParametricChannel":
        return dataclasses.replace(self, input_state=state)

    def output_matrix(self, theta) -> np.ndarray:
        """Raw (d, d) output density matrix, (N, d, d) for a stack (no wrapper validation)."""
        if self.is_kraus_form:
            vs = self.kraus_matrices(theta) @ self._input()
            return hermitian_part(np.einsum("...ki,...kj->...ij", vs, vs.conj()))
        data = self.spectral_at(theta)
        w = data.vectors
        return hermitian_part((w * data.values[..., np.newaxis, :]) @ adjoint(w))

    def output_partials(self, theta) -> np.ndarray:
        """Raw (m, d, d) analytic partials of output_matrix, (N, m, d, d) for a stack."""
        if self.is_kraus_form:  # sum_k E_k' psi (E_k psi)^dag + h.c.
            vs = (self.kraus_matrices(theta) @ self._input())[..., np.newaxis, :, :]
            dvs = self.kraus_partials(theta) @ self._input()
            half = np.einsum("...ki,...kj->...ij", dvs, vs.conj())
            return half + adjoint(half)
        data = self.spectral_at(theta)  # W' P W^dag + h.c. + W P' W^dag
        w, dp = data.vectors[..., np.newaxis, :, :], data.value_grads[..., np.newaxis, :]
        half = (data.vector_grads * data.values[..., np.newaxis, np.newaxis, :]) @ adjoint(w)
        return half + adjoint(half) + hermitian_part((w * dp) @ adjoint(w))

    def _input(self) -> np.ndarray:
        if self.input_state is None:
            raise ValidationError(f"channel {self.name!r} has no input state")
        return self.input_state.amplitudes

    def output_state(self, theta) -> DensityMatrix:
        return DensityMatrix(self.output_matrix(theta))


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

_KET0 = PureState(np.array([1.0, 0.0]))
_PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
_DEPHASING_OPS = np.array([np.eye(2), PAULI_Z], dtype=complex)
_DEPOLARIZING_OPS = np.array([np.eye(2), PAULIS["x"], PAULIS["y"], PAULIS["z"]], dtype=complex)


def last_point_cache(fn: Callable[[np.ndarray], object]):
    """fn of a point or stack, kept for the last one (its shape and bits) asked for."""
    memo: dict = {}

    def cached(theta):
        theta = np.asarray(theta, dtype=float)
        key = (theta.shape, theta.tobytes())
        if key not in memo:
            memo.clear()
            memo[key] = fn(theta)
        return memo[key]

    return cached


def _weighted(coeffs: list, ops: np.ndarray) -> np.ndarray:
    """The (..., n, d, d) stack c_k(theta) O_k from n coefficient arrays of shape (...)."""
    return np.stack(coeffs, axis=-1)[..., np.newaxis, np.newaxis] * ops


def _rotation(t: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The (..., 1, 2, 2) stack of exp(-i t sigma / 2) at angles of shape (...)."""
    t = t[..., np.newaxis, np.newaxis, np.newaxis]
    return np.cos(t / 2) * np.eye(2) - 1j * np.sin(t / 2) * sigma


def _dephasing_kraus(theta: np.ndarray) -> np.ndarray:
    t = theta[..., 0]
    return _weighted([np.sqrt(1 - t), np.sqrt(t)], _DEPHASING_OPS)


def _dephasing_grad(theta: np.ndarray, index: int) -> np.ndarray:
    t = theta[..., 0]
    return _weighted([-0.5 / np.sqrt(1 - t), 0.5 / np.sqrt(t)], _DEPHASING_OPS)


def dephasing(input_state: PureState = _PLUS) -> ParametricChannel:
    """Qubit dephasing {sqrt(1-theta) I, sqrt(theta) Z}; quasi-classical on |+>."""
    return ParametricChannel(
        name="dephasing",
        dim=2,
        param_count=1,
        domain=((0.0, 1.0),),
        input_state=input_state,
        kraus_fn=_dephasing_kraus,
        kraus_grad_fn=_dephasing_grad,
    )


def rotation(axis: str = "z", input_state: PureState = _KET0) -> ParametricChannel:
    """Unitary rotation exp(-i theta sigma_axis / 2); a single Kraus operator."""
    if axis not in PAULIS:
        raise ValidationError(f"unknown rotation axis {axis!r}; expected one of x, y, z")
    sigma = PAULIS[axis]

    def kraus(theta: np.ndarray) -> np.ndarray:
        return _rotation(theta[..., 0], sigma)

    def grad(theta: np.ndarray, index: int) -> np.ndarray:
        return -0.5j * sigma @ kraus(theta)

    return ParametricChannel(
        name=f"rotation-{axis}",
        dim=2,
        param_count=1,
        domain=((-2 * np.pi, 2 * np.pi),),
        input_state=input_state,
        kraus_fn=kraus,
        kraus_grad_fn=grad,
    )


def _amplitude_damping_kraus(theta: np.ndarray) -> np.ndarray:
    t = theta[..., 0]
    ops = np.zeros(t.shape + (2, 2, 2), dtype=complex)
    ops[..., 0, 0, 0], ops[..., 0, 1, 1], ops[..., 1, 0, 1] = 1.0, np.sqrt(1 - t), np.sqrt(t)
    return ops


def _amplitude_damping_grad(theta: np.ndarray, index: int) -> np.ndarray:
    t = theta[..., 0]
    ops = np.zeros(t.shape + (2, 2, 2), dtype=complex)
    ops[..., 0, 1, 1], ops[..., 1, 0, 1] = -0.5 / np.sqrt(1 - t), 0.5 / np.sqrt(t)
    return ops


def amplitude_damping(input_state: PureState = _PLUS) -> ParametricChannel:
    """Qubit amplitude damping with decay probability theta."""
    return ParametricChannel(
        name="amplitude-damping",
        dim=2,
        param_count=1,
        domain=((0.0, 1.0),),
        input_state=input_state,
        kraus_fn=_amplitude_damping_kraus,
        kraus_grad_fn=_amplitude_damping_grad,
    )


def depolarizing(input_state: PureState = _KET0) -> ParametricChannel:
    """Qubit depolarizing in the four-element form {sqrt(1-3t/4) I, sqrt(t/4) sigma}."""

    def kraus(theta: np.ndarray) -> np.ndarray:
        t = theta[..., 0]
        c = np.sqrt(t / 4)
        return _weighted([np.sqrt(1 - 3 * t / 4), c, c, c], _DEPOLARIZING_OPS)

    def grad(theta: np.ndarray, index: int) -> np.ndarray:
        t = theta[..., 0]
        c = 1 / (8 * np.sqrt(t / 4))
        return _weighted([-3 / (8 * np.sqrt(1 - 3 * t / 4)), c, c, c], _DEPOLARIZING_OPS)

    return ParametricChannel(
        name="depolarizing",
        dim=2,
        param_count=1,
        domain=((0.0, 1.0),),
        input_state=input_state,
        kraus_fn=kraus,
        kraus_grad_fn=grad,
    )


def _rank_two(f: np.ndarray, g: np.ndarray, df, dg) -> SpectralData:
    """Eigenvalues (f^2, 1-f^2) on (g, sqrt(1-g^2), 0) and (0, 0, 1), f and g of shape (...).

    df and dg, the partials of f and g, broadcast to (..., m); only the first vector moves.
    """
    s = np.sqrt(1 - g * g)
    values = np.empty(f.shape + (2,))
    values[..., 0], values[..., 1] = f * f, 1 - f * f
    vectors = np.zeros(f.shape + (3, 2), dtype=complex)
    vectors[..., 0, 0], vectors[..., 1, 0], vectors[..., 2, 1] = g, s, 1.0
    f, g, s = f[..., np.newaxis], g[..., np.newaxis], s[..., np.newaxis]
    slope, turn = 2 * f * df, -g * dg / s
    value_grads = np.empty(slope.shape + (2,))
    value_grads[..., 0], value_grads[..., 1] = slope, -slope
    vector_grads = np.zeros(turn.shape + (3, 2), dtype=complex)
    vector_grads[..., 0, 0], vector_grads[..., 1, 0] = dg, turn
    return SpectralData(values, vectors, value_grads, vector_grads)


def example1() -> ParametricChannel:
    """Rank-two three-level family with rotating support but vanishing supported overlaps.

    Output eigenvalues (t^2, 1-t^2) on unit vectors (t, sqrt(1-t^2), 0) and
    (0, 0, 1): not quasi-classical, not unitary, yet the SLD information
    equals the canonical channel bound everywhere, H = C = 4(1+t^2)/(1-t^2).
    That is the eigenvalue term sum p_k'^2/p_k = 4/(1-t^2) plus the rotation
    term 4 t^2/(1-t^2): the derivative (1, -t/sqrt(1-t^2), 0) of the first
    vector is orthogonal to the support and has squared norm 1/(1-t^2).
    """

    def spectral(theta: np.ndarray) -> SpectralData:
        return _rank_two(theta[..., 0], theta[..., 0], 1.0, 1.0)

    return ParametricChannel(
        name="example1",
        dim=3,
        param_count=1,
        domain=((1e-3, 1 - 1e-3),),
        spectral_fn=spectral,
    )


def example2(
    f_coeffs: Sequence[float] = (0.0, 1.0, 0.0),
    g_coeffs: Sequence[float] = (0.0, 0.0, 1.0),
    domain: tuple[tuple[float, float], ...] = ((0.05, 0.95), (0.05, 0.95)),
) -> ParametricChannel:
    """Two-parameter rank-two three-level family driven by affine maps f, g.

    Output eigenvalues (f^2, 1-f^2) on unit vectors (g, sqrt(1-g^2), 0) and
    (0, 0, 1), with f = f0 + f1 theta1 + f2 theta2 and likewise g.  Both maps
    must stay inside [0, 1] over the domain box.
    """
    fc = np.asarray(f_coeffs, dtype=float)
    gc = np.asarray(g_coeffs, dtype=float)
    if fc.shape != (3,) or gc.shape != (3,):
        raise ValidationError("f_coeffs and g_coeffs need exactly 3 entries (const, th1, th2)")
    if len(domain) != 2:
        raise ValidationError(f"example2 has 2 parameters; domain has {len(domain)} interval(s)")
    affine = lambda c, theta: c[0] + c[1] * theta[..., 0] + c[2] * theta[..., 1]
    for corner in (np.array([a, b]) for a in domain[0] for b in domain[1]):
        for label, coeffs in (("f", fc), ("g", gc)):
            if not 0.0 <= (val := affine(coeffs, corner)) <= 1.0:
                raise ValidationError(
                    f"{label}(theta) = {val:.6g} leaves [0, 1] at corner {corner.tolist()}"
                )

    def spectral(theta: np.ndarray) -> SpectralData:
        f, g = (np.clip(affine(c, theta), 0.0, 1.0) for c in (fc, gc))
        return _rank_two(f, g, fc[1:], gc[1:])

    return ParametricChannel(
        name="example2",
        dim=3,
        param_count=2,
        domain=tuple(domain),
        spectral_fn=spectral,
    )


def dephasing_two_param(input_state: PureState = _PLUS) -> ParametricChannel:
    """Two-parameter dephasing with flip weight theta1 * theta2; quasi-classical on |+>."""

    def kraus(theta: np.ndarray) -> np.ndarray:
        q = theta[..., 0] * theta[..., 1]
        return _weighted([np.sqrt(1 - q), np.sqrt(q)], _DEPHASING_OPS)

    def grad(theta: np.ndarray, index: int) -> np.ndarray:
        q = theta[..., 0] * theta[..., 1]
        dq = theta[..., 1 - index]
        return _weighted([-0.5 * dq / np.sqrt(1 - q), 0.5 * dq / np.sqrt(q)], _DEPHASING_OPS)

    return ParametricChannel(
        name="dephasing-2p",
        dim=2,
        param_count=2,
        domain=((0.0, 1.0), (0.0, 1.0)),
        input_state=input_state,
        kraus_fn=kraus,
        kraus_grad_fn=grad,
    )


def rotation_two_param(input_state: PureState = _KET0) -> ParametricChannel:
    """Two-parameter unitary exp(-i (theta1 X + theta2 Y) / 2)."""
    gens = [PAULIS["x"] / 2, PAULIS["y"] / 2]
    return exponential_family(gens, 1, "rotation-2p", ((-2.0, 2.0), (-2.0, 2.0)), input_state)


def damped_rotation(input_state: PureState = _PLUS) -> ParametricChannel:
    """Amplitude damping (theta1) followed by a z rotation (theta2)."""

    def kraus(theta: np.ndarray) -> np.ndarray:
        return _rotation(theta[..., 1], PAULI_Z) @ _amplitude_damping_kraus(theta[..., :1])

    def grad(theta: np.ndarray, index: int) -> np.ndarray:
        u = _rotation(theta[..., 1], PAULI_Z)
        if index == 0:
            return u @ _amplitude_damping_grad(theta[..., :1], 0)
        return -0.5j * PAULI_Z @ u @ _amplitude_damping_kraus(theta[..., :1])

    return ParametricChannel(
        name="damped-rotation",
        dim=2,
        param_count=2,
        domain=((0.0, 1.0), (-2.0, 2.0)),
        input_state=input_state,
        kraus_fn=kraus,
        kraus_grad_fn=grad,
    )


def exponential_family(
    gens, env: int, name: str, domain: tuple[tuple[float, float], ...],
    input_state: PureState | None = None,
) -> ParametricChannel:
    """E_k(theta) = (I x <k|) exp(-i sum_l theta_l G_l) (I x |0>) of an (m, T, T) generator stack.

    The generators act on system x environment (T = dim * env) with composite
    index i*env + k; env = 1 gives the single unitary.  With one parameter,
    exp(-i theta G) = W e^{-i theta Lambda} W^dag and its partial is -i G times
    it, so G is decomposed once, at the first evaluation, for the channel's
    life (UnitaryExponential.along), and only (..., T, dim) arrays form.  With
    m >= 2 the stack and every partial at a point, or at each point of a
    stack, come from one (batched) eigendecomposition of the generator per
    theta, kept for the last points asked for.  An (N, m, T, T) stack is N
    families in one: row i of an (N, m) stack of points is evaluated with
    generators i, so the N rows take one batched eigendecomposition.
    """
    gens = np.array(gens, dtype=complex)
    total = gens.shape[-1]
    dim = total // env
    # Reorder the composite index to k*dim + i: then the states |j, 0> are the
    # first dim columns, and E_k is rows k*dim .. (k+1)*dim of those columns.
    order = np.arange(total).reshape(dim, env).T.ravel()
    gens = gens[..., order, :][..., order]
    columns = slice(0, dim)

    if gens.shape[-3] == 1:
        generator = functools.cache(lambda: unitary_exponential(gens[..., 0, :, :]))
        ops = lambda theta, index: generator().along(theta[..., 0], columns, index is not None)
    else:
        flat = gens.reshape(*gens.shape[:-2], -1)
        decomposition = last_point_cache(lambda theta: unitary_exponential(
            (theta[..., np.newaxis, :] @ flat).reshape(*theta.shape[:-1], total, total)))
        ops = lambda theta, index: (decomposition(theta).unitary(columns) if index is None else
                                    decomposition(theta).partial(gens[..., index, :, :], columns))
    shaped = lambda theta, index: ops(theta, index).reshape(*np.shape(theta)[:-1], env, dim, dim)
    return ParametricChannel(name=name, dim=dim, param_count=gens.shape[-3], domain=domain,
                             input_state=input_state, kraus_fn=lambda theta: shaped(theta, None),
                             kraus_grad_fn=shaped)


def random_hermitian(
    dim: int, rng: np.random.Generator, scale: float = 1.0, shape: tuple[int, ...] = ()
) -> np.ndarray:
    """A (*shape, dim, dim) stack from one normal draw: each matrix's real part, then its
    imaginary part, as drawing the matrices one by one gives them."""
    x = rng.normal(size=(*shape, 2, dim, dim))
    return hermitian_part(x[..., 0, :, :] + 1j * x[..., 1, :, :]) * scale / np.sqrt(dim)


def keyed_stream() -> Callable[[int], np.random.Generator]:
    """seed -> Generator(Philox(key=seed))'s stream, re-keying one Philox (a new one first reads
    OS entropy) behind one Generator: each call ends the stream the previous call returned."""
    bits = np.random.Philox(0)
    keyed, fresh = np.random.Generator(bits), bits.state

    def stream(seed: int) -> np.random.Generator:
        bits.state = {**fresh, "state": {**fresh["state"], "key": np.uint64([seed, 0])}}
        return keyed
    return stream


_random_kraus_stream = functools.cache(keyed_stream)  # at first use: numpy.random loads late


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amps / np.linalg.norm(amps))


def random_kraus_channel(
    dim: int = 2,
    env: int = 2,
    param_count: int = 1,
    seed: int = 0,
    scale: float = 1.0,
    input_state: PureState | None = None,
) -> ParametricChannel:
    """Seeded random Kraus curve from a Hamiltonian on system x environment.

    E_k(theta) = (I x <k|) exp(-i sum_l theta_l G_l) (I x |0>), which is
    complete for every theta and smooth in theta.  env controls the number
    of Kraus operators.
    """
    if env < 1 or dim < 2:
        raise ValidationError("need dim >= 2 and env >= 1")
    if param_count < 1:
        raise ValidationError(f"param_count must be at least 1, got {param_count}")
    if not math.isfinite(scale):
        raise ValidationError(f"scale must be finite, got {scale!r}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    rng = _random_kraus_stream()(seed)  # Generator(Philox(key=seed))'s stream
    box = tuple((-1.0, 1.0) for _ in range(param_count))
    with np.errstate(over="ignore"):  # a scale past the float range reads as an infinite reach
        gens = random_hermitian(dim * env, rng, scale, (param_count,))
        reach = np.finfo(float).eps * np.linalg.norm(gens) * np.abs(box).max()
    if not reach <= CURVE_DERIV_TOL:  # the phases theta G then carry no digit the curve can use
        raise ValidationError(f"scale {scale!r} leaves exp(-i theta G) no correct phase digit: "
                              f"eps max|theta| ||G||_F = {reach:.3e} > {CURVE_DERIV_TOL:g}")
    if input_state is None:
        input_state = random_pure_state(dim, rng)
    return exponential_family(gens, env, f"random-kraus-{seed}", box, input_state)


def custom_spectral(
    vectors: np.ndarray,
    value_coeffs: np.ndarray,
    domain: tuple[tuple[float, float], ...],
    name: str = "custom-spectral",
) -> ParametricChannel:
    """Quasi-classical family with fixed eigenvectors and affine eigenvalues.

    value_coeffs[k] = (c0, c1, ..., cm) gives p_k(theta) = c0 + sum_l cl theta_l.
    The constant terms must sum to one and each slope column to zero, and
    every eigenvalue must stay nonnegative over the domain box.
    """
    w = np.asarray(vectors, dtype=complex)
    coeffs = np.asarray(value_coeffs, dtype=float)
    m = len(domain)
    if w.ndim != 2 or coeffs.shape != (w.shape[1], m + 1):
        raise ValidationError(
            f"need vectors (d, r) and value_coeffs (r, {m + 1}); got {w.shape}, {coeffs.shape}"
        )
    gram_defect = max_abs(w.conj().T @ w - np.eye(w.shape[1]))
    if not gram_defect <= SPECTRAL_SUM_TOL:  # a nan entry fails too
        raise ValidationError(f"eigenvectors not orthonormal: defect {gram_defect:.3e}")
    sum_defects = [abs(coeffs[:, 0].sum() - 1.0), max_abs(coeffs[:, 1:].sum(axis=0))]
    if not all(defect <= SPECTRAL_SUM_TOL for defect in sum_defects):
        raise ValidationError("eigenvalue coefficients do not keep the values summing to one")
    corners = np.array(np.meshgrid(*domain)).T.reshape(-1, m)
    for corner in corners:
        vals = coeffs[:, 0] + coeffs[:, 1:] @ corner
        if np.min(vals) < -SPECTRAL_SUM_TOL:
            raise ValidationError(
                f"eigenvalue becomes negative ({np.min(vals):.3e}) at corner {corner.tolist()}"
            )
    slopes = coeffs[:, 1:].T.copy()  # contiguous: a fan's product rounds by the layout it reads

    def spectral(theta: np.ndarray) -> SpectralData:
        shift = (coeffs[:, 1:] @ theta[..., np.newaxis])[..., 0]  # as a column: a point's bits
        values = np.clip(coeffs[:, 0] + shift, 0.0, None)
        lead = values.shape[:-1]
        return SpectralData(
            values=values,
            vectors=np.broadcast_to(w, lead + w.shape),
            value_grads=np.broadcast_to(slopes, lead + slopes.shape),
            vector_grads=np.zeros(lead + (m,) + w.shape, dtype=complex),
        )

    return ParametricChannel(
        name=name,
        dim=w.shape[0],
        param_count=m,
        domain=tuple(domain),
        spectral_fn=spectral,
    )


def directional_channel(
    channel: ParametricChannel, theta, directions: np.ndarray, name: str | None = None
) -> ParametricChannel:
    """The k-parameter fan t -> channel(theta + V^T t) of a (k, m) direction matrix V.

    Partial j is sum_l V[j, l] d_l, of the Kraus stack or of the spectral
    data, all k from one product; an (m,) vector gives the one-parameter
    slice.  The fan broadcasts like its parent, in either form.  Coordinate j
    spans (-t_j / k, t_j / k), t_j the largest |t| keeping theta + t V[j] in
    the box, so the fan's box maps into the parent box.  (N, m) centers with
    (N, k, m) directions give N fans, fan i at row i (see exponential_family)
    of an (N, k) stack of points, each t_j the least over rows.
    """
    center = channel.require_in_domain(theta)
    v = np.asarray(directions, dtype=float)
    fan = np.atleast_2d(v)
    if fan.shape[:-2] != center.shape[:-1] or fan.shape[-1] != channel.param_count:
        raise ValidationError(f"directions must have {channel.param_count} components per center")
    k = fan.shape[-2]
    lo, hi = np.array(channel.domain, dtype=float).T
    room = np.minimum(hi - center, center - lo)[..., np.newaxis, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.min(np.where(fan == 0.0, np.inf, room / np.abs(fan)), axis=-1).reshape(-1, k)
    if not np.all(np.isfinite(t_max) & (t_max > 0)):
        raise ValidationError("direction leaves the domain immediately")

    at = lambda tvec: center + (tvec[..., np.newaxis, :] @ fan)[..., 0, :]
    kraus = spectral = grad = None
    if channel.is_kraus_form:
        def kraus(tvec: np.ndarray) -> np.ndarray:
            return channel.kraus_fn(at(tvec))

        @last_point_cache
        def partials(tvec: np.ndarray) -> np.ndarray:  # (..., k, n, d, d)
            t = at(tvec)
            parent = np.stack([channel.kraus_grad_fn(t, l) for l in range(channel.param_count)], -4)
            weights = fan[..., np.newaxis, np.newaxis, np.newaxis]
            return (weights * np.expand_dims(parent, -5)).sum(axis=-4)

        def grad(tvec: np.ndarray, index: int) -> np.ndarray:
            return partials(tvec)[..., index, :, :, :]
    else:
        def spectral(tvec: np.ndarray) -> SpectralData:
            data = channel.spectral_fn(at(tvec))
            dw = data.vector_grads  # (..., m, d, r), contracted over m as (..., m, d r)
            dw = (fan @ dw.reshape(*dw.shape[:-2], -1)).reshape(*dw.shape[:-3], k, *dw.shape[-2:])
            return dataclasses.replace(data, value_grads=fan @ data.value_grads, vector_grads=dw)

    return ParametricChannel(
        name=name or f"{channel.name}-{'slice' if v.ndim == 1 else 'fan'}",
        dim=channel.dim,
        param_count=k,
        domain=tuple((-t / k, t / k) for t in t_max.min(axis=0)),
        input_state=channel.input_state,
        kraus_fn=kraus,
        kraus_grad_fn=grad,
        spectral_fn=spectral,
    )


BUILTIN_FAMILIES: dict[str, Callable[..., ParametricChannel]] = {
    "dephasing": dephasing,
    "rotation": rotation,
    "amplitude-damping": amplitude_damping,
    "depolarizing": depolarizing,
    "example1": example1,
    "example2": example2,
    "dephasing-2p": dephasing_two_param,
    "rotation-2p": rotation_two_param,
    "damped-rotation": damped_rotation,
    "random-kraus": random_kraus_channel,
}


def builtin(family: str, **options) -> ParametricChannel:
    """Construct a built-in family by name."""
    key = family.strip().lower().replace("_", "-")
    factory = BUILTIN_FAMILIES.get(key)
    if factory is None:
        known = ", ".join(sorted(BUILTIN_FAMILIES))
        raise ValidationError(f"unknown family {family!r}; known families: {known}")
    try:
        return factory(**options)
    except TypeError as exc:
        raise ValidationError(f"bad options for family {family!r}: {exc}") from None
