"""Multi-parameter matrix bounds.

Fisher, SLD and channel-bound matrices for channels with several parameters,
Loewner-order comparisons, the matrix attainability condition, and the
directional-reduction check that ties the matrices to the fan of slices
along k directions: one curve of the fan gives V H V^T and V C V^T.

All parameters share one canonical decomposition at the point, and each
partial follows the same parallel-transport gauge as the one-parameter
machinery, so the per-parameter eigendata live in a common frame and no
mixed partials are ever needed.  Nothing here decomposes: every function
reads the point's spectral curve (bounds.spectral_curve).  The SLD and
channel-bound matrices are the curve's cached information pair, the same
pair form of the overlap stack whose (0, 0) entries are the scalar bounds,
so Kraus-form and spectral-form families take one route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    SUPPORT_TOL,
    SpectralCurve,
    attainability_check,
    spectral_curve,
    unitary_condition,
)
from .channels import ParametricChannel, directional_channel
from .errors import ConsistencyError, ValidationError
from .linalg import loewner_leq, max_abs
from .quantum import POVM

PINV_RCOND = 1e-12


@dataclass(frozen=True)
class InfoMatrix:
    """Real symmetric PSD information matrix; kind is fisher | sld | sm."""

    entries: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"information matrix must be square, got {m.shape}")
        asym = max_abs(m - m.T)
        if asym > 1e-9 * max(1.0, max_abs(m)):
            raise ConsistencyError(f"{self.kind} matrix asymmetry {asym:.3e}")
        sym = (m + m.T) / 2
        min_eig = float(np.linalg.eigvalsh(sym)[0])
        if min_eig < -1e-9 * max(1.0, max_abs(m)):
            raise ConsistencyError(f"{self.kind} matrix min eigenvalue {min_eig:.3e}")
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def pinv_with_rank(info: InfoMatrix) -> tuple[np.ndarray, int]:
    """Pseudo-inverse with the numerical rank, for covariance lower bounds.

    The inverse-information covariance bound presumes an invertible matrix;
    for singular ones we disclose the rank alongside the pseudo-inverse.
    """
    entries = info.entries
    rank = int(np.linalg.matrix_rank(entries, tol=PINV_RCOND * max(1.0, max_abs(entries))))
    return np.linalg.pinv(entries, rcond=PINV_RCOND), rank


def sld_matrix(curve: SpectralCurve) -> InfoMatrix:
    """SLD information matrix H of the curve, checked against Re tr(rho L_j L_k)."""
    curve.sld_score  # building the score stack checks H
    return InfoMatrix(curve.information[0], "sld")


def sm_matrix(curve: SpectralCurve) -> InfoMatrix:
    """Channel-bound matrix C of the curve, for Kraus-form and spectral-form families alike."""
    return InfoMatrix(curve.information[1], "sm")


def fisher_matrix(curve: SpectralCurve, povm: POVM) -> InfoMatrix:
    """Classical Fisher information matrix of the POVM outcomes at the curve's point."""
    return InfoMatrix(curve.fisher(povm), "fisher")


@dataclass(frozen=True)
class MultiAttainability:
    attainable: bool
    residual: float
    tol: float
    quasi_classical: bool
    unitary_condition_values: tuple[complex, ...] | None = None


def multi_attainability_check(
    curve: SpectralCurve, tol: float = 1e-6, channel: ParametricChannel | None = None
) -> MultiAttainability:
    """Matrix-bound equality condition: all supported <w_j^(l)|w_k> vanish.

    Also reports the quasi-classical specialization (all eigenvector partials
    vanish) and, when the channel is a single-operator family, the
    per-parameter unitary condition values tr(U rho0 dU^dag), read from the
    curve's decomposition.
    """
    attainable, residual = attainability_check(curve, tol)
    quasi = all(max_abs(dw[:, curve.support]) < tol for dw in curve.vector_derivs)
    unitary_values = None
    ck = curve.kraus
    if channel is not None and ck is not None and ck.raw_operators.shape[0] == 1:
        unitary_values, _ = unitary_condition(channel, curve, tol)
    return MultiAttainability(attainable, residual, tol, quasi, unitary_values)


@dataclass(frozen=True)
class LoewnerVerdict:
    holds: bool
    min_eigenvalue: float


@dataclass(frozen=True)
class LoewnerReport:
    fisher_le_sld: LoewnerVerdict
    sld_le_sm: LoewnerVerdict
    fisher_le_sm: LoewnerVerdict
    tol: float
    all_hold: bool


def loewner_report(
    fisher: InfoMatrix, sld: InfoMatrix, sm: InfoMatrix, tol: float | None = None
) -> LoewnerReport:
    """Ordered verdicts F <= H <= C in the Loewner order with min-eigenvalue slack."""
    if not (fisher.size == sld.size == sm.size):
        raise ValidationError("information matrices have mismatched sizes")
    if tol is None:
        tol = 1e-8 * (1.0 + max_abs(sm.entries))
    checks = {}
    for name, (a, b) in {
        "fisher_le_sld": (fisher, sld),
        "sld_le_sm": (sld, sm),
        "fisher_le_sm": (fisher, sm),
    }.items():
        holds, min_eig = loewner_leq(a.entries, b.entries, tol)
        checks[name] = LoewnerVerdict(holds, min_eig)
    return LoewnerReport(tol=tol, all_hold=all(v.holds for v in checks.values()), **checks)


@dataclass(frozen=True)
class DirectionalCheck:
    """The fan's (k, k) H and C against V H V^T and V C V^T, entry by entry, per point."""

    directions: np.ndarray
    kraus_deriv_mismatch: float | None
    sld_slice: np.ndarray
    sld_quadratic: np.ndarray
    sm_slice: np.ndarray
    sm_quadratic: np.ndarray
    refusals: tuple | None = None  # a stack's, one per fan; the arrays hold the fans not refused

    @property
    def sld_mismatch(self) -> float:
        return _entry_mismatch(self.sld_slice, self.sld_quadratic)

    @property
    def sm_mismatch(self) -> float:
        return _entry_mismatch(self.sm_slice, self.sm_quadratic)

    @property
    def mismatch(self):
        """The worst of the three mismatches, per point."""
        kraus = 0.0 if self.kraus_deriv_mismatch is None else self.kraus_deriv_mismatch
        return np.maximum(np.maximum(self.sld_mismatch, self.sm_mismatch), kraus)


def _entry_mismatch(fan: np.ndarray, quadratic: np.ndarray) -> float:
    return np.max(np.abs(fan - quadratic) / np.maximum(1.0, np.abs(quadratic)), axis=(-2, -1))


def directional_reduction_check(channel, curve: SpectralCurve, directions) -> DirectionalCheck:
    """Check the fan t -> channel(theta + V^T t) along the rows of V (or one v) at t = 0.

    One curve of the fan serves every direction: its supported canonical
    partials must equal V times the curve's partials, its H and C must equal
    V H V^T and V C V^T entry by entry, and its SLD score stack checks the
    SLD residual and H, however narrow the fan.  A stacked Kraus-form curve
    takes (N, k, m) directions; its fans, of its channel and with its inputs,
    are decomposed in one call, and a refused fan is one of the refusals.
    """
    stacked = curve.theta.ndim == 2
    lift = (lambda a: a) if stacked else (lambda a: a[np.newaxis])
    v = lift(np.atleast_2d(np.asarray(directions, dtype=float)))
    fan = directional_channel(channel, curve.theta, v if stacked else v[0])
    psi = None if curve.kraus is None else lift(curve.kraus.psi)
    fan_curve = spectral_curve(fan, np.zeros(v.shape[:2]), psi)
    if not stacked and fan_curve.refusals[0]:
        raise fan_curve.refusals[0]
    fan_curve.sld_score  # building the score stack checks the residual and H
    kept = np.array([refusal is None for refusal in fan_curve.refusals])
    v, (h, c) = v[kept], (lift(a)[kept] for a in curve.information)
    kraus_mismatch = None
    if curve.kraus is not None and kept.any():
        keep = lift(curve.kraus.weights > SUPPORT_TOL)[kept, np.newaxis, :, np.newaxis, np.newaxis]
        partials, fan_partials = lift(curve.kraus.derivatives)[kept], fan_curve.kraus.derivatives
        combo = (v @ partials.reshape(*partials.shape[:2], -1)).reshape(fan_partials.shape)
        diff = np.where(keep, np.abs(fan_partials - combo), 0.0).max(axis=(2, 3, 4))
        scale = np.maximum(1.0, np.where(keep, np.abs(combo), 0.0).max(axis=(2, 3, 4)))
        kraus_mismatch = (diff / scale).max(axis=-1)
    (fan_h, fan_c), vt = fan_curve.information, v.swapaxes(-1, -2)
    check = dict(directions=v, kraus_deriv_mismatch=kraus_mismatch, sld_slice=fan_h,
                 sld_quadratic=v @ h @ vt, sm_slice=fan_c, sm_quadratic=v @ c @ vt,
                 refusals=fan_curve.refusals)  # (None,) for a point: its refused fan raised
    return DirectionalCheck(**{k: a if stacked or a is None else a[0] for k, a in check.items()})
