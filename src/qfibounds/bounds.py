"""Channel bounds at a point, and the scalar one-parameter functionals.

Canonical Kraus decomposition with an explicit, reproducible gauge; spectral
curves of the output state; the SLD score and quantum information; the
channel bound computed from canonical Kraus derivatives or from the spectral
curve; the gap identity between the two informations; attainability
verdicts; optimal-POVM construction and POVM optimality condition checks.

Only canonical_kraus and spectral_curve decompose.  A spectral curve is the
value of a point for any parameter count m: it holds the eigensystem with
all m partials, carries the decomposition it came from, and caches its
overlap and SLD score stacks (one matrix per parameter) and its information
matrices (H, C), so every function of a point reads one value: the curve.
Both take one point or an (N, m) stack of points of one channel: a stack
gives every array a leading (N,) axis and is decomposed in one pass, which
is how a sweep decomposes its grid, and the point call is the stack of one.
H and C are one bilinear form of the overlap stack under two weight
matrices; the scalar bounds and the gap are 1 x 1 cases of it.  The Fisher
information of a POVM reads the curve's state and its per-parameter
partials (SpectralCurve.fisher), the unitary condition reads its
decomposition, and no function of a point evaluates the channel again.
The scalar functionals read a one-parameter curve, one value per point of
a stacked curve, and refuse a curve with several parameters; multiparam
wraps the matrices of the same curve.

Gauge convention: the canonical operators Y = X^dag E come from the
eigenvectors X of the input-state Gram matrix, and their derivatives follow
the parallel-transport gauge: each eigenvector moves orthogonally to itself,
<x_k|x_k'> = 0, with the motion given by perturbation theory from the
family's Kraus derivative.  The diagonal overlaps <w_k'|w_k> this produces
are reported as gauge_source = "canonical-kraus".  Spectral-form families
carry their own analytic gauge ("spectral-form").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import ParametricChannel, SpectralData
from .errors import (
    ConsistencyError,
    DegeneracyError,
    NumericError,
    SingularTermError,
    ValidationError,
)
from .linalg import (
    STENCIL_REACH,
    _normalize_phases,
    adjoint,
    cluster_labels,
    differentiate_curve,
    hermitian_eigendecompose,
    hermitian_part,
    psd_sqrt,
)
from .quantum import CONSTRUCT_HERM_TOL, POVM, DensityMatrix

SUPPORT_TOL = 1e-10
DEGENERACY_TOL = 1e-8
P_FLOOR = 1e-12
DP_FLOOR = 1e-8
GRAM_DIAG_TOL = 1e-8
CURVE_SUM_TOL = 1e-9
CURVE_DERIV_TOL = 1e-6
SLD_RESIDUAL_TOL = 1e-6
TINY_WEIGHT = 1e-6  # below it a weight's relative rounding, EPS / p, passes 2e-10
EPS = np.finfo(float).eps
UNATTAINABLE = (
    "channel bound not attainable here: the measurement optimality "
    "condition on canonical Kraus derivatives is unsatisfiable"
)


# ---------------------------------------------------------------------------
# Canonical Kraus decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalKraus:
    """Canonical operators at a point, their m partials, and the mixing unitary.

    Built from a stack of N points, every field has a leading (N,) axis.
    """

    theta: np.ndarray            # (m,)
    operators: np.ndarray        # (n, d, d)
    derivatives: np.ndarray      # (m, n, d, d) one stack per parameter
    mixing: np.ndarray           # (n, n); operators[i] = sum_j mixing[i, j] raw[j]
    weights: np.ndarray          # (n,) Gram eigenvalues, ascending
    raw_operators: np.ndarray    # (n, d, d) the family's own Kraus stack
    raw_derivatives: np.ndarray  # (m, n, d, d) its partials
    psi: np.ndarray              # (d,) the input state; (1, d) or (N, d) for a stack


def _only_point(ck: CanonicalKraus) -> CanonicalKraus:
    """The one point of a stack of one: each field loses its leading axis."""
    return CanonicalKraus(**{name: value[0] for name, value in vars(ck).items()})


def _gram_derivative(vs: np.ndarray, dvs: np.ndarray) -> np.ndarray:
    """Derivative of the Gram matrix of the vectors E_k psi, from the vectors dE_k psi."""
    half = dvs @ adjoint(vs)
    return half + adjoint(half)


def _resolve_degenerate_clusters(
    vectors: np.ndarray, gram_deriv: np.ndarray, clusters: list[np.ndarray]
) -> np.ndarray:
    """Rotate supported degenerate clusters to diagonalize the projected Gram derivative.

    Eigenvector curves stay well-defined through an eigenvalue crossing when
    the first-order (projected-derivative) problem separates the branches;
    if it does not, the derivative is genuinely ill-posed and we refuse.
    """
    vectors = vectors.copy()
    for members in clusters:
        block = vectors[:, members]
        sub = hermitian_eigendecompose(block.conj().T @ gram_deriv @ block)
        gaps = np.diff(sub.eigenvalues)
        if gaps.size and float(np.min(gaps)) < DEGENERACY_TOL:
            raise DegeneracyError(
                "degenerate Gram eigenvalues with degenerate first-order splitting; "
                "perturb theta to move off the crossing"
            )
        vectors[:, members] = _normalize_phases(block @ sub.eigenvectors)
    return vectors


def _crossing_coupling(
    coupling: np.ndarray,
    values: np.ndarray,
    gram_second: np.ndarray,
    vectors: np.ndarray,
    members: np.ndarray,
) -> np.ndarray:
    """Parallel-transport generator inside a resolved supported cluster.

    With B = X^dag G' X diagonal on the cluster, second-order degenerate
    perturbation theory gives K_ba = [(X^dag G'' X)_ba / 2 +
    sum_{c outside} B_bc B_ca / (g - g_c)] / (g'_a - g'_b).
    """
    outside = ~members
    block = vectors[:, members]
    through = coupling[members][:, outside] / (float(np.mean(values[members])) - values[outside])
    numer = 0.5 * (block.conj().T @ gram_second @ block) + through @ coupling[outside][:, members]
    slopes = np.real(np.diag(coupling)[members])
    split = slopes[np.newaxis, :] - slopes[:, np.newaxis]
    np.fill_diagonal(split, 1.0)
    out = numer / split
    np.fill_diagonal(out, 0.0)
    return out


def canonical_kraus(channel: ParametricChannel, theta, inputs=None) -> CanonicalKraus:
    """Canonical operators Y = X^dag E and their m partials at theta.

    Requires a Kraus-form channel with a pure input state.  theta is one
    point, or an (N, m) stack decomposed in one pass (one batched eigh) whose
    fields gain a leading (N,) axis; the family is evaluated once for the
    whole stack.  An (N, d) stack of unit inputs gives row i the input
    psi = inputs[i], at row i of an N-point stack or all at one point.  A
    family whose row i has its own generators (exponential_family) with one
    input per row thus decomposes N channels of one shape in one call.
    G X = X diag(g) diagonalizes the input-state Gram matrix.  The partials
    are d_l Y = X^dag d_l E - K_l Y in the parallel-transport gauge, where
    (K_l)_jk = (X^dag d_l G X)_jk / (g_k - g_j) between eigenvalue clusters
    and K_l = 0 inside the unsupported cluster, because Y_k psi = 0 there.
    d_l E is the family's kraus_grad_fn.  A supported degenerate cluster is
    resolved, on its own rows, for one parameter only and by a stencil that
    must fit in the domain; with several it is refused, since a crossing can
    split differently along different axes.  With the raw Kraus stack and
    its partials kept, one call feeds everything a report needs.
    """
    if not channel.is_kraus_form or (channel.input_state is None and inputs is None):
        raise ValidationError(f"channel {channel.name!r} has no Kraus curve with a pure "
                              "input state")
    points = channel.require_in_domain(channel.theta_stack(theta))
    psi = np.array([channel.input_state.amplitudes] if inputs is None else inputs, dtype=complex)
    if inputs is not None:  # one row per point, all at one point, or one for every point
        if psi.ndim != 2 or psi.shape[1] != channel.dim or 1 < len(points) != len(psi) > 1:
            raise ValidationError("an input stack needs (N, d) rows, one per point; "
                                  f"got {psi.shape} for {len(points)} points")
        defect = np.abs(np.sum(np.abs(psi) ** 2, axis=1) - 1.0)
        if (bad := ~(defect <= CONSTRUCT_HERM_TOL)).any():  # a nan row fails too
            i = np.argmax(bad)
            raise ValidationError(f"input row {i} is not normalized: norm defect {defect[i]:.3e}")
    psi = psi[:, np.newaxis, :, np.newaxis]
    spread = lambda a: np.repeat(a, len(psi), axis=0) if len(a) < len(psi) else a
    m = points.shape[1]

    # the stack, then its partials: the exponential families memo one stack of points
    ops = spread(channel.kraus_matrices(points))
    dops = spread(channel.kraus_partials(points))
    thetas = spread(points)
    count, n = ops.shape[:2]
    vs = (ops @ psi)[..., 0]
    sys = hermitian_eigendecompose(vs @ adjoint(vs))
    g = sys.eigenvalues
    p = g.clip(0.0, None)
    boundary = (p > SUPPORT_TOL) & (p <= DEGENERACY_TOL)
    if boundary.any():
        raise DegeneracyError(
            f"Gram eigenvalue {p[boundary][0]:.3e} sits at the support boundary; the supported/"
            "unsupported split is unreliable, perturb theta"
        )
    supported = p > SUPPORT_TOL
    gram_derivs = _gram_derivative(vs[:, np.newaxis], (dops @ psi[:, np.newaxis])[..., 0])

    labels = cluster_labels(g, DEGENERACY_TOL)
    same = labels[:, :, np.newaxis] == labels[:, np.newaxis, :]
    crossing = ((same.sum(axis=-1) > 1) & supported).any(axis=-1)
    vectors = sys.eigenvectors
    resolved = []  # (row, its crossing clusters, its second Gram derivative)
    if crossing.any():
        if m != 1:
            raise DegeneracyError(
                "supported Gram eigenvalues are degenerate at the center point; "
                "perturb theta to separate them"
            )
        rows = np.flatnonzero(crossing)
        # the second Gram derivative below is a central-4 stencil: it must fit in the box
        edge = [not channel.in_domain(thetas[i], STENCIL_REACH) for i in rows]
        if any(edge):
            i = rows[edge.index(True)]
            raise DegeneracyError(
                f"supported Gram eigenvalues cross at theta {thetas[i].tolist()}, within "
                f"{STENCIL_REACH} of a domain edge, where the crossing cannot be resolved"
            )
        # each crossing row's degenerate clusters that hold a supported mode
        clusters = [
            [labels[i] == c for c in np.unique(labels[i, supported[i]])
             if np.sum(labels[i] == c) > 1]
            for i in rows
        ]
        for i, members in zip(rows, clusters):
            vectors[i] = _resolve_degenerate_clusters(vectors[i], gram_derivs[i, 0], members)
        states = psi[rows % len(psi)]
        # the stencil moves the points of crossing rows only: a row may have its own family
        moved = crossing.reshape(len(points), -1).any(axis=1, keepdims=True)
        at = lambda ts: np.where(moved, ts, points)
        gram_second = differentiate_curve(lambda ts: _gram_derivative(
            (spread(channel.kraus_matrices(at(ts)))[rows] @ states)[..., 0],
            (spread(channel.kraus_partials(at(ts))[:, 0])[rows] @ states)[..., 0],
        ), points)
        resolved = list(zip(rows, clusters, gram_second))

    mixing = adjoint(vectors)
    canonical = (mixing @ ops.reshape(count, n, -1)).reshape(ops.shape)
    spacing = np.where(same, 1.0, g[:, np.newaxis, :] - g[:, :, np.newaxis])
    between = supported[:, :, np.newaxis] & supported[:, np.newaxis, :] & ~same
    coupling = mixing[:, np.newaxis] @ gram_derivs @ vectors[:, np.newaxis]
    # eigh fixes each eigenvector only to about eps g_max / gap, which
    # reaches K through B as eps g_max |g_j' - g_k'| / gap^2.
    slopes = coupling.diagonal(axis1=-2, axis2=-1).real
    noise = (EPS * g[:, -1])[:, np.newaxis, np.newaxis, np.newaxis] * np.abs(
        slopes[..., :, np.newaxis] - slopes[..., np.newaxis, :]
    )
    ratio = noise / spacing[:, np.newaxis] ** 2 * np.sqrt(p)[:, np.newaxis, np.newaxis, :]
    noisy = between[:, np.newaxis] & (ratio > CURVE_DERIV_TOL)
    if noisy.any():
        i, _, j, k = np.argwhere(noisy)[0]
        raise DegeneracyError(
            f"Gram eigenvalues {g[i, j]:.6g} and {g[i, k]:.6g} are {abs(g[i, k] - g[i, j]):.3e} "
            "apart, too close for an accurate derivative; perturb theta away "
            "from the crossing"
        )
    generator = np.where(same[:, np.newaxis], 0.0, coupling / spacing[:, np.newaxis])
    for i, members_of_row, second in resolved:
        for members in members_of_row:
            generator[i, 0][np.ix_(members, members)] = _crossing_coupling(
                coupling[i, 0], g[i], second, vectors[i], members
            )
    partials = (
        mixing[:, np.newaxis] @ dops.reshape(count, m, n, -1)
        - generator @ canonical.reshape(count, 1, n, -1)
    ).reshape(dops.shape)

    cvs = (canonical @ psi)[..., 0]
    off_diag = np.abs(np.where(np.eye(n, dtype=bool), 0.0, cvs @ adjoint(cvs)))
    if (worst := off_diag.max()) > GRAM_DIAG_TOL:
        raise ConsistencyError(f"canonical Gram matrix not diagonal: off-diagonal {worst:.3e}")
    ck = CanonicalKraus(thetas, canonical, partials, mixing, p, ops, dops, psi[:, 0, :, 0])
    return ck if np.ndim(theta) == 2 or inputs is not None else _only_point(ck)


# ---------------------------------------------------------------------------
# Spectral curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralCurve:
    """Output-state eigensystem and its m partials at one parameter point.

    values are ascending with entries below the support threshold zeroed;
    vectors span the full space (unsupported slots hold an orthonormal
    completion whose derivative columns are zero and never used directly).
    value_derivs and vector_derivs hold one row per parameter, and the
    one-parameter bound is the m = 1 case.  kraus is the canonical
    decomposition the curve was built from, None for spectral-form families.
    A curve of an (N, m) stack of points has a leading (N,) axis on every
    array, and its checks and cached quantities run on the whole stack.  The
    overlap and SLD score stacks and the information matrices are computed
    once per curve and cached; the cached arrays are read-only.
    """

    theta: np.ndarray          # (m,)
    values: np.ndarray         # (d,)
    vectors: np.ndarray        # (d, d)
    value_derivs: np.ndarray   # (m, d)
    vector_derivs: np.ndarray  # (m, d, d)
    support: np.ndarray        # (d,) bool
    gauge_source: str
    kraus: CanonicalKraus | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        p, w = self.values, self.vectors
        total, slopes = p.sum(axis=-1), self.value_derivs.sum(axis=-1)
        if (bad := np.abs(total - 1.0) > CURVE_SUM_TOL).any():
            raise ConsistencyError(f"eigenvalues sum to {float(total[bad][0])!r}")
        if (bad := np.abs(slopes) > CURVE_DERIV_TOL).any():
            raise ConsistencyError(f"eigenvalue derivatives sum to {float(slopes[bad][0])!r}")
        # w_k = Y_k psi / sqrt(p_k) and w_k' = dY_k psi / sqrt(p_k) - (p_k' / 2 p_k) w_k:
        # <w_j|w_k> carries rounding of 1 / sqrt(p_j p_k), and overlap pair (j, k)
        # that of s_j + s_k, s_k = |w_k'| + |p_k' / p_k|.
        supp = self.support
        root = np.sqrt(np.where(supp, p, 1.0))
        _require_within(
            np.abs(adjoint(w) @ w - np.eye(w.shape[-1])), CURVE_SUM_TOL,
            lambda ix: 1 / np.multiply(*_at_pair(root, ix)), p, "eigenvector orthonormality defect",
        )
        # supported pairs only, which overlaps leaves as computed; the diagonal is 2 Re<w_k'|w_k>
        pairs = supp[..., np.newaxis, :, np.newaxis] & supp[..., np.newaxis, np.newaxis, :]
        o = self.overlaps
        sizes = lambda: np.linalg.norm(self.vector_derivs, axis=-2) + np.abs(self._score_diagonal)
        _require_within(
            np.where(pairs, np.abs(o + adjoint(o)), 0.0), CURVE_DERIV_TOL,
            lambda ix: np.add(*_at_pair(sizes(), ix)), p, "overlap antisymmetry defect",
        )

    @property
    def param_count(self) -> int:
        return self.value_derivs.shape[-2]

    def state_matrix(self) -> np.ndarray:
        w = self.vectors
        return hermitian_part((w * self.values[..., np.newaxis, :]) @ adjoint(w))

    def state_partials(self) -> np.ndarray:
        """(m, d, d) stack of the partials d rho / d theta_l."""
        w, dp = self.vectors[..., np.newaxis, :, :], self.value_derivs[..., np.newaxis, :]
        moving = (self.vector_derivs * self.values[..., np.newaxis, np.newaxis, :]) @ adjoint(w)
        return (w * dp) @ adjoint(w) + moving + adjoint(moving)

    def fisher(self, povm: POVM | np.ndarray) -> np.ndarray:
        """(m, m) Fisher information of the POVM outcomes, from this curve's state at a point.

        F_jk = sum_i d_j p_i d_k p_i / p_i over outcomes with p_i above
        P_FLOOR; an outcome below it whose probability still moves by more
        than DP_FLOOR is a singular term and raises.  A stack gives (N, m, m)
        for one POVM, or one per point in an (N, r, d, d) stack of elements.
        """
        return _fisher(self.state_matrix(), self.state_partials(), getattr(povm, "elements", povm))

    @cached_property
    def overlaps(self) -> np.ndarray:
        """Stack O[l, j, k] = <d_l w_j|w_k>, one matrix per parameter.

        Rows for unsupported j are recovered from supported columns through
        the antisymmetry <w_j'|w_k> = -<w_j|w_k'>*; entries with both indices
        unsupported are zero.
        """
        o = adjoint(self.vector_derivs) @ self.vectors[..., np.newaxis, :, :]
        off = ~self.support[..., np.newaxis, :, np.newaxis]
        out = np.where(off, -o.swapaxes(-1, -2).conj(), o)
        out.setflags(write=False)
        return out

    @cached_property
    def _pair_ratio(self) -> np.ndarray:
        """2 (p_j - p_k) / (p_j + p_k) per eigenvalue pair, shared by H and the SLD score."""
        p = self.values
        return _over_pair_total(p, 2.0 * (p[..., :, np.newaxis] - p[..., np.newaxis, :]))

    @cached_property
    def _score_diagonal(self) -> np.ndarray:
        """p_k' / p_k on the support, zero off it: (m, d)."""
        supp = self.support[..., np.newaxis, :]
        p = np.where(supp, self.values[..., np.newaxis, :], 1.0)
        return np.where(supp, self.value_derivs / p, 0.0)

    @cached_property
    def information(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, C): the (m, m) SLD information and channel-bound matrices.

        Both are sum_k d_l p_k d_n p_k / p_k over the support plus a pair form
        of the overlap stack (see _pair_form), with weights
        2 (p_j - p_k)^2 / (p_j + p_k) for H and 2 (p_j + p_k) for C; the
        diagonal pairs give C its 4 p_k |<w_k'|w_k>|^2 terms.  The scalar
        bounds are the (0, 0) entries of a one-parameter curve.  Both arrays
        are read-only; the SLD score checks H.
        """
        p = self.values
        classical = self._score_diagonal @ self.value_derivs.swapaxes(-1, -2)
        total = p[..., :, np.newaxis] + p[..., np.newaxis, :]
        weights = np.array([0.5 * total * self._pair_ratio**2, 2.0 * total])
        h, c = classical + _pair_form(self, weights)
        for a in (h, c):
            a.setflags(write=False)
        return h, c

    @cached_property
    def sld_score(self) -> np.ndarray:
        """Stack of the SLD solutions this curve induces, one per parameter.

        In the eigenbasis: p_k'/p_k on the support diagonal, the pair ratio
        2 (p_j - p_k) / (p_j + p_k) times <w_j'|w_k> above it and the
        conjugate below, zeros on the off-support block.  Checked against
        the defining equation rho' = (rho L + L rho) / 2 and against
        H = Re tr(rho L_l L_n).
        """
        w = self.vectors[..., np.newaxis, :, :]
        frames = np.triu(self._pair_ratio, 1)[..., np.newaxis, :, :] * self.overlaps
        frames += adjoint(frames)
        idx = np.arange(frames.shape[-1])
        frames[..., idx, idx] = self._score_diagonal
        scores = w @ frames @ adjoint(w)
        scores = (scores + adjoint(scores)) / 2
        rho = self.state_matrix()[..., np.newaxis, :, :]
        # each side is at most max |L| or max |H| in size, as tr rho = 1
        _require_within(
            np.abs(self.state_partials() - 0.5 * (rho @ scores + scores @ rho)),
            SLD_RESIDUAL_TOL, lambda ix: np.abs(scores).max(axis=(-2, -1))[ix[:-2]],
            self.values, "SLD residual (curve data against their own state derivative)",
        )
        h = self.information[0]
        check = np.einsum("...ij,...ljk,...nki->...ln", rho[..., 0, :, :], scores, scores).real
        _require_within(
            np.abs(check - h), 1e-6, lambda ix: np.abs(h).max(axis=(-2, -1))[ix[:-2]],
            self.values, "H mismatch (eigendata kernel against Re tr(rho L_l L_n))",
        )
        scores.setflags(write=False)
        return scores


def _fisher(rho: np.ndarray, partials: np.ndarray, elements: np.ndarray) -> np.ndarray:
    if rho.ndim == 3:  # point by point: einsum sums a point of a stack in another order
        elements = np.broadcast_to(elements, rho.shape[:1] + np.shape(elements)[-3:])
        return np.array([_fisher(*point) for point in zip(rho, partials, elements)])
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


def _require_within(defect: np.ndarray, tol: float, scale, values: np.ndarray, what: str) -> None:
    """Refuse the first entry of defect beyond tol and beyond tol * max(1, scale(index)).

    scale is asked only for the entries beyond tol.  Next to a supported
    weight below TINY_WEIGHT (values holds each point's) the rounding can
    outgrow even that, and the failure is a DegeneracyError naming the weight.
    """
    index = np.nonzero(defect > tol)
    if not index[0].size:
        return
    worse = defect[index] > tol * np.maximum(1.0, scale(index))
    if worse.any():
        at = tuple(int(i[np.argmax(worse)]) for i in index)
        row = values[at[: values.ndim - 1]]
        if (low := float(row[row > 0].min())) < TINY_WEIGHT:
            raise DegeneracyError(
                f"{what} {defect[at]:.3e} next to the supported weight {low:.3e}; "
                "theta is too close to a rank change, perturb it"
            )
        raise ConsistencyError(f"{what} {defect[at]:.3e}")


def _at_pair(a: np.ndarray, index: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a[..., j] and a[..., k] at each (..., j, k) index of a pair matrix."""
    *lead, j, k = index
    return a[(*lead, j)], a[(*lead, k)]


def _over_pair_total(p: np.ndarray, numerator: np.ndarray) -> np.ndarray:
    """numerator_jk / (p_j + p_k), for a numerator that vanishes where p_j + p_k does."""
    total = p[..., :, np.newaxis] + p[..., np.newaxis, :]
    return numerator / np.where(total > 0, total, 1.0)


def _pair_form(curve: SpectralCurve, w: np.ndarray) -> np.ndarray:
    """Re sum_jk w[i, ..., j, k] conj(O[l, j, k]) O[n, j, k]: (K, ..., m, m) for K weights."""
    o = curve.overlaps.reshape(*curve.overlaps.shape[:-2], -1)
    return ((o.conj() * w.reshape(*w.shape[:-2], 1, -1)) @ o.swapaxes(-1, -2)).real


def _require_one_parameter(curve: SpectralCurve) -> None:
    if curve.param_count != 1:
        m = curve.param_count
        raise ValidationError(f"scalar bounds need a one-parameter curve, not {m} parameters")


def _per_point(a: np.ndarray):
    """A float for a point curve's quantity, the (N,) array for a stacked curve's."""
    return float(a) if np.ndim(a) == 0 else a


def _orthonormal_completion(columns: np.ndarray, dim: int) -> np.ndarray:
    """Extend a stack of orthonormal column sets to full bases, deterministically."""
    basis = columns
    rows = np.arange(len(basis))
    while basis.shape[-1] < dim:
        residuals = np.eye(dim, dtype=complex) - basis @ adjoint(basis)
        norms = np.sqrt(np.add.reduce((residuals.conj() * residuals).real, axis=-2))
        pick = np.argmax(norms, axis=-1)
        column = residuals[rows, :, pick] / norms[rows, pick][:, np.newaxis]
        basis = np.concatenate([basis, column[..., np.newaxis]], axis=-1)
    return basis


def _kraus_eigendata(ck: CanonicalKraus) -> SpectralData:
    """Output eigendata of every Gram mode of a stacked decomposition, with all m partials.

    w_k = Y_k psi / sqrt(p_k) on the supported modes; unsupported modes keep
    their weight with zero vectors and partials, for spectral_curve to drop.
    An unsupported mode whose vector Y_k psi moves means the weight grows
    away from theta: theta sits at a rank change and is refused.
    """
    psi = ck.psi[:, np.newaxis, :, np.newaxis]
    vs = (ck.operators @ psi)[..., 0]                       # (N, n, d)
    dvs = (ck.derivatives @ psi[:, np.newaxis])[..., 0]     # (N, m, n, d)
    supported = (ck.weights > SUPPORT_TOL)[:, np.newaxis, :, np.newaxis]
    moving = np.where(supported[..., 0], 0.0, np.linalg.norm(dvs, axis=-1))
    if (worst := moving.max()) > CURVE_DERIV_TOL:
        raise DegeneracyError(
            f"an unsupported Gram mode moves (|dY_k psi| = {worst:.3e}); "
            "theta is at a rank change, perturb it"
        )
    roots = np.sqrt(np.where(supported[:, 0], ck.weights[..., np.newaxis], 1.0))  # (N, n, 1)
    w = np.where(supported[:, 0], vs / roots, 0.0)
    dp = 2.0 * (vs[:, np.newaxis].conj() * dvs).sum(axis=-1).real
    dp = np.where(supported[..., 0], dp, 0.0)  # (N, m, n)
    dw = (dvs - dp[..., np.newaxis] / (2 * roots[:, np.newaxis]) * w[:, np.newaxis]) / roots[
        :, np.newaxis
    ]
    return SpectralData(
        values=ck.weights,
        vectors=w.swapaxes(-1, -2),
        value_grads=dp,
        vector_grads=np.where(supported, dw, 0.0).swapaxes(-1, -2),
    )


def _last_columns(a, dim: int, dtype) -> np.ndarray:
    """The last dim columns of a, zero-padded in front to exactly dim."""
    a = np.asarray(a, dtype=dtype)
    if a.shape[-1] == dim:
        return a
    a = a[..., max(a.shape[-1] - dim, 0):]
    pad = np.zeros(a.shape[:-1] + (dim - a.shape[-1],), dtype=dtype)
    return np.concatenate([pad, a], axis=-1)


def spectral_curve(channel: ParametricChannel, theta, inputs=None) -> SpectralCurve:
    """Output-state spectral curve at theta with all m partials.

    theta is one point, or an (N, m) stack of points decomposed in one pass;
    the point call is the stack of one.  An (N, d) stack of inputs gives row
    i its own input, at row i of the stack or all at one point, and a family
    with generators per row gives each row its own channel (see
    canonical_kraus).  Kraus-form channels go through the canonical
    decomposition, which fixes the eigenvector gauge and which the curve
    carries; spectral-form families supply their own analytic eigen-data,
    sorted ascending, and join the same tail.  The eigensystem is ascending
    (the Gram eigenvalues are already) and completed to a full basis:
    unsupported slots hold an orthonormal completion with zero partials.  An
    unsupported eigenvalue that moves means theta is at a rank change, and
    is refused as the Kraus route refuses a moving unsupported mode.
    """
    thetas = channel.theta_stack(theta)
    if channel.is_kraus_form or inputs is not None:
        ck = canonical_kraus(channel, thetas, inputs)
        thetas, data = ck.theta, _kraus_eigendata(ck)
    else:
        data = channel.spectral_at(channel.require_in_domain(thetas))
        order = np.argsort(data.values, axis=-1, kind="stable")[:, np.newaxis]  # as Gram weights are
        ascending = lambda a: np.take_along_axis(  # (N, ..., r) sorted as (N, K, r)
            a.reshape(len(order), -1, a.shape[-1]), order, axis=-1).reshape(a.shape)
        ck, data = None, SpectralData(*map(ascending, vars(data).values()))
    dim = channel.dim
    rank = (data.values > SUPPORT_TOL).sum(axis=-1)
    if rank.max() > dim:
        raise ConsistencyError(f"{rank.max()} supported eigenvalues exceed dimension {dim}")
    values, vectors, dp, dw = (
        _last_columns(a, dim, dtype) for a, dtype in zip(vars(data).values(), (float, complex) * 2)
    )
    support = values > SUPPORT_TOL
    keep = support[:, np.newaxis]
    if (worst := np.where(keep, 0.0, np.abs(dp)).max()) > CURVE_DERIV_TOL:
        raise DegeneracyError(f"an unsupported eigenvalue moves (|p_k'| = {worst:.3e}); "
                              "theta is at a rank change, perturb it")
    for r in sorted(set(rank[rank < dim].tolist())):  # one completion pass per deficient rank
        rows = rank == r
        basis = _orthonormal_completion(vectors[rows][..., dim - r:], dim)
        vectors[rows, :, : dim - r] = _normalize_phases(basis[..., r:])
    curve = dict(
        theta=thetas,
        values=np.where(support, values, 0.0),
        vectors=vectors,
        value_derivs=np.where(keep, dp, 0.0),
        vector_derivs=np.where(keep[:, np.newaxis], dw, 0.0),
        support=support,
    )
    if np.ndim(theta) != 2 and inputs is None:
        curve = {k: v[0] for k, v in curve.items()}
        ck = None if ck is None else _only_point(ck)
    gauge = "spectral-form" if ck is None else "canonical-kraus"
    return SpectralCurve(**curve, gauge_source=gauge, kraus=ck)


def halving(fn, count: int, refusal=NumericError) -> list:
    """fn(rows) of rows 0..count-1, one entry per row: its value, or its lone call's refusal.

    fn maps an index array to one value per index; a stack that raises
    refusal is called again in halves.  A row keeps the bits of its own call.
    """
    entries, pending = [], [np.arange(count)] if count else []
    while pending:  # depth first, first half first; no recursive closure keeps fn alive
        rows = pending.pop()
        try:
            entries.extend(fn(rows))
        except refusal as exc:
            half = len(rows) // 2
            if half:
                pending += [rows[half:], rows[:half]]
            else:  # its traceback would hold this frame, and so entries, in a cycle
                entries.append(exc.with_traceback(None))
    return entries


# ---------------------------------------------------------------------------
# Information quantities
# ---------------------------------------------------------------------------

def sld_score(curve: SpectralCurve) -> np.ndarray:
    """The self-adjoint SLD solution a one-parameter curve induces (SpectralCurve.sld_score)."""
    _require_one_parameter(curve)
    return curve.sld_score[..., 0, :, :]


def sld_information(curve: SpectralCurve) -> float:
    """SLD quantum information H of the output-state family at this point.

    The (0, 0) entry of curve.information, read after the SLD score, which
    checks it against Re tr(rho L^2).  A stacked curve gives one value per
    point, here and in the other scalar functionals.
    """
    sld_score(curve)
    return _per_point(curve.information[0][..., 0, 0])


def sm_bound_spectral(curve: SpectralCurve) -> float:
    """Channel bound evaluated purely from the output-state spectral curve."""
    _require_one_parameter(curve)
    return _per_point(curve.information[1][..., 0, 0])


def sm_bound_kraus(operators, derivatives, rho0) -> float:
    """Channel bound 4 sum_k tr(E_k' rho0 E_k'^dag) for any Kraus representation (or a stack)."""
    ops = np.asarray(operators)
    derivs = np.asarray(derivatives, dtype=complex)
    if derivs.shape != np.shape(ops):
        raise ValidationError(
            f"derivative stack shape {derivs.shape} does not match operators {np.shape(ops)}"
        )
    rho = getattr(rho0, "matrix", rho0)
    value = np.einsum("...kij,...jl,...kil->...", derivs, rho, derivs.conj())
    return _per_point(4.0 * np.real(value))


def bound_gap(curve: SpectralCurve) -> float:
    """Gap 8 sum_{j,k supported} p_j p_k / (p_j + p_k) |<w_j'|w_k>|^2.

    Checked against the difference of the two bounds before returning.
    """
    _require_one_parameter(curve)
    p = curve.values
    weight = _over_pair_total(p, 8.0 * (p[..., :, np.newaxis] * p[..., np.newaxis, :]))
    gap = _pair_form(curve, weight[np.newaxis])[0, ..., 0, 0]
    h, c = (a[..., 0, 0] for a in curve.information)
    direct = c - h
    if (bad := np.abs(gap - direct) > 1e-8 * np.maximum(1.0, c)).any():
        raise ConsistencyError(
            f"gap formula {float(gap[bad][0])!r} vs bound difference {float(direct[bad][0])!r}"
        )
    return _per_point(gap)


def attainability_check(curve: SpectralCurve, tol: float = 1e-6) -> tuple[bool, float]:
    """Whether every supported overlap <d_l w_j|w_k> vanishes, for every parameter l.

    Returns (verdict, residual), the residual being the largest such overlap.
    """
    supp = curve.support[..., np.newaxis, :]
    pairs = supp[..., :, np.newaxis] & supp[..., np.newaxis, :]
    residual = _per_point(np.where(pairs, np.abs(curve.overlaps), 0.0).max(axis=(-3, -2, -1)))
    return residual < tol, residual


def unitary_condition(
    channel: ParametricChannel, curve: SpectralCurve, tol: float = 1e-6
) -> tuple[tuple[complex, ...], bool]:
    """Per-parameter condition values tr(U rho0 d_l U^dag) of a single-operator channel.

    Read from the family's own operator and partials in the curve's
    decomposition.  The bound is attainable along parameter l exactly when
    its value vanishes; the flag says whether every value is below tol.
    """
    ck = curve.kraus
    if ck is None:
        raise ValidationError("unitary condition needs a Kraus-form channel")
    n = ck.raw_operators.shape[0]
    if n != 1:
        raise ValidationError(f"channel has {n} Kraus operators; expected 1")
    u, rho0 = ck.raw_operators[0], channel.input_state.density().matrix
    values = tuple(complex(np.trace(u @ rho0 @ du[0].conj().T)) for du in ck.raw_derivatives)
    return values, all(abs(z) < tol for z in values)


def optimal_povm_from_sld(lam: np.ndarray) -> POVM:
    """Projectors onto the SLD eigenbasis; degenerate eigenspaces merge."""
    sys = hermitian_eigendecompose(lam)
    labels = cluster_labels(sys.eigenvalues, DEGENERACY_TOL)
    blocks = [sys.eigenvectors[:, labels == c] for c in range(labels[-1] + 1)]
    return POVM(np.array([block @ block.conj().T for block in blocks]))


def fisher_information(curve: SpectralCurve, povm: POVM) -> float:
    """Classical Fisher information of the POVM outcomes at a one-parameter curve's point."""
    _require_one_parameter(curve)
    return curve.fisher(povm)[0, 0]


# ---------------------------------------------------------------------------
# POVM optimality condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionElement:
    index: int
    xi: float
    residual: float
    vacuous: bool


@dataclass(frozen=True)
class ConditionReport:
    elements: tuple[ConditionElement, ...]
    satisfied: bool
    tol: float
    note: str = ""


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


def povm_sld_condition_check(
    povm: POVM, curve: SpectralCurve, tol: float = 1e-6
) -> ConditionReport:
    """Check M^(1/2) L rho^(1/2) = xi_m M^(1/2) rho^(1/2) per POVM element.

    L is the SLD score of a one-parameter curve, and rho^(1/2) comes from
    its eigensystem, so an unsupported eigenvalue contributes an exact zero.
    A real xi_m is extracted by least squares; the residual combines the
    misfit norm with the imaginary part of the fitted coefficient.
    """
    lam = sld_score(curve)
    w = curve.vectors
    root_rho = hermitian_part((w * np.sqrt(curve.values)) @ w.conj().T)
    elements = []
    for m, root_m in enumerate(psd_sqrt(povm.elements)):
        b = root_m @ root_rho
        a = root_m @ lam @ root_rho
        xi, residual, vacuous = _fit_real_scale([(a, b)], tol)
        elements.append(ConditionElement(m, xi, residual, vacuous))
    satisfied = all(e.vacuous or e.residual < tol for e in elements)
    return ConditionReport(tuple(elements), satisfied, tol)


def povm_sm_condition_check(
    povm: POVM,
    operators,
    derivatives,
    rho0: DensityMatrix,
    tol: float = 1e-6,
) -> ConditionReport:
    """Check M^(1/2) Y_k' rho0^(1/2) = xi_m M^(1/2) Y_k rho0^(1/2) for all m, k.

    One real xi_m must serve every k, so xi_m solves the stacked least-squares
    problem, and the report holds its residual per element.  The condition
    is unsatisfiable for channels that fail the attainability condition, so
    a failed check cannot by itself disqualify a measurement there.
    """
    ops = np.asarray(operators)
    derivs = np.asarray(derivatives, dtype=complex)
    if abs(rho0.purity() - 1.0) > 1e-9:
        raise ValidationError("condition check requires a pure input state")
    root_rho = psd_sqrt(rho0.matrix)
    elements = []
    for m, root_m in enumerate(psd_sqrt(povm.elements)):
        pairs = [(root_m @ dk @ root_rho, root_m @ ek @ root_rho) for ek, dk in zip(ops, derivs)]
        xi, residual, vacuous = _fit_real_scale(pairs, tol)
        elements.append(ConditionElement(m, xi, residual, vacuous))
    satisfied = all(e.vacuous or e.residual < tol for e in elements)
    note = (
        "unsatisfiable for channels that violate the attainability condition; "
        "a failing check does not certify the measurement as suboptimal there"
    )
    return ConditionReport(tuple(elements), satisfied, tol, note)


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """All one-parameter quantities at a point, with consistency enforced."""

    theta: float
    sld_information: float
    channel_bound: float
    gap: float
    attainable: bool
    attainability_residual: float
    attainability_tol: float
    gauge_source: str
    fisher_information: float | None = None
    representation_bound: float | None = None  # C_E of the family's own Kraus curve
    method_cross_check: float | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        h, c = self.sld_information, self.channel_bound
        if h > c + 1e-8 * max(1.0, c):
            raise ConsistencyError(f"H = {h!r} exceeds the channel bound {c!r}")
        if abs(self.gap - (c - h)) > 1e-8 * max(1.0, c):
            raise ConsistencyError(f"gap {self.gap!r} inconsistent with C - H = {c - h!r}")


def bound_report(
    channel: ParametricChannel,
    curve: SpectralCurve,
    povm: POVM | None = None,
    attainability_tol: float = 1e-6,
) -> BoundReport:
    """Every one-parameter bound quantity at the curve's point.

    H, C, the gap and the attainability residual read the curve's cached
    overlap matrix and bound terms; the C_kraus cross-check and C_E read its
    canonical decomposition (absent for a spectral-form family).  The curve
    must have one parameter.  A stacked curve, read without a POVM, gives a
    list of reports, one per point.
    """
    stacked = curve.theta.ndim == 2
    if stacked and povm is not None:
        raise ValidationError("Fisher information is read at one point, not a stack")
    c_spec = sm_bound_spectral(curve)
    attainable, residual = attainability_check(curve, attainability_tol)
    ck, count = curve.kraus, len(curve.theta) if stacked else 1
    cross = c_e = [None] * count
    if ck is not None:
        rho0 = channel.input_state.density()
        cross = np.abs(c_spec - sm_bound_kraus(ck.operators, ck.derivatives[..., 0, :, :, :], rho0))
        c_e = sm_bound_kraus(ck.raw_operators, ck.raw_derivatives[..., 0, :, :, :], rho0)
    warnings: list[str] = []
    f = None
    if povm is not None:
        try:
            f = fisher_information(curve, povm)
        except SingularTermError as exc:
            warnings.append(f"Fisher information dropped: {exc}")
    h, gap = sld_information(curve), bound_gap(curve)
    columns = (curve.theta[..., 0], h, c_spec, gap, attainable, residual, c_e, cross)
    reports = [
        BoundReport(
            theta=float(t),
            sld_information=float(h_t),
            channel_bound=float(c_t),
            gap=float(gap_t),
            attainable=bool(ok),
            attainability_residual=float(res),
            attainability_tol=attainability_tol,
            gauge_source=curve.gauge_source,
            fisher_information=f,
            representation_bound=None if c_e_t is None else float(c_e_t),
            method_cross_check=None if cross_t is None else float(cross_t),
            warnings=tuple(warnings if ok else [UNATTAINABLE, *warnings]),
        )
        for t, h_t, c_t, gap_t, ok, res, c_e_t, cross_t in zip(
            *(np.reshape(a, count) for a in columns)
        )
    ]
    return reports if stacked else reports[0]

