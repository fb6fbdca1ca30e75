"""Channel bounds at a point, for any number of parameters, in one report.

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
A stack's row failing a check is refused alone: refusals hold, per point,
None or the error its lone call raises (a NumericError, or the non-finite
Kraus data's ValidationError), and the arrays the rest.
H and C are one bilinear form of the overlap stack under two weight
matrices; the scalar bounds and the gap are 1 x 1 cases of it.  The Fisher
information of a POVM reads the curve's state and its per-parameter
partials (SpectralCurve.fisher), the unitary condition reads its
decomposition, and no function of a point evaluates the channel again.
bound_report reads every quantity of a curve into one checked record for
any m, a stacked curve's with a leading axis; the scalar functionals read
the (0, 0) entries of a one-parameter curve, one value per point of a
stacked curve, and refuse a curve with several parameters.  Their checks
guard numerics; `qfi verify` checks the identities (H, C - H = gap, H <= C).

Gauge convention: the canonical operators Y = X^dag E come from the
eigenvectors X of the input-state Gram matrix, and their derivatives follow
the parallel-transport gauge: each eigenvector moves orthogonally to itself,
<x_k|x_k'> = 0, with the motion given by perturbation theory from the
family's Kraus derivative.  The diagonal overlaps <w_k'|w_k> this produces
are reported as gauge_source = "canonical-kraus".  Spectral-form families
carry their own analytic gauge ("spectral-form").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .channels import CURVE_DERIV_TOL, ParametricChannel, SpectralData
from .errors import (
    ConsistencyError,
    DegeneracyError,
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
from .quantum import CONSTRUCT_HERM_TOL, POVM, DensityMatrix, check_povm

SUPPORT_TOL = 1e-10
DEGENERACY_TOL = 1e-8
P_FLOOR = 1e-12
DP_FLOOR = 1e-8
GRAM_DIAG_TOL = 1e-8
CURVE_SUM_TOL = 1e-9
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

    Built from a stack of N points, every array has a leading axis over the rows kept.
    """

    theta: np.ndarray            # (m,)
    operators: np.ndarray        # (n, d, d)
    derivatives: np.ndarray      # (m, n, d, d) one stack per parameter
    mixing: np.ndarray           # (n, n); operators[i] = sum_j mixing[i, j] raw[j]
    weights: np.ndarray          # (n,) Gram eigenvalues, ascending
    raw_operators: np.ndarray    # (n, d, d) the family's own Kraus stack
    raw_derivatives: np.ndarray  # (m, n, d, d) its partials
    psi: np.ndarray              # (d,) the input state; (1, d) or (N, d) for a stack
    refusals: tuple | None = field(default=None, compare=False, repr=False)  # a stack's, per point


def _refuse(refusals: list | None, bad, error) -> None:
    """Refuse each row k where bad holds with error(k), unless refused before; None raises it."""
    if np.asarray(bad).any():  # one verdict per row, or a point's
        for k in np.flatnonzero(bad):
            if refusals is None:
                raise error(k)
            refusals[k] = refusals[k] or error(k)


def _merged(refusals: tuple, found: list) -> tuple:
    """refusals with found, one entry per point that refusals leaves None, filled in."""
    found = iter(found)
    return tuple(r or next(found) for r in refusals)


def _rows(stack, keep, refusals=None):
    """A stacked CanonicalKraus or SpectralCurve, and its kraus, cut to the rows keep selects (0:
    its one point), with refusals; an input that serves every row (a psi of one row) stays."""
    cut = lambda a, n=np.size(keep): (_rows(a, keep, refusals) if isinstance(a, CanonicalKraus) else
                                      a[keep] if isinstance(a, np.ndarray) and len(a) >= n else a)
    parts = {f.name: cut(getattr(stack, f.name)) for f in fields(stack)}
    return type(stack)(**parts | {"refusals": refusals})


def _gram_derivative(vs: np.ndarray, dvs: np.ndarray) -> np.ndarray:
    """Derivative of the Gram matrix of the vectors E_k psi, from the vectors dE_k psi."""
    half = dvs @ adjoint(vs)
    return half + adjoint(half)


def _crossing_patterns(labels: np.ndarray, supported: np.ndarray, rows: np.ndarray) -> list:
    """rows grouped by cluster pattern: per pattern, the positions in rows of its rows and the
    member masks of its degenerate clusters that hold a supported mode."""
    keys, of = np.unique(np.hstack([labels[rows], supported[rows]]), axis=0, return_inverse=True)
    n, of = labels.shape[1], of.reshape(-1)
    held = lambda own, sup: [own == c for c in np.unique(own[sup]) if (own == c).sum() > 1]
    return [(np.flatnonzero(of == j), held(key[:n], key[n:] > 0)) for j, key in enumerate(keys)]


def _resolve_degenerate_clusters(vectors: np.ndarray, gram_derivs: np.ndarray, rows: np.ndarray,
                                 patterns: list) -> np.ndarray:
    """Rotate the rows' supported degenerate clusters, in place, to diagonalize the projected
    Gram derivative: one batched eigh per cluster of a pattern.  Eigenvector curves stay
    well-defined through a crossing when this first-order problem separates the branches;
    the rows returned are those where it does not, an ill-posed derivative: refusals."""
    unsplit = [rows[:0]]
    for at, clusters in patterns:
        group = rows[at]
        v, derivs = vectors[group], gram_derivs[group, 0]
        for members in clusters:
            block = v[..., members]
            sub = hermitian_eigendecompose(adjoint(block) @ derivs @ block)
            unsplit.append(group[(np.diff(sub.eigenvalues) < DEGENERACY_TOL).any(axis=-1)])
            v[..., members] = _normalize_phases(block @ sub.eigenvectors)
        vectors[group] = v
    return np.concatenate(unsplit)


def _crossing_coupling(generator: np.ndarray, coupling: np.ndarray, values: np.ndarray,
                       vectors: np.ndarray, gram_second: np.ndarray, rows: np.ndarray,
                       patterns: list) -> None:
    """Parallel-transport generator inside the rows' resolved supported clusters, in place, in
    one batched pass per cluster of a pattern; gram_second holds one matrix per row.

    With B = X^dag G' X diagonal on the cluster, second-order degenerate
    perturbation theory gives K_ba = [(X^dag G'' X)_ba / 2 +
    sum_{c outside} B_bc B_ca / (g - g_c)] / (g'_a - g'_b).
    """
    for at, clusters in patterns:
        group, second = rows[at], gram_second[at]
        c, g, v = coupling[group, 0], values[group], vectors[group]
        for members in clusters:
            outside, inside = ~members, np.flatnonzero(members)
            block, eye = v[..., members], np.eye(len(inside), dtype=bool)
            mean = g[:, members].mean(axis=-1)[:, np.newaxis, np.newaxis]
            through = c[:, members][..., outside] / (mean - g[:, np.newaxis, outside])
            numer = 0.5 * (adjoint(block) @ second @ block) + through @ c[:, outside][..., members]
            slopes = c.diagonal(axis1=-2, axis2=-1).real[:, members]
            split = np.where(eye, 1.0, slopes[:, np.newaxis, :] - slopes[:, :, np.newaxis])
            generator[group[:, np.newaxis, np.newaxis], 0, inside[:, np.newaxis], inside] = (
                np.where(eye, 0.0, numer / split))


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
    resolved per cluster pattern of rows, for one parameter only and by a
    stencil that must fit in the domain; with several it is refused, since a
    crossing can split differently along different axes.  With the raw Kraus
    stack and its partials kept, one call feeds everything a report needs.  A
    refused row of a stack reaches no cluster resolution or stencil.
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
    m, stacked = points.shape[1], np.ndim(theta) == 2 or inputs is not None

    # the stack, then its partials: the exponential families memo one stack of points
    found = [None] * len(points) if stacked else None  # a non-finite point refuses its rows
    ops = spread(channel.kraus_matrices(points, found))
    dops = spread(channel.kraus_partials(points, found))
    thetas = spread(points)
    count, n = ops.shape[:2]
    refusals = None if found is None else found * (count // len(found))
    kept = lambda: np.array([r is None for r in refusals]) if stacked else np.ones(count, bool)
    vs = (ops @ psi)[..., 0]
    sys = hermitian_eigendecompose(vs @ adjoint(vs))
    g = sys.eigenvalues
    p = g.clip(0.0, None)
    boundary = (p > SUPPORT_TOL) & (p <= DEGENERACY_TOL)
    _refuse(refusals, boundary.any(axis=-1), lambda i: DegeneracyError(
        f"Gram eigenvalue {p[i][boundary[i]][0]:.3e} sits at the support boundary; the supported/"
        "unsupported split is unreliable, perturb theta"))
    supported = p > SUPPORT_TOL
    gram_derivs = _gram_derivative(vs[:, np.newaxis], (dops @ psi[:, np.newaxis])[..., 0])

    labels = cluster_labels(g, DEGENERACY_TOL)
    same = labels[:, :, np.newaxis] == labels[:, np.newaxis, :]
    crossing = ((same.sum(axis=-1) > 1) & supported).any(axis=-1)
    vectors = sys.eigenvectors
    if crossing.any():
        _refuse(refusals, crossing & (m != 1), lambda _: DegeneracyError(
            "supported Gram eigenvalues are degenerate at the center point; "
            "perturb theta to separate them"))
        # the second Gram derivative below is a central-4 stencil: it must fit in the box
        edge = crossing & ~channel.in_domain(thetas, STENCIL_REACH)
        _refuse(refusals, edge, lambda i: DegeneracyError(
            f"supported Gram eigenvalues cross at theta {thetas[i].tolist()}, within "
            f"{STENCIL_REACH} of a domain edge, where the crossing cannot be resolved"))
        rows = np.flatnonzero(crossing & kept())
        unsplit = _resolve_degenerate_clusters(vectors, gram_derivs, rows,
                                               _crossing_patterns(labels, supported, rows))
        _refuse(refusals, np.isin(np.arange(count), unsplit), lambda _: DegeneracyError(
            "degenerate Gram eigenvalues with degenerate first-order splitting; "
            "perturb theta to move off the crossing"))

    mixing = adjoint(vectors)
    canonical = (mixing @ ops.reshape(count, n, -1)).reshape(ops.shape)
    spacing = np.where(same, 1.0, g[:, np.newaxis, :] - g[:, :, np.newaxis])
    between = supported[:, :, np.newaxis] & supported[:, np.newaxis, :] & ~same
    coupling = mixing[:, np.newaxis] @ gram_derivs @ vectors[:, np.newaxis]
    # eigh fixes each eigenvector only to about eps g_max / gap, which
    # reaches K through B as eps g_max |g_j' - g_k'| / gap^2.
    slopes = coupling.diagonal(axis1=-2, axis2=-1).real
    noise = (EPS * g[:, -1])[:, np.newaxis, np.newaxis, np.newaxis] * np.abs(
        slopes[..., :, np.newaxis] - slopes[..., np.newaxis, :])
    ratio = noise / spacing[:, np.newaxis] ** 2 * np.sqrt(p)[:, np.newaxis, np.newaxis, :]
    noisy = between[:, np.newaxis] & (ratio > CURVE_DERIV_TOL)

    def too_close(i):  # the row's first pair of eigenvalues too close
        _, j, k = np.argwhere(noisy[i])[0]
        return DegeneracyError(
            f"Gram eigenvalues {g[i, j]:.6g} and {g[i, k]:.6g} are {abs(g[i, k] - g[i, j]):.3e} "
            "apart, too close for an accurate derivative; perturb theta away from the crossing")
    _refuse(refusals, noisy.any(axis=(1, 2, 3)), too_close)
    generator = np.where(same[:, np.newaxis], 0.0, coupling / spacing[:, np.newaxis])
    if (rows := np.flatnonzero(resolving := crossing & kept())).size:
        states = psi[rows % len(psi)]
        # the stencil moves the points of resolved rows only, and every other point to the first
        # of them: a row may have its own family, and a refused point may not evaluate
        moved = resolving.reshape(len(points), -1).any(axis=1, keepdims=True)
        at = lambda ts: np.where(moved, ts, ts[np.argmax(moved)])
        gram_second = differentiate_curve(lambda ts: _gram_derivative(
            (spread(channel.kraus_matrices(at(ts)))[rows] @ states)[..., 0],
            (spread(channel.kraus_partials(at(ts))[:, 0])[rows] @ states)[..., 0],
        ), points)
        _crossing_coupling(generator, coupling, g, vectors, gram_second, rows,
                           _crossing_patterns(labels, supported, rows))
    partials = (mixing[:, np.newaxis] @ dops.reshape(count, m, n, -1)
                - generator @ canonical.reshape(count, 1, n, -1)).reshape(dops.shape)

    cvs = (canonical @ psi)[..., 0]
    worst = np.abs(np.where(np.eye(n, dtype=bool), 0.0, cvs @ adjoint(cvs))).max(axis=(1, 2))
    _refuse(refusals, worst > GRAM_DIAG_TOL, lambda i: ConsistencyError(
        f"canonical Gram matrix not diagonal: off-diagonal {worst[i]:.3e}"))
    ck = CanonicalKraus(thetas, canonical, partials, mixing, p, ops, dops, psi[:, 0, :, 0],
                        tuple(refusals) if stacked else None)  # then the point, or the rows kept
    return ck if stacked and not any(refusals) else _rows(ck, kept() if stacked else 0, ck.refusals)


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
    A curve of an (N, m) stack has a leading axis on every array over the
    points not refused, and its checks and cached quantities run on it.  The
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
    refusals: tuple | None = field(default=None, compare=False, repr=False)  # a stack's, per point

    def __post_init__(self):  # a stack's rows are the points that its refusals leave None
        found = None if self.refusals is None else [None] * len(self.values)
        p, w = self.values, self.vectors
        total, slopes = p.sum(axis=-1), self.value_derivs.sum(axis=-1)
        _refuse(found, np.abs(total - 1.0) > CURVE_SUM_TOL,
                lambda i: ConsistencyError(f"eigenvalues sum to {float(np.ravel(total)[i])!r}"))
        over = np.atleast_2d(np.abs(slopes) > CURVE_DERIV_TOL)
        _refuse(found, over.any(axis=-1), lambda i: ConsistencyError(
            f"eigenvalue derivatives sum to {float(np.atleast_2d(slopes)[i][over[i]][0])!r}"))
        # w_k = Y_k psi / sqrt(p_k) and w_k' = dY_k psi / sqrt(p_k) - (p_k' / 2 p_k) w_k:
        # <w_j|w_k> carries rounding of 1 / sqrt(p_j p_k), and overlap pair (j, k)
        # that of s_j + s_k, s_k = |w_k'| + |p_k' / p_k|.
        supp = self.support
        root = np.sqrt(np.where(supp, p, 1.0))
        _require_within(np.abs(adjoint(w) @ w - np.eye(w.shape[-1])), CURVE_SUM_TOL,
                        lambda ix: 1 / np.multiply(*_at_pair(root, ix)), p,
                        "eigenvector orthonormality defect", found)
        # supported pairs only, which overlaps leaves as computed; the diagonal is 2 Re<w_k'|w_k>
        pairs = supp[..., np.newaxis, :, np.newaxis] & supp[..., np.newaxis, np.newaxis, :]
        o = self.overlaps
        sizes = lambda: np.linalg.norm(self.vector_derivs, axis=-2) + np.abs(self._score_diagonal)
        _require_within(np.where(pairs, np.abs(o + adjoint(o)), 0.0), CURVE_DERIV_TOL,
                        lambda ix: np.add(*_at_pair(sizes(), ix)), p,
                        "overlap antisymmetry defect", found)
        if found and any(found):  # spectral_curve keeps the other rows
            object.__setattr__(self, "refusals", _merged(self.refusals, found))

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
        are read-only; `qfi verify` checks H against an SLD solve and C - H
        against the gap form.
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
        conjugate below, zeros on the off-support block.  Built only where
        an optimal POVM, the SLD condition or the adaptive pivot reads it.
        """
        w = self.vectors[..., np.newaxis, :, :]
        frames = np.triu(self._pair_ratio, 1)[..., np.newaxis, :, :] * self.overlaps
        frames += adjoint(frames)
        idx = np.arange(frames.shape[-1])
        frames[..., idx, idx] = self._score_diagonal
        scores = w @ frames @ adjoint(w)
        scores = (scores + adjoint(scores)) / 2
        scores.setflags(write=False)
        return scores


def _fisher(rho: np.ndarray, partials: np.ndarray, elements: np.ndarray) -> np.ndarray:
    # One einsum per point, as a point call makes (CHANGES.md, FOUND on `bounds._fisher`): stacked,
    # one changed 20 of 72 shape cases' bits; a real matmul, 17 of 50 outputs (an F 0.0 -> 1.5e-64).
    rhos, dirs = rho.reshape(-1, *rho.shape[-2:]), partials.reshape(-1, *partials.shape[-3:])
    own = elements if np.ndim(elements) == 4 else [elements] * len(rhos)
    probs, dprobs = zip(*[(np.einsum("ij,mji->m", r, e), np.einsum("lij,mji->lm", dr, e))
                          for r, dr, e in zip(rhos, dirs, own)])
    probs, dprobs = np.clip(np.array(probs).real, 0.0, None), np.array(dprobs).real
    if (singular := ~(probs > P_FLOOR) & (np.abs(dprobs).max(axis=1) > DP_FLOOR)).any():
        n, i = np.argwhere(singular)[0]  # the first point's first singular outcome
        steepest = dprobs[n, np.argmax(np.abs(dprobs[n, :, i])), i]
        raise SingularTermError(f"outcome {i}: probability {probs[n, i]:.3e} at the support "
                                f"boundary with derivative {steepest:.3e}")
    p, terms = probs[:, np.newaxis, np.newaxis], dprobs[:, :, np.newaxis] * dprobs[:, np.newaxis]
    terms = np.divide(terms, p, out=np.zeros_like(terms), where=p > P_FLOOR)  # (N, m, m, k)
    # a running sum adds the outcomes in order, as a loop from 0.0 does; + 0.0 turns its -0.0 to 0.0
    entries = np.cumsum(terms, axis=-1)[..., -1] + 0.0
    return entries.reshape(rho.shape[:-2] + entries.shape[-2:])


def _require_within(defect: np.ndarray, tol: float, scale, values: np.ndarray, what: str,
                    refusals: list | None = None) -> None:
    """Refuse each point's first entry of defect beyond tol and tol * max(1, scale(index)).

    scale is asked only for the entries beyond tol.  Next to a supported
    weight below TINY_WEIGHT (values holds each point's) the rounding can
    outgrow even that, and the refusal is a DegeneracyError naming the weight.
    """
    index = np.nonzero(defect > tol)
    if not index[0].size:
        return
    worse = np.transpose(index)[defect[index] > tol * np.maximum(1.0, scale(index))]
    rows = worse[:, 0] if values.ndim > 1 else np.zeros(len(worse), int)

    def refusal(row):
        at = tuple(worse[np.argmax(rows == row)])
        weights = values[at[: values.ndim - 1]]
        if (low := float(weights[weights > 0].min())) < TINY_WEIGHT:
            return DegeneracyError(
                f"{what} {defect[at]:.3e} next to the supported weight {low:.3e}; "
                "theta is too close to a rank change, perturb it"
            )
        return ConsistencyError(f"{what} {defect[at]:.3e}")
    _refuse(refusals, np.bincount(rows, minlength=len(np.atleast_2d(values))) > 0, refusal)


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
    o = curve.overlaps.reshape(*curve.overlaps.shape[:-2], curve.overlaps.shape[-1] ** 2)
    return ((o.conj() * w.reshape(*w.shape[:-2], 1, o.shape[-1])) @ o.swapaxes(-1, -2)).real


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


def _kraus_eigendata(ck: CanonicalKraus, refusals: list) -> SpectralData:
    """Output eigendata of every Gram mode of a stacked decomposition, with all m partials.

    w_k = Y_k psi / sqrt(p_k) on the supported modes; unsupported modes keep
    their weight with zero vectors and partials, for spectral_curve to drop.
    Unsupported modes that move (root-sum-square of |dY_k psi| over them, whatever
    basis round-off picks for them) mean a weight grows away from theta: a rank change, refused.
    """
    psi = ck.psi[:, np.newaxis, :, np.newaxis]
    vs = (ck.operators @ psi)[..., 0]                       # (N, n, d)
    dvs = (ck.derivatives @ psi[:, np.newaxis])[..., 0]     # (N, m, n, d)
    supported = (ck.weights > SUPPORT_TOL)[:, np.newaxis, :, np.newaxis]
    moving = np.sqrt(np.where(supported, 0.0, (dvs.conj() * dvs).real).sum(axis=(-2, -1)))
    worst = moving.max(axis=-1)
    _refuse(refusals, worst > CURVE_DERIV_TOL, lambda i: DegeneracyError(
        f"an unsupported Gram mode moves (|dY_k psi| = {worst[i]:.3e}); "
        "theta is at a rank change, perturb it"))
    roots = np.sqrt(np.where(supported[:, 0], ck.weights[..., np.newaxis], 1.0))  # (N, n, 1)
    w = np.where(supported[:, 0], vs / roots, 0.0)
    dp = 2.0 * (vs[:, np.newaxis].conj() * dvs).sum(axis=-1).real
    dp = np.where(supported[..., 0], dp, 0.0)  # (N, m, n)
    dw = (dvs - dp[..., np.newaxis] / (2 * roots[:, np.newaxis]) * w[:, np.newaxis]) / roots[
        :, np.newaxis]
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
    is refused as the Kraus route refuses a moving unsupported mode.  A
    stack's curve holds the rows not refused, and refusals one entry per
    point: None, or the error that its lone call raises.
    """
    thetas, stacked = channel.theta_stack(theta), np.ndim(theta) == 2 or inputs is not None
    if channel.is_kraus_form or inputs is not None:
        ck = canonical_kraus(channel, thetas, inputs)
        refusals, found = ck.refusals, [None] * len(ck.theta)
        thetas, data = ck.theta, _kraus_eigendata(ck, found)
    else:
        data = channel.spectral_at(channel.require_in_domain(thetas))
        order = np.argsort(data.values, axis=-1, kind="stable")[:, np.newaxis]  # as Gram weights are
        ascending = lambda a: np.take_along_axis(  # (N, ..., r) sorted as (N, K, r)
            a.reshape(len(order), -1, a.shape[-1]), order, axis=-1).reshape(a.shape)
        ck, data = None, SpectralData(*map(ascending, vars(data).values()))
        refusals, found = (None,) * len(thetas), [None] * len(thetas)
    dim = channel.dim
    rank = (data.values > SUPPORT_TOL).sum(axis=-1)
    _refuse(found, rank > dim, lambda i: ConsistencyError(
        f"{rank[i]} supported eigenvalues exceed dimension {dim}"))
    values, vectors, dp, dw = (_last_columns(a, dim, dtype)
                               for a, dtype in zip(vars(data).values(), (float, complex) * 2))
    worst = np.where(values[:, np.newaxis] > SUPPORT_TOL, 0.0, np.abs(dp)).max(axis=(1, 2))
    _refuse(found, worst > CURVE_DERIV_TOL, lambda i: DegeneracyError(
        f"an unsupported eigenvalue moves (|p_k'| = {worst[i]:.3e}); "
        "theta is at a rank change, perturb it"))
    refusals = _merged(refusals, found)
    if not stacked and refusals[0]:
        raise refusals[0]
    if not all(kept := [r is None for r in found]):
        ck = ck and _rows(ck, kept, refusals)
        thetas, values, vectors, dp, dw = (a[kept] for a in (thetas, values, vectors, dp, dw))
    support = values > SUPPORT_TOL
    keep, rank = support[:, np.newaxis], support.sum(axis=-1)
    for r in sorted(set(rank[rank < dim].tolist())):  # one completion pass per deficient rank
        rows = rank == r
        basis = _orthonormal_completion(vectors[rows][..., dim - r:], dim)
        vectors[rows, :, : dim - r] = _normalize_phases(basis[..., r:])
    curve = dict(theta=thetas, values=np.where(support, values, 0.0), vectors=vectors,
                 value_derivs=np.where(keep, dp, 0.0),
                 vector_derivs=np.where(keep[:, np.newaxis], dw, 0.0), support=support)
    if not stacked:
        curve = {k: v[0] for k, v in curve.items()}
        ck, refusals = ck and _rows(ck, 0), None
    gauge = "spectral-form" if ck is None else "canonical-kraus"
    curve = SpectralCurve(**curve, gauge_source=gauge, kraus=ck, refusals=refusals)
    if curve.refusals != refusals:  # its own checks refused rows: the curve of the others
        kept = [r is None for r, before in zip(curve.refusals, refusals) if before is None]
        curve = _rows(curve, kept, curve.refusals)
    return curve


# ---------------------------------------------------------------------------
# Information quantities
# ---------------------------------------------------------------------------

def sld_score(curve: SpectralCurve) -> np.ndarray:
    """The self-adjoint SLD solution a one-parameter curve induces (SpectralCurve.sld_score)."""
    _require_one_parameter(curve)
    return curve.sld_score[..., 0, :, :]


def sld_information(curve: SpectralCurve) -> float:
    """SLD quantum information H of the output-state family at this point.

    The (0, 0) entry of curve.information.  A stacked curve gives one value
    per point, here and in the other scalar functionals.
    """
    _require_one_parameter(curve)
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
    return _per_point(_kraus_bound(derivs[..., np.newaxis, :, :, :], rho0)[..., 0, 0])


def _kraus_bound(derivatives: np.ndarray, rho0) -> np.ndarray:
    """(..., m, m) 4 Re sum_k tr(d_l E_k rho0 d_n E_k^dag) of (..., m, n, d, d) partials."""
    rho = getattr(rho0, "matrix", rho0)
    value = np.einsum("...lkij,...jq,...nkiq->...ln", derivatives, rho, derivatives.conj())
    return 4.0 * np.real(value)


def bound_gap(curve: SpectralCurve) -> float:
    """Gap 8 sum_{j,k supported} p_j p_k / (p_j + p_k) |<w_j'|w_k>|^2, which equals C - H.

    The identity is not checked here: `qfi verify --suite gap` checks it.
    """
    _require_one_parameter(curve)
    return _per_point(_gap(curve)[..., 0, 0])


def _gap(curve: SpectralCurve) -> np.ndarray:
    """(..., m, m) gap, the pair form of weight 8 p_j p_k / (p_j + p_k)."""
    p = curve.values
    weight = _over_pair_total(p, 8.0 * (p[..., :, np.newaxis] * p[..., np.newaxis, :]))
    return _pair_form(curve, weight[np.newaxis])[0]


def attainability_check(curve: SpectralCurve, tol: float = 1e-6) -> tuple[bool, float]:
    """Whether every supported overlap <d_l w_j|w_k> vanishes, for every parameter l.

    Returns (verdict, residual), the residual being the largest such overlap.
    """
    supp = curve.support[..., np.newaxis, :]
    pairs = supp[..., :, np.newaxis] & supp[..., np.newaxis, :]
    residual = _per_point(np.where(pairs, np.abs(curve.overlaps), 0.0).max(axis=(-3, -2, -1)))
    return residual < tol, residual


def unitary_condition(
    channel: ParametricChannel, curve: SpectralCurve, tol: float = 1e-6,
    rho0: DensityMatrix | None = None,
) -> tuple[tuple[complex, ...], bool]:
    """Per-parameter condition values tr(U rho0 d_l U^dag) of a single-operator channel.

    Read from the family's own operator and partials in the curve's
    decomposition, and the channel's input state unless rho0 is given.  The
    bound is attainable along parameter l exactly when its value vanishes;
    the flag says whether every value is below tol.
    """
    ck = curve.kraus
    if ck is None:
        raise ValidationError("unitary condition needs a Kraus-form channel")
    if curve.theta.ndim == 2:
        raise ValidationError("the unitary condition is read at one point, not a stack")
    n = ck.raw_operators.shape[0]
    if n != 1:
        raise ValidationError(f"channel has {n} Kraus operators; expected 1")
    u, rho0 = ck.raw_operators[0], (rho0 or channel.input_state.density()).matrix
    values = tuple(complex(np.trace(u @ rho0 @ du[0].conj().T)) for du in ck.raw_derivatives)
    return values, all(abs(z) < tol for z in values)


def optimal_povm_from_sld(lam: np.ndarray) -> POVM | np.ndarray:
    """Projectors onto the SLD eigenbasis; degenerate eigenspaces merge.  An (R, d, d) stack
    gives one decomposition and the checked (R, r, d, d) stack of each row's lone call's
    projectors, zero elements padding rows of fewer than r; the rows of one cluster pattern
    take each cluster's projector from one batched product, with their lone calls' bits."""
    sys, d = hermitian_eigendecompose(lam), lam.shape[-1]
    labels = cluster_labels(sys.eigenvalues, DEGENERACY_TOL).reshape(-1, d)
    elements = np.zeros((len(labels), labels[:, -1].max() + 1, d, d), complex)
    patterns = labels.view(np.dtype((np.void, labels.itemsize * d)))[:, 0]
    for first in dict(zip(patterns.tolist(), range(len(labels)))).values():  # a row per pattern
        rows = np.flatnonzero(patterns == patterns[first])
        v, group, lo = sys.eigenvectors.reshape(-1, d, d)[rows], elements[rows], 0
        vh = adjoint(v)
        for c, width in enumerate(np.bincount(labels[first]).tolist()):  # columns lo to lo + width
            np.matmul(v[..., lo:lo + width], vh[..., lo:lo + width, :], out=group[:, c])
            lo += width
        elements[rows] = group
    elements = elements.reshape(*lam.shape[:-2], *elements.shape[1:])
    return POVM(elements) if lam.ndim == 2 else check_povm(elements)


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


def _fit_real_scale(a: np.ndarray, b: np.ndarray, tol: float, note: str = "") -> ConditionReport:
    """Least-squares real xi_m with A_mk ~ xi_m B_mk over every k, for (M, K, d, d) stacks: per
    element its xi, residual (misfit norm plus |Im z| / |B|^2) and whether |B| < tol makes it
    vacuous.  Each sum over k adds in order the BLAS dots that np.vdot and np.linalg.norm take
    of one matrix, so an element holds the bits of its own fit."""
    a, b = (x.reshape(*x.shape[:2], -1) for x in (a, b))
    dot = lambda x, y: (x[..., np.newaxis, :] @ y[..., np.newaxis])[..., 0, 0]  # a BLAS dot each
    in_order = lambda x: np.cumsum(x, axis=1)[:, -1] + 0.0  # as a loop from 0 adds them
    norm_b, z = in_order(dot(b.conj(), b).real), in_order(dot(b.conj(), a))
    vacuous = np.sqrt(norm_b) < tol
    norm_b = np.where(vacuous, 1.0, norm_b)
    xi = np.where(vacuous, 0.0, z.real / norm_b)
    misfit = a - xi[:, np.newaxis, np.newaxis] * b
    squares = np.sqrt(dot(misfit.real, misfit.real) + dot(misfit.imag, misfit.imag)) ** 2
    residual = np.where(vacuous, 0.0, np.sqrt(in_order(squares)) + np.abs(z.imag) / norm_b)
    fits = map(ConditionElement, range(len(xi)), xi.tolist(), residual.tolist(), vacuous.tolist())
    return ConditionReport(tuple(fits), bool((vacuous | (residual < tol)).all()), tol, note)


def povm_sld_condition_check(
    povm: POVM, curve: SpectralCurve, tol: float = 1e-6
) -> ConditionReport:
    """Check M^(1/2) L rho^(1/2) = xi_m M^(1/2) rho^(1/2) per POVM element.

    L is the SLD score of a one-parameter curve, and rho^(1/2) comes from
    its eigensystem, so an unsupported eigenvalue contributes an exact zero.
    A real xi_m is extracted by least squares; the residual combines the
    misfit norm with the imaginary part of the fitted coefficient.  Every
    element is fitted in one stacked pass over the POVM's cached roots.
    """
    lam = sld_score(curve)
    w = curve.vectors
    root_rho = hermitian_part((w * np.sqrt(curve.values)) @ w.conj().T)
    roots = povm.roots[:, np.newaxis]
    return _fit_real_scale(roots @ lam @ root_rho, roots @ root_rho, tol)


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
    a failed check cannot by itself disqualify a measurement there.  Every
    element and operator pair is one matrix of one (M, K, d, d) stack.
    """
    ops = np.asarray(operators)
    derivs = np.asarray(derivatives, dtype=complex)
    if abs(rho0.purity() - 1.0) > 1e-9:
        raise ValidationError("condition check requires a pure input state")
    root_rho = psd_sqrt(rho0.matrix)
    roots = povm.roots[:, np.newaxis]
    note = (
        "unsatisfiable for channels that violate the attainability condition; "
        "a failing check does not certify the measurement as suboptimal there"
    )
    return _fit_real_scale(roots @ derivs @ root_rho, roots @ ops @ root_rho, tol, note)


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Every bound quantity at a curve's point, for any parameter count m, checked.

    Matrices are (m, m) and symmetrized: H, C, the gap, C_E of the family's
    own Kraus curve and C_kraus of the canonical partials (both None for a
    spectral-form family), and F of a POVM (None without one, or when a
    singular outcome drops it, which a warning says).  Per point: the
    attainability verdict and residual, the quasi-classical flag (every
    supported eigenvector partial below tol) and the warnings.  A stacked
    curve's report gives each of them a leading (N,) axis over its points.
    A point's report also holds (values, verdict) of the unitary condition of
    a single-operator channel and, for one parameter and a POVM, the SLD and
    SM optimality conditions.
    """

    theta: np.ndarray
    sld_information: np.ndarray
    channel_bound: np.ndarray
    gap: np.ndarray
    attainable: np.ndarray
    attainability_residual: np.ndarray
    attainability_tol: float
    quasi_classical: np.ndarray
    gauge_source: str
    fisher_information: np.ndarray | None = None
    representation_bound: np.ndarray | None = None
    kraus_bound: np.ndarray | None = None
    unitary_condition: tuple | None = None
    sld_condition: ConditionReport | None = None
    sm_condition: ConditionReport | None = None
    warnings: tuple = ()

    @property
    def method_cross_check(self):
        """The largest entry of |C - C_kraus|, per point; None without C_kraus."""
        if self.kraus_bound is not None:
            return np.abs(self.channel_bound - self.kraus_bound).max(axis=(-2, -1))


def _symmetric(a: np.ndarray) -> np.ndarray:
    return a if a.shape[-1] == 1 else (a + a.swapaxes(-1, -2)) / 2


def _information_matrix(a: np.ndarray, kind: str) -> np.ndarray:
    """a symmetrized, refused if its asymmetry or a negative eigenvalue passes 1e-9 of its scale.

    A 1 x 1 matrix is symmetric and, a sum of non-negative terms, never negative: it passes as is.
    """
    if a.shape[-1] == 1:
        return a
    scale = 1e-9 * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    first = lambda x, bad: float(np.ravel(x)[np.argmax(np.ravel(bad))])
    asym = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (bad := asym > scale).any():
        raise ConsistencyError(f"{kind} matrix asymmetry {first(asym, bad):.3e}")
    sym = _symmetric(a)
    low = np.linalg.eigvalsh(sym)[..., 0]
    if (bad := low < -scale).any():
        raise ConsistencyError(f"{kind} matrix min eigenvalue {first(low, bad):.3e}")
    return sym


def bound_report(
    channel: ParametricChannel,
    curve: SpectralCurve,
    povm: POVM | None = None,
    attainability_tol: float = 1e-6,
) -> BoundReport:
    """Every bound quantity at the curve's point, or at each point of a stacked curve.

    H, C, the gap and the attainability residual read the curve's cached
    overlap stack; C_E and the C_kraus cross-check read its canonical
    decomposition, all m partials with their cross terms; F reads its state.
    The symmetry and positivity of H, C and F are checked once over the
    whole stack; the identities between them (H against an SLD solve, the
    gap against C - H, H <= C) are `qfi verify`'s.  One input DensityMatrix
    serves C_E, C_kraus, the unitary condition and the SM condition.  A POVM
    is read at one point, not a stack.
    """
    stacked = curve.theta.ndim == 2
    if stacked and povm is not None:
        raise ValidationError("Fisher information is read at one point, not a stack")
    h, c = (_information_matrix(a, kind) for a, kind in zip(curve.information, ("sld", "sm")))
    gap = _symmetric(_gap(curve))
    attainable, residual = attainability_check(curve, attainability_tol)
    moving = np.where(curve.support[..., np.newaxis, np.newaxis, :], np.abs(curve.vector_derivs), 0)
    quasi = moving.max(axis=(-3, -2, -1)) < attainability_tol
    parts, warnings, ck = {}, [], curve.kraus
    if ck is not None:
        rho0 = channel.input_state.density()
        parts["kraus_bound"] = _symmetric(_kraus_bound(ck.derivatives, rho0))
        parts["representation_bound"] = _symmetric(_kraus_bound(ck.raw_derivatives, rho0))
        if ck.operators.shape[-3] == 1 and not stacked:
            parts["unitary_condition"] = unitary_condition(channel, curve, attainability_tol, rho0)
    if povm is not None:
        try:
            parts["fisher_information"] = _information_matrix(curve.fisher(povm), "fisher")
        except SingularTermError as exc:
            warnings.append(f"Fisher information dropped: {exc}")
        if curve.param_count == 1:
            parts["sld_condition"] = povm_sld_condition_check(povm, curve, attainability_tol)
            if ck is not None:
                parts["sm_condition"] = povm_sm_condition_check(
                    povm, ck.operators, ck.derivatives[0], rho0, attainability_tol)
    noted = lambda ok: tuple(warnings if ok else [UNATTAINABLE, *warnings])
    return BoundReport(
        curve.theta, h, c, gap, attainable, residual, attainability_tol, quasi, curve.gauge_source,
        warnings=tuple(map(noted, attainable)) if stacked else noted(attainable), **parts)
