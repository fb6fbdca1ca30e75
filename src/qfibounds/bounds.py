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
H and C are one bilinear form of the overlap stack under two weight
matrices; the scalar bounds and the gap are 1 x 1 cases of it.  The Fisher
information of a POVM reads the curve's state and its per-parameter
partials (SpectralCurve.fisher), the unitary condition reads its
decomposition, and no function of a point evaluates the channel again.
The scalar functionals read a one-parameter curve and refuse a curve with
several parameters; multiparam wraps the matrices of the same curve.

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

from .channels import ParametricChannel, SpectralData, kraus_derivative
from .errors import (
    ConsistencyError,
    DegeneracyError,
    SingularTermError,
    ValidationError,
)
from .linalg import (
    DEFAULT_DIFF,
    _cluster_slices,
    _normalize_phases,
    differentiate_curve,
    hermitian_eigendecompose,
    hermitian_part,
    max_abs,
    psd_sqrt,
)
from .quantum import POVM, DensityMatrix, KrausSet

SUPPORT_TOL = 1e-10
DEGENERACY_TOL = 1e-8
P_FLOOR = 1e-12
DP_FLOOR = 1e-8
GRAM_DIAG_TOL = 1e-8
CURVE_SUM_TOL = 1e-9
CURVE_DERIV_TOL = 1e-6
SLD_RESIDUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# Canonical Kraus decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalKraus:
    """Canonical operators at a point, their m partials, and the mixing unitary."""

    theta: np.ndarray            # (m,)
    operators: np.ndarray        # (n, d, d)
    derivatives: np.ndarray      # (m, n, d, d) one stack per parameter
    mixing: np.ndarray           # (n, n); operators[i] = sum_j mixing[i, j] raw[j]
    weights: np.ndarray          # (n,) Gram eigenvalues, ascending
    raw_operators: np.ndarray    # (n, d, d) the family's own Kraus stack
    raw_derivatives: np.ndarray  # (m, n, d, d) its partials


def _gram(ops: np.ndarray, psi: np.ndarray) -> np.ndarray:
    vs = ops @ psi
    return vs @ vs.conj().T


def _gram_derivative(ops: np.ndarray, dops: np.ndarray, psi: np.ndarray) -> np.ndarray:
    half = (dops @ psi) @ (ops @ psi).conj().T
    return half + half.conj().T


def _resolve_degenerate_clusters(
    vectors: np.ndarray, gram_deriv: np.ndarray, clusters: list[slice]
) -> np.ndarray:
    """Rotate supported degenerate clusters to diagonalize the projected Gram derivative.

    Eigenvector curves stay well-defined through an eigenvalue crossing when
    the first-order (projected-derivative) problem separates the branches;
    if it does not, the derivative is genuinely ill-posed and we refuse.
    """
    vectors = vectors.copy()
    for sl in clusters:
        block = vectors[:, sl]
        sub = hermitian_eigendecompose(block.conj().T @ gram_deriv @ block)
        gaps = np.diff(sub.eigenvalues)
        if gaps.size and float(np.min(gaps)) < DEGENERACY_TOL:
            raise DegeneracyError(
                "degenerate Gram eigenvalues with degenerate first-order splitting; "
                "perturb theta to move off the crossing"
            )
        vectors[:, sl] = _normalize_phases(block @ sub.eigenvectors)
    return vectors


def _crossing_coupling(
    coupling: np.ndarray,
    values: np.ndarray,
    gram_second: np.ndarray,
    vectors: np.ndarray,
    sl: slice,
) -> np.ndarray:
    """Parallel-transport generator inside a resolved supported cluster.

    With B = X^dag G' X diagonal on the cluster, second-order degenerate
    perturbation theory gives K_ba = [(X^dag G'' X)_ba / 2 +
    sum_{c outside} B_bc B_ca / (g - g_c)] / (g'_a - g'_b).
    """
    outside = np.r_[0:sl.start, sl.stop:len(values)]
    block = vectors[:, sl]
    through = coupling[sl][:, outside] / (float(np.mean(values[sl])) - values[outside])
    numer = 0.5 * (block.conj().T @ gram_second @ block) + through @ coupling[outside][:, sl]
    slopes = np.real(np.diag(coupling)[sl])
    split = slopes[np.newaxis, :] - slopes[:, np.newaxis]
    np.fill_diagonal(split, 1.0)
    out = numer / split
    np.fill_diagonal(out, 0.0)
    return out


def canonical_kraus(channel: ParametricChannel, theta) -> CanonicalKraus:
    """Canonical operators Y = X^dag E and their m partials at theta.

    Requires a Kraus-form channel with a pure input state.  G X = X diag(g)
    diagonalizes the input-state Gram matrix.  The partials are
    d_l Y = X^dag d_l E - K_l Y in the parallel-transport gauge, where
    (K_l)_jk = (X^dag d_l G X)_jk / (g_k - g_j) between eigenvalue clusters
    and K_l = 0 inside the unsupported cluster, because Y_k psi = 0 there.
    d_l E comes from kraus_derivative.  A supported degenerate cluster is
    resolved for one parameter only; with several it is refused, since a
    crossing can split differently along different axes.  With the raw Kraus
    stack and its partials kept, one call feeds everything a report needs.
    """
    if not channel.is_kraus_form:
        raise ValidationError(f"channel {channel.name!r} has no Kraus curve")
    if channel.input_state is None:
        raise ValidationError(f"channel {channel.name!r} needs a pure input state")
    vec = channel.require_in_domain(theta, margin=DEFAULT_DIFF.max_offset)
    psi = channel.input_state.amplitudes

    ops = channel.kraus_matrices(vec)
    sys = hermitian_eigendecompose(_gram(ops, psi))
    g = sys.eigenvalues
    p = np.clip(g, 0.0, None)
    boundary = (p > SUPPORT_TOL) & (p <= DEGENERACY_TOL)
    if boundary.any():
        raise DegeneracyError(
            f"Gram eigenvalue {p[boundary][0]:.3e} sits at the support boundary; "
            "the supported/unsupported split is unreliable, perturb theta"
        )
    supported = p > SUPPORT_TOL
    dops = [kraus_derivative(channel, vec, l) for l in range(channel.param_count)]
    gram_derivs = [_gram_derivative(ops, d, psi) for d in dops]

    slices = list(_cluster_slices(g, DEGENERACY_TOL))
    crossings = [sl for sl in slices if sl.stop - sl.start > 1 and supported[sl].any()]
    vectors = sys.eigenvectors
    if crossings:
        if channel.param_count != 1:
            raise DegeneracyError(
                "supported Gram eigenvalues are degenerate at the center point; "
                "perturb theta to separate them"
            )
        vectors = _resolve_degenerate_clusters(vectors, gram_derivs[0], crossings)
        gram_second = differentiate_curve(
            lambda t: _gram_derivative(
                channel.kraus_matrices([t]), kraus_derivative(channel, [t], 0), psi
            ),
            float(vec[0]),
            DEFAULT_DIFF,
        )

    mixing = vectors.conj().T
    canonical = np.tensordot(mixing, ops, axes=(1, 0))
    labels = np.concatenate([np.full(sl.stop - sl.start, i) for i, sl in enumerate(slices)])
    same = labels[:, np.newaxis] == labels[np.newaxis, :]
    spacing = np.where(same, 1.0, g[np.newaxis, :] - g[:, np.newaxis])
    between = supported[:, np.newaxis] & supported[np.newaxis, :] & ~same
    partials = []
    for d_ops, d_gram in zip(dops, gram_derivs):
        coupling = mixing @ d_gram @ vectors
        # eigh fixes each eigenvector only to about eps g_max / gap, which
        # reaches K through B as eps g_max |g_j' - g_k'| / gap^2.
        slopes = np.real(np.diag(coupling))
        noise = np.finfo(float).eps * g[-1] * np.abs(slopes[:, np.newaxis] - slopes)
        noisy = between & (noise / spacing**2 * np.sqrt(p) > CURVE_DERIV_TOL)
        if noisy.any():
            j, k = np.argwhere(noisy)[0]
            raise DegeneracyError(
                f"Gram eigenvalues {g[j]:.6g} and {g[k]:.6g} are {abs(g[k] - g[j]):.3e} "
                "apart, too close for an accurate derivative; perturb theta away "
                "from the crossing"
            )
        generator = np.where(same, 0.0, coupling / spacing)
        for sl in crossings:
            generator[sl, sl] = _crossing_coupling(coupling, g, gram_second, vectors, sl)
        partials.append(
            np.tensordot(mixing, d_ops, axes=(1, 0))
            - np.tensordot(generator, canonical, axes=(1, 0))
        )

    gram_canonical = _gram(canonical, psi)
    off_diag = gram_canonical - np.diag(np.diag(gram_canonical))
    if max_abs(off_diag) > GRAM_DIAG_TOL:
        raise ConsistencyError(
            f"canonical Gram matrix not diagonal: off-diagonal {max_abs(off_diag):.3e}"
        )
    return CanonicalKraus(
        theta=vec,
        operators=canonical,
        derivatives=np.array(partials),
        mixing=mixing,
        weights=p,
        raw_operators=ops,
        raw_derivatives=np.array(dops),
    )


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
    The overlap and SLD score stacks and the information matrices are
    computed once per curve and cached; the cached arrays are read-only.
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
        if abs(float(p.sum()) - 1.0) > CURVE_SUM_TOL:
            raise ConsistencyError(f"eigenvalues sum to {p.sum()!r}")
        for dp in self.value_derivs:
            if abs(float(dp.sum())) > CURVE_DERIV_TOL:
                raise ConsistencyError(f"eigenvalue derivatives sum to {dp.sum()!r}")
        gram_defect = max_abs(w.conj().T @ w - np.eye(w.shape[0]))
        if gram_defect > CURVE_SUM_TOL:
            raise ConsistencyError(f"eigenvector orthonormality defect {gram_defect:.3e}")
        # The checks read supported rows only, which overlaps leaves as computed.
        ss = np.ix_(self.support, self.support)
        for overlap in self.overlaps:
            diag_re = np.abs(np.real(np.diag(overlap))[self.support])
            if diag_re.size and float(np.max(diag_re)) > CURVE_DERIV_TOL:
                raise ConsistencyError(
                    f"Re<w_k'|w_k> = {float(np.max(diag_re)):.3e}; norms not preserved"
                )
            antisym = max_abs(overlap[ss] + overlap[ss].conj().T) if self.support.any() else 0.0
            if antisym > CURVE_DERIV_TOL:
                raise ConsistencyError(f"overlap antisymmetry defect {antisym:.3e}")

    @property
    def param_count(self) -> int:
        return self.value_derivs.shape[0]

    def state_matrix(self) -> np.ndarray:
        w = self.vectors
        return hermitian_part((w * self.values) @ w.conj().T)

    def state_partials(self) -> np.ndarray:
        """(m, d, d) stack of the partials d rho / d theta_l."""
        w, dp = self.vectors, self.value_derivs[:, np.newaxis, :]
        moving = (self.vector_derivs * self.values) @ w.conj().T
        return (w * dp) @ w.conj().T + moving + np.conj(np.swapaxes(moving, 1, 2))

    def fisher(self, povm: POVM) -> np.ndarray:
        """(m, m) Fisher information of the POVM outcomes, from this curve's state.

        F_jk = sum_i d_j p_i d_k p_i / p_i over outcomes with p_i above
        P_FLOOR; an outcome below it whose probability still moves by more
        than DP_FLOOR is a singular term and raises.
        """
        elements = povm.elements
        probs = np.clip(np.real(np.einsum("ij,mji->m", self.state_matrix(), elements)), 0.0, None)
        dprobs = np.real(np.einsum("lij,mji->lm", self.state_partials(), elements))
        entries = np.zeros((self.param_count, self.param_count))
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

    @cached_property
    def overlaps(self) -> np.ndarray:
        """Stack O[l, j, k] = <d_l w_j|w_k>, one matrix per parameter.

        Rows for unsupported j are recovered from supported columns through
        the antisymmetry <w_j'|w_k> = -<w_j|w_k'>*; entries with both indices
        unsupported are zero.
        """
        off = ~self.support
        out = np.empty(self.vector_derivs.shape, dtype=complex)
        for o, dw in zip(out, self.vector_derivs):
            o[...] = dw.conj().T @ self.vectors
            o[off, :] = -np.conj(o[:, off]).T
        out.setflags(write=False)
        return out

    @cached_property
    def _pair_ratio(self) -> np.ndarray:
        """2 (p_j - p_k) / (p_j + p_k) per eigenvalue pair, shared by H and the SLD score."""
        p = self.values
        return _over_pair_total(p, 2.0 * (p[:, np.newaxis] - p))

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
        p, supp = self.values, self.support
        dp = self.value_derivs[:, supp]
        classical = (dp / p[supp]) @ dp.T
        total = p[:, np.newaxis] + p
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
        p, supp, w = self.values, self.support, self.vectors
        frames = np.triu(self._pair_ratio, 1) * self.overlaps
        frames += np.conj(np.swapaxes(frames, 1, 2))
        idx = np.flatnonzero(supp)
        frames[:, idx, idx] = self.value_derivs[:, supp] / p[supp]
        scores = w @ frames @ w.conj().T
        scores = (scores + np.conj(np.swapaxes(scores, 1, 2))) / 2
        rho = self.state_matrix()
        residual = max_abs(self.state_partials() - 0.5 * (rho @ scores + scores @ rho))
        if residual > SLD_RESIDUAL_TOL:
            raise ConsistencyError(
                f"SLD residual {residual:.3e}: curve data inconsistent with its own "
                "state derivative"
            )
        h = self.information[0]
        check = np.real(np.einsum("ij,ljk,nki->ln", rho, scores, scores))
        if max_abs(check - h) > 1e-6 * max(1.0, max_abs(h)):
            raise ConsistencyError(
                f"H mismatch: eigendata kernel {h.tolist()!r} vs Re tr(rho L_l L_n) "
                f"{check.tolist()!r}"
            )
        scores.setflags(write=False)
        return scores


def _over_pair_total(p: np.ndarray, numerator: np.ndarray) -> np.ndarray:
    """numerator_jk / (p_j + p_k), for a numerator that vanishes where p_j + p_k does."""
    total = p[:, np.newaxis] + p
    return numerator / np.where(total > 0, total, 1.0)


def _pair_form(curve: SpectralCurve, w: np.ndarray) -> np.ndarray:
    """Re sum_jk w[..., j, k] conj(O[l, j, k]) O[n, j, k]: an (m, m) matrix per weight matrix w."""
    o = curve.overlaps.reshape(curve.param_count, -1)
    return np.real((o.conj() * w.reshape(*w.shape[:-2], 1, -1)) @ o.T)


def _require_one_parameter(curve: SpectralCurve) -> None:
    if curve.param_count != 1:
        m = curve.param_count
        raise ValidationError(f"scalar bounds need a one-parameter curve, not {m} parameters")


def _orthonormal_completion(columns: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full basis, deterministically."""
    basis = columns
    while basis.shape[1] < dim:
        residuals = np.eye(dim, dtype=complex) - basis @ (basis.conj().T)
        norms = np.linalg.norm(residuals, axis=0)
        pick = int(np.argmax(norms))
        basis = np.column_stack([basis, residuals[:, pick] / norms[pick]])
    return basis


def _kraus_eigendata(ck: CanonicalKraus, psi: np.ndarray) -> SpectralData:
    """Supported output eigendata with all m partials, read off the decomposition.

    w_k = Y_k psi / sqrt(p_k); an unsupported mode whose vector Y_k psi
    moves means the weight grows away from theta: theta sits at a rank change
    and is refused.
    """
    vs = ck.operators @ psi                  # (n, d)
    dvs = ck.derivatives @ psi               # (m, n, d)
    supported = ck.weights > SUPPORT_TOL
    moving = np.linalg.norm(dvs[:, ~supported], axis=-1)
    if moving.size and float(np.max(moving)) > CURVE_DERIV_TOL:
        raise DegeneracyError(
            f"an unsupported Gram mode moves (|dY_k psi| = {float(np.max(moving)):.3e}); "
            "theta is at a rank change, perturb it"
        )
    roots = np.sqrt(ck.weights[supported])
    w = vs[supported] / roots[:, np.newaxis]  # (r, d)
    dv = dvs[:, supported]
    dp = 2.0 * np.real(np.sum(vs[supported].conj() * dv, axis=-1))  # (m, r)
    dw = (dv - (dp / (2 * roots))[..., np.newaxis] * w) / roots[:, np.newaxis]
    return SpectralData(
        values=ck.weights[supported],
        vectors=w.T,
        value_grads=dp,
        vector_grads=np.transpose(dw, (0, 2, 1)),
    )


def spectral_curve(channel: ParametricChannel, theta) -> SpectralCurve:
    """Output-state spectral curve at theta with all m partials.

    Kraus-form channels go through the canonical decomposition, which fixes
    the eigenvector gauge and which the curve carries; spectral-form families
    supply their own analytic eigen-data.  The eigensystem is sorted
    ascending and completed to a full basis: unsupported slots hold an
    orthonormal completion with zero partials.
    """
    vec = channel.theta_vector(theta)
    if channel.is_kraus_form:
        ck = canonical_kraus(channel, vec)
        data = _kraus_eigendata(ck, channel.input_state.amplitudes)
    else:
        channel.require_in_domain(vec)
        ck, data = None, channel.spectral_at(vec)
    dim = channel.dim
    values = np.asarray(data.values, dtype=float)
    order = np.argsort(values, kind="stable")
    keep = order[values[order] > SUPPORT_TOL]
    if keep.size > dim:
        raise ConsistencyError(f"{keep.size} supported eigenvalues exceed dimension {dim}")
    m = np.shape(data.value_grads)[0]
    n_fill = dim - keep.size
    w_s = np.asarray(data.vectors, dtype=complex)[:, keep]
    completion = _normalize_phases(_orthonormal_completion(w_s, dim)[:, keep.size:])
    dp = np.concatenate(
        [np.zeros((m, n_fill)), np.asarray(data.value_grads, dtype=float)[:, keep]], axis=1
    )
    dw = np.concatenate(
        [
            np.zeros((m, dim, n_fill), dtype=complex),
            np.asarray(data.vector_grads, dtype=complex)[:, :, keep],
        ],
        axis=2,
    )
    return SpectralCurve(
        theta=vec,
        values=np.concatenate([np.zeros(n_fill), values[keep]]),
        vectors=np.column_stack([completion, w_s]),
        value_derivs=dp,
        vector_derivs=dw,
        support=np.concatenate([np.zeros(n_fill, dtype=bool), np.ones(keep.size, dtype=bool)]),
        gauge_source="spectral-form" if ck is None else "canonical-kraus",
        kraus=ck,
    )


# ---------------------------------------------------------------------------
# Information quantities
# ---------------------------------------------------------------------------

def sld_score(curve: SpectralCurve) -> np.ndarray:
    """The self-adjoint SLD solution a one-parameter curve induces (SpectralCurve.sld_score)."""
    _require_one_parameter(curve)
    return curve.sld_score[0]


def sld_information(curve: SpectralCurve) -> float:
    """SLD quantum information H of the output-state family at this point.

    The (0, 0) entry of curve.information, read after the SLD score, which
    checks it against Re tr(rho L^2).
    """
    sld_score(curve)
    return float(curve.information[0][0, 0])


def sm_bound_spectral(curve: SpectralCurve) -> float:
    """Channel bound evaluated purely from the output-state spectral curve."""
    _require_one_parameter(curve)
    return float(curve.information[1][0, 0])


def sm_bound_kraus(operators, derivatives, rho0: DensityMatrix) -> float:
    """Channel bound 4 sum_k tr(E_k' rho0 E_k'^dag) for any Kraus representation."""
    ops = operators.operators if isinstance(operators, KrausSet) else np.asarray(operators)
    derivs = np.asarray(derivatives, dtype=complex)
    if derivs.shape != np.shape(ops):
        raise ValidationError(
            f"derivative stack shape {derivs.shape} does not match operators {np.shape(ops)}"
        )
    value = np.einsum("kij,jl,kil->", derivs, rho0.matrix, derivs.conj())
    return 4.0 * float(np.real(value))


def bound_gap(curve: SpectralCurve) -> float:
    """Gap 8 sum_{j,k supported} p_j p_k / (p_j + p_k) |<w_j'|w_k>|^2.

    Checked against the difference of the two bounds before returning.
    """
    _require_one_parameter(curve)
    p = curve.values
    gap = float(_pair_form(curve, _over_pair_total(p, 8.0 * np.outer(p, p)))[0, 0])
    h, c = (float(a[0, 0]) for a in curve.information)
    direct = c - h
    if abs(gap - direct) > 1e-8 * max(1.0, c):
        raise ConsistencyError(f"gap formula {gap!r} vs bound difference {direct!r}")
    return gap


def attainability_check(curve: SpectralCurve, tol: float = 1e-6) -> tuple[bool, float]:
    """Whether every supported overlap <d_l w_j|w_k> vanishes, for every parameter l.

    Returns (verdict, residual), the residual being the largest such overlap.
    """
    idx = np.flatnonzero(curve.support)
    supported = curve.overlaps[:, idx[:, np.newaxis], idx]
    residual = float(np.max(np.abs(supported))) if idx.size else 0.0
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
    blocks = [sys.eigenvectors[:, sl] for sl in _cluster_slices(sys.eigenvalues, DEGENERACY_TOL)]
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

    def max_residual(self) -> float:
        return max((e.residual for e in self.elements if not e.vacuous), default=0.0)


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
    for m, mat in enumerate(povm.elements):
        root_m = psd_sqrt(mat)
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
) -> tuple[ConditionReport, np.ndarray]:
    """Check M^(1/2) Y_k' rho0^(1/2) = xi_m M^(1/2) Y_k rho0^(1/2) for all m, k.

    One real xi_m must serve every k, so xi_m solves the stacked least-squares
    problem.  Returns the per-element report plus the (m, k) residual table.
    The condition is unsatisfiable for channels that fail the attainability
    condition, so a failed check cannot by itself disqualify a measurement
    there.
    """
    ops = operators.operators if isinstance(operators, KrausSet) else np.asarray(operators)
    derivs = np.asarray(derivatives, dtype=complex)
    if abs(rho0.purity() - 1.0) > 1e-9:
        raise ValidationError("condition check requires a pure input state")
    root_rho = psd_sqrt(rho0.matrix)
    elements = []
    table = np.zeros((len(povm), ops.shape[0]))
    for m, mat in enumerate(povm.elements):
        root_m = psd_sqrt(mat)
        pairs = [(root_m @ dk @ root_rho, root_m @ ek @ root_rho) for ek, dk in zip(ops, derivs)]
        xi, residual, vacuous = _fit_real_scale(pairs, tol)
        for k, (a, b) in enumerate(pairs):
            table[m, k] = float(np.linalg.norm(a - xi * b))
        elements.append(ConditionElement(m, xi, residual, vacuous))
    satisfied = all(e.vacuous or e.residual < tol for e in elements)
    note = (
        "unsatisfiable for channels that violate the attainability condition; "
        "a failing check does not certify the measurement as suboptimal there"
    )
    return ConditionReport(tuple(elements), satisfied, tol, note), table


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
    must have one parameter.
    """
    theta = float(curve.theta[0])
    c_spec = sm_bound_spectral(curve)
    attainable, residual = attainability_check(curve, attainability_tol)
    warnings: list[str] = []
    cross = c_e = None
    ck = curve.kraus
    if ck is not None:
        rho0 = channel.input_state.density()
        cross = abs(c_spec - sm_bound_kraus(ck.operators, ck.derivatives[0], rho0))
        c_e = sm_bound_kraus(ck.raw_operators, ck.raw_derivatives[0], rho0)
    if not attainable:
        warnings.append(
            "channel bound not attainable here: the measurement optimality "
            "condition on canonical Kraus derivatives is unsatisfiable"
        )
    f = None
    if povm is not None:
        try:
            f = fisher_information(curve, povm)
        except SingularTermError as exc:
            warnings.append(f"Fisher information dropped: {exc}")
    return BoundReport(
        theta=theta,
        sld_information=sld_information(curve),
        channel_bound=c_spec,
        gap=bound_gap(curve),
        attainable=attainable,
        attainability_residual=residual,
        attainability_tol=attainability_tol,
        gauge_source=curve.gauge_source,
        fisher_information=f,
        representation_bound=c_e,
        method_cross_check=cross,
        warnings=tuple(warnings),
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
