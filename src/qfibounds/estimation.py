"""Monte-Carlo verification layer.

Seeded multinomial sampling of measurement outcomes, maximum-likelihood
estimation by grid scan plus a safeguarded Newton refinement on the
analytic score, the adaptive two-stage measurement, Cramér-Rao comparisons
across replications, and optimization of the input state: the convex dual
of the SLD information, which certifies an optimal input where it can, and
a BFGS search on stacked central differences elsewhere.

Every replication of an experiment is estimated at once: the scan grid's
output states are tabulated in one stacked call, every replication's counts
score the whole grid, and the Newton refinement steps all of them in
lockstep, one stacked evaluation of the output state and its partial per
step (see `_refine`).  The outcome probabilities of one state and POVM are
computed once for all the replications that draw from them.

RNG contract: Philox (counter-based, 64-bit keys).  Replication r draws from
the stream keyed by seed XOR r, so replications are reproducible and
independent of execution order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    SpectralCurve,
    fisher_information,
    halving,
    optimal_povm_from_sld,
    sld_information,
    sld_score,
    sm_bound_spectral,
    spectral_curve,
)
from .channels import ParametricChannel
from .errors import DegeneracyError, NumericError, SingularTermError, ValidationError
from .linalg import STENCIL_REACH
from .quantum import (
    POVM,
    DensityMatrix,
    PureState,
    computational_basis_povm,
    measurement_distribution,
)

UNINFORMATIVE_FLOOR = 1e-9
MLE_GRID_POINTS = 129
MLE_REFINE_TOL = 1e-8
MLE_FLAT_TOL = 1e-12  # of N + |l|, the round-off scale of a log-likelihood of N shots
# An input is certified optimal for H when H there comes within
# CERTIFY_TOL * max(1, bound) of the ancilla bound.  The dual's BFGS stops
# when no gradient entry exceeds DUAL_GTOL.
CERTIFY_TOL = 1e-9
DUAL_GTOL = 1e-8
# The input search's central differences step each angle by SEARCH_STEP, near
# the cube root of machine epsilon, where truncation and round-off balance.
SEARCH_STEP = 1e-5
_STAGE2_SALT = 0x9E3779B97F4A7C15  # fixed stream split for the second stage


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))


def replication_seed(seed: int, replication: int) -> int:
    return (seed ^ replication) & 0xFFFFFFFFFFFFFFFF


def sample_outcomes(rho: DensityMatrix, povm: POVM, shots: int, seed: int) -> np.ndarray:
    """Multinomial outcome counts; identical seeds give identical counts."""
    return _draws(measurement_distribution(rho, povm), shots, [seed])[0]


def _draws(probs: np.ndarray, shots: int, seeds) -> np.ndarray:
    """Multinomial counts of the outcome distribution probs, one row per seed's stream."""
    if shots < 1:
        raise ValidationError(f"shots must be positive, got {shots}")
    probs = probs / probs.sum()
    return np.array([rng_from_seed(s).multinomial(shots, probs) for s in seeds])


@dataclass(frozen=True)
class MLEResult:
    """One estimate, or the (R,) arrays of a stack of R count vectors."""

    theta_hat: float | np.ndarray
    log_likelihood: float | np.ndarray
    boundary: bool | np.ndarray


def _refine(score, grid: np.ndarray, values: np.ndarray, pick: np.ndarray, shots) -> np.ndarray:
    """Score roots of R rows in lockstep, row r bracketed by the grid neighbours of pick[r].

    score(points, rows) is l' at one point per listed row.  Newton steps start at the vertex of
    the parabola through the grid maximum and neighbours, with its curvature, then secants.  A
    score shrinks the bracket by its sign; a step leaving it, or not halving the last step,
    bisects it.  A row stops at a step or bracket of MLE_REFINE_TOL; a flat row keeps its pick.
    """
    h, center = grid[1] - grid[0], np.clip(pick, 1, len(grid) - 2)
    f0, f1, f2 = np.take_along_axis(values, center[:, np.newaxis] + [-1, 0, 1], axis=1).T
    a, b = grid[np.maximum(pick - 1, 0)], grid[np.minimum(pick + 1, len(grid) - 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        second = f0 - 2 * f1 + f2
        vertex, curvature = grid[center] - 0.5 * h * (f2 - f0) / second, second / h**2
        done = np.abs(second) <= MLE_FLAT_TOL * (shots + np.abs(values.max(axis=1)))
        x = np.where(done, grid[pick], np.where((a < vertex) & (vertex < b), vertex, (a + b) / 2))
        step, x_prev, s_prev = b - a, np.full_like(x, np.nan), np.full_like(x, np.nan)
        while (live := np.flatnonzero(~done)).size:
            s = score(xl := x[live], live)
            al = a[live] = np.where(s >= 0, xl, a[live])
            bl = b[live] = np.where(s <= 0, xl, b[live])
            secant = (s - s_prev[live]) / (xl - x_prev[live])
            c = curvature[live] = np.where(np.isnan(x_prev[live]), curvature[live], secant)
            t = xl - s / c
            t = np.where((al < t) & (t < bl) & (np.abs(t - xl) <= step[live] / 2), t, (al + bl) / 2)
            step[live] = np.abs(t - xl)
            done[live] = (step[live] <= MLE_REFINE_TOL) | (bl - al <= MLE_REFINE_TOL)
            x_prev[live], s_prev[live], x[live] = xl, s, t
    return x


def _grid_states(channel: ParametricChannel) -> np.ndarray:
    """Output states on the MLE scan grid, stacked as (MLE_GRID_POINTS, d, d)."""
    if channel.param_count != 1:
        raise ValidationError("mle_estimate handles one-parameter channels")
    lo, hi = channel.domain[0]
    return channel.output_matrix(np.linspace(lo, hi, MLE_GRID_POINTS)[:, np.newaxis])


def _outcome_sum(counts: np.ndarray, states, elements, partials=None) -> np.ndarray:
    """sum_k n_k log p_k, or with partials the score sum_k n_k p_k' / p_k, over observed outcomes.

    p_k = Re tr(rho_p M_k), p_k' = Re tr(rho_p' M_k) of (..., P, d, d) states (partials) and
    (..., k, d, d) elements, one matmul per stacked item so that an item's bits do not depend on
    the others; the outcomes of (..., P, k) counts add one by one: zero-count padding is exact.
    """
    flat = elements.swapaxes(-1, -2).reshape(*elements.shape[:-2], -1).swapaxes(-1, -2)
    traced = lambda a: (a.reshape(*a.shape[:-2], -1) @ flat).real
    probs = np.clip(traced(states), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = counts * (np.log(probs) if partials is None else traced(partials) / probs)
    terms = np.where(counts > 0, terms, 0.0)
    return sum(terms[..., k] for k in range(terms.shape[-1]))


def mle_estimate(
    channel: ParametricChannel,
    povm: POVM | np.ndarray,
    counts: np.ndarray,
    *,
    grid_states: np.ndarray | None = None,
    seeds=None,
) -> MLEResult:
    """Maximum-likelihood estimates by coarse grid scan and Newton refinement on the score.

    counts is a (k,) vector or an (R, k) stack, one row per replication (a
    vector is the stack of one), and povm one POVM or an (R, k, d, d) stack
    of elements, one POVM per row.  The grid is scored from its tabulated
    output states, `grid_states` (a cache: passing it cannot change the
    result); exact ties break toward the domain center.  The rows are
    refined in lockstep, one stacked evaluation per step, and each row gets
    the bits of its own call.  Boundary estimates are flagged.  `seeds`,
    the rows' stream seeds, name a failing row's replication.
    """
    rows, stacked = np.atleast_2d(counts), np.ndim(counts) == 2
    elements = povm.elements if isinstance(povm, POVM) else np.asarray(povm, dtype=complex)
    if (rows.sum(axis=1) < 1).any():
        raise ValidationError("counts are empty")
    if grid_states is None:
        grid_states = _grid_states(channel)
    lo, hi = channel.domain[0]

    def at(points: np.ndarray, which: np.ndarray, score: bool = False) -> np.ndarray:
        theta, own = points[:, np.newaxis], elements[which] if elements.ndim == 4 else elements
        states = channel.output_matrix(theta)[:, np.newaxis]
        partials = channel.output_partials(theta) if score else None
        return _outcome_sum(rows[which, np.newaxis], states, own, partials)[:, 0]

    grid = np.linspace(lo, hi, MLE_GRID_POINTS)
    values = _outcome_sum(rows[:, np.newaxis], grid_states, elements)  # (R, grid)
    if (dead := ~np.isfinite(values).any(axis=1)).any():
        r = int(np.argmax(dead))
        where = f" for replication {r}" + ("" if seeds is None else f" (seed {seeds[r]})")
        raise NumericError(f"log-likelihood is -inf over the entire search domain{where * stacked}")
    ties = values == values.max(axis=1, keepdims=True)
    pick = np.argmin(np.where(ties, np.abs(grid - 0.5 * (lo + hi)), np.inf), axis=1)
    theta_hat = _refine(lambda x, which: at(x, which, True), grid, values, pick, rows.sum(axis=1))
    boundary = np.minimum(theta_hat - lo, hi - theta_hat) < 1e-6 * (hi - lo)
    result = MLEResult(theta_hat, at(theta_hat, np.arange(len(rows))), boundary)
    return result if stacked else MLEResult(*(v[0].item() for v in vars(result).values()))


@dataclass(frozen=True)
class AdaptiveConfig:
    """Two-stage measurement settings: the pilot size."""

    n_pilot: int

    def __post_init__(self):
        if self.n_pilot < 1:
            raise ValidationError(f"n_pilot must be positive, got {self.n_pilot}")


@dataclass(frozen=True)
class StageRecord:
    povm_id: str
    shots: int
    counts: tuple[int, ...]
    theta_hat: float
    boundary: bool


@dataclass(frozen=True)
class EstimationRun:
    """Seeded experiment record with bound comparisons."""

    channel_id: str
    theta_true: float
    povm_id: str
    shots: int
    seed: int
    counts: tuple[int, ...]
    theta_hat: float
    predicted_bounds: dict[str, float | None]
    empirical_variance: float | None = None
    variance_ratios: dict[str, float | None] = field(default_factory=dict)
    replications: int = 1
    theta_hats: tuple[float, ...] = ()
    bias: float | None = None
    stages: tuple[StageRecord, ...] = ()
    boundary: bool = False
    rng: str = "philox4x64"

    def __post_init__(self):
        if sum(self.counts) != self.shots:
            raise ValidationError(
                f"counts sum to {sum(self.counts)}, expected {self.shots} shots"
            )
        if self.empirical_variance is not None and self.empirical_variance < 0:
            raise ValidationError("variance must be nonnegative")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["counts"] = list(self.counts)
        out["theta_hats"] = list(self.theta_hats)
        out["stages"] = [dataclasses.asdict(s) | {"counts": list(s.counts)} for s in self.stages]
        return out


def predicted_bounds(
    curve: SpectralCurve, povm: POVM | None, shots: int
) -> dict[str, float | None]:
    """Variance floors 1/(N F), 1/(N H), 1/(N C) read from the curve at the true parameter.

    A floor is None where its information is below UNINFORMATIVE_FLOOR, or
    for F, where the Fisher information has a singular term.
    """
    h = sld_information(curve)
    c = sm_bound_spectral(curve)
    f = None
    if povm is not None:
        try:
            f = fisher_information(curve, povm)
        except SingularTermError:
            pass
    return {
        "fisher": None if f is None or f < UNINFORMATIVE_FLOOR else 1.0 / (shots * f),
        "sld": None if h < UNINFORMATIVE_FLOOR else 1.0 / (shots * h),
        "channel_bound": None if c < UNINFORMATIVE_FLOOR else 1.0 / (shots * c),
    }


def cr_experiment(
    channel: ParametricChannel,
    theta_true: float,
    povm: POVM,
    shots: int,
    replications: int,
    seed: int,
    povm_id: str = "custom",
    curve: SpectralCurve | None = None,
) -> EstimationRun:
    """Replicated sampling + MLE, compared against the variance floors.

    Ratios are empirical variance divided by each floor; a floor is omitted
    when the corresponding information vanishes.  `curve`, the spectral
    curve at theta_true, is built after the replications when not given.
    """
    if replications < 2:
        raise ValidationError("need at least 2 replications for a variance")
    rho = channel.output_state(np.array([theta_true]))
    seeds = [replication_seed(seed, rep) for rep in range(replications)]
    counts = _draws(measurement_distribution(rho, povm), shots, seeds)
    estimates = mle_estimate(channel, povm, counts, seeds=seeds).theta_hat
    if curve is None:
        curve = spectral_curve(channel, theta_true)
    run = EstimationRun(
        channel_id=channel.name,
        theta_true=float(theta_true),
        povm_id=povm_id,
        shots=shots,
        seed=seed,
        counts=tuple(int(c) for c in counts[0]),
        theta_hat=float(estimates[0]),
        predicted_bounds={},
    )
    return _compared(run, estimates, curve, povm)


def _compared(run: EstimationRun, estimates: np.ndarray, curve: SpectralCurve, povm: POVM):
    """run with its replications' estimates and their variance against povm's floors at curve."""
    bounds = predicted_bounds(curve, povm, run.shots)
    variance = float(np.var(estimates, ddof=1))
    return dataclasses.replace(
        run,
        predicted_bounds=bounds,
        empirical_variance=variance,
        variance_ratios={k: None if f is None else variance / f for k, f in bounds.items()},
        replications=len(estimates),
        theta_hats=tuple(float(t) for t in estimates),
        bias=float(np.mean(estimates) - run.theta_true),
    )


def _pivot_curves(channel: ParametricChannel, pivots: np.ndarray, seeds) -> SpectralCurve:
    """The stacked curve at every pivot; a refused pivot fails the run, naming its replication."""
    stack = lambda index: [spectral_curve(channel, pivots[index, np.newaxis])] * len(index)
    curves = halving(stack, len(pivots), DegeneracyError)
    for rep, (pivot, s, curve) in enumerate(zip(pivots, seeds, curves)):
        if isinstance(curve, DegeneracyError):
            raise DegeneracyError(
                f"replication {rep} (seed {s}), pivot theta {float(pivot)!r}: {curve}"
            )
    return curves[0]


def _two_stage(
    channel: ParametricChannel,
    theta_true: float,
    shots: int,
    config: AdaptiveConfig,
    seeds: list[int],
) -> tuple[EstimationRun, POVM, np.ndarray]:
    """Every replication's adaptive run, replication r drawing from seeds[r].

    Each stage is one MLE call over all replications on one tabulated grid,
    and the pivots are one stacked curve.  Returns the first replication's
    run without floors, its stage-2 POVM and every final estimate.
    """
    if config.n_pilot >= shots:
        raise ValidationError(f"n_pilot {config.n_pilot} must be below shots {shots}")
    states = _grid_states(channel)
    pilot_povm = computational_basis_povm(channel.dim)
    rho_true = channel.output_state(np.array([theta_true]))
    pilot_counts = _draws(measurement_distribution(rho_true, pilot_povm), config.n_pilot, seeds)
    pilot = mle_estimate(channel, pilot_povm, pilot_counts, grid_states=states, seeds=seeds)
    lo, hi = channel.domain[0]
    # A pilot MLE can land within 1e-8 of an edge, where a Kraus-form point's
    # smallest weight sits at the support boundary and is refused.
    margin = STENCIL_REACH if channel.is_kraus_form else 0.0
    pivots = np.clip(pilot.theta_hat, lo + margin, hi - margin)
    povms = [optimal_povm_from_sld(lam) for lam in sld_score(_pivot_curves(channel, pivots, seeds))]
    n2 = shots - config.n_pilot
    drawn = [sample_outcomes(rho_true, p, n2, s ^ _STAGE2_SALT) for p, s in zip(povms, seeds)]
    # zero elements pad a POVM that merged degenerate SLD eigenvalues
    elements = np.zeros((len(seeds), max(map(len, povms)), channel.dim, channel.dim), complex)
    counts2 = np.zeros(elements.shape[:2], dtype=int)
    for rep, (povm, c) in enumerate(zip(povms, drawn)):
        elements[rep, : len(povm)], counts2[rep, : len(c)] = povm.elements, c
    final = mle_estimate(channel, elements, counts2, grid_states=states, seeds=seeds)
    stages = (
        StageRecord(
            "pilot", config.n_pilot, tuple(int(c) for c in pilot_counts[0]),
            float(pilot.theta_hat[0]), bool(pilot.boundary[0]),
        ),
        StageRecord(
            f"sld-optimal@{pivots[0]:.6g}", n2, tuple(int(c) for c in drawn[0]),
            float(final.theta_hat[0]), bool(final.boundary[0]),
        ),
    )
    run = EstimationRun(
        channel_id=channel.name,
        theta_true=float(theta_true),
        povm_id=f"adaptive({stages[1].povm_id})",
        shots=n2,
        seed=seeds[0],
        counts=stages[1].counts,
        theta_hat=stages[1].theta_hat,
        predicted_bounds={},
        stages=stages,
        boundary=stages[1].boundary,
    )
    return run, povms[0], final.theta_hat


def adaptive_experiment(
    channel: ParametricChannel,
    theta_true: float,
    shots: int,
    config: AdaptiveConfig,
    replications: int,
    seed: int,
    curve: SpectralCurve | None = None,
) -> EstimationRun:
    """Replicated adaptive runs with the variance compared to 1/((N - n) H).

    Each replication measures a pilot in the computational basis, then the
    SLD-optimal POVM at its pilot estimate; its final estimate uses the
    second-stage data only.  The record's stages are the first
    replication's, and the floors are those of its stage-2 POVM.  `curve`,
    the spectral curve at theta_true, is built after the replications when
    not given.
    """
    if replications < 2:
        raise ValidationError("need at least 2 replications for a variance")
    seeds = [replication_seed(seed, rep) for rep in range(replications)]
    first, stage2_povm, estimates = _two_stage(channel, theta_true, shots, config, seeds)
    if curve is None:
        curve = spectral_curve(channel, theta_true)
    return dataclasses.replace(_compared(first, estimates, curve, stage2_povm), seed=seed)


def _inputs_from_angles(x: np.ndarray, dim: int) -> np.ndarray:
    """(N, dim) unit inputs of (N, 2 dim - 2) angles, each row normalized by its own 1-D norm."""
    mags = np.ones((len(x), dim))
    for i in range(dim - 1):
        mags[:, i] *= np.cos(x[:, i])
        mags[:, i + 1:] *= np.sin(x[:, i, np.newaxis])
    phases = np.concatenate([np.zeros((len(x), 1)), x[:, dim - 1:]], axis=1)
    amps = mags * np.exp(1j * phases)
    return amps / np.array([np.linalg.norm(a) for a in amps])[:, np.newaxis]


@dataclass(frozen=True)
class InputOptimum:
    """The best pure input found, its objective value and, for H, the dual bound.

    `ancilla_bound` is min_h 4 lambda_max(alpha_h), which no input reaches,
    an ancilla included; `certified` says that `value` comes within
    CERTIFY_TOL of it.  Both are None for the channel-bound objective.
    """

    state: PureState
    value: float
    ancilla_bound: float | None = None
    certified: bool | None = None


def _sld_dual(channel: ParametricChannel, theta) -> tuple[float, np.ndarray]:
    """min over Hermitian h of 4 lambda_max(alpha_h), and the top eigenvector there.

    alpha_h = sum_k K_k^dag K_k with K_k = E_k' - i sum_j h_kj E_j.  Every h
    bounds H from above at every input, an ancilla included, and the least
    bound is the best H with an ancilla (Fujiwara & Imai, J. Phys. A 41,
    255304, 2008).  The bound is convex in the n^2 real entries x of
    h = (x + x^T) / 2 + i (x - x^T) / 2, and its gradient comes from the top
    eigenvector v: d lambda = 2 Re <K v, dK v> with dK = -i (dh) E.  The
    returned eigenvector's global phase makes its largest amplitude real and
    positive.
    """
    from scipy.optimize import minimize  # imported here: it is slow to import

    ops = channel.kraus_matrices(theta)
    derivs = channel.kraus_partials(theta)[0]
    n = ops.shape[0]

    def top(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        x = x.reshape(n, n)
        h = (x + x.T) / 2 + 0.5j * (x - x.T)
        k = derivs - 1j * np.tensordot(h, ops, axes=(1, 0))
        values, vectors = np.linalg.eigh(np.einsum("kji,kjl->il", k.conj(), k))
        return 4.0 * float(values[-1]), vectors[:, -1], k

    def bound_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        bound, v, k = top(x)
        g = (k @ v).conj() @ (ops @ v).T  # g_kj = <K_k v|E_j v>
        return bound, 4.0 * ((g.imag + g.imag.T) + (g.real - g.real.T)).ravel()

    res = minimize(
        bound_and_gradient, np.zeros(n * n), jac=True, method="BFGS",
        options={"gtol": DUAL_GTOL},
    )
    bound, v, _ = top(res.x)
    lead = v[np.argmax(np.abs(v))]
    return bound, v * (abs(lead) / lead)


def _input_search(
    channel: ParametricChannel, theta, evaluate, restarts: int, seed: int
) -> tuple[PureState, float]:
    """BFGS over 2d - 2 angles, best of `restarts` seeded starts.

    Each objective call scores x and its neighbours x +- SEARCH_STEP e_i in one
    curve of the channel at theta with that stack of 1 + 2(2d - 2) inputs (one
    family evaluation), for the value and its central-difference gradient; a
    refused stack is a rejected candidate.  The returned value is the point
    call's at the returned state.
    """
    from scipy.optimize import minimize  # imported here: it is slow to import

    dim = channel.dim
    steps = SEARCH_STEP * np.eye(2 * dim - 2)

    def cost(x: np.ndarray) -> tuple[float, np.ndarray]:
        inputs = _inputs_from_angles(np.concatenate([x[np.newaxis], x + steps, x - steps]), dim)
        try:
            values = evaluate(spectral_curve(channel, theta, inputs))
        except (NumericError, ValidationError):
            return 1e9, np.zeros_like(x)
        ahead, behind = np.split(values[1:], 2)
        return -values[0], (behind - ahead) / (2 * SEARCH_STEP)

    rng = rng_from_seed(seed)
    best_x, best_val = None, np.inf
    for _ in range(restarts):
        x0 = np.concatenate(
            [rng.uniform(0.0, np.pi, dim - 1), rng.uniform(0.0, 2 * np.pi, dim - 1)]
        )
        res = minimize(cost, x0, jac=True, method="BFGS")
        if res.fun < best_val:
            best_x, best_val = res.x, float(res.fun)
    if best_x is None or best_val >= 1e9:
        raise NumericError("every optimization start failed to evaluate the objective")
    state = PureState(_inputs_from_angles(best_x[np.newaxis], dim)[0])
    return state, evaluate(spectral_curve(channel.with_input_state(state), theta))


def optimize_input_state(
    channel: ParametricChannel,
    theta,
    objective: str = "sld",
    restarts: int = 8,
    seed: int = 0,
) -> InputOptimum:
    """Maximize H or the channel bound over pure input states.

    For H (objective "sld") the convex dual min_h 4 lambda_max(alpha_h)
    comes first (see `_sld_dual`): it bounds H at every input, an ancilla
    included, and is returned as `ancilla_bound`.  When H at the top
    eigenvector of alpha_h comes within CERTIFY_TOL * max(1, bound) of the
    bound, that eigenvector is optimal and is returned, certified, with no
    search.  Otherwise (a degenerate top eigenvalue, or a bound that only an
    ancilla reaches) the input search below runs, and the eigenvector
    replaces its result only if it beats it by more than that tolerance;
    `certified` then says whether the search closed the gap.

    The channel bound has no dual here: BFGS over 2d - 2 angles (global
    phase and norm fixed) on central differences, best of `restarts` seeded
    starts.  Candidates whose evaluation hits a degeneracy are rejected and
    the search continues; near a domain edge, where a candidate's smallest
    weight can reach the support boundary, that can be every candidate, and
    the search raises NumericError.
    """
    if not channel.is_kraus_form:
        raise ValidationError("input-state optimization needs a Kraus-form channel")
    key = objective.strip().lower()
    sld = key in ("sld", "h")
    if not sld and key not in ("channel-bound", "sm", "c", "bound"):
        raise ValidationError(f"unknown objective {objective!r}; use 'sld' or 'channel-bound'")
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")
    if channel.param_count != 1:
        # both objectives are scalar bounds: refuse before decomposing
        raise ValidationError(
            "input-state optimization handles one-parameter channels, "
            f"got {channel.param_count} parameters"
        )
    # a partial that diverges at theta (a domain edge) would fail every candidate
    channel.kraus_partials(channel.require_in_domain(theta))
    if not sld:
        return InputOptimum(*_input_search(channel, theta, sm_bound_spectral, restarts, seed))

    bound, psi = _sld_dual(channel, theta)
    slack = CERTIFY_TOL * max(1.0, bound)
    top = PureState(psi)
    try:
        at_top = sld_information(spectral_curve(channel.with_input_state(top), theta))
    except (NumericError, ValidationError):
        at_top = -np.inf
    if at_top >= bound - slack:
        return InputOptimum(top, at_top, bound, True)
    state, value = _input_search(channel, theta, sld_information, restarts, seed)
    if at_top > value + slack:
        state, value = top, at_top
    return InputOptimum(state, value, bound, value >= bound - slack)
