"""Monte-Carlo verification layer.

Seeded multinomial sampling of measurement outcomes, maximum-likelihood
estimation by grid scan plus golden-section refinement, the adaptive
two-stage measurement, Cramér-Rao comparisons across replications, and
optimization of the input state: the convex dual of the SLD information,
which certifies an optimal input where it can, and a derivative-free
search elsewhere.

The scan grid's output states are tabulated once per experiment, and each
replication scores the whole grid with one einsum per observed outcome; only
the golden-section refinement evaluates the channel per replication.

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
    optimal_povm_from_sld,
    sld_information,
    sld_score,
    sm_bound_spectral,
    spectral_curve,
)
from .channels import ParametricChannel, kraus_derivative
from .errors import NumericError, SingularTermError, ValidationError
from .linalg import DEFAULT_DIFF
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
# An input is certified optimal for H when H there comes within
# CERTIFY_TOL * max(1, bound) of the ancilla bound.  The dual's BFGS stops
# when no gradient entry exceeds DUAL_GTOL.
CERTIFY_TOL = 1e-9
DUAL_GTOL = 1e-8
_STAGE2_SALT = 0x9E3779B97F4A7C15  # fixed stream split for the second stage


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))


def replication_seed(seed: int, replication: int) -> int:
    return (seed ^ replication) & 0xFFFFFFFFFFFFFFFF


def sample_outcomes(rho: DensityMatrix, povm: POVM, shots: int, seed: int) -> np.ndarray:
    """Multinomial outcome counts; identical seeds give identical counts."""
    if shots < 1:
        raise ValidationError(f"shots must be positive, got {shots}")
    probs = measurement_distribution(rho, povm)
    probs = probs / probs.sum()
    return rng_from_seed(seed).multinomial(shots, probs)


@dataclass(frozen=True)
class MLEResult:
    theta_hat: float
    log_likelihood: float
    boundary: bool


def _golden_max(fun, lo: float, hi: float, tol: float) -> float:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _grid_states(channel: ParametricChannel) -> np.ndarray:
    """Output states on the MLE scan grid, stacked as (MLE_GRID_POINTS, d, d)."""
    if channel.param_count != 1:
        raise ValidationError("mle_estimate handles one-parameter channels")
    lo, hi = channel.domain[0]
    return np.stack(
        [channel.output_matrix(np.array([t])) for t in np.linspace(lo, hi, MLE_GRID_POINTS)]
    )


def mle_estimate(
    channel: ParametricChannel,
    povm: POVM,
    counts: np.ndarray,
    *,
    grid_states: np.ndarray | None = None,
) -> MLEResult:
    """Maximum-likelihood estimate by coarse grid scan and golden-section refinement.

    The grid is scored from the channel's output states on it, one einsum
    per observed outcome; only the refinement evaluates the channel.
    `grid_states` holds those states, stacked (MLE_GRID_POINTS, d, d): the
    experiments tabulate them once and hand them to every replication.  It
    is a cache only; passing it cannot change the result.  Exact ties on the
    grid break toward the domain center; estimates pinned to the boundary
    are flagged.
    """
    counts = np.asarray(counts)
    if counts.sum() < 1:
        raise ValidationError("counts are empty")
    if grid_states is None:
        grid_states = _grid_states(channel)
    lo, hi = channel.domain[0]

    observed = counts > 0

    def loglik(t: float) -> float:
        rho = channel.output_matrix(np.array([t]))
        probs = np.clip(np.real(np.einsum("ij,mji->m", rho, povm.elements)), 0.0, None)
        with np.errstate(divide="ignore"):
            return float(np.sum(counts[observed] * np.log(probs[observed])))

    grid = np.linspace(lo, hi, MLE_GRID_POINTS)
    # One einsum per observed POVM element, stacked C-contiguous, adds up in
    # the order `loglik` does, so the grid values match it bit for bit; one
    # "gij,mji->gm" einsum, or a sum over a masked column view, does not.
    probs = np.stack(
        [np.einsum("gij,ji->g", grid_states, e) for e in povm.elements[observed]], axis=1
    )
    with np.errstate(divide="ignore"):
        values = np.sum(counts[observed] * np.log(np.clip(np.real(probs), 0.0, None)), axis=1)
    if not np.any(np.isfinite(values)):
        raise NumericError("log-likelihood is -inf over the entire search domain")
    best = np.max(values)
    ties = np.flatnonzero(values == best)
    center = 0.5 * (lo + hi)
    pick = int(ties[np.argmin(np.abs(grid[ties] - center))])
    a = grid[max(pick - 1, 0)]
    b = grid[min(pick + 1, MLE_GRID_POINTS - 1)]
    theta_hat = _golden_max(loglik, a, b, MLE_REFINE_TOL) if b > a else float(grid[pick])
    width = hi - lo
    boundary = bool((theta_hat - lo) < 1e-6 * width or (hi - theta_hat) < 1e-6 * width)
    return MLEResult(float(theta_hat), loglik(float(theta_hat)), boundary)


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
) -> tuple[dict[str, float | None], list[str]]:
    """Variance floors 1/(N F), 1/(N H), 1/(N C) read from the curve at the true parameter."""
    warnings: list[str] = []
    h = sld_information(curve)
    c = sm_bound_spectral(curve)
    f = None
    if povm is not None:
        try:
            f = fisher_information(curve, povm)
        except SingularTermError as exc:
            warnings.append(f"Fisher information singular: {exc}")
    bounds: dict[str, float | None] = {
        "fisher": None if f is None or f < UNINFORMATIVE_FLOOR else 1.0 / (shots * f),
        "sld": None if h < UNINFORMATIVE_FLOOR else 1.0 / (shots * h),
        "channel_bound": None if c < UNINFORMATIVE_FLOOR else 1.0 / (shots * c),
    }
    if f is not None and f < UNINFORMATIVE_FLOOR:
        warnings.append("measurement is uninformative at theta_true (Fisher information ~ 0)")
    return bounds, warnings


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
    states = _grid_states(channel)
    estimates = []
    first_counts = None
    for rep in range(replications):
        counts = sample_outcomes(rho, povm, shots, replication_seed(seed, rep))
        if first_counts is None:
            first_counts = counts
        estimates.append(mle_estimate(channel, povm, counts, grid_states=states).theta_hat)
    estimates = np.array(estimates)
    variance = float(np.var(estimates, ddof=1))
    if curve is None:
        curve = spectral_curve(channel, theta_true)
    bounds, _ = predicted_bounds(curve, povm, shots)
    ratios = {
        key: (None if floor is None else variance / floor) for key, floor in bounds.items()
    }
    return EstimationRun(
        channel_id=channel.name,
        theta_true=float(theta_true),
        povm_id=povm_id,
        shots=shots,
        seed=seed,
        counts=tuple(int(c) for c in first_counts),
        theta_hat=float(estimates[0]),
        predicted_bounds=bounds,
        empirical_variance=variance,
        variance_ratios=ratios,
        replications=replications,
        theta_hats=tuple(float(t) for t in estimates),
        bias=float(np.mean(estimates) - theta_true),
    )


def _two_stage(
    channel: ParametricChannel,
    theta_true: float,
    shots: int,
    config: AdaptiveConfig,
    seed: int,
    grid_states: np.ndarray,
) -> tuple[EstimationRun, POVM]:
    """One adaptive run without its variance floors, and its stage-2 POVM.

    Both stages score their scan grid from the shared `grid_states`.
    """
    if config.n_pilot >= shots:
        raise ValidationError(f"n_pilot {config.n_pilot} must be below shots {shots}")
    pilot_povm = computational_basis_povm(channel.dim)
    rho_true = channel.output_state(np.array([theta_true]))
    pilot_counts = sample_outcomes(rho_true, pilot_povm, config.n_pilot, seed)
    pilot = mle_estimate(channel, pilot_povm, pilot_counts, grid_states=grid_states)
    lo, hi = channel.domain[0]
    margin = DEFAULT_DIFF.max_offset if channel.is_kraus_form else 0.0
    pivot = float(np.clip(pilot.theta_hat, lo + margin, hi - margin))
    stage2_povm = optimal_povm_from_sld(sld_score(spectral_curve(channel, pivot)))
    n2 = shots - config.n_pilot
    counts2 = sample_outcomes(rho_true, stage2_povm, n2, seed ^ _STAGE2_SALT)
    final = mle_estimate(channel, stage2_povm, counts2, grid_states=grid_states)
    stages = (
        StageRecord(
            "pilot", config.n_pilot, tuple(int(c) for c in pilot_counts),
            pilot.theta_hat, pilot.boundary,
        ),
        StageRecord(
            f"sld-optimal@{pivot:.6g}", n2, tuple(int(c) for c in counts2),
            final.theta_hat, final.boundary,
        ),
    )
    run = EstimationRun(
        channel_id=channel.name,
        theta_true=float(theta_true),
        povm_id=f"adaptive({stages[1].povm_id})",
        shots=n2,
        seed=seed,
        counts=tuple(int(c) for c in counts2),
        theta_hat=final.theta_hat,
        predicted_bounds={},
        stages=stages,
        boundary=final.boundary,
    )
    return run, stage2_povm


def adaptive_two_stage(
    channel: ParametricChannel, theta_true: float, shots: int, config: AdaptiveConfig, seed: int
) -> EstimationRun:
    """Pilot measurement, then the SLD-optimal POVM at the pilot estimate.

    The pilot measures in the computational basis.  The final estimate uses
    the second-stage data only; both stages are recorded.  Bias of the pilot
    does not propagate beyond the choice of measurement basis.
    """
    run, stage2_povm = _two_stage(channel, theta_true, shots, config, seed, _grid_states(channel))
    curve = spectral_curve(channel, theta_true)
    bounds, _ = predicted_bounds(curve, stage2_povm, run.shots)
    return dataclasses.replace(run, predicted_bounds=bounds)


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

    The floors are those of the first replication's stage-2 POVM.  `curve`,
    the spectral curve at theta_true, is built after the first replication
    when not given.
    """
    if replications < 2:
        raise ValidationError("need at least 2 replications for a variance")
    states = _grid_states(channel)
    first, stage2_povm = _two_stage(
        channel, theta_true, shots, config, replication_seed(seed, 0), states
    )
    if curve is None:
        curve = spectral_curve(channel, theta_true)
    bounds, _ = predicted_bounds(curve, stage2_povm, first.shots)
    rest = [
        _two_stage(channel, theta_true, shots, config, replication_seed(seed, rep), states)[0]
        for rep in range(1, replications)
    ]
    estimates = np.array([run.theta_hat for run in (first, *rest)])
    variance = float(np.var(estimates, ddof=1))
    ratios = {
        key: (None if floor is None else variance / floor) for key, floor in bounds.items()
    }
    return dataclasses.replace(
        first,
        predicted_bounds=bounds,
        seed=seed,
        empirical_variance=variance,
        variance_ratios=ratios,
        replications=replications,
        theta_hats=tuple(float(t) for t in estimates),
        bias=float(np.mean(estimates) - theta_true),
    )


def _state_from_angles(x: np.ndarray, dim: int) -> PureState:
    mags = np.ones(dim)
    for i in range(dim - 1):
        mags[i] *= np.cos(x[i])
        mags[i + 1:] *= np.sin(x[i])
    phases = np.concatenate([[0.0], x[dim - 1:]])
    amps = mags * np.exp(1j * phases)
    return PureState(amps / np.linalg.norm(amps))


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
    derivs = kraus_derivative(channel, theta)
    if not np.all(np.isfinite(derivs)):
        raise NumericError(f"Kraus derivative at theta={theta!r} is not finite")
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


def _simplex_search(
    channel: ParametricChannel, theta, evaluate, restarts: int, seed: int
) -> tuple[PureState, float]:
    """Nelder-Mead over 2d - 2 angles, best of `restarts` seeded starts."""
    from scipy.optimize import minimize  # imported here: it is slow to import

    dim = channel.dim

    def cost(x: np.ndarray) -> float:
        try:
            candidate = channel.with_input_state(_state_from_angles(x, dim))
            return -evaluate(spectral_curve(candidate, theta))
        except (NumericError, ValidationError):
            return 1e9

    rng = rng_from_seed(seed)
    best_x, best_val = None, np.inf
    for _ in range(max(1, restarts)):
        x0 = np.concatenate(
            [rng.uniform(0.0, np.pi, dim - 1), rng.uniform(0.0, 2 * np.pi, dim - 1)]
        )
        res = minimize(
            cost,
            x0,
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12},
        )
        if res.fun < best_val:
            best_x, best_val = res.x, float(res.fun)
    if best_x is None or best_val >= 1e9:
        raise NumericError("every optimization start failed to evaluate the objective")
    return _state_from_angles(best_x, dim), -best_val


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
    ancilla reaches) the simplex search below runs, and the eigenvector
    replaces its result only if it beats it by more than that tolerance;
    `certified` then says whether the search closed the gap.

    The channel bound has no dual here: derivative-free simplex search over
    2d - 2 angles (global phase and norm fixed), best of `restarts` seeded
    starts.  Candidates whose evaluation hits a degeneracy are rejected and
    the search continues.  A theta closer to a domain edge than the stencil
    margin is refused up front with a ValidationError, as spectral_curve
    refuses it.
    """
    if not channel.is_kraus_form:
        raise ValidationError("input-state optimization needs a Kraus-form channel")
    key = objective.strip().lower()
    sld = key in ("sld", "h")
    if not sld and key not in ("channel-bound", "sm", "c", "bound"):
        raise ValidationError(f"unknown objective {objective!r}; use 'sld' or 'channel-bound'")
    if channel.param_count != 1:
        # both objectives are scalar bounds: refuse before decomposing
        raise ValidationError(
            "input-state optimization handles one-parameter channels, "
            f"got {channel.param_count} parameters"
        )
    # a candidate's curve needs the stencil margin; refuse here, not in every candidate
    channel.require_in_domain(theta, margin=DEFAULT_DIFF.max_offset)
    if not sld:
        return InputOptimum(*_simplex_search(channel, theta, sm_bound_spectral, restarts, seed))

    bound, psi = _sld_dual(channel, theta)
    slack = CERTIFY_TOL * max(1.0, bound)
    top = PureState(psi)
    try:
        at_top = sld_information(spectral_curve(channel.with_input_state(top), theta))
    except (NumericError, ValidationError):
        at_top = -np.inf
    if at_top >= bound - slack:
        return InputOptimum(top, at_top, bound, True)
    state, value = _simplex_search(channel, theta, sld_information, restarts, seed)
    if at_top > value + slack:
        state, value = top, at_top
    return InputOptimum(state, value, bound, value >= bound - slack)
