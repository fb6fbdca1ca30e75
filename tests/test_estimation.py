import dataclasses

import numpy as np
import pytest

from qfibounds.bounds import (
    optimal_povm_from_sld,
    sld_information,
    sld_score,
    sm_bound_spectral,
    spectral_curve,
)
from qfibounds.channels import ParametricChannel, builtin, random_kraus_channel
from qfibounds.errors import DegeneracyError, NumericError, ValidationError
from qfibounds import estimation
from qfibounds.channels import random_pure_state
from qfibounds.estimation import (
    CERTIFY_TOL,
    MLE_GRID_POINTS,
    AdaptiveConfig,
    adaptive_experiment,
    cr_experiment,
    mle_estimate,
    optimize_input_state,
    replication_seed,
    sample_outcomes,
)
from qfibounds.quantum import (
    POVM,
    PureState,
    computational_basis_povm,
    pauli_basis_povm,
)

PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
XPOVM = pauli_basis_povm("x")


def grid_states(ch):
    """The scan grid's output states, built here independently of the module."""
    grid = np.linspace(*ch.domain[0], MLE_GRID_POINTS)
    return np.stack([ch.output_matrix(np.array([t])) for t in grid])


def test_sample_outcomes_deterministic_state():
    ket0 = PureState(np.array([1.0, 0.0]))
    counts = sample_outcomes(ket0.density(), computational_basis_povm(2), 100, seed=1)
    assert counts.tolist() == [100, 0]


def test_sample_outcomes_seed_contract():
    rho = builtin("dephasing").output_state(0.2)
    a = sample_outcomes(rho, XPOVM, 1000, seed=42)
    b = sample_outcomes(rho, XPOVM, 1000, seed=42)
    c = sample_outcomes(rho, XPOVM, 1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_outcomes_law_of_large_numbers():
    rho = builtin("dephasing").output_state(0.2)
    n = 100_000
    counts = sample_outcomes(rho, XPOVM, n, seed=5)
    sigma = np.sqrt(0.8 * 0.2 / n)
    assert abs(counts[0] / n - 0.8) < 3 * sigma


def test_mle_binomial_closed_form():
    ch = builtin("dephasing")
    res = mle_estimate(ch, XPOVM, np.array([80, 20]))
    assert res.theta_hat == pytest.approx(0.2, abs=1e-7)
    assert not res.boundary


def test_mle_boundary_flag():
    ch = builtin("dephasing")
    res = mle_estimate(ch, XPOVM, np.array([100, 0]))
    assert res.theta_hat == pytest.approx(0.0, abs=1e-6)
    assert res.boundary


def test_mle_flat_likelihood_picks_center():
    ch = builtin("dephasing")
    for extra in ({}, {"grid_states": grid_states(ch)}):
        res = mle_estimate(ch, computational_basis_povm(2), np.array([50, 50]), **extra)
        assert abs(res.theta_hat - 0.5) < 0.02


def test_mle_impossible_counts():
    # z rotation leaves |0> fixed, so outcome |1> never occurs in this basis
    ch = builtin("rotation", axis="z", input_state=PureState(np.array([1.0, 0.0])))
    for extra in ({}, {"grid_states": grid_states(ch)}):
        with pytest.raises(NumericError, match="-inf"):
            mle_estimate(ch, computational_basis_povm(2), np.array([0, 10]), **extra)


def test_mle_asymptotic_consistency():
    ch = builtin("dephasing")
    theta_true = 0.2
    n = 100_000
    counts = sample_outcomes(ch.output_state(theta_true), XPOVM, n, seed=11)
    res = mle_estimate(ch, XPOVM, counts)
    fisher = 1 / (theta_true * (1 - theta_true))
    assert abs(res.theta_hat - theta_true) < 3 / np.sqrt(n * fisher)


def test_cr_experiment_ratios():
    ch = builtin("dephasing")
    run = cr_experiment(ch, 0.2, XPOVM, shots=10_000, replications=200, seed=7, povm_id="x")
    assert run.replications == 200
    assert sum(run.counts) == 10_000
    assert 0.85 < run.variance_ratios["sld"] < 1.15
    assert run.variance_ratios["channel_bound"] >= 0.85  # C >= H transfers to floors
    assert run.empirical_variance >= 0


def test_cr_experiment_uninformative_povm():
    ch = builtin("dephasing")
    run = cr_experiment(
        ch, 0.2, computational_basis_povm(2), shots=500, replications=5, seed=3, povm_id="z"
    )
    assert run.predicted_bounds["fisher"] is None
    assert run.variance_ratios["fisher"] is None


def test_cr_experiment_determinism():
    ch = builtin("dephasing")
    a = cr_experiment(ch, 0.2, XPOVM, 1000, 10, seed=9)
    b = cr_experiment(ch, 0.2, XPOVM, 1000, 10, seed=9)
    assert a == b
    assert a.theta_hats == b.theta_hats


@pytest.mark.parametrize(
    "ch, theta",
    [
        (builtin("dephasing"), 0.3),
        (builtin("amplitude-damping"), 0.6),
        (random_kraus_channel(dim=4, env=2, seed=77), 0.2),
    ],
    ids=["dephasing", "amplitude-damping", "random-kraus"],
)
def test_cr_experiment_matches_fresh_mle(ch, theta):
    povm = optimal_povm_from_sld(sld_score(spectral_curve(ch, theta)))
    shots, seed = 2000, 17
    run = cr_experiment(ch, theta, povm, shots, 6, seed)
    rho = ch.output_state(np.array([theta]))
    for rep, theta_hat in enumerate(run.theta_hats):
        counts = sample_outcomes(rho, povm, shots, replication_seed(seed, rep))
        assert theta_hat == mle_estimate(ch, povm, counts).theta_hat


def test_experiments_tabulate_the_grid_once(monkeypatch):
    calls = []
    original = ParametricChannel.output_matrix
    monkeypatch.setattr(
        ParametricChannel,
        "output_matrix",
        lambda self, *args, **kwargs: calls.append(1) or original(self, *args, **kwargs),
    )
    ch = builtin("dephasing")
    # The grid in one call, the true state once, then one stacked call per
    # refinement step for all replications: the count does not grow with reps.
    counts = {}
    for reps in (3, 10):
        calls.clear()
        cr_experiment(ch, 0.2, XPOVM, 1000, reps, seed=5)
        fixed = len(calls)
        calls.clear()
        adaptive_experiment(ch, 0.2, 1000, AdaptiveConfig(n_pilot=200), reps, seed=5)
        counts[reps] = (fixed, len(calls))
    assert counts[3] == counts[10]
    fixed, adaptive = counts[10]
    # a few Newton steps and the final values per stage, not a golden section's 30-odd
    assert 0 < fixed <= 2 + 6
    assert 0 < adaptive <= 2 + 12


def _phase_damping() -> ParametricChannel:
    """E_0 = diag(1, sqrt(1-t)), E_1 = diag(0, sqrt(t)) on |+>: <0|rho|0> = 1/2 at every t."""

    def kraus(theta):
        t = theta[..., 0]
        ops = np.zeros(t.shape + (2, 2, 2), dtype=complex)
        ops[..., 0, 0, 0], ops[..., 0, 1, 1], ops[..., 1, 1, 1] = 1.0, np.sqrt(1 - t), np.sqrt(t)
        return ops

    def grad(theta, index):
        t = theta[..., 0]
        ops = np.zeros(t.shape + (2, 2, 2), dtype=complex)
        ops[..., 0, 1, 1], ops[..., 1, 1, 1] = -0.5 / np.sqrt(1 - t), 0.5 / np.sqrt(t)
        return ops

    return ParametricChannel("phase-damping", 2, 1, ((0.0, 1.0),), PLUS, kraus, grad)


ZPOVM = computational_basis_povm(2)
# Z and X projectors at half weight: outcome 0 reads <0|rho|0> / 2, flat for phase damping
MIXED = POVM(np.concatenate([ZPOVM.elements, XPOVM.elements]) / 2)


def _padded(povm: POVM, k: int) -> np.ndarray:
    return np.concatenate([povm.elements, np.zeros((k - len(povm), 2, 2))])


@pytest.mark.parametrize("per_row", [False, True], ids=["one-povm", "povm-per-row"])
def test_stacked_mle_rows_match_single_row_calls(monkeypatch, per_row):
    ch = _phase_damping()
    if per_row:
        povms = [ZPOVM, XPOVM, MIXED, MIXED]
        counts = [[10, 0], [80, 20], [0, 0, 100, 0], [0, 0, 70, 30]]
        povm = np.array([_padded(p, 4) for p in povms])
    else:
        povms = [MIXED] * 4
        counts = [[10, 0, 0, 0], [5, 5, 60, 40], [0, 0, 100, 0], [0, 0, 70, 30]]
        povm = MIXED
    flat, edge = 0, 2  # the flat row's grid ties everywhere; the edge row's maximum is at 0
    stack = np.array([np.pad(c, (0, 4 - len(c))) for c in counts])
    sizes = []
    with monkeypatch.context() as patch:
        original = ParametricChannel.output_matrix
        patch.setattr(
            ParametricChannel, "output_matrix",
            lambda self, theta: sizes.append(len(theta)) or original(self, theta),
        )
        stacked = mle_estimate(ch, povm, stack)
    for row, (p, c) in enumerate(zip(povms, counts)):
        alone = mle_estimate(ch, p, np.array(c))
        assert stacked.theta_hat[row] == alone.theta_hat
        assert stacked.log_likelihood[row] == alone.log_likelihood
        assert stacked.boundary[row] == alone.boundary
    assert stacked.boundary.tolist() == [False, False, True, False]
    assert stacked.theta_hat[edge] < 1e-7
    assert abs(stacked.theta_hat[flat] - 0.5) <= 1 / (MLE_GRID_POINTS - 1)
    # grid, one score step per row still open, estimates: the flat row keeps
    # its grid pick and is never stepped, the two interior rows converge in a
    # few Newton steps, and the edge row then bisects toward 0 alone
    assert sizes[:2] == [MLE_GRID_POINTS, 3] and sizes[-1] == 4
    steps = sizes[1:-1]
    assert steps == sorted(steps, reverse=True) and steps.count(3) <= 3
    assert steps[-1] == 1 and len(steps) <= 20


def test_mle_estimates_are_score_roots():
    # The Newton step -l'/l'' left at each estimate is far below MLE_REFINE_TOL.
    ch = random_kraus_channel(dim=4, env=2, seed=77)
    theta, shots, seed = 0.2, 10_000, 17
    povm = optimal_povm_from_sld(sld_score(spectral_curve(ch, theta)))
    run = cr_experiment(ch, theta, povm, shots, 24, seed)
    rho = ch.output_state(np.array([theta]))

    def score(t, counts):
        p = np.einsum("ij,kji->k", ch.output_matrix([t]), povm.elements).real
        dp = np.einsum("ij,kji->k", ch.output_partials([t])[0], povm.elements).real
        return np.sum(counts * dp / p)

    for rep, theta_hat in enumerate(run.theta_hats):
        counts = sample_outcomes(rho, povm, shots, replication_seed(seed, rep))
        curvature = (score(theta_hat + 1e-6, counts) - score(theta_hat - 1e-6, counts)) / 2e-6
        assert curvature < 0
        assert abs(score(theta_hat, counts) / curvature) <= 1e-10


def test_example1_fixed_and_adaptive_estimates():
    # a spectral-form family: its output partials come from the spectral data
    ch, theta, reps = builtin("example1"), 0.4, 24
    povm = optimal_povm_from_sld(sld_score(spectral_curve(ch, theta)))
    fixed = cr_experiment(ch, theta, povm, 10_000, reps, seed=3)
    adaptive = adaptive_experiment(ch, theta, 10_000, AdaptiveConfig(n_pilot=500), reps, seed=3)
    for run in (fixed, adaptive):
        assert len(run.theta_hats) == reps and not run.boundary
        assert abs(run.bias) < 5 * np.sqrt(run.empirical_variance / reps)
        # a chi-square window of 23 degrees of freedom holding with probability 1 - 2e-6
        assert 0.2 < run.variance_ratios["sld"] < 2.8
    rho = ch.output_state(np.array([theta]))
    for rep, theta_hat in enumerate(fixed.theta_hats[:4]):
        counts = sample_outcomes(rho, povm, 10_000, replication_seed(3, rep))
        assert theta_hat == mle_estimate(ch, povm, counts).theta_hat


def test_mle_at_a_dephasing_edge_never_takes_the_partial_at_the_edge(monkeypatch):
    # dephasing's Kraus partial diverges at 0 and 1, where _finite_kraus refuses it
    ch, seen = builtin("dephasing"), []
    original = ParametricChannel.output_partials
    monkeypatch.setattr(
        ParametricChannel, "output_partials",
        lambda self, theta: seen.append(np.ravel(theta)) or original(self, theta),
    )
    for counts, edge in (([100, 0], 0.0), ([0, 100], 1.0)):
        res = mle_estimate(ch, XPOVM, np.array(counts))
        assert res.boundary and abs(res.theta_hat - edge) <= 1e-8
    points = np.concatenate(seen)
    assert points.size and ((0.0 < points) & (points < 1.0)).all()


def test_stacked_mle_names_the_replication_of_an_impossible_row():
    # z rotation leaves |0> fixed, so outcome |1> never occurs in this basis
    ch = builtin("rotation", axis="z", input_state=PureState(np.array([1.0, 0.0])))
    counts = np.array([[10, 0], [0, 10]])
    with pytest.raises(NumericError, match=r"-inf .* for replication 1 \(seed 12\)$"):
        mle_estimate(ch, ZPOVM, counts, seeds=[11, 12])


def test_adaptive_names_the_replication_of_a_refused_pivot():
    # Replication 18's pilot lands where a Gram weight sits at the support boundary.
    ch = random_kraus_channel(dim=4, env=2, seed=8323093291234078290)
    seed, config = 5124073795492520131, AdaptiveConfig(n_pilot=500)
    expected = r"replication 18 \(seed 5124073795492520145\), pivot theta 8\.66\d*e-05: .*support"
    with pytest.raises(DegeneracyError, match=expected):
        adaptive_experiment(ch, -0.033683, 10_000, config, 19, seed)
    with pytest.raises(DegeneracyError, match="support boundary"):
        adaptive_experiment(ch, -0.033683, 10_000, config, 2, replication_seed(seed, 18))


def test_replication_seed_xor():
    assert replication_seed(5, 0) == 5
    assert replication_seed(5, 3) == 5 ^ 3


def test_adaptive_two_stage_record():
    # replication 0 draws from seed ^ 0 = seed, and the record is its run
    ch = builtin("dephasing")
    run = adaptive_experiment(ch, 0.2, 2000, AdaptiveConfig(n_pilot=500), 2, seed=13)
    assert len(run.stages) == 2
    assert run.stages[0].povm_id == "pilot"
    assert run.stages[0].shots == 500
    assert run.stages[1].shots == 1500
    assert sum(run.counts) == 1500  # final estimate uses stage-2 data only
    assert run.povm_id.startswith("adaptive(")


def test_adaptive_degenerate_split_runs():
    ch = builtin("dephasing")
    run = adaptive_experiment(ch, 0.3, 50, AdaptiveConfig(n_pilot=49), 2, seed=2)
    assert run.stages[1].shots == 1
    with pytest.raises(ValidationError, match="below shots"):
        adaptive_experiment(ch, 0.3, 50, AdaptiveConfig(n_pilot=50), 2, seed=2)


def test_adaptive_experiment_efficiency():
    ch = builtin("dephasing")
    n, n_pilot = 10_000, 500
    run = adaptive_experiment(ch, 0.2, n, AdaptiveConfig(n_pilot=n_pilot), 200, seed=7)
    h = sld_information(spectral_curve(ch, 0.2))
    floor = 1 / ((n - n_pilot) * h)
    assert abs(run.empirical_variance / floor - 1) < 0.15
    assert run.predicted_bounds["sld"] == pytest.approx(floor, rel=1e-9)


def test_adaptive_experiment_computes_the_floors_once(monkeypatch):
    from qfibounds import estimation

    calls = []
    original = estimation.predicted_bounds
    monkeypatch.setattr(
        estimation, "predicted_bounds", lambda *args: calls.append(args) or original(*args)
    )
    ch = builtin("dephasing")
    config = AdaptiveConfig(n_pilot=200)
    run = adaptive_experiment(ch, 0.2, 1000, config, 5, seed=3)
    assert len(calls) == 1
    first = adaptive_experiment(ch, 0.2, 1000, config, 2, replication_seed(3, 0))
    assert run.predicted_bounds == first.predicted_bounds
    assert run.theta_hats[0] == first.theta_hat


def test_rotation_adaptive_unit_information():
    # restrict to an identifiable window: cos^2(theta/2) aliases +-theta
    ch = dataclasses.replace(builtin("rotation", axis="x"), domain=((0.05, 3.0),))
    run = adaptive_experiment(ch, 0.4, 4000, AdaptiveConfig(n_pilot=400), 100, seed=21)
    floor = 1 / ((4000 - 400) * 1.0)  # H = C = 1 for this family
    assert abs(run.empirical_variance / floor - 1) < 0.25


def test_optimize_input_rotation_sld():
    ch = builtin("rotation", axis="z")
    result = optimize_input_state(ch, 0.3, "sld", restarts=6, seed=1)
    assert result.value == pytest.approx(1.0, abs=1e-6)
    # optimum sits on the equator: equal magnitudes
    mags = np.abs(result.state.amplitudes)
    assert np.allclose(mags, [np.sqrt(0.5)] * 2, atol=1e-4)


def test_optimize_input_rotation_bound_is_flat():
    ch = builtin("rotation", axis="z")
    result = optimize_input_state(ch, 0.3, "channel-bound", restarts=3, seed=2)
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.ancilla_bound is None and result.certified is None


def test_optimize_input_dephasing_beats_grid_scan():
    ch = builtin("dephasing")
    theta = 0.3
    value = optimize_input_state(ch, theta, "sld", restarts=6, seed=3).value
    assert value == pytest.approx(1 / (theta * (1 - theta)), rel=1e-6)
    # random-state scan oracle: the optimizer must not fall short of it.  The
    # draws are those of 10,000 successive `normal(size=2)` real and imaginary
    # pairs.  For a qubit, H = |r'|^2 + (r.r')^2 / (1 - |r|^2) in Bloch vectors;
    # dephasing maps (x, y, z) to r = ((1-2t)x, (1-2t)y, z), r' = (-2x, -2y, 0).
    draws = np.random.default_rng(0).normal(size=(10_000, 2, 2))
    amps = draws[:, 0] + 1j * draws[:, 1]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    coherence = amps[:, 0] * amps[:, 1].conj()
    x, y = 2 * coherence.real, -2 * coherence.imag
    z = np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2
    r = np.stack([(1 - 2 * theta) * x, (1 - 2 * theta) * y, z], axis=1)
    dr = np.stack([-2 * x, -2 * y, np.zeros_like(x)], axis=1)
    r_dr, dr_dr = np.sum(r * dr, axis=1), np.sum(dr * dr, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scan = np.where(dr_dr > 0, dr_dr + r_dr**2 / (1 - np.sum(r * r, axis=1)), 0.0)
    best_scan = float(np.max(scan))
    assert best_scan > 4.7
    assert value >= best_scan - 1e-6


def test_optimize_input_rejects_objective():
    with pytest.raises(ValidationError, match="unknown objective"):
        optimize_input_state(builtin("dephasing"), 0.3, "entropy")


def test_optimize_input_fails_on_two_parameters_without_decomposing(monkeypatch):
    from qfibounds import bounds

    def refuse(*args):
        raise AssertionError("decomposed a point")

    monkeypatch.setattr(bounds, "canonical_kraus", refuse)
    channel = random_kraus_channel(dim=3, env=2, seed=11, param_count=2)
    for objective in ("sld", "channel-bound"):
        with pytest.raises(ValidationError, match="one-parameter channels, got 2 parameters"):
            optimize_input_state(channel, [0.3, 0.4], objective, restarts=1)


def h_at(channel, state, theta):
    return sld_information(spectral_curve(channel.with_input_state(state), theta))


@pytest.mark.parametrize(
    "channel, theta",
    [
        (builtin("amplitude-damping"), 0.3),
        (builtin("dephasing"), 0.3),
        (builtin("depolarizing"), 0.3),
        (random_kraus_channel(dim=3, env=2, seed=2), 0.2),
    ],
    ids=["amplitude-damping", "dephasing", "depolarizing", "random-kraus-3-2"],
)
def test_ancilla_bound_caps_h_at_random_inputs(channel, theta):
    # weak duality: 4 lambda_max(alpha_h) bounds H at every input
    bound = optimize_input_state(channel, theta, "sld", restarts=1).ancilla_bound
    rng = np.random.default_rng(64)
    values = [h_at(channel, random_pure_state(channel.dim, rng), theta) for _ in range(64)]
    assert max(values) > 0.1 * bound
    assert bound >= max(values) - 1e-12 * max(1.0, bound)


def test_optimize_input_certifies_amplitude_damping():
    theta = 0.3
    result = optimize_input_state(builtin("amplitude-damping"), theta, "sld")
    exact = 1 / (theta * (1 - theta))
    assert result.certified is True
    assert result.ancilla_bound == pytest.approx(exact, abs=1e-12)
    assert result.value == pytest.approx(exact, abs=1e-12)
    # the excited state, with its global phase fixed
    assert np.allclose(result.state.amplitudes, [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize(
    "channel",
    [builtin("amplitude-damping")]
    + [
        random_kraus_channel(dim=d, env=e, seed=2)
        for d, e in [(2, 2), (4, 2), (6, 3), (8, 2), (8, 8)]
    ],
    ids=["amplitude-damping", "rk-2-2", "rk-4-2", "rk-6-3", "rk-8-2", "rk-8-8"],
)
def test_certified_run_builds_one_curve_and_no_search(monkeypatch, channel):
    theta = 0.3 if channel.name == "amplitude-damping" else 0.2
    calls = {"curves": 0, "searches": 0}
    curve_fn, search = estimation.spectral_curve, estimation._input_search

    def counted_curve(*args):
        calls["curves"] += 1
        return curve_fn(*args)

    def counted_search(*args):
        calls["searches"] += 1
        return search(*args)

    monkeypatch.setattr(estimation, "spectral_curve", counted_curve)
    monkeypatch.setattr(estimation, "_input_search", counted_search)
    result = optimize_input_state(channel, theta, "sld", restarts=1)
    assert result.certified is True
    assert calls["searches"] == 0
    assert calls["curves"] <= 2
    assert result.state.dim == channel.dim
    assert result.value == h_at(channel, result.state, theta)
    assert result.value >= result.ancilla_bound - CERTIFY_TOL * max(1.0, result.ancilla_bound)


@pytest.mark.parametrize(
    "channel", [builtin("amplitude-damping"), random_kraus_channel(dim=3, env=2, seed=11)],
    ids=["amplitude-damping", "random-kraus"],
)
def test_channel_bound_search_evaluates_the_family_once_per_curve(monkeypatch, channel):
    calls = {"kraus": 0, "curves": 0}
    kraus_fn, curve_fn = channel.kraus_fn, estimation.spectral_curve

    def counted_kraus(theta):
        calls["kraus"] += 1
        return kraus_fn(theta)

    def counted_curve(*args):
        calls["curves"] += 1
        return curve_fn(*args)

    channel = dataclasses.replace(channel, kraus_fn=counted_kraus)
    monkeypatch.setattr(estimation, "spectral_curve", counted_curve)
    optimize_input_state(channel, 0.3, "channel-bound", restarts=1)
    # every stacked step, and the final point call, evaluates the family once
    assert calls["curves"] > 2
    assert calls["kraus"] == calls["curves"]


def test_channel_bound_value_is_the_point_call_at_the_returned_state():
    channel, theta = builtin("amplitude-damping"), 0.3
    result = optimize_input_state(channel, theta, "channel-bound", restarts=2, seed=0)
    at_state = sm_bound_spectral(spectral_curve(channel.with_input_state(result.state), theta))
    assert result.value == at_state


@pytest.mark.parametrize("dim", [3, 4])
def test_channel_bound_beats_random_inputs(dim):
    channel, theta = random_kraus_channel(dim=dim, env=2, seed=2), 0.3
    value = optimize_input_state(channel, theta, "channel-bound").value
    rng = np.random.default_rng(64)
    inputs = [channel.with_input_state(random_pure_state(dim, rng)) for _ in range(64)]
    best = max(sm_bound_spectral(spectral_curve(c, theta)) for c in inputs)
    assert value >= best - 1e-9 * max(1.0, best)


def test_optimize_input_depolarizing_needs_an_ancilla():
    # The maximally entangled input with an ancilla reaches 100/31; the best
    # pure input without one gives 100/51, so the gap stays open.
    result = optimize_input_state(builtin("depolarizing"), 0.3, "sld", restarts=1)
    assert result.certified is False
    assert result.ancilla_bound == pytest.approx(100 / 31, rel=1e-12)
    assert result.value == pytest.approx(100 / 51, rel=1e-6)
