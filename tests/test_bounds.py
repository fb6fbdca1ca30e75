import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from qfibounds import bounds
from qfibounds.bounds import (
    DEGENERACY_TOL,
    BoundReport,
    attainability_check,
    bound_gap,
    bound_report,
    canonical_kraus,
    fisher_information,
    optimal_povm_from_sld,
    povm_sld_condition_check,
    povm_sm_condition_check,
    sld_information,
    sld_score,
    sm_bound_kraus,
    sm_bound_spectral,
    spectral_curve,
    unitary_condition,
)
from qfibounds.channels import (
    builtin,
    custom_spectral,
    random_hermitian,
    random_kraus_channel,
    random_pure_state,
)
from qfibounds.errors import (
    ConsistencyError,
    DegeneracyError,
    NumericError,
    SingularTermError,
    ValidationError,
)
from qfibounds.linalg import cluster_labels, hermitian_eigendecompose, max_abs
from qfibounds.quantum import POVM, PureState, computational_basis_povm, pauli_basis_povm
from qfibounds.verify import one_param_battery, random_povm, two_param_battery

from oracles import (
    fisher_by_outcome,
    random_unitary,
    remix_channel,
    remixing_penalty,
    sld_condition_by_element,
    sm_condition_by_element,
)

PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
KET0 = PureState(np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Independent oracle: H from the raw state family, straight from the
# defining equation, with no spectral-curve machinery involved.
# ---------------------------------------------------------------------------

def sld_information_from_state(rho_fn, theta: float, h: float = 1e-5) -> float:
    rho = rho_fn(theta)
    drho = (
        8 * (rho_fn(theta + h) - rho_fn(theta - h))
        - (rho_fn(theta + 2 * h) - rho_fn(theta - 2 * h))
    ) / (12 * h)
    vals, vecs = np.linalg.eigh(rho)
    total = 0.0
    for j in range(len(vals)):
        for k in range(len(vals)):
            s = vals[j] + vals[k]
            if s > 1e-12:
                total += 2 * abs(vecs[:, j].conj() @ drho @ vecs[:, k]) ** 2 / s
    return total


def fisher_from_state(rho_fn, povm: POVM, theta, h: float = 1e-5) -> np.ndarray:
    """(m, m) Fisher matrix from outcome probabilities of the raw state family,
    each partial a central difference along one axis."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))

    def probs(t):
        return np.real([np.trace(rho_fn(t) @ e) for e in povm.elements])

    dprobs = np.array([
        (8 * (probs(theta + h * e) - probs(theta - h * e))
         - (probs(theta + 2 * h * e) - probs(theta - 2 * h * e))) / (12 * h)
        for e in np.eye(len(theta))
    ])
    return (dprobs / probs(theta)) @ dprobs.T


def sld_matrix_from_state(rho_fn, theta, h: float = 1e-5) -> np.ndarray:
    """(m, m) H_lm = Re tr(rho L_l L_m), each L_l the pseudo-inverse solution of
    rho L + L rho = 2 d_l rho, d_l rho a central difference along one axis."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    rho = rho_fn(theta)
    d = rho.shape[0]
    lyapunov = np.kron(rho, np.eye(d)) + np.kron(np.eye(d), rho.T)  # row-major vec
    scores = []
    for e in np.eye(len(theta)):
        drho = (
            8 * (rho_fn(theta + h * e) - rho_fn(theta - h * e))
            - (rho_fn(theta + 2 * h * e) - rho_fn(theta - 2 * h * e))
        ) / (12 * h)
        vec = np.linalg.pinv(lyapunov, rcond=1e-10) @ (2 * drho).ravel()
        scores.append(vec.reshape(d, d))
    return np.real(np.einsum("ij,ljk,mki->lm", rho, scores, scores))


# ---------------------------------------------------------------------------
# Independent oracle: the canonical Kraus derivative as a central difference
# of Gram eigenvectors, each stencil point aligned to the centre by maximal
# overlap.  It shares no code with the analytic parallel-transport route.
# ---------------------------------------------------------------------------

STENCIL = {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}


def _gram_eigensystem(channel, t: float, psi: np.ndarray):
    ops = channel.kraus_matrices(np.array([t]))
    vs = ops @ psi
    vals, vecs = np.linalg.eigh(vs @ vs.conj().T)
    return ops, vals, vecs


def stencil_canonical_kraus(channel, theta: float, h: float = 1e-4):
    """(weights, eigenvectors, canonical derivatives) by a 4-point stencil."""
    psi = channel.input_state.amplitudes
    _, vals, center = _gram_eigensystem(channel, theta, psi)
    deriv = 0.0
    for k, weight in STENCIL.items():
        ops, _, vecs = _gram_eigensystem(channel, theta + k * h, psi)
        overlaps = center.conj().T @ vecs
        rows, cols = linear_sum_assignment(-np.abs(overlaps))
        z = overlaps[rows, cols]
        aligned = vecs[:, cols] * np.where(np.abs(z) > 0, np.conj(z) / np.abs(z), 1.0)
        deriv = deriv + (weight / h) * np.tensordot(aligned.conj().T, ops, axes=(1, 0))
    return vals, center, deriv


def assert_matches_stencil(channel, theta: float, rel: float = 1e-6):
    psi = channel.input_state.amplitudes
    vals, center, deriv = stencil_canonical_kraus(channel, theta)
    ck = canonical_kraus(channel, theta)
    supported = vals > 1e-10
    # Columns agree up to one constant phase each: oracle x_k = c_k x_k.
    phases = np.sum(ck.mixing.T * center, axis=0)[supported]
    ours = np.conj(phases)[:, np.newaxis] * (ck.derivatives[0] @ psi)[supported]
    oracle = (deriv @ psi)[supported]
    assert max_abs(ours - oracle) <= rel * max(1.0, max_abs(oracle))

    c_oracle = 4.0 * float(np.sum(np.abs(deriv @ psi) ** 2))
    h_oracle = sld_information_from_state(lambda t: channel.output_matrix(np.array([t])), theta)
    curve = spectral_curve(channel, theta)
    assert sld_information(curve) == pytest.approx(h_oracle, rel=rel)
    assert sm_bound_spectral(curve) == pytest.approx(c_oracle, rel=rel)
    rho0 = channel.input_state.density()
    assert sm_bound_kraus(ck.operators, ck.derivatives[0], rho0) == pytest.approx(c_oracle, rel=rel)


def test_canonical_derivatives_match_stencil_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        env = int(rng.integers(1, dim + 1))
        ch = random_kraus_channel(
            dim=dim, env=env, seed=int(rng.integers(2**31)), input_state=random_pure_state(dim, rng)
        )
        assert_matches_stencil(ch, float(rng.choice([-1, 1]) * rng.uniform(0.1, 0.6)))


@pytest.mark.parametrize("analytic", [True])  # every remixing carries an analytic derivative
def test_remixed_dephasing_crossing_is_continuous(analytic):
    """At theta = 0.5 the Gram eigenvalues of a theta-dependent remix of
    dephasing cross; the coupling inside the resolved cluster keeps C
    continuous there.  Just outside the cluster the eigenvectors are too
    ill-determined for a first-order derivative, and that is refused."""
    gen = np.array([[0.3, 0.7 - 0.2j], [0.7 + 0.2j, -0.1]])
    mix = lambda t: expm(-1j * t[0] * gen)
    dmix = lambda t, i: -1j * gen @ mix(t)
    ch = remix_channel(builtin("dephasing"), mix, dmix)
    c = {t: sm_bound_spectral(spectral_curve(ch, t)) for t in (0.5 - 1e-4, 0.5, 0.5 + 1e-4)}
    assert c[0.5] == pytest.approx(4.2, abs=1e-6)
    assert c[0.5] == pytest.approx((c[0.5 - 1e-4] + c[0.5 + 1e-4]) / 2, abs=1e-6)
    ck = canonical_kraus(ch, 0.5)
    c_kraus = sm_bound_kraus(ck.operators, ck.derivatives[0], ch.input_state.density())
    assert c_kraus == pytest.approx(4.2, abs=1e-6)
    with pytest.raises(DegeneracyError, match="too close"):
        spectral_curve(ch, 0.5 + 1e-8)


# ---------------------------------------------------------------------------
# Canonical Kraus decomposition
# ---------------------------------------------------------------------------

def test_canonical_dephasing_gram_already_diagonal():
    ch = builtin("dephasing")
    ck = canonical_kraus(ch, 0.2)
    assert np.allclose(sorted(ck.weights), [0.2, 0.8])
    # mixing is a (possibly permuted) identity: one unit entry per row
    assert np.allclose(np.sort(np.abs(ck.mixing).ravel()), [0, 0, 1, 1])


def test_canonical_unitary_single_operator():
    ch = builtin("rotation", axis="z")
    ck = canonical_kraus(ch, 0.3)
    assert ck.operators.shape[0] == 1
    assert np.allclose(ck.mixing, [[1.0]])
    assert np.allclose(ck.operators[0], ch.kraus_matrices(0.3)[0])


def test_canonical_recovers_hadamard_remixed_dephasing():
    """Brute-force Gram diagonalization oracle on a scrambled representation."""
    ch = builtin("dephasing")
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rem = remix_channel(ch, lambda t: had, lambda t, i: np.zeros((2, 2)))
    ck = canonical_kraus(rem, 0.2)
    psi = ch.input_state.amplitudes
    vs = rem.kraus_matrices(0.2) @ psi
    gram = vs @ vs.conj().T
    oracle = np.sort(np.linalg.eigvalsh(gram))
    assert np.allclose(ck.weights, oracle)
    assert np.allclose(sorted(ck.weights), [0.2, 0.8])
    canon_gram = (ck.operators @ psi) @ (ck.operators @ psi).conj().T
    assert max_abs(canon_gram - np.diag(np.diag(canon_gram))) < 1e-10


def test_canonical_kraus_keeps_the_domain_margin():
    # The margin is the central-4 stencil reach, 2e-4, and only a crossing runs
    # the stencil: depolarizing's weights 1 - t/2 and t/2 cross at the edge t = 1.
    with pytest.raises(DegeneracyError, match=r"cross at theta \[1\.0\], within 0\.0002"):
        canonical_kraus(builtin("depolarizing"), 1.0)
    ch = builtin("dephasing")
    for theta in (1e-4, 2e-4, 1 - 1e-4):
        assert canonical_kraus(ch, theta).weights == pytest.approx(sorted([theta, 1 - theta]))


def test_canonical_requires_kraus_form_and_input():
    with pytest.raises(ValidationError, match="no Kraus curve"):
        canonical_kraus(builtin("example1"), 0.5)


# ---------------------------------------------------------------------------
# Spectral curves
# ---------------------------------------------------------------------------

def test_spectral_curve_example1():
    curve = spectral_curve(builtin("example1"), 0.6)
    assert np.allclose(np.sort(curve.values), [0.0, 0.36, 0.64])
    o = curve.overlaps[0]
    idx = np.flatnonzero(curve.support)
    assert max_abs(o[np.ix_(idx, idx)]) < 1e-12


def test_spectral_curve_dephasing_fixed_eigenvectors():
    curve = spectral_curve(builtin("dephasing"), 0.2)
    assert np.allclose(np.sort(curve.values), [0.2, 0.8])
    assert max_abs(curve.vector_derivs) < 1e-9


def test_cached_curve_arrays_are_read_only():
    # one (d, d) matrix per parameter, for one parameter and for two
    points = ((builtin("amplitude-damping"), 0.3), (builtin("dephasing-2p"), [0.4, 0.3]))
    for channel, theta in points:
        curve = spectral_curve(channel, theta)
        m, d = channel.param_count, channel.dim
        assert curve.theta.shape == (m,)
        assert curve.value_derivs.shape == (m, d) and curve.vector_derivs.shape == (m, d, d)
        for cached in (curve.overlaps, curve.sld_score):
            assert cached.shape == (m, d, d)
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0, 0] = 0.0
        assert curve.overlaps is curve.overlaps and curve.sld_score is curve.sld_score


def test_scalar_functionals_refuse_a_two_parameter_curve():
    channel = builtin("dephasing-2p")
    curve = spectral_curve(channel, [0.4, 0.3])
    scalar = (sld_information, sm_bound_spectral, bound_gap, sld_score)
    for read in scalar:
        with pytest.raises(ValidationError, match="one-parameter curve"):
            read(curve)
    assert attainability_check(curve)[0]  # reads every parameter


def test_spectral_curve_rotation_gauge_overlap():
    """Canonical gauge keeps the phase of the unitary family: <w'|w> = i/2 on |0>."""
    curve = spectral_curve(builtin("rotation", axis="z"), 0.3)
    o = curve.overlaps[0]
    k = int(np.flatnonzero(curve.support)[0])
    assert o[k, k] == pytest.approx(0.5j, abs=1e-9)


def test_spectral_curve_derivatives_match_value_slopes():
    # dephasing eigenvalues are (theta, 1 - theta): slopes +- 1
    curve = spectral_curve(builtin("dephasing"), 0.3)
    order = np.argsort(curve.values)
    assert np.allclose(curve.value_derivs[0][order], [1.0, -1.0], atol=1e-9)


def test_dephasing_resolves_eigenvalue_crossing():
    """At theta = 0.5 the output is maximally mixed; the projected-derivative
    rotation keeps the curve well-defined through the crossing."""
    curve = spectral_curve(builtin("dephasing"), 0.5)
    h = sld_information(curve)
    assert h == pytest.approx(4.0, rel=1e-9)


# ---------------------------------------------------------------------------
# SLD score and information
# ---------------------------------------------------------------------------

def test_sld_score_dephasing_diagonal():
    curve = spectral_curve(builtin("dephasing"), 0.2)
    lam = sld_score(curve)
    assert np.allclose(np.linalg.eigvalsh(lam), [-1.25, 5.0], atol=1e-9)
    plus = PLUS.amplitudes
    assert plus.conj() @ lam @ plus == pytest.approx(-1.25, abs=1e-9)


def test_sld_score_rotation_vanishes():
    curve = spectral_curve(builtin("rotation", axis="z"), 0.3)
    assert max_abs(sld_score(curve)) < 1e-9


def test_sld_defining_equation_random_channels():
    for channel, theta in one_param_battery(seed=77, count=10):
        curve = spectral_curve(channel, theta)
        lam = sld_score(curve)
        rho = curve.state_matrix()
        drho = curve.state_partials()[0]
        assert max_abs(drho - 0.5 * (rho @ lam + lam @ rho)) < 1e-6


def test_sld_information_dephasing():
    assert sld_information(spectral_curve(builtin("dephasing"), 0.2)) == pytest.approx(
        6.25, rel=1e-9
    )


def test_sld_information_example1_state_oracle():
    """H of the rank-two rotating family, pinned by the from-the-state oracle:
    H(t) = 4 (1 + t^2) / (1 - t^2)."""
    ch = builtin("example1")

    def rho_fn(t):
        return ch.output_matrix(np.array([t]))

    for t in (0.2, 0.4, 0.6, 0.8):
        h = sld_information(spectral_curve(ch, t))
        assert h == pytest.approx(sld_information_from_state(rho_fn, t), rel=1e-7)
        assert h == pytest.approx(4 * (1 + t * t) / (1 - t * t), rel=1e-9)


def test_sld_information_rotation_eigenstate():
    assert sld_information(spectral_curve(builtin("rotation", axis="z"), 0.3)) < 1e-10


def test_pure_state_unitary_oracle():
    """For unitary families H = 4 (<dpsi|dpsi> - |<dpsi|psi>|^2)."""
    rng = np.random.default_rng(6)
    for seed in range(5):
        ch = random_kraus_channel(dim=3, env=1, seed=seed, input_state=random_pure_state(3, rng))
        theta = 0.37
        psi = ch.input_state.amplitudes
        u = ch.kraus_matrices(theta)[0]
        du = ch.kraus_partials(theta)[0][0]
        v, dv = u @ psi, du @ psi
        oracle = 4 * (np.vdot(dv, dv).real - abs(np.vdot(dv, v)) ** 2)
        h = sld_information(spectral_curve(ch, theta))
        assert h == pytest.approx(oracle, rel=1e-7, abs=1e-9)


# ---------------------------------------------------------------------------
# Channel bound, both routes
# ---------------------------------------------------------------------------

def test_sm_bound_dephasing_both_routes():
    ch = builtin("dephasing")
    curve = spectral_curve(ch, 0.2)
    assert sm_bound_spectral(curve) == pytest.approx(6.25, rel=1e-9)
    ck = canonical_kraus(ch, 0.2)
    c_kraus = sm_bound_kraus(ck.operators, ck.derivatives[0], ch.input_state.density())
    assert c_kraus == pytest.approx(6.25, rel=1e-9)


def test_sm_bound_rotation():
    ch = builtin("rotation", axis="z")
    assert sm_bound_spectral(spectral_curve(ch, 0.3)) == pytest.approx(1.0, rel=1e-9)
    rho0 = ch.input_state.density()
    c = sm_bound_kraus(ch.kraus_matrices(0.3), ch.kraus_partials(0.3)[0], rho0)
    assert c == pytest.approx(1.0, rel=1e-12)


def test_sm_bound_kraus_representation_dependence():
    """A theta-dependent remixing strictly inflates the representation bound."""
    ch = builtin("dephasing")
    gen = np.array([[0.0, 1.0], [1.0, 0.0]])
    mix = lambda t: expm(-1j * t[0] * gen)
    dmix = lambda t, i: -1j * gen @ expm(-1j * t[0] * gen)
    rem = remix_channel(ch, mix, dmix)
    rho0 = ch.input_state.density()
    c_e = sm_bound_kraus(rem.kraus_matrices(0.2), rem.kraus_partials(0.2)[0], rho0)
    assert c_e > 6.25 + 1e-3


def test_remixing_penalty_identity():
    """On an attainable channel the cross term of C_E vanishes: C_E - C is the penalty.

    Dephasing keeps its eigenvectors, so every supported overlap <w_j'|w_k>
    is zero and the measured C_E - C equals 4 sum p_k |du_jk|^2 alone.
    """
    ch = builtin("dephasing")
    theta = 0.2
    rng = np.random.default_rng(8)
    gen = random_hermitian(2, rng)
    mix = lambda t: expm(-1j * t[0] * gen)
    dmix = lambda t, i: -1j * gen @ expm(-1j * t[0] * gen)
    rem = remix_channel(ch, mix, dmix)
    rho0 = ch.input_state.density()
    ck = canonical_kraus(ch, theta)
    c_ups = sm_bound_kraus(ck.operators, ck.derivatives[0], rho0)
    c_e = sm_bound_kraus(rem.kraus_matrices(theta), rem.kraus_partials(theta)[0], rho0)
    du_canonical = dmix(np.array([theta]), 0) @ ck.mixing.conj().T
    penalty = remixing_penalty(du_canonical, ck.weights)
    assert c_e - c_ups == pytest.approx(penalty, rel=1e-6)


@pytest.mark.parametrize(
    "channel, theta",
    [
        (builtin("amplitude-damping"), 0.3),
        (random_kraus_channel(dim=3, env=3, seed=4), 0.2),
    ],
    ids=["amplitude-damping-plus", "random-kraus"],
)
def test_remixing_penalty_identity_fails_off_attainability(channel, theta):
    """Off attainability C_E - C is the penalty plus a cross term of either sign."""
    assert not attainability_check(spectral_curve(channel, theta))[0]
    ck = canonical_kraus(channel, theta)
    psi = channel.input_state.amplitudes
    rho0 = channel.input_state.density()
    h = random_hermitian(ck.operators.shape[0], np.random.default_rng(8))
    c = sm_bound_kraus(ck.operators, ck.derivatives[0], rho0)
    overlaps = (ck.derivatives[0] @ psi).conj() @ (ck.operators @ psi).T  # <Y_j' psi|Y_k psi>
    penalties, misses = [], []
    for du in (-1j * h, 1j * h):  # u = exp(-+i (t - theta) h), the identity at theta
        remixed = ck.derivatives[0] + np.tensordot(du, ck.operators, axes=(1, 0))
        c_e = sm_bound_kraus(ck.operators, remixed, rho0)
        cross = 8.0 * float(np.real(np.sum(du * overlaps)))
        penalties.append(remixing_penalty(du, ck.weights))
        misses.append(c_e - c - penalties[-1])
        assert misses[-1] == pytest.approx(cross, abs=1e-9)
    assert penalties[0] == penalties[1]
    assert min(misses) < -0.1 and max(misses) > 0.1  # C_E falls below C + penalty


# ---------------------------------------------------------------------------
# Gap and attainability
# ---------------------------------------------------------------------------

def test_gap_example1_vanishes():
    for t in (0.2, 0.5, 0.8):
        assert bound_gap(spectral_curve(builtin("example1"), t)) < 1e-12


def test_gap_rotation_on_pole():
    curve = spectral_curve(builtin("rotation", axis="z"), 0.3)
    assert bound_gap(curve) == pytest.approx(1.0, rel=1e-9)


def test_amplitude_damping_frozen_values():
    """theta = 0.5 on |+>: H = 3/2 (state-route oracle), C = 2, gap = 1/2."""
    ch = builtin("amplitude-damping")
    curve = spectral_curve(ch, 0.5)
    h = sld_information(curve)
    c = sm_bound_spectral(curve)
    gap = bound_gap(curve)
    assert h == pytest.approx(1.5, rel=1e-9)
    assert h == pytest.approx(
        sld_information_from_state(lambda t: ch.output_matrix(np.array([t])), 0.5), rel=1e-7
    )
    assert c == pytest.approx(2.0, rel=1e-9)
    assert gap == pytest.approx(c - h, abs=1e-10)
    attainable, residual = attainability_check(curve)
    assert not attainable and residual > 0.01
    assert residual == pytest.approx(1 / np.sqrt(2), rel=1e-6)


def test_attainability_examples():
    assert attainability_check(spectral_curve(builtin("example1"), 0.6), 1e-9) == (
        True,
        pytest.approx(0.0, abs=1e-10),
    )
    ok, residual = attainability_check(spectral_curve(builtin("dephasing"), 0.3))
    assert ok and residual < 1e-12


def _unitary_condition_at(channel, theta):
    return unitary_condition(channel, spectral_curve(channel, theta))


def test_unitary_attainability_examples():
    (value,), ok = _unitary_condition_at(builtin("rotation", axis="z"), 0.4)
    assert value == pytest.approx(0.5j, abs=1e-12) and not ok
    (value,), ok = _unitary_condition_at(
        builtin("rotation", axis="z", input_state=PLUS), 0.4
    )
    assert abs(value) < 1e-12 and ok
    (value,), ok = _unitary_condition_at(builtin("rotation", axis="x"), 0.4)
    assert abs(value) < 1e-12 and ok
    with pytest.raises(ValidationError, match="expected 1"):
        _unitary_condition_at(builtin("dephasing"), 0.4)
    # The condition is read at one point, as a report reads a POVM: a stack of
    # two points is not a two-operator channel, nor a stack of one a point.
    for thetas in ([[0.1], [0.2]], [[0.1]]):
        with pytest.raises(ValidationError, match="read at one point, not a stack"):
            _unitary_condition_at(builtin("rotation", axis="z"), thetas)


# ---------------------------------------------------------------------------
# Optimal POVMs and Fisher information
# ---------------------------------------------------------------------------

def test_optimal_povm_examples():
    lam = sld_score(spectral_curve(builtin("dephasing"), 0.2))
    povm = optimal_povm_from_sld(lam)
    probs = np.real([PLUS.amplitudes.conj() @ m @ PLUS.amplitudes for m in povm.elements])
    assert np.allclose(np.sort(probs), [0.0, 1.0], atol=1e-9)  # projectors onto |+->, |->

    povm = optimal_povm_from_sld(np.zeros((2, 2)))
    assert len(povm) == 1 and np.allclose(povm.elements[0], np.eye(2))

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    povm = optimal_povm_from_sld(sx)
    assert len(povm) == 2
    for m in povm.elements:
        assert max_abs(m @ sx - sx @ m) < 1e-12


def _same_bits(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_stacked_optimal_povms_are_the_lone_calls_bit_for_bit():
    # Scores with distinct eigenvalues, with a doubly degenerate zero (a pure output in d = 4)
    # and with a triply degenerate eigenvalue, in one call: each row holds its lone call's
    # elements, then zero elements up to the widest row.
    thetas = np.array([[0.3], [0.55]])
    pure = sld_score(spectral_curve(random_kraus_channel(dim=4, env=1, seed=5), thetas))
    mixed = sld_score(spectral_curve(random_kraus_channel(dim=4, env=2, seed=7), thetas))
    u = random_unitary(4, np.random.default_rng(3))
    triple = u @ np.diag([1.0, 1.0, 1.0, -3.0]) @ u.conj().T
    lam = np.concatenate([pure, mixed, triple[np.newaxis]])
    stacked = optimal_povm_from_sld(lam)
    lone = [optimal_povm_from_sld(score).elements for score in lam]
    assert [len(e) for e in lone] == [3, 3, 4, 4, 2] and stacked.shape == (5, 4, 4, 4)
    for row, elements in zip(stacked, lone):
        assert _same_bits(row[: len(elements)], elements)
        assert not row[len(elements):].any()
    # a refused row raises its lone call's message
    lam[3, 0, 1] += 1e-3
    with pytest.raises(ValidationError) as alone:
        optimal_povm_from_sld(lam[3])
    with pytest.raises(ValidationError) as together:
        optimal_povm_from_sld(lam)
    assert str(together.value) == str(alone.value)


def _optimal_povm_by_loop(lam: np.ndarray) -> np.ndarray:
    """One row's projectors cluster by cluster, as a per-row loop forms them."""
    sys = hermitian_eigendecompose(lam)
    labels = cluster_labels(sys.eigenvalues, DEGENERACY_TOL)
    blocks = [sys.eigenvectors[:, labels == c] for c in range(labels[-1] + 1)]
    return np.array([block @ block.conj().T for block in blocks])


def test_stacked_optimal_povm_rows_of_one_cluster_pattern_share_products():
    # Interleaved rows of four cluster patterns (distinct, a merged pair in front,
    # a merged pair behind, a merged triple): each pattern's rows take their
    # projectors in batched products, and every row keeps the bits of its lone
    # call and of a per-row loop.
    rng = np.random.default_rng(11)
    spectra = [[-2.0, -0.5, 1.0, 1.5], [0.5, 0.5, 1.0, 2.0], [-1.0, 0.0, 3.0, 3.0],
               [1.0, 1.0, 1.0, -3.0]]
    lam = np.array([(u * spectra[i % 4]) @ u.conj().T
                    for i, u in enumerate(random_unitary(4, rng) for _ in range(16))])
    stacked = optimal_povm_from_sld(lam)
    widths = [4, 3, 3, 2] * 4
    assert stacked.shape == (16, 4, 4, 4)
    for row, score, width in zip(stacked, lam, widths):
        lone, looped = optimal_povm_from_sld(score).elements, _optimal_povm_by_loop(score)
        assert len(lone) == width
        assert _same_bits(row[:width], lone) and _same_bits(lone, looped)
        assert not row[width:].any()


def test_stacked_fisher_rows_are_the_lone_calls_bit_for_bit():
    # Random states, partials and POVMs (one per row, and one for every row), with and
    # without a zero element appended.  With two parameters, the last row's first partial
    # is -I and its second vanishes, so each of its off-diagonal terms is -0.0, which a sum
    # from 0.0 leaves 0.0.  Each row of a stack holds its lone call's bits, which are those
    # of the outcome-by-outcome sum, the sign of zero included.
    rng = np.random.default_rng(41)
    for d, m in ((2, 1), (3, 2), (4, 1), (6, 2), (8, 2)):
        z = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
        rho = z @ z.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]
        g = rng.normal(size=(7, m, d, d)) + 1j * rng.normal(size=(7, m, d, d))
        partials = g + g.conj().swapaxes(-1, -2)
        if m == 2:
            partials[-1] = [-np.eye(d), np.zeros((d, d))]
        povms = np.array([random_povm(d, rng).elements for _ in range(7)])
        padded = np.concatenate([povms, np.zeros((7, 1, d, d))], axis=1)
        for elements in (povms, padded, padded[0]):
            stacked = bounds._fisher(rho, partials, elements)
            assert stacked.shape == (7, m, m)
            for i in range(7):
                own = elements[i] if elements.ndim == 4 else elements
                lone = bounds._fisher(rho[i], partials[i], own)
                assert _same_bits(stacked[i], lone)
                assert _same_bits(lone, fisher_by_outcome(rho[i], partials[i], own))


def test_stacked_fisher_refuses_the_first_row_with_a_singular_term():
    # Row 1 is singular at outcome 1 and row 2 at outcome 0: row 1's lone message wins.
    z = computational_basis_povm(2).elements
    rho = np.array([np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    partials = np.array([[np.diag([-1.0, 1.0])], [np.diag([-1.0, 1.0])], [np.diag([2.0, -2.0])]])
    with pytest.raises(SingularTermError) as alone:
        bounds._fisher(rho[1], partials[1], z)
    with pytest.raises(SingularTermError) as together:
        bounds._fisher(rho, partials, z)
    assert str(together.value) == str(alone.value) == (
        "outcome 1: probability 0.000e+00 at the support boundary with derivative 1.000e+00"
    )
    with pytest.raises(SingularTermError, match="^outcome 1: "):
        fisher_by_outcome(rho[1], partials[1], z)


def test_fisher_information_examples():
    dz = spectral_curve(builtin("dephasing"), 0.2)
    assert fisher_information(dz, pauli_basis_povm("x")) == pytest.approx(6.25, rel=1e-9)
    assert fisher_information(dz, computational_basis_povm(2)) == pytest.approx(
        0.0, abs=1e-12
    )
    rot = builtin("rotation", axis="z", input_state=PLUS)
    for theta in (0.1, 0.7, 1.3):
        f = fisher_information(spectral_curve(rot, theta), pauli_basis_povm("y"))
        assert f == pytest.approx(1.0, rel=1e-9)


def test_fisher_optimal_povm_achieves_h():
    ch = builtin("amplitude-damping")
    curve = spectral_curve(ch, 0.3)
    povm = optimal_povm_from_sld(sld_score(curve))
    f = fisher_information(curve, povm)
    assert f == pytest.approx(sld_information(curve), rel=1e-6)


def test_fisher_information_matches_state_oracle():
    rng = np.random.default_rng(29)
    points = one_param_battery(seed=404, count=12)
    assert len(points) == 12
    for channel, theta in points:
        povm = random_povm(channel.dim, rng)
        f = fisher_information(spectral_curve(channel, theta), povm)
        oracle = fisher_from_state(channel.output_matrix, povm, theta)
        assert f == pytest.approx(oracle[0, 0], rel=1e-6), channel.name


def test_fisher_matrix_matches_state_oracle_per_axis():
    rng = np.random.default_rng(31)
    for channel, theta in two_param_battery(seed=404, count=4):
        povm = random_povm(channel.dim, rng)
        f = bound_report(channel, spectral_curve(channel, theta), povm).fisher_information
        oracle = fisher_from_state(channel.output_matrix, povm, theta)
        assert max_abs(f - oracle) <= 1e-6 * max_abs(oracle), channel.name


def test_sld_information_matches_pseudo_inverse_oracle():
    points = one_param_battery(seed=404, count=12)
    assert len(points) == 12
    for channel, theta in points:
        h = sld_information(spectral_curve(channel, theta))
        oracle = sld_matrix_from_state(channel.output_matrix, theta)
        assert h == pytest.approx(oracle[0, 0], rel=1e-6), channel.name


def test_information_matrices_match_independent_routes():
    # H against the pseudo-inverse oracle; C against 4 Re<d_j Y psi|d_k Y psi>
    # of the curve's canonical Kraus partials where the family has them.
    cases = two_param_battery(seed=404, count=4) + [
        (builtin("example2"), np.array([0.6, 0.3])),
        (builtin("damped-rotation"), np.array([0.3, 0.5])),
    ]
    for channel, theta in cases:
        curve = spectral_curve(channel, theta)
        report = bound_report(channel, curve)
        h = report.sld_information
        oracle = sld_matrix_from_state(channel.output_matrix, theta)
        assert max_abs(h - oracle) <= 1e-6 * max_abs(oracle), channel.name
        if curve.kraus is not None:
            dvs = curve.kraus.derivatives @ channel.input_state.amplitudes
            kraus = 4.0 * np.real(np.einsum("jni,kni->jk", dvs.conj(), dvs))
            c = report.channel_bound
            assert max_abs(c - kraus) <= 1e-12 * max_abs(kraus), channel.name


# ---------------------------------------------------------------------------
# POVM condition checks
# ---------------------------------------------------------------------------

def test_sld_condition_dephasing_eigenbasis():
    ch = builtin("dephasing")
    curve = spectral_curve(ch, 0.2)
    report = povm_sld_condition_check(pauli_basis_povm("x"), curve, 1e-6)
    assert report.satisfied
    assert sorted(e.xi for e in report.elements) == pytest.approx([-1.25, 5.0], rel=1e-6)


def test_sld_condition_fails_for_uninformative_basis():
    ch = builtin("dephasing")
    curve = spectral_curve(ch, 0.2)
    report = povm_sld_condition_check(computational_basis_povm(2), curve, 1e-6)
    assert not report.satisfied
    assert max(e.residual for e in report.elements if not e.vacuous) > 0.1


def test_sld_condition_identity_povm():
    ch = builtin("rotation", axis="z")
    curve = spectral_curve(ch, 0.3)  # zero score
    report = povm_sld_condition_check(POVM(np.eye(2)[np.newaxis]), curve)
    assert report.satisfied
    assert report.elements[0].xi == pytest.approx(0.0, abs=1e-9)


def test_sm_condition_dephasing_eigenbasis():
    ch = builtin("dephasing")
    ck = canonical_kraus(ch, 0.3)
    report = povm_sm_condition_check(
        pauli_basis_povm("x"), ck.operators, ck.derivatives[0], ch.input_state.density()
    )
    assert report.satisfied
    assert len(report.elements) == 2
    assert "attainability" in report.note


def test_sm_condition_fails_for_nonattainable_channel():
    ch = builtin("amplitude-damping")
    curve = spectral_curve(ch, 0.5)
    povm = optimal_povm_from_sld(sld_score(curve))
    ck = canonical_kraus(ch, 0.5)
    report = povm_sm_condition_check(
        povm, ck.operators, ck.derivatives[0], ch.input_state.density()
    )
    assert not report.satisfied


def test_sm_condition_rotation_x_optimal_basis():
    ch = builtin("rotation", axis="x")
    theta = 0.4
    curve = spectral_curve(ch, theta)
    povm = optimal_povm_from_sld(sld_score(curve))
    ck = canonical_kraus(ch, theta)
    report = povm_sm_condition_check(
        povm, ck.operators, ck.derivatives[0], ch.input_state.density()
    )
    assert report.satisfied


CONDITION_CHANNELS = {
    "dephasing": lambda: (builtin("dephasing"), 0.3),
    "rotation-x": lambda: (builtin("rotation", axis="x"), 0.4),
    "rotation-z": lambda: (builtin("rotation", axis="z"), 0.3),  # |0> in: vacuous elements
    "amplitude-damping": lambda: (builtin("amplitude-damping"), 0.5),
    "random-kraus-3-2": lambda: (random_kraus_channel(3, 2, seed=11), 0.2),
    "random-kraus-8-8": lambda: (random_kraus_channel(8, 8, seed=11), -0.5),
    "example1": lambda: (builtin("example1"), 0.4),  # spectral form: the SLD check only
}


@pytest.mark.parametrize("name", CONDITION_CHANNELS)
def test_stacked_condition_checks_match_the_element_loops(name):
    # One stacked fit per check against the element-by-element loops it replaced: the
    # verdicts are equal, and xi and the residual are bit-equal or within 1e-12 relative.
    channel, theta = CONDITION_CHANNELS[name]()
    curve, d = spectral_curve(channel, theta), channel.dim
    povms = [optimal_povm_from_sld(sld_score(curve)), computational_basis_povm(d),
             POVM(np.eye(d)[np.newaxis]), random_povm(d, np.random.default_rng(35))]
    povms += [pauli_basis_povm("x")] if d == 2 else []
    vacuous = 0
    for povm in povms:
        pairs = [(povm_sld_condition_check(povm, curve), sld_condition_by_element(povm, curve))]
        if curve.kraus is not None:
            args = (povm, curve.kraus.operators, curve.kraus.derivatives[0],
                    channel.input_state.density())
            pairs.append((povm_sm_condition_check(*args), sm_condition_by_element(*args)))
        for stacked, loop in pairs:
            assert stacked.satisfied == loop.satisfied
            for got, want in zip(stacked.elements, loop.elements, strict=True):
                assert (got.index, got.vacuous) == (want.index, want.vacuous)
                for a, b in ((got.xi, want.xi), (got.residual, want.residual)):
                    assert a == b or abs(a - b) <= 1e-12 * abs(b) + 1e-15, (a, b)
                vacuous += got.vacuous
    assert (vacuous > 0) == (name == "rotation-z")


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

def test_bound_report_dephasing():
    ch = builtin("dephasing")
    rep = bound_report(ch, spectral_curve(ch, 0.2), povm=pauli_basis_povm("x"))
    assert rep.fisher_information[0, 0] == pytest.approx(6.25, rel=1e-9)
    assert rep.sld_information[0, 0] == pytest.approx(6.25, rel=1e-9)
    assert rep.channel_bound[0, 0] == pytest.approx(6.25, rel=1e-9)
    assert rep.representation_bound[0, 0] == pytest.approx(6.25, rel=1e-9)
    assert rep.attainable
    assert rep.method_cross_check < 1e-9
    assert rep.gauge_source == "canonical-kraus"


def test_bound_report_warns_when_not_attainable():
    ch = builtin("amplitude-damping")
    rep = bound_report(ch, spectral_curve(ch, 0.5))
    assert not rep.attainable
    assert any("unsatisfiable" in w for w in rep.warnings)


def _separate_bound_report(channel, theta, povm, tol=1e-6) -> dict:
    """bound_report's one-parameter quantities rebuilt from the public functionals, one
    decomposition each."""
    curve = spectral_curve(channel, theta)
    c = sm_bound_spectral(curve)
    attainable, residual = attainability_check(curve, tol)
    cross = c_e = None
    if channel.is_kraus_form:
        rho0 = channel.input_state.density()
        ck = canonical_kraus(channel, theta)
        cross = abs(c - sm_bound_kraus(ck.operators, ck.derivatives[0], rho0))
        raw = (channel.kraus_matrices(theta), channel.kraus_partials(theta)[0])
        c_e = sm_bound_kraus(*raw, rho0)
    warnings = () if attainable else (
        "channel bound not attainable here: the measurement optimality "
        "condition on canonical Kraus derivatives is unsatisfiable",
    )
    return dict(
        theta=float(theta),
        sld_information=sld_information(curve),
        channel_bound=c,
        gap=bound_gap(curve),
        attainable=attainable,
        attainability_residual=residual,
        attainability_tol=tol,
        gauge_source=curve.gauge_source,
        fisher_information=fisher_information(curve, povm),
        representation_bound=c_e,
        method_cross_check=cross,
        warnings=warnings,
    )


def _scalars(report: BoundReport) -> dict:
    """A one-parameter point report's quantities as the functionals give them: (0, 0) entries."""
    one = lambda a: None if a is None else float(np.ravel(a)[0])
    names = ("theta", "sld_information", "channel_bound", "gap", "attainability_residual",
             "fisher_information", "representation_bound", "method_cross_check")
    return {name: one(getattr(report, name)) for name in names} | dict(
        attainable=report.attainable, attainability_tol=report.attainability_tol,
        gauge_source=report.gauge_source, warnings=report.warnings)


def test_bound_report_shared_pass_equals_separate_functionals():
    """One decomposition and one overlap matrix give bit-identical reports."""
    classical = custom_spectral(
        np.eye(3, 2, dtype=complex), np.array([[0.3, 0.5], [0.7, -0.5]]), ((0.0, 0.5),)
    )
    points = [
        (builtin("dephasing"), 0.2),
        (builtin("dephasing"), 0.7),
        (builtin("amplitude-damping"), 0.5),
        (builtin("example1"), 0.6),
        (classical, 0.25),
        (random_kraus_channel(dim=3, env=2, seed=11), 0.3),
        (random_kraus_channel(dim=3, env=2, seed=11), -0.45),
        (random_kraus_channel(dim=6, env=3, seed=5), 0.4),
    ]
    for channel, theta in points:
        povm = computational_basis_povm(channel.dim)
        curve = spectral_curve(channel, theta)
        shared = bound_report(channel, curve, povm=povm)
        assert _scalars(shared) == _separate_bound_report(channel, theta, povm), channel.name
        assert bound_report(channel, curve).fisher_information is None


def test_ordering_random_battery_small():
    rng = np.random.default_rng(11)
    for channel, theta in one_param_battery(seed=123, count=12):
        curve = spectral_curve(channel, theta)
        h = sld_information(curve)
        c = sm_bound_spectral(curve)
        f = fisher_information(curve, random_povm(channel.dim, rng))
        assert f <= h + 1e-7
        assert h <= c + 1e-8
        assert bound_gap(curve) == pytest.approx(c - h, abs=1e-8 * max(1.0, c))


def test_attainability_coherence():
    """Attainable => gap below d^2 tol; not attainable => strictly positive gap."""
    tol = 1e-6
    channels = [
        (builtin("dephasing"), 0.3),
        (builtin("example1"), 0.5),
        (builtin("amplitude-damping"), 0.5),
        (builtin("rotation", axis="z"), 0.3),
    ] + one_param_battery(seed=303, count=10)
    for channel, theta in channels:
        curve = spectral_curve(channel, theta)
        attainable, _ = attainability_check(curve, tol)
        gap = bound_gap(curve)
        if attainable:
            assert gap < channel.dim**2 * tol
        else:
            assert gap > 0


def test_fixed_remix_keeps_bound_above_h():
    rng = np.random.default_rng(12)
    for channel, theta in one_param_battery(seed=45, count=8):
        h = sld_information(spectral_curve(channel, theta))
        n_ops = channel.kraus_matrices(theta).shape[0]
        u = random_unitary(n_ops, rng)
        rem = remix_channel(channel, lambda t, u=u: u, lambda t, i, u=u: np.zeros_like(u))
        c_e = sm_bound_kraus(
            rem.kraus_matrices(theta),
            rem.kraus_partials(theta)[0],
            channel.input_state.density(),
        )
        assert h <= c_e + 1e-8


def test_stacked_curve_equals_its_points_across_a_rank_change():
    # t -> (t^2, 1 - t^2) drops to rank one at t = 0, so one stack holds two
    # ranks, each completed to a full basis as its points are alone.
    import dataclasses

    channel = dataclasses.replace(builtin("example1"), domain=((-0.5, 0.5),))
    grid = np.array([[-0.2], [0.0], [0.3]])
    stacked = spectral_curve(channel, grid)
    assert stacked.support.sum(axis=-1).tolist() == [2, 1, 2]
    for i, theta in enumerate(grid[:, 0]):
        point = spectral_curve(channel, theta)
        for name in ("values", "vectors", "value_derivs", "vector_derivs", "support"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(point, name)), (theta, name)
        for a, b in zip(stacked.information, point.information):
            assert np.array_equal(a[i], b), theta


def test_curve_consistency_messages_print_plain_floats():
    import dataclasses

    curve = spectral_curve(builtin("example1"), 0.6)
    with pytest.raises(ConsistencyError, match=r"^eigenvalues sum to 2\.0$"):
        dataclasses.replace(curve, values=2 * curve.values)
    with pytest.raises(ConsistencyError, match=r"^eigenvalue derivatives sum to 1\.0$"):
        dataclasses.replace(curve, value_derivs=np.array([[1.0, 0.0, 0.0]]))


def test_moving_unsupported_eigenvalue_of_a_spectral_family_is_a_rank_change():
    # p_2 = theta leaves the support at theta = 0 with slope one
    w = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    channel = custom_spectral(w, np.array([[1.0, -1.0], [0.0, 1.0]]), ((0.0, 0.95),))
    message = r"^an unsupported eigenvalue moves \(\|p_k'\| = 1\.000e\+00\); theta is at a rank"
    with pytest.raises(DegeneracyError, match=message):
        spectral_curve(channel, 0.0)
    # a stack refuses that row alone, with the point call's refusal, and keeps the other
    stacked = spectral_curve(channel, np.array([[0.0], [0.5]]))
    refusal, kept = stacked.refusals
    assert isinstance(refusal, DegeneracyError) and re.match(message, str(refusal))
    assert kept is None and stacked.theta.tolist() == [[0.5]]


def _input_stack_cases():
    rng = np.random.default_rng(21)
    damping = builtin("amplitude-damping")
    # |0> is rank-deficient: E_1 |0> = 0, so one Gram weight is exactly zero
    rows = [KET0.amplitudes, PLUS.amplitudes, np.array([0.0, 1.0])]
    rows += [random_pure_state(2, rng).amplitudes for _ in range(3)]
    yield damping, 0.3, np.array(rows, dtype=complex)
    for dim, env, seed in ((3, 2, 11), (8, 8, 11)):
        channel = random_kraus_channel(dim=dim, env=env, seed=seed)
        yield channel, 0.3, np.array([random_pure_state(dim, rng).amplitudes for _ in range(5)])


@pytest.mark.parametrize("case", range(3), ids=["damping", "random-kraus-3-2", "random-kraus-8-8"])
def test_input_stack_rows_equal_point_curves_bit_for_bit(case):
    channel, theta, inputs = list(_input_stack_cases())[case]
    stacked = spectral_curve(channel, theta, inputs)
    assert stacked.values.shape[0] == len(inputs)
    for i, psi in enumerate(inputs):
        point = spectral_curve(channel.with_input_state(PureState(psi)), theta)
        for name in ("theta", "values", "vectors", "value_derivs", "vector_derivs", "support"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(point, name)), (i, name)
        for name, value in vars(point.kraus).items():
            assert np.array_equal(getattr(stacked.kraus, name)[i], value), (i, name)
        for a, b in zip(stacked.information, point.information):
            assert np.array_equal(a[i], b), i
    assert canonical_kraus(channel, theta, inputs).operators.shape[0] == len(inputs)


def _boundary_input():
    # psi = (sqrt(1 - e), sqrt(e)) puts amplitude damping's small Gram weight at 0.3 near
    # g (1 - g) e^2 = 1e-9, at the support boundary
    e = np.sqrt(1e-9 / 0.21)
    return np.array([np.sqrt(1 - e), np.sqrt(e)], dtype=complex)


def test_input_stack_validation_refuses_the_whole_stack():
    # A rejected input is a ValidationError of the call, not a refusal of one row.
    channel = builtin("amplitude-damping")
    unnormalized = np.array([1.0, 1e-4], dtype=complex)
    for row, theta in ((unnormalized, 0.3), (PLUS.amplitudes, 1.5)):
        with pytest.raises(ValidationError):
            spectral_curve(channel.with_input_state(PureState(row)), theta)
        with pytest.raises(ValidationError):
            spectral_curve(channel, theta, np.array([PLUS.amplitudes, row, KET0.amplitudes]))
    with pytest.raises(ValidationError, match="input stack"):
        spectral_curve(channel, [[0.2], [0.3]], np.array([PLUS.amplitudes] * 3))


def _lone(channel, theta, psi=None):
    """A stacked row's point call: its curve, or the NumericError it raises."""
    channel = channel if psi is None else channel.with_input_state(PureState(psi))
    try:
        return spectral_curve(channel, theta)
    except NumericError as exc:
        return exc


def _edge_grid(family):
    """The edge scan's points, less those whose point call is a ValidationError."""
    ch = builtin(family)
    grid = []
    for theta, _ in _edge_points(ch, EDGE_OFFSETS):
        try:
            _lone(ch, theta)
        except ValidationError:
            continue
        grid.append([theta])
    return ch, np.array(grid), None


def _parity_cases():
    for family in ("amplitude-damping", "dephasing", "depolarizing"):
        yield f"edge-{family}", lambda family=family: _edge_grid(family)
    yield "random-kraus-3-2", lambda: (random_kraus_channel(dim=3, env=2, seed=11),
                                       np.linspace(-0.9, 0.9, 41)[:, np.newaxis], None)
    yield "dephasing-band", lambda: (builtin("dephasing"),
                                     np.linspace(0.4999999, 0.5000001, 41)[:, np.newaxis], None)
    rng = np.random.default_rng(34)
    inputs = [PLUS.amplitudes, _boundary_input(), KET0.amplitudes, _boundary_input()]
    inputs += [random_pure_state(2, rng).amplitudes for _ in range(3)]
    yield "input-stack", lambda: (builtin("amplitude-damping"), 0.3, np.array(inputs))
    # crossing rows resolved per cluster pattern, every row kept
    yield "crossing-mixed", lambda: (builtin("dephasing"),
                                     np.array([[0.3], [0.5], [0.5], [0.7], [0.5]]), None)
    yield "crossing-only", lambda: (builtin("dephasing"), np.full((24, 1), 0.5), None)
    yield "all-refused", lambda: (builtin("amplitude-damping"),
                                  np.linspace(0.99999999, 0.9999999999, 41)[:, np.newaxis], None)
    # Tolerances tightened to round-off make the curve's own checks refuse rows, which
    # no real point does: the sum and orthonormality checks, then the derivative-sum and
    # overlap antisymmetry checks, each refusing some rows of the stack and keeping others.
    grid = np.linspace(0.05, 0.95, 41)[:, np.newaxis]
    yield "tight-sum-tolerance", lambda: (builtin("depolarizing"), grid, None,
                                          {"CURVE_SUM_TOL": 1e-16})
    yield "tight-derivative-tolerance", lambda: (builtin("amplitude-damping"), grid, None,
                                                 {"CURVE_DERIV_TOL": 3e-16})


PARITY_CASES = dict(_parity_cases())


@pytest.mark.parametrize("case", PARITY_CASES)
def test_stacked_curve_rows_are_their_point_calls(case, monkeypatch):
    # One stacked call: a kept row holds its point call's bits, and a refused row
    # holds the type and message of the refusal its point call raises.
    channel, thetas, inputs, *tolerances = PARITY_CASES[case]()
    for name, value in (tolerances or [{}])[0].items():
        monkeypatch.setattr(bounds, name, value)
    stacked = spectral_curve(channel, thetas, inputs)
    rows = len(thetas) if inputs is None else len(inputs)
    assert len(stacked.refusals) == rows
    kept = 0
    for i, refusal in enumerate(stacked.refusals):
        theta = thetas[i] if inputs is None else thetas
        lone = _lone(channel, theta, None if inputs is None else inputs[i])
        if refusal is not None:
            assert type(lone) is type(refusal) and str(lone) == str(refusal), (i, refusal)
            continue
        assert isinstance(lone, bounds.SpectralCurve), (i, lone)
        for name in ("theta", "values", "vectors", "value_derivs", "vector_derivs", "support"):
            assert np.array_equal(getattr(stacked, name)[kept], getattr(lone, name)), (i, name)
        if lone.kraus is not None:
            for name in ("operators", "derivatives", "mixing", "weights", "raw_operators"):
                assert np.array_equal(getattr(stacked.kraus, name)[kept],
                                      getattr(lone.kraus, name)), (i, name)
        for a, b in zip(stacked.information, lone.information):
            assert np.array_equal(a[kept], b), i
        kept += 1
    assert kept == len(stacked.theta) == len(stacked.values)
    refused = rows - kept
    if case == "all-refused":
        assert kept == 0 and refused == rows
    elif case.startswith("crossing"):
        assert kept == rows
    else:
        assert kept and refused, (kept, refused)


def test_a_non_finite_row_is_refused_as_its_point_call_raises():
    # dephasing's Kraus partial diverges at 0 and 1: those rows carry the ValidationError
    # their point calls raise, and the row between them keeps its values.
    channel = builtin("dephasing")
    curve = spectral_curve(channel, np.array([[0.0], [0.3], [1.0]]))
    for theta, refusal in ((0.0, curve.refusals[0]), (1.0, curve.refusals[2])):
        with pytest.raises(ValidationError) as lone:
            spectral_curve(channel, theta)
        assert type(refusal) is ValidationError and str(refusal) == str(lone.value)
        assert str(refusal) == f"Kraus derivative at theta [{theta}] produced non-finite entries"
    assert curve.refusals[1] is None and curve.theta.tolist() == [[0.3]]
    assert np.array_equal(curve.information[0][0], spectral_curve(channel, 0.3).information[0])


def test_refused_rows_reach_no_cluster_resolution(monkeypatch):
    # depolarizing's weights cross at 1, too near the edge for the stencil: that row is
    # refused before any cluster of it is resolved; dephasing's crossing at 0.5 is resolved.
    # Each batched pass, the rotation and the coupling, records the rows it is given.
    reached = {}

    def record(name, rows_at):
        seam, reached[name] = getattr(bounds, name), []

        def recorded(*args):
            reached[name].extend(args[rows_at].tolist())
            return seam(*args)
        monkeypatch.setattr(bounds, name, recorded)

    record("_resolve_degenerate_clusters", 2)
    record("_crossing_coupling", 5)
    curve = spectral_curve(builtin("depolarizing"), np.array([[0.9998], [1.0]]))
    assert reached == {"_resolve_degenerate_clusters": [], "_crossing_coupling": []}
    assert curve.refusals[0] is None
    assert "within 0.0002 of a domain edge" in str(curve.refusals[1])
    curve = spectral_curve(builtin("dephasing"), np.array([[0.3], [0.5], [0.500001]]))
    assert reached == {"_resolve_degenerate_clusters": [1], "_crossing_coupling": [1]}
    assert curve.theta.tolist() == [[0.3], [0.5]]


# ---------------------------------------------------------------------------
# Domain edges: values or typed refusals down to 1e-12 from each edge
# ---------------------------------------------------------------------------

EDGE_OFFSETS = np.concatenate([[0.0], np.logspace(np.log10(2e-4), -12, 120)])


def _edge_points(channel, offsets):
    lo, hi = channel.domain[0]
    return [(lo + off, off) for off in offsets] + [(hi - off, off) for off in offsets]


def _damping_h(g):
    return 1 / (4 * (1 - g)) + 1 + (g - 0.5) ** 2 / (g * (1 - g))


def _dephasing_h(t):
    return 1 / (t * (1 - t))


@pytest.mark.parametrize("family", ["amplitude-damping", "dephasing", "depolarizing"])
def test_edge_scan_gives_values_or_typed_refusals(family):
    # A RuntimeWarning fails the test (pyproject's filterwarnings), and a
    # ConsistencyError is not caught: each point is a value or a refusal.
    ch = builtin(family)
    values = 0
    for theta, _ in _edge_points(ch, EDGE_OFFSETS):
        try:
            curve = spectral_curve(ch, theta)
            report = bound_report(ch, curve)
        except (DegeneracyError, ValidationError):
            continue
        quantities = [sld_information(curve), sm_bound_spectral(curve), bound_gap(curve)]
        assert np.all(np.isfinite(quantities)), theta
        assert report.sld_information[0, 0] == quantities[0]
        values += 1
    assert values >= 50


@pytest.mark.parametrize(
    "family, closed_form, near, far",
    [("amplitude-damping", _damping_h, 1e-12, 1e-8), ("dephasing", _dephasing_h, 1e-8, 1e-8)],
)
def test_edge_values_match_closed_forms(family, closed_form, near, far):
    # near: relative tolerance at the lower edge, far: at the upper one, where
    # the small Gram weight comes out of a unit-size Gram matrix.
    ch = builtin(family)
    for theta, _ in _edge_points(ch, np.logspace(-3, -7, 41)):
        h = sld_information(spectral_curve(ch, theta))
        rel = near if theta < 0.5 else far
        assert h == pytest.approx(closed_form(theta), rel=rel), theta
    for theta, _ in _edge_points(ch, EDGE_OFFSETS):
        try:
            h = sld_information(spectral_curve(ch, theta))
        except (DegeneracyError, ValidationError):
            continue
        assert h == pytest.approx(closed_form(theta), rel=1e-8), theta


@pytest.mark.parametrize("family", ["amplitude-damping", "dephasing", "depolarizing"])
def test_edge_values_match_pseudo_inverse_oracle(family):
    # The oracle's stencil step is a hundredth of the distance to the edge.
    ch = builtin(family)
    checked = 0
    for theta, off in _edge_points(ch, EDGE_OFFSETS[EDGE_OFFSETS >= 1e-7]):
        try:
            h = sld_information(spectral_curve(ch, theta))
        except (DegeneracyError, ValidationError):
            continue
        oracle = sld_matrix_from_state(ch.output_matrix, theta, h=min(1e-5, off / 100))
        assert h == pytest.approx(oracle[0, 0], rel=1e-6), theta
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("theta", [0.3, 1 - 1e-5])
def test_corrupted_curve_is_a_consistency_error(theta):
    # One entry of the largest weight's eigenvector partial is off by one: the
    # scaled tolerance of a near-edge point does not hide it.
    import dataclasses

    curve = spectral_curve(builtin("amplitude-damping"), theta)
    k = int(np.argmax(curve.values))
    i = int(np.argmax(np.abs(curve.vectors[:, k])))
    corrupted = curve.vector_derivs.copy()
    corrupted[0, i, k] += 1.0
    with pytest.raises(ConsistencyError):
        dataclasses.replace(curve, vector_derivs=corrupted)


def test_corrupted_curve_next_to_a_tiny_weight_is_a_degeneracy_error():
    import dataclasses

    curve = spectral_curve(builtin("amplitude-damping"), 1 - 1e-7)
    corrupted = curve.vector_derivs.copy()
    corrupted[0, 0, 1] += 1.0
    with pytest.raises(DegeneracyError, match="next to the supported weight 2.500e-08"):
        dataclasses.replace(curve, vector_derivs=corrupted)
