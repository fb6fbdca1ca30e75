import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from qfibounds.bounds import (
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
from qfibounds.errors import ConsistencyError, DegeneracyError, ValidationError
from qfibounds.linalg import max_abs
from qfibounds.quantum import POVM, PureState, computational_basis_povm, pauli_basis_povm
from qfibounds.multiparam import fisher_matrix, sld_matrix, sm_matrix
from qfibounds.verify import one_param_battery, random_povm, two_param_battery

from oracles import random_unitary, remix_channel, remixing_penalty

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
    for read in scalar + (lambda c: bound_report(channel, c),):
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
        f = fisher_matrix(spectral_curve(channel, theta), povm).entries
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
        h = sld_matrix(curve).entries
        oracle = sld_matrix_from_state(channel.output_matrix, theta)
        assert max_abs(h - oracle) <= 1e-6 * max_abs(oracle), channel.name
        if curve.kraus is not None:
            dvs = curve.kraus.derivatives @ channel.input_state.amplitudes
            kraus = 4.0 * np.real(np.einsum("jni,kni->jk", dvs.conj(), dvs))
            c = sm_matrix(curve).entries
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
    report, table = povm_sm_condition_check(
        pauli_basis_povm("x"), ck.operators, ck.derivatives[0], ch.input_state.density()
    )
    assert report.satisfied
    assert table.shape == (2, 2)
    assert "attainability" in report.note


def test_sm_condition_fails_for_nonattainable_channel():
    ch = builtin("amplitude-damping")
    curve = spectral_curve(ch, 0.5)
    povm = optimal_povm_from_sld(sld_score(curve))
    ck = canonical_kraus(ch, 0.5)
    report, _ = povm_sm_condition_check(
        povm, ck.operators, ck.derivatives[0], ch.input_state.density()
    )
    assert not report.satisfied


def test_sm_condition_rotation_x_optimal_basis():
    ch = builtin("rotation", axis="x")
    theta = 0.4
    curve = spectral_curve(ch, theta)
    povm = optimal_povm_from_sld(sld_score(curve))
    ck = canonical_kraus(ch, theta)
    report, _ = povm_sm_condition_check(
        povm, ck.operators, ck.derivatives[0], ch.input_state.density()
    )
    assert report.satisfied


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

def test_bound_report_dephasing():
    ch = builtin("dephasing")
    rep = bound_report(ch, spectral_curve(ch, 0.2), povm=pauli_basis_povm("x"))
    assert rep.fisher_information == pytest.approx(6.25, rel=1e-9)
    assert rep.sld_information == pytest.approx(6.25, rel=1e-9)
    assert rep.channel_bound == pytest.approx(6.25, rel=1e-9)
    assert rep.representation_bound == pytest.approx(6.25, rel=1e-9)
    assert rep.attainable
    assert rep.method_cross_check < 1e-9
    assert rep.gauge_source == "canonical-kraus"


def test_bound_report_warns_when_not_attainable():
    ch = builtin("amplitude-damping")
    rep = bound_report(ch, spectral_curve(ch, 0.5))
    assert not rep.attainable
    assert any("unsatisfiable" in w for w in rep.warnings)


def _separate_bound_report(channel, theta, povm, tol=1e-6) -> BoundReport:
    """bound_report rebuilt from the public functionals, one decomposition each."""
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
    return BoundReport(
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
        assert shared == _separate_bound_report(channel, theta, povm), channel.name
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
    for theta in (0.0, np.array([[0.0], [0.5]])):
        with pytest.raises(DegeneracyError, match=message):
            spectral_curve(channel, theta)


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


def test_input_stack_refuses_at_a_refused_row():
    channel = builtin("amplitude-damping")
    # psi = (sqrt(1 - e), sqrt(e)) puts the small Gram weight near g (1 - g) e^2 = 1e-9
    e = np.sqrt(1e-9 / 0.21)
    boundary = np.array([np.sqrt(1 - e), np.sqrt(e)], dtype=complex)
    unnormalized = np.array([1.0, 1e-4], dtype=complex)
    for row, theta, error in (
        (boundary, 0.3, DegeneracyError),
        (unnormalized, 0.3, ValidationError),
        (PLUS.amplitudes, 1.5, ValidationError),
    ):
        with pytest.raises(error):
            spectral_curve(channel.with_input_state(PureState(row)), theta)
        with pytest.raises(error):
            spectral_curve(channel, theta, np.array([PLUS.amplitudes, row, KET0.amplitudes]))
    with pytest.raises(ValidationError, match="input stack"):
        spectral_curve(channel, [[0.2], [0.3]], np.array([PLUS.amplitudes] * 3))


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
        assert report.sld_information == quantities[0]
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
