import numpy as np
import pytest

from qfibounds.bounds import (
    canonical_kraus,
    fisher_information,
    sld_information,
    sm_bound_kraus,
    sm_bound_spectral,
    spectral_curve,
)
from qfibounds.channels import (
    builtin,
    custom_spectral,
    directional_channel,
    random_kraus_channel,
)
from qfibounds.errors import ConsistencyError, DegeneracyError, ValidationError
from qfibounds.linalg import max_abs
from qfibounds.multiparam import (
    InfoMatrix,
    directional_reduction_check,
    fisher_matrix,
    loewner_report,
    multi_attainability_check,
    pinv_with_rank,
    sld_matrix,
    sm_matrix,
)
from qfibounds.quantum import computational_basis_povm, pauli_basis_povm
from qfibounds.verify import directional_suite, random_povm, two_param_battery


def test_info_matrix_validation():
    InfoMatrix(np.diag([1.0, 2.0]), "sld")
    with pytest.raises(ConsistencyError, match="asymmetry"):
        InfoMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), "sld")
    with pytest.raises(ConsistencyError, match="min eigenvalue"):
        InfoMatrix(np.diag([1.0, -0.5]), "fisher")


def test_single_parameter_reduction():
    """m = 1 matrices reduce to the scalar quantities."""
    ch = builtin("amplitude-damping")
    curve = spectral_curve(ch, 0.3)
    h = sld_matrix(curve)
    c = sm_matrix(curve)
    assert h.entries[0, 0] == pytest.approx(sld_information(curve), rel=1e-9)
    assert c.entries[0, 0] == pytest.approx(sm_bound_spectral(curve), rel=1e-9)
    povm = pauli_basis_povm("x")
    f = fisher_matrix(curve, povm)
    assert f.entries[0, 0] == pytest.approx(fisher_information(curve, povm), rel=1e-9)


def test_fisher_matrix_two_param_dephasing():
    """Binomial model p = (1 - t1 t2, t1 t2) measured in the +- basis."""
    ch = builtin("dephasing-2p")
    theta = np.array([0.4, 0.3])
    f = fisher_matrix(spectral_curve(ch, theta), pauli_basis_povm("x"))
    t1, t2 = theta
    q = t1 * t2
    expected = np.array([[t2 * t2, t1 * t2], [t1 * t2, t1 * t1]]) / (q * (1 - q))
    assert max_abs(f.entries - expected) < 1e-9
    assert np.linalg.matrix_rank(f.entries, tol=1e-9) == 1


def test_fisher_matrix_constant_probabilities():
    ch = builtin("dephasing-2p")
    f = fisher_matrix(spectral_curve(ch, np.array([0.4, 0.3])), computational_basis_povm(2))
    assert max_abs(f.entries) < 1e-12


def test_sld_matrix_quasi_classical_closed_form():
    """Fixed eigenvectors: H_jk = sum_k dp_j dp_k / p."""
    w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    coeffs = np.array([[0.7, -0.3, -0.2], [0.3, 0.3, 0.2]])
    ch = custom_spectral(w, coeffs, ((0.1, 0.9), (0.1, 0.9)), name="classical-2p")
    theta = np.array([0.3, 0.5])
    curve = spectral_curve(ch, theta)
    h = sld_matrix(curve)
    p = coeffs[:, 0] + coeffs[:, 1:] @ theta
    grads = coeffs[:, 1:]
    expected = np.einsum("kj,kl,k->jl", grads, grads, 1.0 / p)
    assert max_abs(h.entries - expected) < 1e-12
    att = multi_attainability_check(curve)
    assert att.attainable and att.quasi_classical


def test_canonical_kraus_serves_every_parameter():
    ch = random_kraus_channel(dim=3, env=2, seed=11, param_count=2)
    theta = np.array([0.3, 0.4])
    ck = canonical_kraus(ch, theta)
    n, d = ck.operators.shape[:2]
    assert ck.derivatives.shape == ck.raw_derivatives.shape == (2, n, d, d)
    curve = spectral_curve(ch, theta)
    assert curve.kraus is not None
    rho0 = ch.input_state.density()
    for l, axis in enumerate(np.eye(2)):
        view = spectral_curve(directional_channel(ch, theta, axis), 0.0)
        c_kraus = sm_bound_kraus(ck.operators, ck.derivatives[l], rho0)
        assert c_kraus == pytest.approx(sm_bound_spectral(view), rel=1e-9)


def test_axis_curves_match_the_matrix_diagonals():
    """The curves of the axis slices give the H and C on the diagonals of the matrices."""
    for name, theta in (("dephasing-2p", [0.4, 0.3]), ("example2", [0.6, 0.3])):
        ch = builtin(name)
        curve = spectral_curve(ch, theta)
        h, c = sld_matrix(curve), sm_matrix(curve)
        for l, axis in enumerate(np.eye(2)):
            view = spectral_curve(directional_channel(ch, theta, axis), 0.0)
            assert abs(sld_information(view) - h.entries[l, l]) < 1e-12, name
            assert abs(sm_bound_spectral(view) - c.entries[l, l]) < 1e-12, name


def test_example2_equality_matrices():
    ch = builtin("example2")
    theta = np.array([0.6, 0.3])
    curve = spectral_curve(ch, theta)
    h = sld_matrix(curve)
    c = sm_matrix(curve)
    f, g = theta
    expected = np.diag([4 / (1 - f * f), 4 * f * f / (1 - g * g)])
    assert max_abs(h.entries - expected) < 1e-12
    assert max_abs(c.entries - h.entries) < 1e-12
    att = multi_attainability_check(curve, tol=1e-9)
    assert att.attainable and att.residual < 1e-12
    assert not att.quasi_classical


def test_sm_matrix_two_param_unitary_at_origin():
    ch = builtin("rotation-2p")
    curve = spectral_curve(ch, np.array([0.0, 0.0]))
    c = sm_matrix(curve)
    assert max_abs(c.entries - np.eye(2)) < 1e-9
    att = multi_attainability_check(curve, channel=ch)
    assert att.unitary_condition_values is not None
    assert all(abs(z) < 1e-9 for z in att.unitary_condition_values)


def test_damped_rotation_not_attainable():
    ch = builtin("damped-rotation")
    curve = spectral_curve(ch, np.array([0.5, 0.4]))
    att = multi_attainability_check(curve)
    assert not att.attainable
    assert att.residual > 0.01


def test_loewner_report_trivial_cases():
    h = InfoMatrix(np.diag([2.0, 1.0]), "sld")
    c = InfoMatrix(np.diag([3.0, 1.0]), "sm")
    zero = InfoMatrix(np.zeros((2, 2)), "fisher")
    rep = loewner_report(zero, h, c)
    assert rep.all_hold
    with pytest.raises(ValidationError, match="mismatched"):
        loewner_report(zero, h, InfoMatrix(np.eye(3), "sm"))


def test_directional_axis_recovers_slice():
    ch = builtin("dephasing-2p")
    theta = np.array([0.4, 0.3])
    for axis in range(2):
        v = np.eye(2)[axis]
        check = directional_reduction_check(ch, spectral_curve(ch, theta), v)
        assert check.passed
        h = sld_matrix(spectral_curve(ch, theta))
        assert check.sld_slice == pytest.approx(h.entries[axis, axis], rel=1e-9)


def test_directional_example2_diagonal_direction():
    ch = builtin("example2")
    theta = np.array([0.6, 0.3])
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    check = directional_reduction_check(ch, spectral_curve(ch, theta), v)
    assert check.passed
    assert check.sld_slice == pytest.approx(check.sm_slice, rel=1e-9)  # equality family


def test_directional_random_channels():
    rng = np.random.default_rng(3)
    for channel, theta in two_param_battery(seed=9, count=5):
        curve = spectral_curve(channel, theta)
        for _ in range(4):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            check = directional_reduction_check(channel, curve, v)
            assert check.sld_mismatch < 1e-5
            assert check.sm_mismatch < 1e-5
            assert check.kraus_deriv_mismatch < 1e-5


@pytest.mark.parametrize(
    "name, theta", [("dephasing-2p", [0.4, 0.3]), ("example2", [0.6, 0.3])]
)
def test_fan_matrices_are_the_contracted_matrices(name, theta):
    """One fan curve gives V H V^T and V C V^T, off-diagonals included, and its
    one-direction case is the scalar slice."""
    ch = builtin(name)
    curve = spectral_curve(ch, theta)
    h, c = sld_matrix(curve).entries, sm_matrix(curve).entries
    v = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, 0.8]])  # an axis and a repeated direction
    check = directional_reduction_check(ch, curve, v)
    assert check.passed
    assert check.sld_slice.shape == check.sm_slice.shape == (3, 3)
    assert max_abs(check.sld_slice - v @ h @ v.T) < 1e-9
    assert max_abs(check.sm_slice - v @ c @ v.T) < 1e-9
    for j, row in enumerate(v):
        single = directional_reduction_check(ch, curve, row)
        assert single.passed and single.directions.shape == (1, 2)
        assert single.sld_slice[0, 0] == pytest.approx(check.sld_slice[j, j], rel=1e-9)
        assert single.sm_slice[0, 0] == pytest.approx(check.sm_slice[j, j], rel=1e-9)
    assert check.sld_slice[0, 0] == pytest.approx(h[0, 0], rel=1e-9)


def test_narrow_fan_is_checked_like_a_wide_one():
    ch = random_kraus_channel(dim=2, env=2, seed=5, param_count=2)
    theta = np.array([0.999, 0.0])  # 1e-3 from the edge: a 20-direction fan is 5e-5 wide
    curve = spectral_curve(ch, theta)
    v = np.tile([1.0, 0.0], (20, 1))
    check = directional_reduction_check(ch, curve, v)
    assert check.passed
    assert check.sld_mismatch == check.sm_mismatch == check.kraus_deriv_mismatch == 0.0
    assert directional_reduction_check(ch, curve, v[0]).passed


def test_loewner_chain_random_channels():
    rng = np.random.default_rng(4)
    for channel, theta in two_param_battery(seed=21, count=6):
        curve = spectral_curve(channel, theta)
        h = sld_matrix(curve)
        c = sm_matrix(curve)
        f = fisher_matrix(curve, random_povm(channel.dim, rng))
        rep = loewner_report(f, h, c)
        assert rep.all_hold, rep


def test_matrix_equality_iff_attainable():
    """The attainability residual vanishes exactly when H and C coincide."""
    tol = 1e-6
    cases = [
        (builtin("example2"), np.array([0.6, 0.3])),
        (builtin("dephasing-2p"), np.array([0.4, 0.3])),
        (builtin("damped-rotation"), np.array([0.5, 0.4])),
    ] + two_param_battery(seed=31, count=8)
    for channel, theta in cases:
        curve = spectral_curve(channel, theta)
        att = multi_attainability_check(curve, tol)
        entry_gap = max_abs(
            sm_matrix(curve).entries - sld_matrix(curve).entries
        )
        m, d = channel.param_count, channel.dim
        assert att.attainable == (entry_gap < m * d * d * tol), (
            channel.name,
            att.residual,
            entry_gap,
        )


def test_pinv_with_rank_discloses_singularity():
    h = InfoMatrix(np.diag([4.0, 0.0]), "sld")
    inv, rank = pinv_with_rank(h)
    assert rank == 1
    assert inv[0, 0] == pytest.approx(0.25)
    assert inv[1, 1] == pytest.approx(0.0)


def test_multi_degeneracy_is_refused():
    ch = builtin("dephasing-2p")
    with pytest.raises(DegeneracyError):
        spectral_curve(ch, np.array([0.625, 0.8]))  # t1 t2 = 0.5 crossing


def test_directional_suite_regression_seed():
    """Battery seed whose diagonal mismatch was 3.2e-08 with stencil derivatives."""
    results = directional_suite(seed=6180588700756636604)
    assert all(r.passed for r in results), [r.detail for r in results]
