import numpy as np
import pytest

from qfibounds.bounds import (
    bound_report,
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
from qfibounds.errors import ConsistencyError, DegeneracyError
from qfibounds.linalg import loewner_leq, max_abs
from qfibounds.quantum import computational_basis_povm, pauli_basis_povm
from qfibounds.reporting import report_dict
from qfibounds import verify
from qfibounds.verify import (
    directional_reduction_check,
    directional_suite,
    random_povm,
    two_param_battery,
)


def _report(channel, theta, povm=None, tol=1e-6):
    return bound_report(channel, spectral_curve(channel, theta), povm, tol)


def test_info_matrix_validation():
    # The record refuses an asymmetric or indefinite information matrix; here the
    # curve's cached pair carries one, after its SLD score has checked H.
    ch = builtin("example2")
    theta = np.array([0.6, 0.3])
    h, c = spectral_curve(ch, theta).information
    for pair, match in (((h + [[0, 1e-8], [0, 0]], c), "sld matrix asymmetry"),
                        ((h, c - 20 * np.eye(2)), "sm matrix min eigenvalue")):
        curve = spectral_curve(ch, theta)
        curve.sld_score
        curve.__dict__["information"] = pair
        with pytest.raises(ConsistencyError, match=match):
            bound_report(ch, curve)
    assert bound_report(ch, spectral_curve(ch, theta)).sld_information.shape == (2, 2)


def test_single_parameter_reduction():
    """m = 1 matrices reduce to the scalar quantities."""
    ch = builtin("amplitude-damping")
    curve = spectral_curve(ch, 0.3)
    povm = pauli_basis_povm("x")
    report = bound_report(ch, curve, povm)
    assert report.sld_information[0, 0] == pytest.approx(sld_information(curve), rel=1e-9)
    assert report.channel_bound[0, 0] == pytest.approx(sm_bound_spectral(curve), rel=1e-9)
    f = report.fisher_information[0, 0]
    assert f == pytest.approx(fisher_information(curve, povm), rel=1e-9)


def test_fisher_matrix_two_param_dephasing():
    """Binomial model p = (1 - t1 t2, t1 t2) measured in the +- basis."""
    ch = builtin("dephasing-2p")
    theta = np.array([0.4, 0.3])
    f = _report(ch, theta, pauli_basis_povm("x")).fisher_information
    t1, t2 = theta
    q = t1 * t2
    expected = np.array([[t2 * t2, t1 * t2], [t1 * t2, t1 * t1]]) / (q * (1 - q))
    assert max_abs(f - expected) < 1e-9
    assert np.linalg.matrix_rank(f, tol=1e-9) == 1


def test_fisher_matrix_constant_probabilities():
    ch = builtin("dephasing-2p")
    f = _report(ch, np.array([0.4, 0.3]), computational_basis_povm(2)).fisher_information
    assert max_abs(f) < 1e-12


def test_sld_matrix_quasi_classical_closed_form():
    """Fixed eigenvectors: H_jk = sum_k dp_j dp_k / p."""
    w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    coeffs = np.array([[0.7, -0.3, -0.2], [0.3, 0.3, 0.2]])
    ch = custom_spectral(w, coeffs, ((0.1, 0.9), (0.1, 0.9)), name="classical-2p")
    theta = np.array([0.3, 0.5])
    report = _report(ch, theta)
    p = coeffs[:, 0] + coeffs[:, 1:] @ theta
    grads = coeffs[:, 1:]
    expected = np.einsum("kj,kl,k->jl", grads, grads, 1.0 / p)
    assert max_abs(report.sld_information - expected) < 1e-12
    assert report.attainable and report.quasi_classical


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
        report = _report(ch, theta)
        h, c = report.sld_information, report.channel_bound
        for l, axis in enumerate(np.eye(2)):
            view = spectral_curve(directional_channel(ch, theta, axis), 0.0)
            assert abs(sld_information(view) - h[l, l]) < 1e-12, name
            assert abs(sm_bound_spectral(view) - c[l, l]) < 1e-12, name


def test_example2_equality_matrices():
    ch = builtin("example2")
    theta = np.array([0.6, 0.3])
    report = _report(ch, theta, tol=1e-9)
    h, c = report.sld_information, report.channel_bound
    f, g = theta
    expected = np.diag([4 / (1 - f * f), 4 * f * f / (1 - g * g)])
    assert max_abs(h - expected) < 1e-12
    assert max_abs(c - h) < 1e-12
    assert report.attainable and report.attainability_residual < 1e-12
    assert not report.quasi_classical


def test_sm_matrix_two_param_unitary_at_origin():
    ch = builtin("rotation-2p")
    report = _report(ch, np.array([0.0, 0.0]))
    assert max_abs(report.channel_bound - np.eye(2)) < 1e-9
    assert report.unitary_condition is not None
    values, _ = report.unitary_condition
    assert all(abs(z) < 1e-9 for z in values)


def test_damped_rotation_not_attainable():
    ch = builtin("damped-rotation")
    report = _report(ch, np.array([0.5, 0.4]))
    assert not report.attainable
    assert report.attainability_residual > 0.01


def test_loewner_report_trivial_cases():
    # A constant-probability POVM gives F = 0 <= H <= C, every slack the least
    # eigenvalue of the larger matrix or of C - H.
    ch = builtin("dephasing-2p")
    report = _report(ch, np.array([0.4, 0.3]), computational_basis_povm(2))
    loewner = report_dict(report, "computational")["loewner"]
    assert loewner["all_hold"]
    h, c = report.sld_information, report.channel_bound
    for name, matrix in (("fisher_le_sld", h), ("fisher_le_sm", c), ("sld_le_sm", c - h)):
        assert loewner[name]["min_eigenvalue"] == pytest.approx(np.linalg.eigvalsh(matrix)[0],
                                                                abs=1e-12)
    assert "loewner" not in report_dict(_report(ch, np.array([0.4, 0.3])))


def test_directional_axis_recovers_slice():
    ch = builtin("dephasing-2p")
    theta = np.array([0.4, 0.3])
    for axis in range(2):
        v = np.eye(2)[axis]
        check = directional_reduction_check(ch, spectral_curve(ch, theta), v)
        assert check.mismatch < 1e-5
        h = _report(ch, theta).sld_information
        assert check.sld_slice == pytest.approx(h[axis, axis], rel=1e-9)


def test_directional_example2_diagonal_direction():
    ch = builtin("example2")
    theta = np.array([0.6, 0.3])
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    check = directional_reduction_check(ch, spectral_curve(ch, theta), v)
    assert check.mismatch < 1e-5
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
    report = bound_report(ch, curve)
    h, c = report.sld_information, report.channel_bound
    v = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, 0.8]])  # an axis and a repeated direction
    check = directional_reduction_check(ch, curve, v)
    assert check.mismatch < 1e-5
    assert check.sld_slice.shape == check.sm_slice.shape == (3, 3)
    assert max_abs(check.sld_slice - v @ h @ v.T) < 1e-9
    assert max_abs(check.sm_slice - v @ c @ v.T) < 1e-9
    for j, row in enumerate(v):
        single = directional_reduction_check(ch, curve, row)
        assert single.mismatch < 1e-5 and single.directions.shape == (1, 2)
        assert single.sld_slice[0, 0] == pytest.approx(check.sld_slice[j, j], rel=1e-9)
        assert single.sm_slice[0, 0] == pytest.approx(check.sm_slice[j, j], rel=1e-9)
    assert check.sld_slice[0, 0] == pytest.approx(h[0, 0], rel=1e-9)


def test_a_refused_fan_is_one_refusal_of_a_stacked_check(monkeypatch):
    # A stacked check holds the rows of the fans not refused, each the unrefused check's
    # row, and the refusals of the others; a point's refused fan raises its refusal.
    from qfibounds import bounds

    ch = random_kraus_channel(dim=3, env=2, seed=5, param_count=2)
    curve = spectral_curve(ch, np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6], [0.0, 0.7]]))
    v = np.random.default_rng(8).normal(size=(4, 3, 2))
    full = directional_reduction_check(ch, curve, v)
    original, error, refused = verify.spectral_curve, DegeneracyError("forced"), []

    def fan_curve(fan, theta, psi):
        stack = original(fan, theta, psi)
        hit = np.isin(np.arange(len(stack.theta)), refused)
        return bounds._rows(stack, ~hit, tuple(error if h else None for h in hit))

    monkeypatch.setattr(verify, "spectral_curve", fan_curve)
    refused[:] = [1, 2]
    check = directional_reduction_check(ch, curve, v)
    assert check.refusals == (None, error, error, None)
    for name in ("directions", "kraus_deriv_mismatch", "sld_slice", "sld_quadratic", "sm_slice",
                 "sm_quadratic", "mismatch"):
        assert np.array_equal(getattr(check, name), getattr(full, name)[[0, 3]]), name
    refused[:] = [0, 1, 2, 3]
    assert directional_reduction_check(ch, curve, v).mismatch.shape == (0,)
    refused[:] = [0]
    with pytest.raises(DegeneracyError, match="^forced$"):
        directional_reduction_check(ch, spectral_curve(ch, [0.1, 0.2]), v[0])


def test_narrow_fan_is_checked_like_a_wide_one():
    ch = random_kraus_channel(dim=2, env=2, seed=5, param_count=2)
    theta = np.array([0.999, 0.0])  # 1e-3 from the edge: a 20-direction fan is 5e-5 wide
    curve = spectral_curve(ch, theta)
    v = np.tile([1.0, 0.0], (20, 1))
    check = directional_reduction_check(ch, curve, v)
    assert check.mismatch < 1e-5
    assert check.sld_mismatch == check.sm_mismatch == check.kraus_deriv_mismatch == 0.0
    assert directional_reduction_check(ch, curve, v[0]).mismatch < 1e-5


def test_loewner_chain_random_channels():
    rng = np.random.default_rng(4)
    for channel, theta in two_param_battery(seed=21, count=6):
        report = _report(channel, theta, random_povm(channel.dim, rng))
        loewner = report_dict(report, "random")["loewner"]
        assert loewner["all_hold"], loewner


def test_matrix_equality_iff_attainable():
    """The attainability residual vanishes exactly when H and C coincide."""
    tol = 1e-6
    cases = [
        (builtin("example2"), np.array([0.6, 0.3])),
        (builtin("dephasing-2p"), np.array([0.4, 0.3])),
        (builtin("damped-rotation"), np.array([0.5, 0.4])),
    ] + two_param_battery(seed=31, count=8)
    for channel, theta in cases:
        report = _report(channel, theta, tol=tol)
        entry_gap = max_abs(report.channel_bound - report.sld_information)
        m, d = channel.param_count, channel.dim
        assert report.attainable == (entry_gap < m * d * d * tol), (
            channel.name,
            report.attainability_residual,
            entry_gap,
        )


def test_pinv_with_rank_discloses_singularity():
    # dephasing-2p's output moves with t1 t2 alone: H = H_q g g^T with g = (t2, t1)
    # and H_q = 1 / (q (1 - q)), of rank 1, whose pseudo-inverse is g g^T / (H_q |g|^4).
    t1, t2 = theta = np.array([0.4, 0.3])
    doc = report_dict(_report(builtin("dephasing-2p"), theta))
    floor = doc["covariance_floor"]
    assert floor["rank"] == 1
    g, q = np.array([t2, t1]), t1 * t2
    expected = np.outer(g, g) * q * (1 - q) / (g @ g) ** 2
    assert max_abs(floor["matrix"] - expected) < 1e-9
    assert doc["warnings"] == ["SLD information matrix is rank 1 of 2; covariance floor uses "
                               "the pseudo-inverse"]


def test_multi_degeneracy_is_refused():
    ch = builtin("dephasing-2p")
    with pytest.raises(DegeneracyError):
        spectral_curve(ch, np.array([0.625, 0.8]))  # t1 t2 = 0.5 crossing


def test_directional_suite_regression_seed():
    """Battery seed whose diagonal mismatch was 3.2e-08 with stencil derivatives."""
    results = directional_suite(seed=6180588700756636604)
    assert all(r.passed for r in results), [r.detail for r in results]


KRAUS_2P = [("dephasing-2p", {}, [[0.4, 0.3], [0.7, 0.2], [0.2, 0.9]]),
            ("rotation-2p", {}, [[0.2, 0.3], [-1.1, 0.4], [0.0, 0.0]]),
            ("damped-rotation", {}, [[0.5, 0.4], [0.3, -1.2], [0.8, 1.5]]),
            ("random-kraus", dict(dim=3, env=2, seed=11, param_count=2),
             [[0.3, 0.4], [-0.5, 0.6], [0.1, -0.8]])]


def test_matrix_report_keys_carry_the_gap_and_the_kraus_routes():
    # gap = C - H entry by entry, H <= C_E, diag C_E the per-axis Kraus bound and
    # |C - C_kraus| small, over the two-parameter battery and the built-in Kraus families.
    cases = [point for seed in (verify.DEFAULT_SEED, 1, 3) for point in two_param_battery(seed)]
    cases += [(builtin(name, **kw), np.array(thetas[0])) for name, kw, thetas in KRAUS_2P]
    for channel, theta in cases:
        report = bound_report(channel, spectral_curve(channel, theta))
        doc = report_dict(report)
        h, c = report.sld_information, report.channel_bound
        gap, c_e = (np.array(doc[key]["entries"]) for key in ("gap", "representation_bound"))
        kinds = doc["gap"]["kind"], doc["representation_bound"]["kind"]
        assert kinds == ("gap", "representation")
        assert np.all(np.abs(gap - (c - h)) <= 1e-8 * np.maximum(1.0, np.abs(c))), channel.name
        assert loewner_leq(h, c_e, 1e-8)[0], channel.name
        rho0 = channel.input_state.density()
        for l in range(2):
            raw = channel.kraus_matrices(theta), channel.kraus_partials(theta)[l]
            assert c_e[l, l] == sm_bound_kraus(*raw, rho0), (channel.name, l)
        assert doc["method_cross_check"] < 1e-6, channel.name


@pytest.mark.parametrize("name, kw, thetas", KRAUS_2P, ids=[case[0] for case in KRAUS_2P])
def test_stacked_matrix_report_rows_are_their_point_reports(name, kw, thetas):
    channel = builtin(name, **kw)
    stacked = bound_report(channel, spectral_curve(channel, np.array(thetas)))
    fields = ("theta", "sld_information", "channel_bound", "gap", "representation_bound",
              "kraus_bound", "attainable", "attainability_residual", "quasi_classical",
              "method_cross_check", "warnings")
    for i, theta in enumerate(thetas):
        point = bound_report(channel, spectral_curve(channel, theta))
        for field in fields:
            row, alone = np.asarray(getattr(stacked, field)[i]), np.asarray(getattr(point, field))
            assert np.array_equal(row, alone) and row.dtype == alone.dtype, (theta, field)
