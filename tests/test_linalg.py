import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from qfibounds.errors import ValidationError
from qfibounds.linalg import (
    differentiate_curve,
    hermitian_eigendecompose,
    loewner_leq,
    max_abs,
    psd_sqrt,
    unitary_exponential,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_eigendecompose_identity():
    sys = hermitian_eigendecompose(np.eye(2))
    assert np.allclose(sys.eigenvalues, [1.0, 1.0])


def test_eigendecompose_sigma_z():
    sys = hermitian_eigendecompose(SZ)
    assert np.allclose(sys.eigenvalues, [-1.0, 1.0])
    # eigenvector for -1 is |1>, for +1 is |0>
    assert np.allclose(np.abs(sys.eigenvectors[:, 0]), [0.0, 1.0])
    assert np.allclose(np.abs(sys.eigenvectors[:, 1]), [1.0, 0.0])


def test_eigendecompose_damped_plus_state():
    # amplitude-damped |+><+| at theta = 0.5; 2x2 quadratic gives (1 +- sqrt(0.75)) / 2
    a = 0.5 * np.array([[1.5, np.sqrt(0.5)], [np.sqrt(0.5), 0.5]])
    sys = hermitian_eigendecompose(a)
    expected = np.array([(1 - np.sqrt(0.75)) / 2, (1 + np.sqrt(0.75)) / 2])
    assert np.allclose(sys.eigenvalues, expected, atol=1e-4)


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="asymmetry"):
        hermitian_eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigendecompose_reconstruction_random():
    rng = np.random.default_rng(1)
    for dim in range(2, 9):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (x + x.conj().T) / 2
        sys = hermitian_eigendecompose(a)
        recon = (sys.eigenvectors * sys.eigenvalues) @ sys.eigenvectors.conj().T
        assert max_abs(recon - a) < 1e-9 * max(1.0, max_abs(a))
        gram = sys.eigenvectors.conj().T @ sys.eigenvectors
        assert max_abs(gram - np.eye(dim)) < 1e-10


def test_eigendecompose_deterministic_gauge():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (x + x.conj().T) / 2
    s1 = hermitian_eigendecompose(a)
    s2 = hermitian_eigendecompose(a.copy())
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
    # largest-magnitude entry of each column is real positive
    for i in range(4):
        col = s1.eigenvectors[:, i]
        top = col[np.argmax(np.abs(col))]
        assert top.imag == pytest.approx(0.0, abs=1e-12)
        assert top.real > 0


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.allclose(psd_sqrt(plus), plus)  # rank-1 projector is its own root


def test_psd_sqrt_square_reconstructs():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = x @ x.conj().T
    b = psd_sqrt(a)
    assert max_abs(b @ b - a) < 1e-9 * max(1.0, max_abs(a))


def test_psd_sqrt_of_a_pure_state_is_the_state():
    # a round-off eigenvalue near 1e-17 has a root near 3e-9: it must count as zero
    from qfibounds.channels import random_kraus_channel

    for seed in range(20):
        rho = random_kraus_channel(dim=3, env=2, seed=seed).input_state.density().matrix
        assert max_abs(psd_sqrt(rho) - rho) < 1e-15, seed


def test_psd_sqrt_of_a_rank_one_projector_is_the_projector():
    # eigh alone leaves a few ulp: about 1 in 300 random projectors at d <= 4
    # misses 1e-15 by one ulp, with or without a gauge fixed.
    rng = np.random.default_rng(7)
    for dim in range(2, 9):
        for _ in range(20):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            projector = np.outer(v, v.conj())
            assert max_abs(psd_sqrt(projector) - projector) <= 2e-15, dim


def test_psd_sqrt_inverts_squaring():
    rng = np.random.default_rng(8)
    for dim in range(2, 9):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = x @ x.conj().T
        assert max_abs(psd_sqrt(b @ b) - b) < 1e-10 * max_abs(b), dim


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="not Hermitian"):
        psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_stacked_eigendecomposition_fixes_each_gauge_as_alone():
    # Phases and the order inside degenerate clusters are fixed matrix by
    # matrix: a stack gives the bits of separate calls.
    rng = np.random.default_rng(9)
    stack = []
    for _ in range(6):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(x)
        stack.append((q * [0.0, 0.0, 0.4, 0.6]) @ q.conj().T)  # a degenerate zero cluster
        stack.append((x + x.conj().T) / 2)
    stacked = hermitian_eigendecompose(np.array(stack))
    for i, a in enumerate(stack):
        alone = hermitian_eigendecompose(a)
        assert np.array_equal(stacked.eigenvalues[i], alone.eigenvalues)
        assert np.array_equal(stacked.eigenvectors[i], alone.eigenvectors)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValidationError, match="PSD"):
        psd_sqrt(np.diag([1.0, -1e-6]))
    with pytest.raises(ValidationError, match="min eigenvalue -1.000e-06"):
        psd_sqrt(np.array([np.eye(2), np.diag([1.0, -1e-6])]))


def test_stacked_psd_sqrt_keeps_each_matrix_bits_and_floor():
    # One batched eigh gives each root of a stack the bits of its own call;
    # the round-off floor is each matrix's own, so a small matrix beside a
    # large one keeps its small eigenvalues.
    rng = np.random.default_rng(10)
    for dim in range(1, 7):
        x = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        v = x[:, :, :1] / np.linalg.norm(x[:, :, :1], axis=1, keepdims=True)
        stack = np.concatenate([x @ x.conj().swapaxes(-1, -2), v @ v.conj().swapaxes(-1, -2)])
        stack[0] *= 1e4  # a shared floor, about 1e-11, would zero all of stack[1]
        stack[1] *= 1e-14
        roots = psd_sqrt(stack)
        for root, a in zip(roots, stack):
            assert np.array_equal(root, psd_sqrt(a)), dim
        assert max_abs(roots[1] @ roots[1] - stack[1]) < 1e-6 * max_abs(stack[1]), dim


def test_loewner_examples():
    assert loewner_leq(np.zeros((2, 2)), np.eye(2), 1e-9) == (True, 1.0)
    ok, eig = loewner_leq(np.eye(2), np.eye(2), 1e-9)
    assert ok and abs(eig) < 1e-12
    ok, eig = loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]), 1e-9)
    assert not ok and eig == pytest.approx(-1.0)


def test_loewner_dim_mismatch():
    with pytest.raises(ValidationError):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_mutual_implies_equal():
    rng = np.random.default_rng(4)
    tol = 1e-8
    for _ in range(20):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = (x + x.conj().T) / 2
        b = a + tol * 0.1 * np.eye(3)
        ok_ab, _ = loewner_leq(a, b, tol)
        ok_ba, _ = loewner_leq(b, a, tol)
        if ok_ab and ok_ba:
            assert max_abs(a - b) < 2 * tol * 3


def test_differentiate_constant_and_linear():
    assert max_abs(differentiate_curve(lambda t: np.eye(2), 0.3)) < 1e-10
    d = differentiate_curve(lambda t: t * SX, 0.5)
    assert max_abs(d - SX) < 1e-9


def test_differentiate_matrix_exponential():
    curve = lambda t: expm(-0.5j * t * SZ)
    got = differentiate_curve(curve, 0.3, step=1e-4)
    want = -0.5j * SZ @ expm(-0.5j * 0.3 * SZ)
    assert max_abs(got - want) < 1e-9


def test_differentiate_analytic_relative_accuracy():
    # the default step, h = 1e-4, central-4: relative error below 1e-6
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (x + x.conj().T) / 2
    curve = lambda t: expm(-1j * t * h)
    got = differentiate_curve(curve, 0.7)
    want = -1j * h @ expm(-1j * 0.7 * h)
    assert max_abs(got - want) / max_abs(want) < 1e-6


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (x + x.conj().T) / (2 * np.sqrt(n))


def _assert_matches_scipy(h: np.ndarray, directions) -> None:
    exp = unitary_exponential(h)
    assert max_abs(exp.unitary() - expm(-1j * h)) < 1e-13
    for g in directions:
        want = expm_frechet(-1j * h, -1j * g, compute_expm=False)
        assert max_abs(exp.partial(g) - want) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_unitary_exponential_matches_scipy(n):
    rng = np.random.default_rng(100 + n)
    gens = [_hermitian(n, rng) for _ in range(2)]
    for theta in ([0.7, -0.4], [1.3, 0.9], [0.0, 0.0]):
        h = theta[0] * gens[0] + theta[1] * gens[1]
        _assert_matches_scipy(h, gens)


def test_unitary_exponential_at_zero_is_identity_with_derivative_minus_i_g():
    rng = np.random.default_rng(7)
    g = _hermitian(5, rng)
    exp = unitary_exponential(np.zeros((5, 5), dtype=complex))
    assert max_abs(exp.unitary() - np.eye(5)) < 1e-15
    assert max_abs(exp.partial(g) - (-1j * g)) < 1e-15


def test_unitary_exponential_on_an_exactly_degenerate_pair():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    h = (q * np.array([-0.8, 0.3, 0.3, 1.1])) @ q.conj().T
    h = (h + h.conj().T) / 2
    values = np.linalg.eigvalsh(h)
    assert abs(values[1] - values[2]) < 1e-14
    _assert_matches_scipy(h, [_hermitian(4, rng) for _ in range(2)])


def test_unitary_exponential_columns_select_the_full_result():
    rng = np.random.default_rng(9)
    h, g = _hermitian(6, rng), _hermitian(6, rng)
    exp = unitary_exponential(h)
    cols = slice(0, None, 3)
    assert max_abs(exp.unitary(cols) - exp.unitary()[:, cols]) < 1e-15
    assert max_abs(exp.partial(g, cols) - exp.partial(g)[:, cols]) < 1e-15


def test_unitary_exponential_partial_matches_central_difference():
    rng = np.random.default_rng(10)
    gens = [_hermitian(3, rng) for _ in range(2)]
    theta = np.array([0.4, -0.9])

    def curve(index):
        def u(t):
            point = theta.copy()
            point[index] = t
            return unitary_exponential(point[0] * gens[0] + point[1] * gens[1]).unitary()

        return u

    exp = unitary_exponential(theta[0] * gens[0] + theta[1] * gens[1])
    for index, g in enumerate(gens):
        numeric = differentiate_curve(curve(index), theta[index], step=1e-3)
        assert max_abs(exp.partial(g) - numeric) < 1e-9


@pytest.mark.parametrize("theta", [(0.0, 0.0), (0.7, -0.4)])
def test_rotation_two_param_matches_closed_form(theta):
    from qfibounds.channels import rotation_two_param

    channel = rotation_two_param()
    r = float(np.hypot(*theta))
    axis = np.array(theta) / r if r else np.zeros(2)
    want = np.cos(r / 2) * np.eye(2) - 1j * np.sin(r / 2) * (axis[0] * SX + axis[1] * SY)
    [u] = channel.kraus_matrices(np.array(theta))
    assert max_abs(u - want) < 1e-15
    if r == 0:
        for index, sigma in enumerate((SX, SY)):
            [du] = channel.kraus_grad_fn(np.array(theta), index)
            assert max_abs(du - (-0.5j * sigma)) < 1e-15
