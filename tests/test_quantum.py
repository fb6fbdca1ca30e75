import numpy as np
import pytest

from qfibounds.errors import ValidationError
from qfibounds.quantum import (
    POVM,
    DensityMatrix,
    PureState,
    check_povm,
    computational_basis_povm,
    measurement_distribution,
    pauli_basis_povm,
)

PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
KET0 = PureState(np.array([1.0, 0.0]))


def test_density_matrix_rejections():
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="PSD"):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_pure_state_norm():
    with pytest.raises(ValidationError, match="norm defect"):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValidationError, match="norm defect nan"):  # nan fails every comparison
        PureState(np.array([1.0, np.nan]))


def test_povm_invariants():
    with pytest.raises(ValidationError, match="resolution"):
        POVM(np.array([np.eye(2) * 0.5]))
    with pytest.raises(ValidationError, match="PSD"):
        POVM(np.array([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]))
    # single-element POVM {I} is allowed
    POVM(np.array([np.eye(3)]))


def test_stacked_povm_check_refuses_the_first_bad_row_as_its_povm():
    good = computational_basis_povm(2).elements
    skew = np.array([[[1.0, 0.1], [0.0, 0.0]], [[0.0, -0.1], [0.0, 1.0]]])  # resolves I
    negative = np.array([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])
    short = np.array([np.diag([0.5, 0.5]), np.diag([0.5, 0.4])])
    skew_and_short = skew * 0.9  # a POVM checks Hermiticity first
    stack = np.array([good, good])
    assert check_povm(stack) is stack and check_povm(good) is good
    for rows in ([good, negative, skew], [skew_and_short, short], [good, good, short, negative]):
        first = next(row for row in rows if row is not good)
        with pytest.raises(ValidationError) as alone:
            POVM(first)
        with pytest.raises(ValidationError) as together:
            check_povm(np.array(rows, dtype=complex))
        assert str(together.value) == str(alone.value)
    with pytest.raises(ValidationError, match="^element not Hermitian: defect 9.000e-02$"):
        check_povm(skew_and_short)


def test_measurement_distribution_examples():
    comp = computational_basis_povm(2)
    assert np.allclose(measurement_distribution(KET0.density(), comp), [1.0, 0.0])
    assert np.allclose(measurement_distribution(PLUS.density(), comp), [0.5, 0.5])
    dephased = DensityMatrix(np.array([[0.5, 0.3], [0.3, 0.5]]))  # dephasing at 0.2 on |+>
    pm = pauli_basis_povm("x")
    assert np.allclose(measurement_distribution(dephased, pm), [0.8, 0.2])


def test_measurement_distribution_properties():
    rng = np.random.default_rng(2)
    pm = pauli_basis_povm("y")
    for _ in range(10):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = PureState(x / np.linalg.norm(x)).density()
        probs = measurement_distribution(rho, pm)
        assert np.all(probs >= 0) and np.all(probs <= 1)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_dimension_mismatch():
    with pytest.raises(ValidationError, match="mismatch"):
        measurement_distribution(DensityMatrix(np.eye(3) / 3), computational_basis_povm(2))


def test_immutability():
    rho = PLUS.density()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0
