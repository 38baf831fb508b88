import numpy as np
import pytest

from diracfluid.clifford import anticommutation_deviation, gamma, pauli, sigma_dot

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_matrices_frozen():
    assert np.array_equal(pauli(1), SIGMA_X)
    assert np.array_equal(pauli(2), SIGMA_Y)
    assert np.array_equal(pauli(3), SIGMA_Z)


def test_pauli_index_rejected():
    with pytest.raises(ValueError):
        pauli(0)
    with pytest.raises(ValueError):
        pauli(4)


def test_pauli_product_algebra():
    # sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k
    eye = np.eye(2, dtype=complex)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for i in range(3):
        for j in range(3):
            expected = (i == j) * eye + 1j * sum(
                eps[i, j, k] * pauli(k + 1) for k in range(3))
            assert np.array_equal(pauli(i + 1) @ pauli(j + 1), expected)


def test_gamma_blocks_frozen():
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    assert np.array_equal(gamma(0), np.block([[eye, zero], [zero, -eye]]))
    for i, sigma in ((1, SIGMA_X), (2, SIGMA_Y), (3, SIGMA_Z)):
        assert np.array_equal(gamma(i), np.block([[zero, sigma], [-sigma, zero]]))
    with pytest.raises(ValueError):
        gamma(4)


def test_anticommutation_deviation_exactly_zero():
    assert anticommutation_deviation() == 0.0


def test_sigma_dot_linear_and_hermitian():
    k = np.array([0.3, -1.2, 0.5])
    m = sigma_dot(k)
    expected = k[0] * SIGMA_X + k[1] * SIGMA_Y + k[2] * SIGMA_Z
    assert np.array_equal(m, expected)
    assert np.array_equal(m, m.conj().T)
    # (sigma.k)^2 = |k|^2 I
    np.testing.assert_allclose(m @ m, np.dot(k, k) * np.eye(2), atol=1e-15)


def test_sigma_dot_needs_three_components():
    with pytest.raises(ValueError):
        sigma_dot([1.0, 2.0])
