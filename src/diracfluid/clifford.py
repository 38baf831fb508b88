"""Pauli and gamma matrices in the standard (Dirac) block representation.

All entries lie in {0, +-1, +-i}, so matrix products and sums over them are
exact in floating point; the anticommutator check below is therefore an exact
integer identity, not an approximate one.
"""

from __future__ import annotations

import numpy as np

from .lattice import METRIC_SIGNATURE

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli(i: int) -> np.ndarray:
    """sigma^i for i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2, or 3, got {i}")
    return _SIGMA[i - 1].copy()


def gamma(mu: int) -> np.ndarray:
    """gamma^mu for mu in {0, 1, 2, 3}: gamma^0 = diag(I, -I), gamma^i = offdiag(sigma^i, -sigma^i)."""
    if mu == 0:
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = I2
        out[2:, 2:] = -I2
        return out
    if mu in (1, 2, 3):
        s = _SIGMA[mu - 1]
        out = np.zeros((4, 4), dtype=complex)
        out[:2, 2:] = s
        out[2:, :2] = -s
        return out
    raise ValueError(f"gamma index must be in 0..3, got {mu}")


def anticommutation_deviation() -> float:
    """max over (mu, nu) of max|{gamma^mu, gamma^nu} - 2 eta^{mu nu} I|; exactly 0.0."""
    worst = 0.0
    gammas = [gamma(mu) for mu in range(4)]
    for mu in range(4):
        for nu in range(4):
            anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
            target = 2.0 * (METRIC_SIGNATURE[mu] if mu == nu else 0.0) * I4
            worst = max(worst, float(np.max(np.abs(anti - target))))
    return worst


def sigma_dot(k) -> np.ndarray:
    """k_i sigma^i for a 3-component wave vector (2x2 complex matrix)."""
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise ValueError(f"sigma_dot needs 3 components, got shape {k.shape}")
    return k[0] * _SIGMA[0] + k[1] * _SIGMA[1] + k[2] * _SIGMA[2]
