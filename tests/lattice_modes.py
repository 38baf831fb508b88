"""The Fourier symbol of the lattice's first difference on a grid's modes, for the tests.

On a mode e^{ik.x} the periodic central difference D_a acts as i kappa_a, with
kappa_a dx_a = sin(k_a dx_a) at order 2 and (8 sin(k_a dx_a) - sin(2 k_a dx_a))/6
at order 4 (`lattice.kappa_dx`), so sum_a D_a D_a acts as -|kappa|^2 and
sigma^a D_a as i sigma.kappa.
"""

import numpy as np

from diracfluid.lattice import kappa_dx


def grid_kappas(grid, order):
    """kappa_a on every mode of the grid, in np.fft's mode order: one grid.shape array per axis."""
    thetas = np.meshgrid(*(2.0 * np.pi * np.fft.fftfreq(n) for n in grid.points), indexing="ij")
    return [kappa_dx(theta, order) / dx for theta, dx in zip(thetas, grid.dx)]
