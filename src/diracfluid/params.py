"""Physical constants and numerical tolerances carried through a run."""

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class PhysParams:
    """hbar, m, c plus the tolerance set used by the fluid map and steppers.

    Natural units hbar = m = c = 1 are the defaults; every formula keeps the
    constants explicit so any positive values work.
    """

    hbar: float = 1.0
    m: float = 1.0
    c: float = 1.0
    # relative floors for masking degenerate points in the spinor->fluid map
    eps_density_rel: float = 1e-12
    eps_beta_rel: float = 1e-12
    # one-step max|psi| growth factor that aborts time stepping
    instability_growth: float = 10.0

    def __post_init__(self):
        for name in ("hbar", "m", "c"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"physics.{name} must be positive")
        if not self.instability_growth > 1:  # a limit of 1 or less is not a growth limit
            raise ConfigError("physics.instability_growth must exceed 1")
        for name in ("eps_density_rel", "eps_beta_rel"):  # 1 or more masks all but the max
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"physics.{name} must lie in [0, 1)")
        self.check_scales()

    def check_scales(self) -> None:
        """Raise ConfigError unless every scale made of hbar, m and c alone is finite and nonzero.

        Products stand in for the package's powers, so an overflow reads inf
        here where the package's own ** would raise OverflowError.
        """
        hbar, m, c = self.hbar, self.m, self.c
        mu, mc2 = m * c / hbar, m * (c * c)
        scales = {"hbar/m": hbar / m, "(hbar/m)^2": (hbar / m) * (hbar / m),
                  "hbar^2/m": hbar * hbar / m, "hbar^2/(2m)": hbar * hbar / (2.0 * m),
                  "m/hbar": m / hbar, "c*hbar": c * hbar, "mu = mc/hbar": mu, "mu^2": mu * mu,
                  "mc^2": mc2, "(mc^2)^2": mc2 * mc2}
        bad = [name for name, value in scales.items() if not 0 < value < math.inf]
        if bad:
            raise ConfigError(f"physics: hbar={hbar:g}, m={m:g}, c={c:g} make "
                              f"{', '.join(bad)} overflow or vanish")

    @property
    def mass_wavenumber(self) -> float:
        """m*c/hbar, the inverse reduced Compton wavelength (units 1/length)."""
        return self.m * self.c / self.hbar
