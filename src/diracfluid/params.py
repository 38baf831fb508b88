"""Physical constants and numerical tolerances carried through a run."""

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

    @property
    def mass_wavenumber(self) -> float:
        """m*c/hbar, the inverse reduced Compton wavelength (units 1/length)."""
        return self.m * self.c / self.hbar
