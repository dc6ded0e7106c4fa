"""Physical constants for the Rb-87 dipole trap model."""

from __future__ import annotations

from dataclasses import dataclass, replace

import scipy.constants as sc

from .errors import DomainError

ATOMIC_POLARIZABILITY_SI = 1.648777274e-41  # C m^2/V per atomic unit

# Rb-87 ground-state scalar polarizability at 1064 nm, atomic units.
RB87_POLARIZABILITY_AU = 687.3
RB87_MASS_KG = 86.909180527 * sc.atomic_mass


@dataclass(frozen=True)
class PhysicalConstants:
    """Atom and field constants entering the dipole potential.

    ``polarizability`` is the real part of the ground-state scalar
    polarizability in SI units (C m^2/V); the dipole potential is
    U = -polarizability/(2 eps0 c) * I + m g z.
    """

    atom_mass: float = RB87_MASS_KG
    polarizability: float = RB87_POLARIZABILITY_AU * ATOMIC_POLARIZABILITY_SI
    vacuum_permittivity: float = sc.epsilon_0
    speed_of_light: float = sc.c
    boltzmann: float = sc.k
    reduced_planck: float = sc.hbar
    gravity: float = 9.81

    def __post_init__(self) -> None:
        positives = (
            self.atom_mass,
            self.polarizability,
            self.vacuum_permittivity,
            self.speed_of_light,
            self.boltzmann,
            self.reduced_planck,
        )
        if any(v <= 0 for v in positives):
            raise DomainError("all constants except gravity must be strictly positive")
        if self.gravity < 0:
            raise DomainError("gravity must be >= 0")

    @property
    def dipole_coefficient(self) -> float:
        """Intensity-to-energy conversion alpha/(2 eps0 c), in J per (W/m^2)."""
        return self.polarizability / (2 * self.vacuum_permittivity * self.speed_of_light)

    def with_gravity(self, g: float) -> "PhysicalConstants":
        return replace(self, gravity=g)
