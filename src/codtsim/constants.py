"""Physical constants for the Rb-87 dipole trap model."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

# CODATA 2022 values as scipy.constants 1.17 gives them (pinned in
# tests/test_cold_start.py); literals keep scipy off the import path.
ATOMIC_MASS_KG = 1.66053906892e-27
VACUUM_PERMITTIVITY = 8.8541878188e-12  # F/m
SPEED_OF_LIGHT = 299792458.0  # m/s
BOLTZMANN = 1.380649e-23  # J/K
REDUCED_PLANCK = 1.0545718176461565e-34  # J s

ATOMIC_POLARIZABILITY_SI = 1.648777274e-41  # C m^2/V per atomic unit

# Rb-87 ground-state scalar polarizability at 1064 nm, atomic units.
RB87_POLARIZABILITY_AU = 687.3
RB87_MASS_KG = 86.909180527 * ATOMIC_MASS_KG


@dataclass(frozen=True)
class PhysicalConstants:
    """The atom and gravity entering the dipole potential, the settings the config owns.

    ``polarizability`` is the real part of the ground-state scalar
    polarizability in SI units (C m^2/V); the dipole potential is
    U = -polarizability/(2 eps0 c) * I + m g z.  The fundamental constants
    are the module's.
    """

    atom_mass: float = RB87_MASS_KG
    polarizability: float = RB87_POLARIZABILITY_AU * ATOMIC_POLARIZABILITY_SI
    gravity: float = 0.0  # microgravity; 9.81 for lab conditions

    def __post_init__(self) -> None:
        if self.atom_mass <= 0 or self.polarizability <= 0:
            raise DomainError("atom mass and polarizability must be strictly positive")
        if self.gravity < 0:
            raise DomainError("gravity must be >= 0")

    @property
    def dipole_coefficient(self) -> float:
        """Intensity-to-energy conversion alpha/(2 eps0 c), in J per (W/m^2)."""
        return self.polarizability / (2 * VACUUM_PERMITTIVITY * SPEED_OF_LIGHT)
