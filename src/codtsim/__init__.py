"""Simulation and analysis toolkit for a single-lens crossed-beam optical dipole trap.

Covers astigmatic Gaussian beam optics behind a single high-NA lens, AOD-steered
crossing geometry, time-averaged (painted) dipole potentials, trap
characterization, evaporation ramp timelines, time-of-flight condensate
signatures, multi-site array design with power compensation, and beam-pointing
flight statistics.
"""

__version__ = "0.1.0"

from .constants import PhysicalConstants
from .optics import (
    AstigmaticBeam,
    InputBeam,
    OpticalLayout,
    beam_intensity,
    build_beamlines,
    deflection_to_displacement,
    focus_input_beam,
)
from .potential import ModulationWaveform, ScalarField3D, time_averaged_potential
from .trapchar import (
    ThermoMetrics,
    TrapReport,
    characterize,
    reachable_volume,
    thermo_metrics,
)

__all__ = [
    "PhysicalConstants",
    "OpticalLayout",
    "InputBeam",
    "AstigmaticBeam",
    "focus_input_beam",
    "beam_intensity",
    "deflection_to_displacement",
    "build_beamlines",
    "ModulationWaveform",
    "ScalarField3D",
    "time_averaged_potential",
    "TrapReport",
    "ThermoMetrics",
    "characterize",
    "reachable_volume",
    "thermo_metrics",
    "__version__",
]
