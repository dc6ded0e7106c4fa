"""Instantaneous and time-averaged optical dipole potentials.

The optical part is U = -alpha/(2 eps0 c) * (I1 + I2); gravity adds m g z.
No interference term between the two beams (they come from separate lasers,
mutual coherence averages out).  Time-averaged potentials discretize one
modulation period into equidistant phases and average the instantaneous
potential produced by the displaced beams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .constants import PhysicalConstants
from .errors import DomainError
from .kernels import BEAM_RECORD_SIZE
from .optics import (
    CHANNELS,
    InputBeam,
    OpticalLayout,
    build_beamlines,
    crossing_from_offsets,
    deflection_to_displacement,
    focus_input_beam,
    place_beams,
)

DEFAULT_N_PHASES = 256
DEFAULT_FIELD_DIMS = (96, 96, 96)


@dataclass(frozen=True)
class ModulationWaveform:
    """Periodic four-channel AOD drive (h1, v1, h2, v2).

    Each channel holds time-sorted samples of frequency offset (MHz) and a
    non-negative amplitude weight.  ``interpolation`` selects how values are
    read between samples: "hold" (tones, dwell segments) or "linear" (sweeps).
    A beam's per-phase power multiplier is the product of the weights of its
    two channels.
    """

    times: tuple[np.ndarray, ...]  # per channel, seconds in [0, period)
    freq_offsets_mhz: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    period: float = 1e-3
    interpolation: str = "linear"

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise DomainError("waveform period must be positive")
        if self.interpolation not in ("hold", "linear"):
            raise DomainError(f"unknown interpolation {self.interpolation!r}")
        if not (len(self.times) == len(self.freq_offsets_mhz) == len(self.weights) == 4):
            raise DomainError("waveform must carry exactly four channels")
        times = tuple(np.asarray(t, dtype=float) for t in self.times)
        freqs = tuple(np.asarray(f, dtype=float) for f in self.freq_offsets_mhz)
        wts = tuple(np.asarray(w, dtype=float) for w in self.weights)
        for ch, (t, f, w) in enumerate(zip(times, freqs, wts)):
            if not (t.shape == f.shape == w.shape) or t.ndim != 1 or t.size == 0:
                raise DomainError(f"channel {CHANNELS[ch]}: inconsistent sample arrays")
            if np.any(np.diff(t) < 0):
                raise DomainError(f"channel {CHANNELS[ch]}: samples must be time-sorted")
            if t[0] < 0 or t[-1] >= self.period:
                raise DomainError(f"channel {CHANNELS[ch]}: sample times must lie in [0, period)")
            if np.any(w < 0):
                raise DomainError(f"channel {CHANNELS[ch]}: amplitude weights must be >= 0")
            if np.mean(w) > 1.0 + 1e-9:
                raise DomainError(
                    f"channel {CHANNELS[ch]}: mean amplitude weight exceeds 1 "
                    "(cannot exceed available power)"
                )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "freq_offsets_mhz", freqs)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def constant(cls, freq_offsets_mhz=(0.0, 0.0, 0.0, 0.0), weights=(1.0, 1.0, 1.0, 1.0), period: float = 1e-3) -> "ModulationWaveform":
        return cls(
            times=tuple(np.array([0.0]) for _ in range(4)),
            freq_offsets_mhz=tuple(np.array([float(f)]) for f in freq_offsets_mhz),
            weights=tuple(np.array([float(w)]) for w in weights),
            period=period,
            interpolation="hold",
        )

    def max_offset_mhz(self) -> float:
        return max(float(np.max(np.abs(f))) if f.size else 0.0 for f in self.freq_offsets_mhz)

    def validate_against(self, layout: OpticalLayout) -> None:
        if self.max_offset_mhz() > layout.aod_freq_range_mhz * (1 + 1e-12):
            raise DomainError(
                "waveform frequency offsets exceed AOD range "
                f"+/-{layout.aod_freq_range_mhz} MHz"
            )

    def sample(self, n_phases: int) -> tuple[np.ndarray, np.ndarray]:
        """Channel frequency offsets and weights at n equidistant phases.

        Returns arrays of shape (n_phases, 4).
        """
        if n_phases < 1:
            raise DomainError("need at least one phase")
        t_eval = np.arange(n_phases) * (self.period / n_phases)
        freqs = np.empty((n_phases, 4))
        wts = np.empty((n_phases, 4))
        for ch in range(4):
            t, f, w = self.times[ch], self.freq_offsets_mhz[ch], self.weights[ch]
            if t.size == 1:
                freqs[:, ch] = f[0]
                wts[:, ch] = w[0]
            elif self.interpolation == "hold":
                idx = np.searchsorted(t, t_eval, side="right") - 1
                idx[idx < 0] = t.size - 1  # before first sample: wrap to last
                freqs[:, ch] = f[idx]
                wts[:, ch] = w[idx]
            else:
                # periodic linear interpolation
                tp = np.concatenate([t, [t[0] + self.period]])
                fp = np.concatenate([f, [f[0]]])
                wp = np.concatenate([w, [w[0]]])
                freqs[:, ch] = np.interp(t_eval, tp, fp, period=self.period)
                wts[:, ch] = np.interp(t_eval, tp, wp, period=self.period)
        return freqs, wts


def beams_to_records(beams) -> np.ndarray:
    """Pack beams into kernel records (layout in :mod:`codtsim.kernels`)."""
    recs = np.empty((len(beams), BEAM_RECORD_SIZE))
    for i, b in enumerate(beams):
        recs[i, 0:3] = b.origin
        recs[i, 3:6] = b.direction
        recs[i, 6:9] = b.h_axis
        recs[i, 9:12] = b.v_axis
        recs[i, 12] = b.waist_h
        recs[i, 13] = b.waist_v
        recs[i, 14] = b.focus_h
        recs[i, 15] = b.focus_v
        recs[i, 16] = b.rayleigh_h
        recs[i, 17] = b.rayleigh_v
        recs[i, 18] = b.power
    return recs


class DipolePotential:
    """Callable U(points) built from a fixed set of weighted beam records."""

    def __init__(self, constants: PhysicalConstants, records: np.ndarray):
        self.constants = constants
        self.records = np.ascontiguousarray(records, dtype=np.float64)

    def intensity(self, points) -> np.ndarray:
        return kernels.intensity_sum(np.atleast_2d(np.asarray(points, dtype=float)), self.records)

    def optical(self, points) -> np.ndarray:
        return -self.constants.dipole_coefficient * self.intensity(points)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        u = self.optical(pts)
        if self.constants.gravity:
            u = u + self.constants.atom_mass * self.constants.gravity * pts[:, 2]
        return u

    def at(self, point) -> float:
        return float(self(np.asarray(point, dtype=float).reshape(1, 3))[0])


def static_potential(constants: PhysicalConstants, beams) -> DipolePotential:
    return DipolePotential(constants, beams_to_records(beams))


def dipole_potential_at(constants: PhysicalConstants, beams, point) -> np.ndarray | float:
    """Dipole + gravity potential (J) of the given beams at a point or points."""
    pot = static_potential(constants, beams)
    if np.ndim(point) == 1:
        return pot.at(point)
    return pot(point)


def _sampled_offsets(
    layout: OpticalLayout, waveform: ModulationWaveform, n_phases: int
) -> tuple[np.ndarray, np.ndarray]:
    """Beam displacements (h1, v1, h2, v2) in m and channel weights, both (n_phases, 4)."""
    waveform.validate_against(layout)
    freqs, wts = waveform.sample(n_phases)
    offsets = np.column_stack(
        [deflection_to_displacement(layout, ch, freqs[:, i]) for i, ch in enumerate(CHANNELS)]
    )
    return offsets, wts


def time_averaged_potential(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    waveform: ModulationWaveform,
    n_phases: int = DEFAULT_N_PHASES,
) -> DipolePotential:
    """Continuous time-averaged potential over one waveform period.

    Discretizes the period at ``n_phases`` equidistant phases; per-phase beam
    positions come from the deflection map and per-phase powers from the
    channel amplitude weights.  Records run beam 1, beam 2 per phase.
    """
    offsets, wts = _sampled_offsets(layout, waveform, n_phases)
    origins, scales, m2 = place_beams(layout, offsets)
    # the aligned pair fixes directions, axes, foci and powers; placement
    # moves the origins and scales waists at fixed Rayleigh range
    records = np.repeat(beams_to_records(build_beamlines(layout, inputs))[None], n_phases, axis=0)
    wavelengths = np.array([b.wavelength for b in inputs])
    records[..., 0:3] = origins
    records[..., 12:14] *= scales[..., None]
    records[..., 16:18] = math.pi * records[..., 12:14] ** 2 / (m2 * wavelengths)[..., None]
    records[..., 18] *= wts[:, 0::2] * wts[:, 1::2] / n_phases  # (h1 v1, h2 v2) weights
    return DipolePotential(constants, records.reshape(-1, BEAM_RECORD_SIZE))


@dataclass
class ScalarField3D:
    """Potential samples on a regular (possibly sheared) 3D grid.

    ``axes`` rows are the three step vectors between neighboring nodes; node
    (i, j, k) sits at origin + i axes[0] + j axes[1] + k axes[2].  Values are
    energies in J stored in C order with shape ``dims``.
    """

    origin: np.ndarray
    axes: np.ndarray
    dims: tuple[int, int, int]
    values: np.ndarray
    units: dict = field(default_factory=lambda: {"length": "m", "energy": "J"})

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float)
        self.axes = np.asarray(self.axes, dtype=float).reshape(3, 3)
        self.values = np.asarray(self.values, dtype=float).reshape(self.dims)
        if any(d < 1 for d in self.dims):
            raise DomainError("field dims must be positive")
        if abs(np.linalg.det(self.axes)) < 1e-30:
            raise DomainError("field axes must be linearly independent")

    def node_coordinates(self) -> np.ndarray:
        """All node positions, shape (N, 3) in C order."""
        idx = np.stack(
            np.meshgrid(*[np.arange(d) for d in self.dims], indexing="ij"), axis=-1
        ).reshape(-1, 3)
        return self.origin + idx @ self.axes

    def interpolator(self):
        """Cubic interpolating callable over the grid (orthogonal axes only)."""
        from scipy.interpolate import RegularGridInterpolator

        gram = self.axes @ self.axes.T
        if np.max(np.abs(gram - np.diag(np.diag(gram)))) > 1e-18:
            raise DomainError("interpolation requires orthogonal field axes")
        coords = [np.arange(d) * math.sqrt(gram[i, i]) for i, d in enumerate(self.dims)]
        rgi = RegularGridInterpolator(
            coords, self.values, method="cubic", bounds_error=True
        )
        basis = self.axes / np.sqrt(np.diag(gram))[:, None]

        def evaluate(points):
            rel = np.atleast_2d(np.asarray(points, dtype=float)) - self.origin
            return rgi(rel @ basis.T)

        return evaluate

    def save(self, path) -> None:
        """Write <path>.json header plus <path>.bin float64 little-endian payload."""
        path = Path(path)
        header = {
            "origin_m": self.origin.tolist(),
            "axes_m": self.axes.tolist(),
            "dims": list(self.dims),
            "units": self.units,
            "dtype": "<f8",
            "order": "C",
            "data_file": path.with_suffix(".bin").name,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True))
        self.values.astype("<f8").tofile(path.with_suffix(".bin"))

    @classmethod
    def load(cls, path) -> "ScalarField3D":
        path = Path(path)
        header = json.loads(path.with_suffix(".json").read_text())
        data = np.fromfile(path.parent / header["data_file"], dtype=header["dtype"])
        return cls(
            origin=np.array(header["origin_m"]),
            axes=np.array(header["axes_m"]),
            dims=tuple(header["dims"]),
            values=data,
            units=header.get("units", {}),
        )


def auto_region(
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    waveform: ModulationWaveform,
    n_phases: int = 32,
    waist_margin: float = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(center, half_extents) covering the modulated crossings plus beam waists."""
    offsets, _ = _sampled_offsets(layout, waveform, n_phases)
    h1, v1, h2, v2 = offsets.T
    # per-phase crossing of the two displaced axes (common vertical part)
    crossings = crossing_from_offsets(layout, h1, h2, 0.5 * (v1 + v2))
    max_h = float(np.max(np.abs(offsets[:, 0::2])))
    beam = focus_input_beam(layout, inputs[0])
    split = abs(beam.focus_h - beam.focus_v)
    w_ref = max(beam.width_h(0.0), beam.width_h(split), beam.width_v(split))
    w_max = w_ref * (1.0 + layout.off_axis_size_slope * max_h)
    lo = crossings.min(axis=0)
    hi = crossings.max(axis=0)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) + waist_margin * w_max
    return center, half


def time_averaged_field(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    waveform: ModulationWaveform,
    region: tuple | None = None,
    dims: tuple[int, int, int] = DEFAULT_FIELD_DIMS,
    n_phases: int = DEFAULT_N_PHASES,
) -> ScalarField3D:
    """Sample the time-averaged potential on a regular grid.

    ``region`` is (center, half_extents); when omitted it is fitted to the
    waveform (4 waists plus the modulation span).
    """
    if region is None:
        center, half = auto_region(layout, inputs, waveform)
    else:
        center = np.asarray(region[0], dtype=float)
        half = np.asarray(region[1], dtype=float)
    dims = tuple(int(d) for d in dims)
    steps = np.array(
        [2 * half[i] / (dims[i] - 1) if dims[i] > 1 else 1.0 for i in range(3)]
    )
    origin = center - np.where(np.array(dims) > 1, half, 0.0)
    axes = np.diag(steps)
    pot = time_averaged_potential(constants, layout, inputs, waveform, n_phases)
    fld = ScalarField3D(origin=origin, axes=axes, dims=dims, values=np.zeros(dims))
    pts = fld.node_coordinates()
    fld.values = pot(pts).reshape(dims)
    return fld
