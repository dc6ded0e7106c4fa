"""Instantaneous and time-averaged optical dipole potentials.

The optical part is U = -alpha/(2 eps0 c) * (I1 + I2); gravity adds m g z.
No interference term between the two beams (they come from separate lasers,
mutual coherence averages out).  Time-averaged potentials discretize one
modulation period into equidistant phases, as many as the waveform's sweep
needs, and average the instantaneous potential produced by the displaced
beams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .constants import PhysicalConstants
from .errors import DomainError, ModelValidityError
from .kernels import BEAM_RECORD_SIZE
from .optics import (
    CHANNELS,
    InputBeam,
    OpticalLayout,
    build_beamlines,
    deflection_to_displacement,
    place_beams,
)

WAVEFORM_PERIOD = 1e-3  # s, one AOD modulation period
RIPPLE_TOL = 2e-4  # relative ripple a sampled sweep may leave on its time average
MAX_PHASES = 1 << 16  # phases past which a paint is refused rather than built


@dataclass(frozen=True, eq=False)
class ModulationWaveform:
    """Periodic four-channel AOD drive (h1, v1, h2, v2) on one shared time grid.

    ``times`` (m,) are the sorted knot times in [0, WAVEFORM_PERIOD); row k of
    ``freq_offsets_mhz`` and ``weights`` (m, 4) holds every channel's
    frequency offset (MHz) and non-negative amplitude weight at ``times[k]``.
    Between knots the drive is read by periodic linear interpolation, so a
    one-knot drive is held over the whole period.  A beam's per-phase power
    multiplier is the product of the weights of its two channels.
    """

    times: np.ndarray
    freq_offsets_mhz: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        freqs = np.asarray(self.freq_offsets_mhz, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if freqs.ndim != 2 or freqs.shape[1:] != (4,) or wts.shape[1:] != (4,):
            raise DomainError("waveform must carry exactly four channels")
        if times.ndim != 1 or times.size == 0 or not (freqs.shape == wts.shape == (times.size, 4)):
            raise DomainError("inconsistent sample arrays")
        if np.any(np.diff(times) < 0):
            raise DomainError("samples must be time-sorted")
        if times[0] < 0 or times[-1] >= WAVEFORM_PERIOD:
            raise DomainError("sample times must lie in [0, period)")
        negative = np.flatnonzero(np.any(wts < 0, axis=0))
        if negative.size:
            raise DomainError(f"channel {CHANNELS[negative[0]]}: amplitude weights must be >= 0")
        over = np.flatnonzero(np.mean(wts, axis=0) > 1.0 + 1e-9)
        if over.size:
            raise DomainError(
                f"channel {CHANNELS[over[0]]}: mean amplitude weight exceeds 1 "
                "(cannot exceed available power)"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "freq_offsets_mhz", freqs)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def constant(cls, freq_offsets_mhz=(0.0, 0.0, 0.0, 0.0), weights=(1.0, 1.0, 1.0, 1.0)) -> "ModulationWaveform":
        return cls(np.zeros(1), [freq_offsets_mhz], [weights])

    def sample(self, n_phases: int) -> tuple[np.ndarray, np.ndarray]:
        """Channel frequency offsets and weights at n equidistant phases.

        Returns arrays of shape (n_phases, 4).
        """
        if n_phases < 1:
            raise DomainError("need at least one phase")
        t_eval = np.arange(n_phases) * (WAVEFORM_PERIOD / n_phases)
        tp = np.append(self.times, self.times[0] + WAVEFORM_PERIOD)

        def periodic(values):
            vp = np.vstack([values, values[:1]])
            return np.column_stack([np.interp(t_eval, tp, vp[:, ch], period=WAVEFORM_PERIOD) for ch in range(4)])

        return periodic(self.freq_offsets_mhz), periodic(self.weights)


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
    """Callable U(points) built from a fixed set of weighted beam records.

    Records (r, 19) give U at points (k, 3).  A batch of records
    (n, r, 19) holds n potentials: points (n, k, 3) give U (n, k), item i
    read off ``records[i]`` alone.
    """

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
            u = u + self.constants.atom_mass * self.constants.gravity * pts[..., 2]
        return u

    def derivatives(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U (J), its gradient (J/m) and Hessian (J/m^2) at each point, in closed form."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        intensity, grad, hess = kernels.intensity_derivatives(pts, self.records)
        c = -self.constants.dipole_coefficient
        u, grad, hess = c * intensity, c * grad, c * hess
        if self.constants.gravity:
            mg = self.constants.atom_mass * self.constants.gravity
            u = u + mg * pts[..., 2]
            grad[..., 2] += mg
        return u, grad, hess

    def at(self, point) -> float:
        return float(self(np.asarray(point, dtype=float).reshape(1, 3))[0])


def beam_records(
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    offsets,
    weights=1.0,
) -> np.ndarray:
    """Kernel records (n, 2, 19) of both beams for rows (h1, v1, h2, v2) of AOD offsets.

    ``offsets`` holds one or more rows of displacements in m (see
    :func:`~codtsim.optics.place_beams`); ``weights`` multiplies each beam's
    power and broadcasts against (n, 2).  The aligned pair fixes directions,
    axes, foci and powers; placement moves the origins and scales the waists
    at fixed Rayleigh range.  Equal to packing ``build_beamlines`` row by row.
    """
    origins, scales, m2 = place_beams(layout, offsets)
    aligned = beams_to_records(build_beamlines(layout, inputs))
    records = np.repeat(aligned[None], len(origins), axis=0)
    wavelengths = np.array([b.wavelength for b in inputs])
    records[..., 0:3] = origins
    records[..., 12:14] *= scales[..., None]
    # a Rayleigh range past the float range is inf: a beam that never decays, whose escape scan is refused
    with np.errstate(over="ignore"):
        records[..., 16:18] = math.pi * records[..., 12:14] ** 2 / (m2 * wavelengths)[..., None]
    records[..., 18] *= weights
    return records


def static_potential(constants: PhysicalConstants, beams) -> DipolePotential:
    return DipolePotential(constants, beams_to_records(beams))


def time_averaged_potential(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    waveform: ModulationWaveform,
) -> DipolePotential:
    """Continuous time-averaged potential over one waveform period.

    Discretizes the period at n equidistant phases; per-phase beam positions
    come from the deflection map and per-phase powers from the channel
    amplitude weights.  n is the smallest power of two, not below the knot
    count, at which no beam axis moves further than d_max between
    neighbouring phases.  A Gaussian of waist w swept in steps d ripples by
    2 exp(-pi^2 w^2 / (2 d^2)) relative to its continuous sweep, so
    d_max = pi w_min / sqrt(2 ln(2 / RIPPLE_TOL)) at the smallest record
    waist w_min keeps the ripple below ``RIPPLE_TOL``.  A drive that needs
    more than ``MAX_PHASES`` phases raises ModelValidityError.  The average
    is a plain sum over phases, so records with identical geometry (a dwell,
    a hold, mirror points of a triangle sweep) are merged into one record
    carrying their summed power.
    """
    return DipolePotential(constants, _merge_records(_derived_phase_records(layout, inputs, waveform)))


def _derived_phase_records(
    layout: OpticalLayout, inputs: tuple[InputBeam, InputBeam], waveform: ModulationWaveform
) -> np.ndarray:
    """Unmerged records at the phase count ``time_averaged_potential`` derives."""
    n_phases = 1 << (waveform.times.size - 1).bit_length()
    records = _phase_records(layout, inputs, waveform, n_phases)
    while not _sweep_resolved(records):
        n_phases *= 2
        if n_phases > MAX_PHASES:
            raise ModelValidityError(
                f"painting needs more than {MAX_PHASES} phases to keep its ripple below {RIPPLE_TOL}"
            )
        records = _phase_records(layout, inputs, waveform, n_phases)
    return records


def _sweep_resolved(records: np.ndarray) -> bool:
    """Whether no beam axis moves further than d_max between neighbouring phases, the last wrapping to the first."""
    per_beam = records.reshape(-1, 2, BEAM_RECORD_SIZE)
    step = np.roll(per_beam[..., 0:3], -1, axis=0) - per_beam[..., 0:3]
    direction = per_beam[..., 3:6]
    across = step - np.sum(step * direction, axis=-1, keepdims=True) * direction
    d_max = math.pi * records[:, 12:14].min() / math.sqrt(2.0 * math.log(2.0 / RIPPLE_TOL))
    return bool(np.sqrt(np.sum(across**2, axis=-1)).max() <= d_max)


def _phase_records(
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    waveform: ModulationWaveform,
    n_phases: int,
) -> np.ndarray:
    """Unmerged records of ``n_phases`` equidistant phases, beam 1 then beam 2 per phase."""
    freqs, wts = waveform.sample(n_phases)
    offsets = deflection_to_displacement(layout, freqs)
    # (h1 v1, h2 v2) channel weights, spread over the phases of one period
    records = beam_records(layout, inputs, offsets, wts[:, 0::2] * wts[:, 1::2] / n_phases)
    return records.reshape(-1, BEAM_RECORD_SIZE)


def _merge_records(records: np.ndarray) -> np.ndarray:
    """One record per distinct geometry (columns 0:18) carrying the summed power.

    Records keep the order of their first occurrence, so records that are
    all distinct come back unchanged.
    """
    _, first, inverse = np.unique(records[:, :18], axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    merged = records[first[order]]
    merged[:, 18] = np.bincount(inverse.reshape(-1), weights=records[:, 18])[order]
    return merged


def write_field(path, potential: DipolePotential, center, half_extents, dims) -> None:
    """Write ``potential`` on a ``dims`` grid spanning center +/- half_extents on each axis.

    An axis with a single node holds it at the center.  Node (i, j, k) sits
    at origin + (i, j, k) * steps.  <path>.json is the header (origin, the
    diagonal matrix of steps as ``axes_m``, dims, units) and <path>.bin the
    energies in J, float64 little-endian in C order.
    """
    path = Path(path)
    half = np.broadcast_to(np.asarray(half_extents, dtype=float), (3,))
    dims = tuple(int(d) for d in dims)
    axes = np.diag([2 * half[i] / (dims[i] - 1) if dims[i] > 1 else 1.0 for i in range(3)])
    origin = np.asarray(center, dtype=float) - np.where(np.array(dims) > 1, half, 0.0)
    nodes = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"), axis=-1).reshape(-1, 3)
    values = potential(origin + nodes @ axes)
    header = {
        "origin_m": origin.tolist(),
        "axes_m": axes.tolist(),
        "dims": list(dims),
        "units": {"length": "m", "energy": "J"},
        "dtype": "<f8",
        "order": "C",
        "data_file": path.with_suffix(".bin").name,
    }
    path.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True))
    values.astype("<f8").tofile(path.with_suffix(".bin"))
