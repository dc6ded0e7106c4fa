"""Gaussian beam optics behind the single high-NA lens.

Lab frame: x along the lens axis (mean propagation direction), y the in-plane
transverse (horizontal) direction, z vertical.  The two trapping beams
propagate at +/-(crossing_full_angle/2) about x within the z = 0 plane and
nominally intersect at the origin.

The tilted vacuum window is modeled as a plane-parallel plate of thickness t
and index n traversed at incidence theta (default: half the crossing angle).
It shifts each beam's sagittal (vertical) and tangential (horizontal) line
foci by different amounts, which is the astigmatism mechanism limiting the
spot size.  Both beams are referenced to the actual crossing point: the
common sagittal focal shift is absorbed into the crossing position (for
tilt = half crossing this is exact - the lateral ray displacement that moves
the crossing equals the sagittal focus shift), so focus_v = 0 and
focus_h = tangential - sagittal shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModelValidityError

CHANNELS = ("h1", "v1", "h2", "v2")

DEFAULT_CALIBRATION_UM_PER_MHZ = {"h1": 92.0, "v1": 86.0, "h2": 92.0, "v2": 86.0}

# Effective fractional 1/e^2 spot-size slope per meter of in-plane AOD
# displacement, opposite in sign for the two beams.  Stand-in for ray-trace
# grade off-axis lens behavior; tuned to the published grid simulation
# (spot sizes change by several percent at 0.5 mm offsets, in opposite
# directions for the two beams).
DEFAULT_OFF_AXIS_SIZE_SLOPE = 165.0  # 1/m


def plate_shifts(tilt: float, index: float, thickness: float) -> tuple[float, float, float]:
    """Lateral and focal shifts of a plane-parallel plate in a converging beam.

    Returns (lateral displacement D, sagittal focus shift, tangential focus
    shift), all measured along the chief ray.  At normal incidence both focal
    shifts reduce to t(1 - 1/n).
    """
    if thickness == 0.0:
        return 0.0, 0.0, 0.0
    si, ci = math.sin(tilt), math.cos(tilt)
    sr = si / index
    cr = math.sqrt(1.0 - sr * sr)
    r = math.asin(sr)
    lateral = thickness * math.sin(tilt - r) / cr
    sagittal = thickness * ci * (1.0 - ci / math.sqrt(index * index - si * si))
    tangential = thickness * (ci + si * math.tan(r) - ci * ci / (index * cr**3))
    return lateral, sagittal, tangential


@dataclass(frozen=True)
class OpticalLayout:
    """Fixed geometry of the single-lens crossed-beam trap (SI units, radians)."""

    focal_length: float = 60e-3
    beam_separation: float = 30e-3
    crossing_full_angle: float = math.radians(30.0)
    window_thickness: float = 10e-3
    window_index: float = 1.45
    window_tilt: float | None = None  # None -> half the crossing angle
    aod_freq_range_mhz: float = 15.0
    aod_full_deflection: float = math.radians(1.4)
    aod_aperture: tuple[float, float] = (7.5e-3, 7.5e-3)
    power_throughput: float = 0.75
    calibration_um_per_mhz: dict = field(
        default_factory=lambda: dict(DEFAULT_CALIBRATION_UM_PER_MHZ)
    )
    off_axis_size_slope: float = DEFAULT_OFF_AXIS_SIZE_SLOPE
    deflection_mode: str = "calibrated"  # or "geometric"

    def __post_init__(self) -> None:
        if not 0.0 <= self.power_throughput <= 1.0:
            raise DomainError("power_throughput must lie in [0, 1]")
        if self.deflection_mode not in ("calibrated", "geometric"):
            raise DomainError(f"unknown deflection_mode {self.deflection_mode!r}")
        missing = [ch for ch in CHANNELS if ch not in self.calibration_um_per_mhz]
        if missing:
            raise DomainError(f"calibration constants missing for channels {missing}")
        # The crossing angle must be consistent with the entry separation and
        # focal length.  The high-NA asphere obeys the sine condition, so the
        # ray angle for an entry height h is asin(h/f).
        geometric = 2.0 * math.asin(0.5 * self.beam_separation / self.focal_length)
        if abs(geometric - self.crossing_full_angle) > 0.05 * self.crossing_full_angle:
            raise DomainError(
                "crossing_full_angle inconsistent with beam separation and focal "
                f"length: configured {math.degrees(self.crossing_full_angle):.2f} deg, "
                f"geometric {math.degrees(geometric):.2f} deg"
            )

    @property
    def half_angle(self) -> float:
        return 0.5 * self.crossing_full_angle

    @property
    def effective_window_tilt(self) -> float:
        return self.half_angle if self.window_tilt is None else self.window_tilt

    def astigmatic_split(self) -> float:
        """Axial separation of the tangential and sagittal line foci."""
        _, sagittal, tangential = plate_shifts(
            self.effective_window_tilt, self.window_index, self.window_thickness
        )
        return tangential - sagittal

    def beam_direction(self, which: int) -> np.ndarray:
        """Unit propagation direction of beam 1 or 2."""
        if which not in (1, 2):
            raise DomainError("beam index must be 1 or 2")
        a = self.half_angle if which == 1 else -self.half_angle
        return np.array([math.cos(a), math.sin(a), 0.0])


@dataclass(frozen=True)
class InputBeam:
    """Collimated beam arriving at the AOD aperture."""

    power: float = 10.0
    wavelength: float = 1.064e-6
    collimated_radius: float = 1.95e-3

    def __post_init__(self) -> None:
        if self.power < 0:
            raise DomainError("beam power must be >= 0")
        if self.wavelength <= 0:
            raise DomainError("wavelength must be positive")
        if self.collimated_radius <= 0:
            raise DomainError("collimated beam radius must be positive")


@dataclass(frozen=True)
class AstigmaticBeam:
    """One focused trapping beam with independent horizontal/vertical foci.

    ``focus_h`` and ``focus_v`` are axial positions of the two line foci
    measured along the propagation direction from ``origin``.  The horizontal
    transverse axis lies in the crossing plane; vertical is the z axis.
    """

    power: float
    wavelength: float
    waist_h: float
    waist_v: float
    focus_h: float
    focus_v: float
    origin: np.ndarray
    direction: np.ndarray
    m2_h: float = 1.0  # effective quality factor: zR = pi w^2 / (M^2 lambda)
    m2_v: float = 1.0

    def __post_init__(self) -> None:
        if self.waist_h <= 0 or self.waist_v <= 0:
            raise DomainError("waists must be positive")
        if self.m2_h <= 0.0 or self.m2_v <= 0.0:
            raise DomainError("beam quality factors must be positive")
        norm = float(np.linalg.norm(self.direction))
        if abs(norm - 1.0) > 1e-12:
            raise DomainError("beam direction must be a unit vector")
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))

    @property
    def h_axis(self) -> np.ndarray:
        h = np.cross([0.0, 0.0, 1.0], self.direction)
        n = np.linalg.norm(h)
        if n < 1e-12:  # beam along z: pick x as horizontal
            return np.array([1.0, 0.0, 0.0])
        return h / n

    @property
    def v_axis(self) -> np.ndarray:
        return np.cross(self.direction, self.h_axis)

    @property
    def rayleigh_h(self) -> float:
        return math.pi * self.waist_h**2 / (self.m2_h * self.wavelength)

    @property
    def rayleigh_v(self) -> float:
        return math.pi * self.waist_v**2 / (self.m2_v * self.wavelength)

    def width_h(self, zeta) -> np.ndarray:
        """1/e^2 horizontal radius at axial position zeta (from origin)."""
        return self.waist_h * np.sqrt(1.0 + ((np.asarray(zeta) - self.focus_h) / self.rayleigh_h) ** 2)

    def width_v(self, zeta) -> np.ndarray:
        return self.waist_v * np.sqrt(1.0 + ((np.asarray(zeta) - self.focus_v) / self.rayleigh_v) ** 2)

    def is_stigmatic(self, tol: float = 1e-12) -> bool:
        return abs(self.focus_h - self.focus_v) <= tol and abs(self.waist_h - self.waist_v) <= tol


def focus_input_beam(layout: OpticalLayout, input_beam: InputBeam) -> AstigmaticBeam:
    """Focus a collimated input beam through the lens and tilted window.

    Waist per axis from the paraxial relation w = f lambda / (pi w_in); the
    window splits the line foci by the tilted-plate model.  Power is scaled by
    the layout throughput.  The returned beam runs along +x through the origin
    with its sagittal (vertical) focus at the origin.
    """
    if input_beam.collimated_radius <= 0:
        raise DomainError("input beam radius must be positive")
    if input_beam.collimated_radius > 0.5 * min(layout.aod_aperture):
        raise DomainError(
            "collimated beam radius exceeds half the AOD aperture "
            f"({input_beam.collimated_radius * 1e3:.2f} mm > "
            f"{0.5 * min(layout.aod_aperture) * 1e3:.2f} mm)"
        )
    waist = layout.focal_length * input_beam.wavelength / (math.pi * input_beam.collimated_radius)
    if waist < 0.5 * input_beam.wavelength:
        raise ModelValidityError(
            f"focused waist {waist:.3e} m below lambda/2; paraxial model invalid"
        )
    split = layout.astigmatic_split()
    return AstigmaticBeam(
        power=input_beam.power * layout.power_throughput,
        wavelength=input_beam.wavelength,
        waist_h=waist,
        waist_v=waist,
        focus_h=split,
        focus_v=0.0,
        origin=np.zeros(3),
        direction=np.array([1.0, 0.0, 0.0]),
    )


def beam_intensity(beam: AstigmaticBeam, point) -> np.ndarray | float:
    """Optical intensity (W/m^2) of one beam at a lab-frame point or points."""
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    rel = pts - beam.origin
    zeta = rel @ beam.direction
    xi = rel @ beam.h_axis
    nu = rel @ beam.v_axis
    wh = beam.width_h(zeta)
    wv = beam.width_v(zeta)
    inten = 2.0 * beam.power / (math.pi * wh * wv) * np.exp(-2.0 * (xi / wh) ** 2 - 2.0 * (nu / wv) ** 2)
    if np.ndim(point) == 1:
        return float(inten[0])
    return inten


def deflection_to_displacement(
    layout: OpticalLayout,
    channel: str,
    delta_freq_mhz,
    mode: str | None = None,
    include_window: bool = True,
    include_off_axis: bool = True,
) -> np.ndarray | float:
    """Focal-region displacement (m) of one beam for an AOD frequency offset.

    Displacements are measured perpendicular to the beam axis: along the
    in-plane transverse direction for h channels, along vertical for v
    channels.  The geometric model maps the deflection angle through the lens
    (f tan theta) and applies two corrections: the projection of the
    focal-plane displacement onto the tilted beam axis (h channels) and the
    tilted-window focus pullback (tangential for h, sagittal for v).
    In calibrated mode the model scale is replaced by the per-channel
    measured constant and the map is exactly linear.
    """
    if channel not in CHANNELS:
        raise DomainError(f"unknown AOD channel {channel!r}")
    df = np.asarray(delta_freq_mhz, dtype=float)
    if np.any(np.abs(df) > layout.aod_freq_range_mhz * (1 + 1e-12)):
        raise DomainError(
            f"frequency offset outside AOD range +/-{layout.aod_freq_range_mhz} MHz"
        )
    mode = layout.deflection_mode if mode is None else mode
    if mode == "calibrated":
        disp = df * layout.calibration_um_per_mhz[channel] * 1e-6
    elif mode == "geometric":
        theta = df * layout.aod_full_deflection / layout.aod_freq_range_mhz
        disp = layout.focal_length * np.tan(theta)
        _, sagittal, tangential = plate_shifts(
            layout.effective_window_tilt, layout.window_index, layout.window_thickness
        )
        if channel.startswith("h"):
            if include_off_axis:
                disp = disp * math.cos(layout.half_angle)
            if include_window:
                disp = disp * (1.0 - tangential / layout.focal_length)
        else:
            if include_window:
                disp = disp * (1.0 - sagittal / layout.focal_length)
    else:
        raise DomainError(f"unknown deflection mode {mode!r}")
    if np.ndim(delta_freq_mhz) == 0:
        return float(disp)
    return disp


def displacement_scale(layout: OpticalLayout, channel: str, **kwargs) -> float:
    """Displacement per MHz (m/MHz) for a channel under the current model."""
    return deflection_to_displacement(layout, channel, 1.0, **kwargs)


def max_displacement(layout: OpticalLayout, channel: str, **kwargs) -> float:
    return abs(
        deflection_to_displacement(layout, channel, layout.aod_freq_range_mhz, **kwargs)
    )


def crossing_from_offsets(layout: OpticalLayout, h1, h2, v) -> np.ndarray:
    """Crossing-point position for per-beam perpendicular offsets (common v).

    Accepts scalars or equal-shape arrays; the coordinates form the last axis.
    """
    s = math.sin(layout.half_angle)
    c = math.cos(layout.half_angle)
    return np.stack([(h2 - h1) / (2 * s), (h1 + h2) / (2 * c), v], axis=-1)


def offsets_from_crossing(layout: OpticalLayout, position) -> tuple[float, float, float]:
    """Inverse of :func:`crossing_from_offsets`: (h1, h2, v) for a target point."""
    x, y, z = np.asarray(position, dtype=float)
    s = math.sin(layout.half_angle)
    c = math.cos(layout.half_angle)
    return (y * c - x * s, y * c + x * s, z)


def place_beams(layout: OpticalLayout, offsets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axis origins and off-axis spot scaling of both beams for rows of AOD offsets.

    ``offsets`` holds one or more rows (h1, v1, h2, v2) of displacements in m
    perpendicular to each beam axis (the quantity the deflection map
    returns).  Beam axes keep their nominal +/- half-angle directions and are
    translated within the focal plane (flat-field lens: the line foci stay in
    the plane x = 0), so beam k sits at (0, h_k / cos(half angle), v_k).  The
    effective off-axis factor 1 +/- slope * h_k (opposite sign for the two
    beams) scales the whole beam envelope at fixed Rayleigh range: the
    effective quality factor absorbs scale^2, so per-beam sizes respond
    linearly and symmetrically to in-plane displacement.

    Returns origins (n, 2, 3), waist scales (n, 2) and quality factors
    M^2 = scale^2 (n, 2).  Every row is checked against the reachable range of
    each channel (DomainError) and for a non-positive scale
    (ModelValidityError).
    """
    offs = np.atleast_2d(np.asarray(offsets, dtype=float))
    limits = np.array([max_displacement(layout, ch) for ch in CHANNELS])
    over = np.argwhere(np.abs(offs) > limits * (1 + 1e-9))
    if over.size:
        row, i = over[0]
        raise DomainError(
            f"offset {offs[row, i] * 1e6:.1f} um on channel {CHANNELS[i]} exceeds "
            f"reachable range +/-{limits[i] * 1e6:.1f} um"
        )
    h = offs[:, 0::2]
    origins = np.zeros(h.shape + (3,))
    origins[..., 1] = h / math.cos(layout.half_angle)
    origins[..., 2] = offs[:, 1::2]
    scales = 1.0 + np.array([1.0, -1.0]) * layout.off_axis_size_slope * h
    if np.any(scales <= 0):
        raise ModelValidityError("off-axis size scaling drove a waist non-positive")
    return origins, scales, scales * scales


def build_beamlines(
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    offsets: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
) -> tuple[AstigmaticBeam, AstigmaticBeam]:
    """Construct the two crossing trap beams for AOD offsets (h1, v1, h2, v2) in m.

    Placement, off-axis spot scaling and their checks follow
    :func:`place_beams`.  With all offsets zero the axes intersect at the lab
    origin.
    """
    origins, scales, m2 = place_beams(layout, offsets)
    beams = []
    for k, inp in enumerate(inputs):
        base = focus_input_beam(layout, inp)
        scale = float(scales[0, k])
        beams.append(
            AstigmaticBeam(
                power=base.power,
                wavelength=base.wavelength,
                waist_h=base.waist_h * scale,
                waist_v=base.waist_v * scale,
                focus_h=base.focus_h,
                focus_v=base.focus_v,
                origin=origins[0, k],
                direction=layout.beam_direction(k + 1),
                m2_h=float(m2[0, k]),
                m2_v=float(m2[0, k]),
            )
        )
    return beams[0], beams[1]


def closest_approach(beam_a: AstigmaticBeam, beam_b: AstigmaticBeam) -> tuple[float, np.ndarray]:
    """Minimum distance between two beam axes and the midpoint of the connecting segment."""
    d1, d2 = beam_a.direction, beam_b.direction
    w0 = beam_a.origin - beam_b.origin
    a = d1 @ d1
    b = d1 @ d2
    c = d2 @ d2
    d = d1 @ w0
    e = d2 @ w0
    denom = a * c - b * b
    if abs(denom) < 1e-18:
        raise DomainError("beam axes are parallel")
    t1 = (b * e - c * d) / denom
    t2 = (a * e - b * d) / denom
    p1 = beam_a.origin + t1 * d1
    p2 = beam_b.origin + t2 * d2
    return float(np.linalg.norm(p1 - p2)), 0.5 * (p1 + p2)
