"""AOD waveform synthesis for painted traps, multi-site grids and transport.

Vertical multi-site traps use interleaved tones (the AODs are
single-frequency devices, so tones are time-multiplexed with equal dwell);
horizontal multi-site traps use dwell-based multi-well painting with
raised-cosine transitions.  Grids combine both by visiting every site once
per period with equal dwell.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .optics import (
    CHANNELS,
    InputBeam,
    OpticalLayout,
    build_beamlines,
    frequency_offset,
    offsets_from_crossing,
)
from .potential import WAVEFORM_PERIOD, DipolePotential, ModulationWaveform, beam_records
from .trapchar import TrapReport, characterize_batch

TRANSITION_FRACTION = 0.05  # share of a dwell segment spent moving to the next
TRANSITION_KNOTS = 6  # raised-cosine steps of one transition
LINE_PAINT_KNOTS = 128  # a power of two, so mirror knots of the sweep are bit-equal
TRANSPORT_PROFILES = ("minimum-jerk", "linear")
OBJECTIVES = ("equal-depth", "equal-mean-frequency")
# compensate_powers: objective-spread target, rebalance candidates per site
COMPENSATION_TOL = 1e-3
BALANCE_STEPS = 13


@dataclass(frozen=True)
class GridSpec:
    """Regular grid of trap sites; axes are (longitudinal, horizontal, vertical)."""

    counts: tuple[int, int, int]
    spacing: tuple[float, float, float]  # m
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.counts):
            raise DomainError("grid counts must be positive")
        for c, s in zip(self.counts, self.spacing):
            if c > 1 and s <= 0:
                raise DomainError("spacing must be positive on axes with more than one site")

    def site_indices(self) -> list[tuple[int, int, int]]:
        nx, ny, nz = self.counts
        return [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)]

    def site_position(self, index) -> np.ndarray:
        pos = np.asarray(self.center, dtype=float).copy()
        for ax in range(3):
            pos[ax] += (index[ax] - 0.5 * (self.counts[ax] - 1)) * self.spacing[ax]
        return pos


@dataclass
class SiteRow:
    index: tuple[int, int, int]
    position: np.ndarray  # m
    report: TrapReport
    radius_beam1: float  # local geometric-mean 1/e^2 radius, m
    radius_beam2: float
    weight_beam1: float = 1.0
    weight_beam2: float = 1.0

    @property
    def power_weight(self) -> float:
        return 0.5 * (self.weight_beam1 + self.weight_beam2)


@dataclass
class SiteTable:
    rows: list[SiteRow]
    converged: bool = True

    def central_index(self) -> int:
        positions = np.array([r.position for r in self.rows])
        center = positions.mean(axis=0)
        return int(np.argmin(np.linalg.norm(positions - center, axis=1)))

    def central_row(self) -> SiteRow:
        return self.rows[self.central_index()]

    def valid_rows(self) -> list[SiteRow]:
        return [r for r in self.rows if r.report.valid]

    def deviations(self) -> dict:
        """Fractional deviations of sizes, depth and frequencies vs. the central site."""
        c = self.central_row()
        if c.report.depth <= 0 or np.any(c.report.frequencies <= 0):
            raise DomainError("central site has no positive depth to compare the grid against")
        rows = self.valid_rows()
        rel = lambda v, ref: (v - ref) / ref  # noqa: E731
        return {
            "radius_beam1": [rel(r.radius_beam1, c.radius_beam1) for r in rows],
            "radius_beam2": [rel(r.radius_beam2, c.radius_beam2) for r in rows],
            "depth": [rel(r.report.depth, c.report.depth) for r in rows],
            "mean_frequency": [rel(r.report.mean_frequency, c.report.mean_frequency) for r in rows],
            "frequencies": [
                (rel(r.report.frequencies, c.report.frequencies)).tolist() for r in rows
            ],
        }

    def frequency_spread(self) -> float:
        """Largest fractional deviation of any individual frequency from the central site."""
        dev = self.deviations()["frequencies"]
        return float(np.max(np.abs(dev))) if dev else 0.0

    def depth_spread(self) -> float:
        dev = self.deviations()["depth"]
        return float(np.max(np.abs(dev))) if dev else 0.0


def _site_offsets(layout: OpticalLayout, position) -> tuple[float, float, float, float]:
    """AOD displacements (h1, v1, h2, v2) that cross the beams at ``position``."""
    h1, h2, v = offsets_from_crossing(layout, position)
    return (h1, v, h2, v)


def _dwell_waveform(
    layout: OpticalLayout,
    per_segment_offsets: list[tuple[float, float, float, float]],
    per_segment_weights: list[tuple[float, float, float, float]] | None = None,
) -> ModulationWaveform:
    """Hop through displacement segments with raised-cosine transitions.

    Each segment holds for all but ``TRANSITION_FRACTION`` of its share of
    the period, then ramps to the next segment over ``TRANSITION_KNOTS``
    steps.
    """
    n = len(per_segment_offsets)
    if per_segment_weights is None:
        per_segment_weights = [(1.0, 1.0, 1.0, 1.0)] * n
    freq_segments = [
        [frequency_offset(layout, ch, off[i]) for i, ch in enumerate(CHANNELS)]
        for off in per_segment_offsets
    ]
    if n == 1:
        return ModulationWaveform.constant(freq_segments[0], per_segment_weights[0])
    seg_dt = WAVEFORM_PERIOD / n
    trans_dt = TRANSITION_FRACTION * seg_dt
    steps = range(1, TRANSITION_KNOTS)
    fracs = np.array([0.5 * (1 - math.cos(math.pi * m / TRANSITION_KNOTS)) for m in steps])
    starts = np.arange(n) * seg_dt
    hold_end = starts + seg_dt - trans_dt
    ramp_times = hold_end[:, None] + np.array([trans_dt * m / TRANSITION_KNOTS for m in steps])
    times = np.column_stack([starts, hold_end, ramp_times])

    def knots(values):
        here = np.array(values, dtype=float)
        ramp = here[:, None] + (np.roll(here, -1, axis=0) - here)[:, None] * fracs[None, :, None]
        return np.concatenate([here[:, None], here[:, None], ramp], axis=1).reshape(-1, 4)

    return ModulationWaveform(times.reshape(-1), knots(freq_segments), knots(per_segment_weights))


def _check_site_collisions(layout: OpticalLayout, inputs, spec: GridSpec) -> bool:
    spacings = [s for c, s in zip(spec.counts, spec.spacing) if c > 1]
    if not spacings:  # a single site has nothing to merge with
        return False
    b1, _ = build_beamlines(layout, inputs)
    local_waist = max(b1.width_h(0.0), b1.width_v(0.0))
    min_spacing = min(spacings)
    if min_spacing < 2 * local_waist:
        warnings.warn(
            f"grid spacing {min_spacing * 1e6:.1f} um below two local waists "
            f"({2 * local_waist * 1e6:.1f} um); sites will merge",
            stacklevel=3,
        )
        return True
    return False


def line_paint(layout: OpticalLayout, amplitude: float, vertical_amplitude: float = 0.0) -> ModulationWaveform:
    """Symmetric triangle sweep of ``amplitude`` (m) on the horizontal channels.

    ``vertical_amplitude`` (m) adds the same sweep on the vertical channels.
    The sweep starts at -amplitude, turns at +amplitude at half the period
    and is sampled at ``LINE_PAINT_KNOTS`` knots.
    """
    phase = np.arange(LINE_PAINT_KNOTS) / LINE_PAINT_KNOTS
    tri = 1.0 - 4.0 * np.abs(phase - 0.5)
    t = np.arange(LINE_PAINT_KNOTS) * (WAVEFORM_PERIOD / LINE_PAINT_KNOTS)
    amps = [
        frequency_offset(layout, ch, amplitude if ch.startswith("h") else vertical_amplitude)
        for ch in CHANNELS
    ]
    return ModulationWaveform(t, np.outer(tri, amps), np.ones((LINE_PAINT_KNOTS, 4)))


def grid_waveform(
    layout: OpticalLayout, spec: GridSpec, inputs: tuple[InputBeam, InputBeam], weights=None
) -> ModulationWaveform:
    """Dwell waveform visiting every site of ``spec`` once per period.

    ``weights`` gives one horizontal-channel amplitude weight per site.  A
    spacing below two local waists warns that sites will merge.
    """
    _check_site_collisions(layout, inputs, spec)
    segments = []
    seg_weights = []
    for n_idx, idx in enumerate(spec.site_indices()):
        segments.append(_site_offsets(layout, spec.site_position(idx)))
        w = 1.0 if weights is None else float(weights[n_idx])
        seg_weights.append((w, 1.0, w, 1.0))
    return _dwell_waveform(layout, segments, seg_weights)


def minimum_jerk(s: np.ndarray) -> np.ndarray:
    """Fifth-order profile whose first and second derivatives vanish at both ends."""
    return 10 * s**3 - 15 * s**4 + 6 * s**5


def transport_ramp(
    layout: OpticalLayout,
    start_positions,
    end_positions,
    steps: int = 21,
    profile: str = "minimum-jerk",
) -> list[ModulationWaveform]:
    """Waveform sequence transporting every site along a Cartesian path.

    A waypoint that needs more than the AOD range raises ``DomainError``.
    """
    start = np.atleast_2d(np.asarray(start_positions, dtype=float))
    end = np.atleast_2d(np.asarray(end_positions, dtype=float))
    if start.shape != end.shape:
        raise DomainError("start and end position lists must match")
    if profile == "linear":
        fractions = np.linspace(0.0, 1.0, steps)
    elif profile == "minimum-jerk":
        fractions = minimum_jerk(np.linspace(0.0, 1.0, steps))
    else:
        raise DomainError(f"unknown transport profile {profile!r}")
    return [
        _dwell_waveform(layout, [_site_offsets(layout, pos) for pos in start + s * (end - start)])
        for s in fractions
    ]


def _local_radius(record, position) -> float:
    """Geometric-mean 1/e^2 radius of one beam record at the axial position of ``position``."""
    zeta = (position - record[0:3]) @ record[3:6]
    w_h, w_v = record[12:14] * np.sqrt(1.0 + ((zeta - record[14:16]) / record[16:18]) ** 2)
    return math.sqrt(w_h * w_v)


def _as_weight_pairs(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones((n, 2))
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (n, 2):
        raise DomainError("weights must have one (beam1, beam2) pair per site")
    if np.any(arr <= 0):
        raise DomainError("power weights must be positive")
    return arr


def characterize_sites(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    spec: GridSpec,
    weights=None,
) -> SiteTable:
    """Per-site beam radii and trap reports for a grid.

    Each site is characterized in its own basin from the instantaneous trap
    formed while the multiplexed drive dwells there (neighbor contributions
    are negligible for spacings well above the local waists).  ``weights``
    gives one (beam1, beam2) power weight pair per site.
    """
    indices = spec.site_indices()
    pairs = _as_weight_pairs(weights, len(indices))
    positions = [spec.site_position(idx) for idx in indices]
    records = beam_records(layout, inputs, [_site_offsets(layout, p) for p in positions], pairs)
    reports = characterize_batch(DipolePotential(constants, records), positions)
    return SiteTable(
        rows=[
            SiteRow(
                index=idx,
                position=pos,
                report=report,
                radius_beam1=_local_radius(recs[0], pos),
                radius_beam2=_local_radius(recs[1], pos),
                weight_beam1=float(w1),
                weight_beam2=float(w2),
            )
            for idx, pos, report, recs, (w1, w2) in zip(indices, positions, reports, records, pairs)
        ]
    )


def compensate_powers(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    spec: GridSpec,
    table: SiteTable,
    objective: str = "equal-depth",
) -> SiteTable:
    """Optimize per-site, per-beam power weights to homogenize the grid.

    One balance scan per site: ``BALANCE_STEPS`` splits base (1 +/- delta)
    of the site's mean weight between its two beams, each followed by the
    common rescale of both beams that pins the objective to the central
    site (depth scales linearly with power, frequency with its square
    root).  The split with the smallest residual (frequency deviation at
    equal depth, depth deviation at equal mean frequency) is kept.  The
    rescale only picks the candidate weights: it is exact without gravity,
    where a second scan would test the same ratios again, and close at
    1 g, where the sag barely moves with power.  ``table`` is the
    uncompensated grid.  The chosen weights are scaled to a mean of at
    most 1 (the power budget) and the grid is characterized once with them;
    when that does not lower the objective spread, ``table``'s rows come
    back.  ``table`` itself is left unchanged.
    ``converged`` tells whether the spread is below ``COMPENSATION_TOL``.
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown compensation objective {objective!r}")
    indices = spec.site_indices()
    pairs = np.array([[r.weight_beam1, r.weight_beam2] for r in table.rows])
    central = table.central_row()
    ref_depth = central.report.depth
    ref_freqs = central.report.frequencies
    ref_mean = central.report.mean_frequency
    if ref_depth <= 0 or np.any(ref_freqs <= 0):
        raise DomainError("central site must be a valid trap to compensate against")

    def rescaled(report: TrapReport, scale: float) -> tuple[float, np.ndarray, float]:
        """Depth and frequencies after multiplying both beam powers by ``scale``.

        Exact for gravity-free site traps, whose potential scales linearly;
        with gravity an estimate, which the final characterization checks.
        """
        return (
            report.depth * scale,
            report.frequencies * math.sqrt(scale),
            report.mean_frequency * math.sqrt(scale),
        )

    def pin_scale(report: TrapReport) -> float:
        if objective == "equal-depth":
            return ref_depth / report.depth
        return (ref_mean / report.mean_frequency) ** 2

    def residual(report: TrapReport, scale: float) -> float:
        depth, freqs, mean = rescaled(report, scale)
        if objective == "equal-depth":
            return float(np.max(np.abs(freqs - ref_freqs) / ref_freqs))
        return abs(depth - ref_depth) / ref_depth

    def objective_spread(t: SiteTable) -> float:
        if objective == "equal-depth":
            vals = np.array([r.report.depth for r in t.rows])
        else:
            vals = np.array([r.report.mean_frequency for r in t.rows])
        return float((vals.max() - vals.min()) / vals.mean())

    spread = objective_spread(table)
    if spread < COMPENSATION_TOL:
        return SiteTable(table.rows, converged=True)
    central_n = table.central_index()
    deltas = np.linspace(-0.35, 0.35, BALANCE_STEPS)
    new_pairs = pairs.copy()
    # every candidate of every non-central site in one batch, site by site
    sites = [n for n in range(len(indices)) if n != central_n]
    positions = [spec.site_position(indices[n]) for n in sites]
    bases = 0.5 * (pairs[sites, 0] + pairs[sites, 1])
    candidates = (bases[:, None, None] * np.column_stack([1 + deltas, 1 - deltas])).reshape(-1, 2)
    offsets = [_site_offsets(layout, pos) for pos in positions for _ in deltas]
    records = beam_records(layout, inputs, offsets, candidates)
    seeds = np.repeat(positions, BALANCE_STEPS, axis=0)
    reports = characterize_batch(DipolePotential(constants, records), seeds)
    for s, n in enumerate(sites):
        best = None
        scan = slice(s * BALANCE_STEPS, (s + 1) * BALANCE_STEPS)
        for (w1, w2), rep in zip(candidates[scan], reports[scan]):
            if not rep.valid or rep.depth <= 0:
                continue
            scale = pin_scale(rep)
            res = residual(rep, scale)
            if best is None or res < best[0]:
                best = (res, w1 * scale, w2 * scale)
        if best is not None:
            new_pairs[n] = best[1:]
    new_pairs /= max(1.0, new_pairs.mean())  # power budget: mean weight <= 1
    trial = characterize_sites(constants, layout, inputs, spec, weights=new_pairs)
    trial_spread = objective_spread(trial)
    if trial_spread >= spread:  # the scan must lower the objective spread
        return SiteTable(table.rows, converged=False)
    trial.converged = trial_spread < COMPENSATION_TOL
    return trial


def site_table_csv_rows(table: SiteTable) -> list[dict]:
    """One row per site: its grid index, position, local beam radii and power weight, then its trap's row."""
    return [
        {
            "i": r.index[0],
            "j": r.index[1],
            "k": r.index[2],
            "x_um": r.position[0] * 1e6,
            "y_um": r.position[1] * 1e6,
            "z_um": r.position[2] * 1e6,
            "radius_beam1_um": r.radius_beam1 * 1e6,
            "radius_beam2_um": r.radius_beam2 * 1e6,
            "power_weight": r.power_weight,
            **r.report.row(),
        }
        for r in table.rows
    ]
