"""AOD waveform synthesis for painted traps, multi-site grids and transport.

The AODs are single-frequency devices, so every multi-site trap is a dwell
waveform: the drive visits each site once per period with equal dwell and
raised-cosine transitions between sites.  A vertical column, a horizontal
row and a 3-D grid are all such a dwell waveform (``grid_waveform``).  A
grid's sites are characterized into a ``SiteTable`` of per-site columns,
and ``compensate_powers`` balances each site's two beam powers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .optics import InputBeam, OpticalLayout, frequency_offset, offsets_from_crossing
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

    def site_indices(self) -> np.ndarray:
        """Grid index (i, j, k) of every site, (n, 3), the last index varying fastest."""
        return np.indices(self.counts).reshape(3, -1).T

    def site_positions(self) -> np.ndarray:
        """Position (m) of every site, (n, 3), in ``site_indices`` order."""
        offsets = self.site_indices() - 0.5 * (np.array(self.counts) - 1)
        return np.asarray(self.center, dtype=float) + offsets * np.asarray(self.spacing, dtype=float)


@dataclass
class SiteTable:
    """Per-site columns of a grid, in ``GridSpec.site_indices`` order."""

    indices: np.ndarray  # (n, 3) grid indices
    positions: np.ndarray  # (n, 3), m
    radii: np.ndarray  # (n, 2): each beam's local geometric-mean 1/e^2 radius, m
    weights: np.ndarray  # (n, 2): each beam's power weight
    reports: TrapReport  # one item per site
    converged: bool = True

    def central_index(self) -> int:
        """The site nearest the grid centre, which the grid is compared against; DomainError when it is no trap."""
        center = self.positions.mean(axis=0)
        c = int(np.argmin(np.linalg.norm(self.positions - center, axis=1)))
        if self.reports.depth_escape[c] <= 0 or np.any(self.reports.frequencies[c] <= 0):
            raise DomainError("central site has no positive depth to compare the grid against")
        return c

    def deviations(self) -> dict:
        """Fractional deviations of sizes, depth and frequencies of the valid sites vs. the central site."""
        c, r = self.central_index(), self.reports
        rel = lambda v: (v[r.valid] - v[c]) / v[c]  # noqa: E731
        return {
            "radius_beam1": rel(self.radii[:, 0]),
            "radius_beam2": rel(self.radii[:, 1]),
            "depth": rel(r.depth_escape),
            "mean_frequency": rel(r.mean_frequency),
            "frequencies": rel(r.frequencies),
        }

    def frequency_spread(self) -> float:
        """Largest fractional deviation of any individual frequency from the central site."""
        return float(np.max(np.abs(self.deviations()["frequencies"])))

    def depth_spread(self) -> float:
        return float(np.max(np.abs(self.deviations()["depth"])))


def _dwell_waveform(layout: OpticalLayout, offsets: np.ndarray, weights=None) -> ModulationWaveform:
    """Hop through rows (n, 4) of displacement segments with raised-cosine transitions.

    Each segment holds for all but ``TRANSITION_FRACTION`` of its share of
    the period, then ramps to the next segment over ``TRANSITION_KNOTS``
    steps.  ``weights`` (n, 4) are the segments' amplitude weights, 1 by
    default.
    """
    n = len(offsets)
    if weights is None:
        weights = np.ones((n, 4))
    freqs = frequency_offset(layout, offsets)
    if n == 1:
        return ModulationWaveform.constant(freqs[0], weights[0])
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

    return ModulationWaveform(times.reshape(-1), knots(freqs), knots(weights))


def line_paint(layout: OpticalLayout, amplitude: float, vertical_amplitude: float = 0.0) -> ModulationWaveform:
    """Symmetric triangle sweep of ``amplitude`` (m) on the horizontal channels.

    ``vertical_amplitude`` (m) adds the same sweep on the vertical channels.
    The sweep starts at -amplitude, turns at +amplitude at half the period
    and is sampled at ``LINE_PAINT_KNOTS`` knots.
    """
    phase = np.arange(LINE_PAINT_KNOTS) / LINE_PAINT_KNOTS
    tri = 1.0 - 4.0 * np.abs(phase - 0.5)
    t = np.arange(LINE_PAINT_KNOTS) * (WAVEFORM_PERIOD / LINE_PAINT_KNOTS)
    amps = frequency_offset(layout, np.tile([amplitude, vertical_amplitude], 2))
    return ModulationWaveform(t, np.outer(tri, amps), np.ones((LINE_PAINT_KNOTS, 4)))


def grid_waveform(layout: OpticalLayout, spec: GridSpec, weights=None) -> ModulationWaveform:
    """Dwell waveform visiting every site of ``spec`` once per period.

    ``weights`` gives one horizontal-channel amplitude weight per site.
    """
    offsets = offsets_from_crossing(layout, spec.site_positions())
    seg_weights = np.ones_like(offsets)
    if weights is not None:
        seg_weights[:, 0::2] = np.asarray(weights, dtype=float)[:, None]
    return _dwell_waveform(layout, offsets, seg_weights)


def minimum_jerk(s: np.ndarray) -> np.ndarray:
    """Fifth-order profile whose first and second derivatives vanish at both ends."""
    return 10 * s**3 - 15 * s**4 + 6 * s**5


def transport_ramp(
    layout: OpticalLayout,
    start_positions,
    end_positions,
    steps: int,
    profile: str,
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
    return [_dwell_waveform(layout, offsets_from_crossing(layout, start + s * (end - start))) for s in fractions]


def _as_weight_pairs(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones((n, 2))
    arr = np.array(weights, dtype=float)
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
    are negligible for spacings well above the local beam widths).
    ``weights`` gives one (beam1, beam2) power weight pair per site.  A
    spacing below twice the widest local 1/e^2 radius of either beam warns
    that sites will merge.
    """
    indices, positions = spec.site_indices(), spec.site_positions()
    pairs = _as_weight_pairs(weights, len(indices))
    records = beam_records(layout, inputs, offsets_from_crossing(layout, positions), pairs)
    reports = characterize_batch(DipolePotential(constants, records), positions)
    # each beam's (h, v) radii at the axial position of its site, and their geometric mean
    zeta = np.matmul((positions[:, None, :] - records[..., 0:3])[..., None, :], records[..., 3:6, None])[..., 0]
    widths = records[..., 12:14] * np.sqrt(1.0 + ((zeta - records[..., 14:16]) / records[..., 16:18]) ** 2)
    radii = np.sqrt(widths[..., 0] * widths[..., 1])
    spacings = [s for n, s in zip(spec.counts, spec.spacing) if n > 1]  # a single site merges with none
    if spacings and min(spacings) < 2 * widths.max():
        warnings.warn(
            f"grid spacing {min(spacings) * 1e6:.1f} um below two local beam widths "
            f"({2 * widths.max() * 1e6:.1f} um); sites will merge",
            stacklevel=2,
        )
    return SiteTable(indices, positions, radii, pairs, reports)


def compensate_powers(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    spec: GridSpec,
    table: SiteTable,
    objective: str,
) -> SiteTable:
    """Optimize per-site, per-beam power weights to homogenize the grid.

    One balance scan per site: ``BALANCE_STEPS`` splits base (1 +/- delta)
    of the site's mean weight between its two beams, each followed by the
    common rescale of both beams that pins the objective to the central
    site (depth scales linearly with power, frequency with its square
    root).  Each site keeps the first split with the smallest residual
    (frequency deviation at equal depth, depth deviation at equal mean
    frequency); an invalid or depthless candidate never wins, and a site
    with none other keeps its weights.  The rescale only picks the
    candidate weights: it is exact without gravity, where a second scan
    would test the same ratios again, and close at 1 g, where the sag
    barely moves with power.  ``table`` is the uncompensated grid.  The
    chosen weights are scaled to a mean of at most 1 (the power budget) and
    the grid is characterized once with them; when that does not lower the
    objective spread, ``table``'s columns come back.  ``table`` itself is
    left unchanged.  ``converged`` tells whether the spread is below
    ``COMPENSATION_TOL``.
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown compensation objective {objective!r}")
    c, ref = table.central_index(), table.reports
    ref_depth, ref_mean, ref_freqs = ref.depth_escape[c], ref.mean_frequency[c], ref.frequencies[c]

    def objective_spread(t: SiteTable) -> float:
        vals = t.reports.depth_escape if objective == "equal-depth" else t.reports.mean_frequency
        return float((vals.max() - vals.min()) / vals.mean())

    spread = objective_spread(table)
    if spread < COMPENSATION_TOL:
        return replace(table, converged=True)
    deltas = np.linspace(-0.35, 0.35, BALANCE_STEPS)
    # every candidate of every non-central site in one batch, site by site
    sites = np.delete(np.arange(len(table.indices)), c)
    positions = table.positions[sites]
    bases = table.weights[sites].mean(axis=1)
    candidates = (bases[:, None, None] * np.column_stack([1 + deltas, 1 - deltas])).reshape(-1, 2)
    offsets = np.repeat(offsets_from_crossing(layout, positions), BALANCE_STEPS, axis=0)
    records = beam_records(layout, inputs, offsets, candidates)
    seeds = np.repeat(positions, BALANCE_STEPS, axis=0)
    reports = characterize_batch(DipolePotential(constants, records), seeds)
    depth = reports.depth_escape
    # the common rescale of both beams that pins the objective to the central site;
    # exact for gravity-free sites, whose potential scales linearly with power
    with np.errstate(all="ignore"):  # unusable candidates, whose residual is set below
        if objective == "equal-depth":
            scale = ref_depth / depth
            residual = np.max(np.abs(reports.frequencies * np.sqrt(scale)[:, None] - ref_freqs) / ref_freqs, axis=1)
        else:
            scale = (ref_mean / reports.mean_frequency) ** 2
            residual = np.abs(depth * scale - ref_depth) / ref_depth
    residual = np.where(reports.valid & (depth > 0), residual, np.inf).reshape(-1, BALANCE_STEPS)
    best = np.arange(len(sites)) * BALANCE_STEPS + residual.argmin(axis=1)  # the first minimum wins
    found = np.isfinite(residual.min(axis=1))
    new_pairs = table.weights.copy()
    new_pairs[sites[found]] = candidates[best[found]] * scale[best[found], None]
    new_pairs /= max(1.0, new_pairs.mean())  # power budget: mean weight <= 1
    trial = characterize_sites(constants, layout, inputs, spec, weights=new_pairs)
    trial_spread = objective_spread(trial)
    if trial_spread >= spread:  # the scan must lower the objective spread
        return replace(table, converged=False)
    trial.converged = trial_spread < COMPENSATION_TOL
    return trial


def site_table_columns(table: SiteTable) -> dict:
    """Per-site columns: grid index, position, local beam radii and power weight, then the trap columns."""
    return {
        **dict(zip("ijk", table.indices.T)),
        **dict(zip(("x_um", "y_um", "z_um"), (table.positions * 1e6).T)),
        **dict(zip(("radius_beam1_um", "radius_beam2_um"), (table.radii * 1e6).T)),
        "power_weight": table.weights.mean(axis=1),
        **table.reports.columns(),
    }
