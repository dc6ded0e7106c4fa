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
from dataclasses import dataclass, replace

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .optics import (
    CHANNELS,
    InputBeam,
    OpticalLayout,
    build_beamlines,
    displacement_scale,
    max_displacement,
    offsets_from_crossing,
)
from .potential import ModulationWaveform
# characterize is bound here only because perfbench's tracer test checks
# that the tracer patches it through this module's from-import
from .trapchar import TrapReport, characterize, characterize_beams  # noqa: F401

DEFAULT_PERIOD = 1e-3
TRANSITION_FRACTION = 0.05


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

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.counts))

    def site_indices(self) -> list[tuple[int, int, int]]:
        nx, ny, nz = self.counts
        return [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)]

    def site_position(self, index) -> np.ndarray:
        pos = np.asarray(self.center, dtype=float).copy()
        for ax in range(3):
            pos[ax] += (index[ax] - 0.5 * (self.counts[ax] - 1)) * self.spacing[ax]
        return pos

    def site_positions(self) -> np.ndarray:
        return np.array([self.site_position(ix) for ix in self.site_indices()])


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

    def to_dict(self) -> dict:
        d = {
            "index": list(self.index),
            "position_um": (self.position * 1e6).tolist(),
            "radius_beam1_um": self.radius_beam1 * 1e6,
            "radius_beam2_um": self.radius_beam2 * 1e6,
            "power_weight": self.power_weight,
            "weight_beam1": self.weight_beam1,
            "weight_beam2": self.weight_beam2,
        }
        d.update(self.report.to_dict())
        return d


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


def _channel_amp_mhz(layout: OpticalLayout, channel: str, displacement: float) -> float:
    scale = displacement_scale(layout, channel)
    amp = displacement / scale
    if abs(amp) > layout.aod_freq_range_mhz * (1 + 1e-12):
        raise DomainError(
            f"displacement {displacement * 1e6:.0f} um needs {abs(amp):.2f} MHz on "
            f"{channel}, outside the +/-{layout.aod_freq_range_mhz} MHz AOD range"
        )
    return amp


def _dwell_waveform(
    layout: OpticalLayout,
    per_segment_offsets: list[tuple[float, float, float, float]],
    per_segment_weights: list[tuple[float, float, float, float]] | None = None,
    period: float = DEFAULT_PERIOD,
    transition_fraction: float = TRANSITION_FRACTION,
) -> ModulationWaveform:
    """Hop through displacement segments with raised-cosine transitions."""
    n = len(per_segment_offsets)
    if per_segment_weights is None:
        per_segment_weights = [(1.0, 1.0, 1.0, 1.0)] * n
    freq_segments = [
        [_channel_amp_mhz(layout, ch, off[i]) for i, ch in enumerate(CHANNELS)]
        for off in per_segment_offsets
    ]
    if n == 1:
        return ModulationWaveform.constant(
            freq_segments[0], per_segment_weights[0], period=period
        )
    seg_dt = period / n
    trans_dt = transition_fraction * seg_dt
    n_trans = 6
    times, freqs, wts = [], [], []
    for ch in range(4):
        t_list, f_list, w_list = [], [], []
        for k in range(n):
            t0 = k * seg_dt
            f_here = freq_segments[k][ch]
            w_here = per_segment_weights[k][ch]
            f_next = freq_segments[(k + 1) % n][ch]
            w_next = per_segment_weights[(k + 1) % n][ch]
            t_list += [t0, t0 + seg_dt - trans_dt]
            f_list += [f_here, f_here]
            w_list += [w_here, w_here]
            for m in range(1, n_trans):
                frac = 0.5 * (1 - math.cos(math.pi * m / n_trans))
                t_list.append(t0 + seg_dt - trans_dt + trans_dt * m / n_trans)
                f_list.append(f_here + (f_next - f_here) * frac)
                w_list.append(w_here + (w_next - w_here) * frac)
        times.append(np.array(t_list))
        freqs.append(np.array(f_list))
        wts.append(np.array(w_list))
    return ModulationWaveform(
        times=tuple(times),
        freq_offsets_mhz=tuple(freqs),
        weights=tuple(wts),
        period=period,
        interpolation="linear",
    )


def _check_site_collisions(layout: OpticalLayout, inputs, spec: GridSpec) -> bool:
    b1, _ = build_beamlines(layout, inputs)
    local_waist = max(b1.width_h(0.0), b1.width_v(0.0))
    min_spacing = min(s for c, s in zip(spec.counts, spec.spacing) if c > 1)
    if min_spacing < 2 * local_waist:
        warnings.warn(
            f"grid spacing {min_spacing * 1e6:.1f} um below two local waists "
            f"({2 * local_waist * 1e6:.1f} um); sites will merge",
            stacklevel=3,
        )
        return True
    return False


def synthesize_waveform(
    layout: OpticalLayout,
    mode: str,
    params: dict,
    inputs: tuple[InputBeam, InputBeam] | None = None,
) -> ModulationWaveform:
    """Build the AOD drive for one painting mode.

    Modes: "static-offset" (constant channel frequencies for
    ``displacements_um``), "line-paint" (symmetric triangle sweep of
    ``amplitude_um`` on the horizontal channels; optional
    ``vertical_amplitude_um`` adds the same sweep on the vertical channels),
    "vertical-tones" (equal-weight interleaved tones at ``positions_um``),
    "grid" (dwell waveform visiting every GridSpec site).
    """
    period = params.get("period_s", DEFAULT_PERIOD)
    if mode == "static-offset":
        disp = [d * 1e-6 for d in params.get("displacements_um", (0.0, 0.0, 0.0, 0.0))]
        freqs = [_channel_amp_mhz(layout, ch, disp[i]) for i, ch in enumerate(CHANNELS)]
        return ModulationWaveform.constant(freqs, period=period)
    if mode == "line-paint":
        amp = params["amplitude_um"] * 1e-6
        v_amp = params.get("vertical_amplitude_um", 0.0) * 1e-6
        n = int(params.get("n_samples", 64))
        t = np.arange(n) * (period / n)
        tri = 1.0 - 4.0 * np.abs(t / period - 0.5)  # -1 at t=0, +1 at T/2, -1 at T
        times, freqs, wts = [], [], []
        for i, ch in enumerate(CHANNELS):
            a = amp if ch.startswith("h") else v_amp
            f_amp = _channel_amp_mhz(layout, ch, a)
            times.append(t.copy())
            freqs.append(f_amp * tri)
            wts.append(np.ones(n))
        return ModulationWaveform(
            times=tuple(times),
            freq_offsets_mhz=tuple(freqs),
            weights=tuple(wts),
            period=period,
            interpolation="linear",
        )
    if mode == "vertical-tones":
        positions = [p * 1e-6 for p in params["positions_um"]]
        segments = [(0.0, z, 0.0, z) for z in positions]
        return _dwell_waveform(layout, segments, period=period)
    if mode == "grid":
        spec: GridSpec = params["grid"]
        weights = params.get("site_weights")
        if inputs is not None:
            _check_site_collisions(layout, inputs, spec)
        segments = []
        seg_weights = []
        for n_idx, idx in enumerate(spec.site_indices()):
            h1, h2, v = offsets_from_crossing(layout, spec.site_position(idx))
            segments.append((h1, v, h2, v))
            w = 1.0 if weights is None else float(weights[n_idx])
            seg_weights.append((w, 1.0, w, 1.0))
        return _dwell_waveform(layout, segments, seg_weights, period=period)
    raise DomainError(f"unknown waveform mode {mode!r}")


def waveforms_equal(a: ModulationWaveform, b: ModulationWaveform) -> bool:
    if a.period != b.period or a.interpolation != b.interpolation:
        return False
    for ta, tb, fa, fb, wa, wb in zip(
        a.times, b.times, a.freq_offsets_mhz, b.freq_offsets_mhz, a.weights, b.weights
    ):
        if ta.shape != tb.shape:
            return False
        if not (np.array_equal(ta, tb) and np.array_equal(fa, fb) and np.array_equal(wa, wb)):
            return False
    return True


def _same_structure(a: ModulationWaveform, b: ModulationWaveform) -> bool:
    return (
        a.period == b.period
        and a.interpolation == b.interpolation
        and all(ta.shape == tb.shape and np.allclose(ta, tb) for ta, tb in zip(a.times, b.times))
    )


def split_ramp(
    initial: ModulationWaveform, final: ModulationWaveform, duration: float, steps: int
) -> list[ModulationWaveform]:
    """Linearly interpolated waveform sequence from ``initial`` to ``final``."""
    if steps < 2:
        raise DomainError("a ramp needs at least two steps")
    if duration <= 0:
        raise DomainError("ramp duration must be positive")
    if not _same_structure(initial, final):
        raise DomainError("initial and final waveforms have mismatched channel structure")
    out = []
    for j in range(steps):
        s = j / (steps - 1)
        freqs = tuple(
            (1 - s) * fi + s * ff for fi, ff in zip(initial.freq_offsets_mhz, final.freq_offsets_mhz)
        )
        wts = tuple((1 - s) * wi + s * wf for wi, wf in zip(initial.weights, final.weights))
        out.append(
            ModulationWaveform(
                times=initial.times,
                freq_offsets_mhz=freqs,
                weights=wts,
                period=initial.period,
                interpolation=initial.interpolation,
            )
        )
    return out


def minimum_jerk(s: np.ndarray) -> np.ndarray:
    """Fifth-order profile whose first and second derivatives vanish at both ends."""
    return 10 * s**3 - 15 * s**4 + 6 * s**5


def transport_ramp(
    layout: OpticalLayout,
    start_positions,
    end_positions,
    duration: float,
    steps: int = 21,
    profile: str = "minimum-jerk",
    period: float = DEFAULT_PERIOD,
) -> list[ModulationWaveform]:
    """Waveform sequence transporting every site along a Cartesian path."""
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
    out = []
    for s in fractions:
        positions = start + s * (end - start)
        segments = []
        for pos in positions:
            h1, h2, v = offsets_from_crossing(layout, pos)
            for ch, off in zip(CHANNELS, (h1, v, h2, v)):
                if abs(off) > max_displacement(layout, ch) * (1 + 1e-9):
                    raise DomainError(
                        f"transport waypoint {pos * 1e6} um unreachable on channel {ch}"
                    )
            segments.append((h1, v, h2, v))
        out.append(_dwell_waveform(layout, segments, period=period))
    return out


def _site_beams(layout, inputs, position, w1: float, w2: float):
    h1, h2, v = offsets_from_crossing(layout, position)
    b1, b2 = build_beamlines(layout, inputs, (h1, v, h2, v))
    return [replace(b, power=b.power * w) for b, w in ((b1, w1), (b2, w2))]


def _as_weight_pairs(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones((n, 2))
    arr = np.asarray(weights, dtype=float)
    if arr.ndim == 1:
        arr = np.repeat(arr[:, None], 2, axis=1)
    if arr.shape != (n, 2):
        raise DomainError("weights must have one value or one (beam1, beam2) pair per site")
    if np.any(arr <= 0):
        raise DomainError("power weights must be positive")
    return arr


def characterize_sites(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    spec: GridSpec,
    waveform: ModulationWaveform | None = None,
    weights=None,
    depth_convention: str = "escape-saddle",
) -> SiteTable:
    """Per-site beam radii and trap reports for a grid.

    Each site is characterized in its own basin from the instantaneous trap
    formed while the multiplexed drive dwells there (neighbor contributions
    are negligible for spacings well above the local waists).  ``weights``
    may give one power weight per site or one per site and beam.
    """
    if waveform is not None:
        waveform.validate_against(layout)
    indices = spec.site_indices()
    pairs = _as_weight_pairs(weights, len(indices))
    rows = []
    for idx, (w1, w2) in zip(indices, pairs):
        pos = spec.site_position(idx)
        beams = _site_beams(layout, inputs, pos, float(w1), float(w2))
        radii = []
        for b in beams:
            zeta = float((pos - b.origin) @ b.direction)
            radii.append(math.sqrt(float(b.width_h(zeta)) * float(b.width_v(zeta))))
        try:
            report = characterize_beams(
                constants, beams, pos, depth_convention=depth_convention, multi_seed=False
            )
        except DomainError as exc:
            report = TrapReport.invalid(pos, depth_convention, str(exc), constants)
        rows.append(
            SiteRow(
                index=idx,
                position=pos,
                report=report,
                radius_beam1=radii[0],
                radius_beam2=radii[1],
                weight_beam1=float(w1),
                weight_beam2=float(w2),
            )
        )
    return SiteTable(rows=rows)


def depth_equalize_weights(depths, target: float | None = None) -> np.ndarray:
    """First compensation iterate under the linear-depth model: w ~ target/depth."""
    depths = np.asarray(depths, dtype=float)
    if np.any(depths <= 0):
        raise DomainError("depths must be positive to equalize")
    if target is None:
        target = float(depths.max())
    return target / depths


def compensate_powers(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    spec: GridSpec,
    table: SiteTable | None = None,
    objective: str = "equal-depth",
    max_iter: int = 40,
    tol: float = 1e-3,
    depth_convention: str = "escape-saddle",
    n_balance: int = 13,
) -> SiteTable:
    """Optimize per-site, per-beam power weights to homogenize the grid.

    Two nested moves per site, re-characterized each iteration: a common
    rescale of both beams pinning the objective to the central site (depth
    scales linearly with power, frequency with its square root), and an
    intensity rebalance between the two beams that minimizes the residual
    frequency deviation at fixed objective.  Stops once the relative spread
    of the objective is below ``tol`` and the rebalance no longer improves.
    """
    if objective not in ("equal-depth", "equal-mean-frequency"):
        raise DomainError(f"unknown compensation objective {objective!r}")
    if table is None:
        table = characterize_sites(
            constants, layout, inputs, spec, depth_convention=depth_convention
        )
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

        Exact for gravity-free site traps: the potential scales linearly.
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

    central_n = table.central_index()
    current = table
    pairs = pairs.copy()
    best_spread = objective_spread(current)
    for _ in range(max_iter):
        if best_spread < tol:
            break
        new_pairs = pairs.copy()
        for n, idx in enumerate(indices):
            if n == central_n:
                continue
            pos = spec.site_position(idx)
            base = 0.5 * (pairs[n, 0] + pairs[n, 1])
            best = None
            for delta in np.linspace(-0.35, 0.35, n_balance):
                w1 = base * (1 + delta)
                w2 = base * (1 - delta)
                if w1 <= 0 or w2 <= 0:
                    continue
                beams = _site_beams(layout, inputs, pos, w1, w2)
                try:
                    rep = characterize_beams(
                        constants, beams, pos, depth_convention=depth_convention, multi_seed=False
                    )
                except DomainError:
                    continue
                if not rep.valid or rep.depth <= 0:
                    continue
                scale = pin_scale(rep)
                res = residual(rep, scale)
                if best is None or res < best[0]:
                    best = (res, w1 * scale, w2 * scale)
            if best is not None:
                new_pairs[n] = [best[1], best[2]]
        trial = characterize_sites(
            constants, layout, inputs, spec, weights=new_pairs, depth_convention=depth_convention
        )
        trial_spread = objective_spread(trial)
        if trial_spread >= best_spread:
            break  # accepted iterates must not increase the objective spread
        pairs, current, best_spread = new_pairs, trial, trial_spread

    # power budget: mean weight <= 1 (a common rescale leaves all spreads intact)
    mean_w = np.array([[r.weight_beam1, r.weight_beam2] for r in current.rows]).mean()
    if mean_w > 1.0:
        pairs = pairs / mean_w
        current = characterize_sites(
            constants, layout, inputs, spec, weights=pairs, depth_convention=depth_convention
        )
    current.converged = best_spread < tol
    return current


def site_table_csv_rows(table: SiteTable) -> list[dict]:
    rows = []
    for r in table.rows:
        f = r.report.frequencies
        rows.append(
            {
                "i": r.index[0],
                "j": r.index[1],
                "k": r.index[2],
                "x_um": r.position[0] * 1e6,
                "y_um": r.position[1] * 1e6,
                "z_um": r.position[2] * 1e6,
                "radius_beam1_um": r.radius_beam1 * 1e6,
                "radius_beam2_um": r.radius_beam2 * 1e6,
                "depth_uK": r.report.depth_uk(),
                "f1_hz": f[0],
                "f2_hz": f[1],
                "f3_hz": f[2],
                "mean_frequency_hz": r.report.mean_frequency,
                "power_weight": r.power_weight,
                "valid": int(r.report.valid),
            }
        )
    return rows
