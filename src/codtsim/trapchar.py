"""Trap characterization: minimum, depth, frequencies, volume, thermodynamics.

The minimum is located by gradient descent with backtracking plus a Newton
polish; curvatures come from a central finite-difference Hessian whose
eigen-decomposition yields the trap frequencies omega_i = sqrt(lambda_i / m).
Two depth conventions are computed: "escape-saddle" (lowest barrier along
the principal axes and the beam arms) and "peak-to-min" (optical depth of
the minimum, gravity excluded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .optics import InputBeam, OpticalLayout, build_beamlines, max_displacement
from .potential import DipolePotential, static_potential

DEFAULT_HALF_EXTENTS = (4e-3, 2e-3, 2e-3)
MAX_DESCENT_ITER = 400

DEPTH_CONVENTIONS = ("escape-saddle", "peak-to-min")


@dataclass
class TrapReport:
    """Result of characterizing one potential minimum.

    Both depths are always computed; :attr:`depth` is the escape-saddle one,
    and the report-time methods take the convention to print.
    """

    minimum_position: np.ndarray  # m
    depth_escape: float  # J
    depth_peak: float  # J
    frequencies: np.ndarray  # Hz, ascending with principal_axes rows
    principal_axes: np.ndarray  # row i is the axis of frequencies[i]
    mean_frequency: float  # Hz, geometric mean
    valid: bool
    constants: PhysicalConstants = field(repr=False)
    reason: str = ""

    @classmethod
    def invalid(cls, position, reason: str, constants) -> "TrapReport":
        """Report for a trap that could not be characterized."""
        return cls(
            minimum_position=position,
            depth_escape=0.0,
            depth_peak=0.0,
            frequencies=np.zeros(3),
            principal_axes=np.eye(3),
            mean_frequency=0.0,
            valid=False,
            reason=reason,
            constants=constants,
        )

    @property
    def depth(self) -> float:
        """Escape-saddle depth, J."""
        return self.depth_escape

    def depth_uk(self, convention: str = "escape-saddle") -> float:
        if convention not in DEPTH_CONVENTIONS:
            raise DomainError(f"unknown depth convention {convention!r}")
        d = self.depth_escape if convention == "escape-saddle" else self.depth_peak
        return d / self.constants.boltzmann * 1e6

    def to_dict(self, convention: str = "escape-saddle") -> dict:
        return {
            "valid": bool(self.valid),
            "reason": self.reason,
            "minimum_position_um": (self.minimum_position * 1e6).tolist(),
            "depth_uK": self.depth_uk(convention),
            "depth_escape_saddle_uK": self.depth_uk("escape-saddle"),
            "depth_peak_to_min_uK": self.depth_uk("peak-to-min"),
            "depth_convention": convention,
            "frequencies_hz": self.frequencies.tolist(),
            "principal_axes": self.principal_axes.tolist(),
            "mean_frequency_hz": self.mean_frequency,
        }


@dataclass(frozen=True)
class ThermoMetrics:
    atom_number: float
    temperature: float  # K
    psd: float
    truncation_parameter: float

    def to_dict(self) -> dict:
        return {
            "atom_number": self.atom_number,
            "temperature_uK": self.temperature * 1e6,
            "psd": self.psd,
            "truncation_parameter": self.truncation_parameter,
        }


def fd_gradient(f, x, h: float) -> np.ndarray:
    pts = np.repeat(x[None, :], 6, axis=0)
    for i in range(3):
        pts[2 * i, i] += h
        pts[2 * i + 1, i] -= h
    vals = f(pts)
    return (vals[0::2] - vals[1::2]) / (2 * h)


def fd_hessian(f, x, h: float) -> np.ndarray:
    """Central-difference Hessian, symmetrized (symmetric to rounding already)."""
    pts = [x]
    for i in range(3):
        for s in (+1.0, -1.0):
            p = x.copy()
            p[i] += s * h
            pts.append(p)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for i, j in pairs:
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p = x.copy()
            p[i] += si * h
            p[j] += sj * h
            pts.append(p)
    vals = f(np.array(pts))
    f0 = vals[0]
    hess = np.empty((3, 3))
    for i in range(3):
        hess[i, i] = (vals[1 + 2 * i] - 2 * f0 + vals[2 + 2 * i]) / h**2
    for n, (i, j) in enumerate(pairs):
        base = 7 + 4 * n
        hess[i, j] = hess[j, i] = (vals[base] - vals[base + 1] - vals[base + 2] + vals[base + 3]) / (
            4 * h**2
        )
    return 0.5 * (hess + hess.T)


def _inside(x, domain) -> bool:
    center, half = domain
    return bool(np.all(np.abs(x - center) <= half))


def _descend(f, seed, h, domain):
    """Multi-scale gradient descent with backtracking, then Newton polish."""
    x = np.asarray(seed, dtype=float).copy()
    ok = True
    # coarse passes resolve plateau-scale slopes before the fine pass
    for scale in (25.0, 5.0, 1.0):
        x, ok = _descend_single(f, x, scale * h, domain)
        if not ok:
            return x, False
    return x, ok


def _descend_single(f, seed, h, domain):
    x = np.asarray(seed, dtype=float).copy()
    if not _inside(x, domain):
        return x, False
    fx = float(f(x[None, :])[0])
    alpha = None
    for _ in range(MAX_DESCENT_ITER):
        g = fd_gradient(f, x, h)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        if alpha is None:
            alpha = 10 * h / gn
        else:
            alpha *= 2.0
        moved = False
        while alpha * gn > 1e-3 * h:
            trial = x - alpha * g
            if _inside(trial, domain):
                ft = float(f(trial[None, :])[0])
                if ft < fx - 1e-4 * alpha * gn * gn:
                    x, fx, moved = trial, ft, True
                    break
            alpha *= 0.5
        if not moved:
            break
        if alpha * gn < 1e-2 * h:
            break
    # Newton polish for sub-step accuracy near the quadratic bottom
    for _ in range(12):
        g = fd_gradient(f, x, h)
        hess = fd_hessian(f, x, h)
        eigvals = np.linalg.eigvalsh(hess)
        if eigvals[0] <= 0:
            break
        dx = np.linalg.solve(hess, -g)
        norm = float(np.linalg.norm(dx))
        if norm > 50 * h:
            dx *= 50 * h / norm
        trial = x + dx
        if not _inside(trial, domain):
            break
        ft = float(f(trial[None, :])[0])
        if ft > fx + abs(fx) * 1e-12:
            break
        x, fx = trial, ft
        if norm < 1e-7 * h:
            break
    return x, True


def _seed_grid(domain, n=7) -> np.ndarray:
    center, half = domain
    axes = [np.linspace(-h, h, n) if h > 0 else np.array([0.0]) for h in half]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return center + grid


def _ray_barrier(f, x0, u0, directions, domain, step) -> np.ndarray:
    """Max potential along each ray until escape below the minimum or the domain edge.

    All rays are sampled at multiples of ``step`` and evaluated in one call.
    A ray's barrier is the running maximum (from ``u0``) up to and including
    its first value below the escape level, or over the whole ray when no
    value escapes.  The escape test carries a small tolerance so that the
    flat bottom of a painted trap (where the located minimum may sit a
    fraction of a percent above the deepest plateau point) does not read as
    an escape channel.
    """
    center, half = domain
    d = np.asarray(directions, dtype=float)
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        t_exit = np.min(
            np.where(d != 0, (half - (x0 - center) * np.sign(d)) / np.abs(d), np.inf), axis=1
        )
    ts = [np.arange(step, t + step, step) for t in np.maximum(t_exit, step)]
    counts = [len(t) for t in ts]
    starts = np.cumsum([0] + counts[:-1])
    pts = np.repeat(d, counts, axis=0)
    pts *= np.concatenate(ts)[:, None]
    pts += x0
    vals = f(pts)
    escapes = vals < u0 - 1e-2 * abs(u0)  # fell below the trap bottom: escaped over the barrier
    before = np.cumsum(escapes) - escapes  # escapes at earlier samples, all rays so far
    vals[before != np.repeat(before[starts], counts)] = -np.inf  # after an escape on the same ray
    return np.fmax(u0, np.fmax.reduceat(vals, starts))


def characterize(
    potential,
    seed_point,
    *,
    constants: PhysicalConstants,
    step: float,
    domain: tuple,
    beam_axes=None,
    multi_seed: bool = True,
) -> TrapReport:
    """Characterize the trap minimum reached from ``seed_point``.

    ``potential`` is a callable mapping (N, 3) points to energies (J);
    ``step`` is the finite-difference step (m).  ``domain`` is an
    axis-aligned (center, half_extents) search box.  ``beam_axes`` adds
    escape-search directions along the beam arms.
    """
    f = potential
    seed = np.asarray(seed_point, dtype=float)

    def converged_minimum(start):
        x, ok = _descend(f, start, step, domain)
        if not ok:
            return x, False
        # descent that stalls on the search-box boundary means the potential
        # is open in that direction (e.g. gravity tilting the trap open)
        center, half = domain
        if np.any(np.abs(x - center) > half - 2 * step):
            return x, False
        g = fd_gradient(f, x, step)
        scale = abs(float(f(x[None, :])[0])) + 1e-30
        return x, float(np.linalg.norm(g)) * step < 1e-3 * scale + 1e-32

    x, ok = converged_minimum(seed)
    if not ok and multi_seed:
        seeds = _seed_grid(domain)
        vals = f(seeds)
        order = np.argsort(vals)
        for idx in order[:5]:
            x, ok = converged_minimum(seeds[idx])
            if ok:
                break
    if not ok:
        return TrapReport.invalid(x, "no minimum found in domain", constants)

    hess = fd_hessian(f, x, step)
    asym = np.max(np.abs(hess - hess.T)) / (np.max(np.abs(hess)) + 1e-300)
    if asym > 1e-6:
        raise DomainError(f"finite-difference Hessian asymmetric ({asym:.1e})")
    eigvals, eigvecs = np.linalg.eigh(hess)
    if eigvals[-1] <= 0:
        return TrapReport.invalid(x, "flat potential: no positive curvature at the minimum", constants)
    neg_tol = 1e-4 * np.max(np.abs(eigvals))
    if eigvals[0] < -neg_tol:
        raise DomainError("negative Hessian eigenvalue at converged point (saddle)")
    eigvals = np.clip(eigvals, 0.0, None)
    omegas = np.sqrt(eigvals / constants.atom_mass)
    freqs = omegas / (2 * math.pi)
    order = np.argsort(freqs)
    freqs = freqs[order]
    axes = eigvecs[:, order].T
    mean_freq = float(np.prod(freqs)) ** (1.0 / 3.0) if np.all(freqs > 0) else 0.0

    u_min = float(f(x[None, :])[0])
    directions = [axes[i] for i in range(3)] + [-axes[i] for i in range(3)]
    if beam_axes is not None:
        for ax in beam_axes:
            directions.extend([np.asarray(ax, dtype=float), -np.asarray(ax, dtype=float)])
    barriers = _ray_barrier(f, x, u_min, directions, domain, max(10 * step, 2e-6))
    depth_escape = max(0.0, float(barriers.min()) - u_min)
    if isinstance(potential, DipolePotential):
        depth_peak = max(0.0, -float(potential.optical(x[None, :])[0]))
    else:
        depth_peak = max(0.0, float(barriers.max()) - u_min)

    return TrapReport(
        minimum_position=x,
        depth_escape=depth_escape,
        depth_peak=depth_peak,
        frequencies=freqs,
        principal_axes=axes,
        mean_frequency=mean_freq,
        valid=True,
        constants=constants,
    )


def characterize_beams(
    constants: PhysicalConstants, beams, seed_point=None, **kwargs
) -> TrapReport:
    """Characterize the static trap of a beam pair.

    The seed defaults to the midpoint of the beam origins.  Unless given,
    the finite-difference step is the smallest waist / 50, the escape search
    adds both beam arms, and the search box is ``DEFAULT_HALF_EXTENTS``
    around the seed.
    """
    if seed_point is None:
        seed_point = 0.5 * (beams[0].origin + beams[1].origin)
    kwargs.setdefault("step", min(min(b.waist_h, b.waist_v) for b in beams) / 50)
    kwargs.setdefault("beam_axes", [b.direction for b in beams])
    kwargs.setdefault("domain", (seed_point, np.array(DEFAULT_HALF_EXTENTS)))
    pot = static_potential(constants, beams)
    return characterize(pot, seed_point, constants=constants, **kwargs)


def characterize_crossed_trap(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    **kwargs,
) -> TrapReport:
    """Characterize the unmodulated, aligned crossed trap."""
    return characterize_beams(constants, build_beamlines(layout, inputs), **kwargs)


def reachable_volume(
    layout: OpticalLayout,
    h_half_range: float | None = None,
    v_half_range: float | None = None,
    n_grid: int = 41,
) -> dict:
    """Reachable crossing positions over the four-channel AOD range.

    Enumerates axis-intersection solutions on a dense grid of per-beam
    in-plane offsets; reports the in-plane hull area, the vertical span, the
    prism volume (area x span) and the true 3D hull volume, which coincide
    because vertical steering decouples from the in-plane map.
    """
    from scipy.spatial import ConvexHull

    if n_grid < 2:
        raise DomainError(f"n_grid must be at least 2 to span the range, got {n_grid}")
    if h_half_range is None:
        h_half_range = 0.5 * (max_displacement(layout, "h1") + max_displacement(layout, "h2"))
    if v_half_range is None:
        v_half_range = 0.5 * (max_displacement(layout, "v1") + max_displacement(layout, "v2"))
    s = math.sin(layout.half_angle)
    c = math.cos(layout.half_angle)
    if h_half_range == 0.0:
        return {
            "planar_area_mm2": 0.0,
            "vertical_span_mm": 2 * v_half_range * 1e3,
            "prism_volume_mm3": 0.0,
            "hull_volume_mm3": 0.0,
            "hull_points_mm": [],
        }
    a = np.linspace(-h_half_range, h_half_range, n_grid)
    aa, bb = np.meshgrid(a, a, indexing="ij")
    xy = np.stack([(bb - aa) / (2 * s), (aa + bb) / (2 * c)], axis=-1).reshape(-1, 2)
    hull2d = ConvexHull(xy)
    area_m2 = hull2d.volume  # 2D hull "volume" is the area
    span = 2 * v_half_range
    prism = area_m2 * span
    if v_half_range > 0:
        pts3 = np.concatenate(
            [
                np.column_stack([xy, np.full(len(xy), -v_half_range)]),
                np.column_stack([xy, np.full(len(xy), +v_half_range)]),
            ]
        )
        hull3d_volume = ConvexHull(pts3).volume
    else:
        hull3d_volume = 0.0
    boundary = xy[hull2d.vertices]
    return {
        "planar_area_mm2": area_m2 * 1e6,
        "vertical_span_mm": span * 1e3,
        "prism_volume_mm3": prism * 1e9,
        "hull_volume_mm3": hull3d_volume * 1e9,
        "hull_points_mm": (boundary * 1e3).tolist(),
    }


def thermo_metrics(
    report: TrapReport,
    atom_number: float,
    temperature: float,
    constants: PhysicalConstants | None = None,
) -> ThermoMetrics:
    """Phase-space density and truncation parameter for a characterized trap.

    psd = N (hbar omega_bar / kB T)^3 with omega_bar the geometric-mean
    angular frequency; eta = depth / (kB T).
    """
    if not report.valid:
        raise DomainError("cannot compute thermodynamic metrics for an invalid trap report")
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    constants = constants or report.constants or PhysicalConstants()
    psd = phase_space_density(atom_number, temperature, report.mean_frequency, constants)
    eta = report.depth / (constants.boltzmann * temperature)
    return ThermoMetrics(
        atom_number=atom_number, temperature=temperature, psd=psd, truncation_parameter=eta
    )


def phase_space_density(
    atom_number: float,
    temperature: float,
    mean_frequency_hz: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """psd = N (hbar omega_bar / kB T)^3 for a harmonic trap."""
    constants = constants or PhysicalConstants()
    omega_bar = 2 * math.pi * mean_frequency_hz
    return atom_number * (
        constants.reduced_planck * omega_bar / (constants.boltzmann * temperature)
    ) ** 3


def misalignment_sensitivity(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    relative_offset: float,
) -> float:
    """Depth ratio vs. aligned when beam 2 is displaced vertically by ``relative_offset``."""
    return misalignment_sweep(constants, layout, inputs, [relative_offset])[0]["depth_ratio"]


def misalignment_sweep(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    offsets,
) -> list[dict]:
    """Depth ratio vs. the aligned trap for each vertical offset of beam 2 (0 if no trap)."""
    ref = characterize_crossed_trap(constants, layout, inputs)
    if not ref.valid or ref.depth <= 0:
        raise DomainError("reference trap is not valid")
    b1, b2 = build_beamlines(layout, inputs)
    rows = []
    for off in np.asarray(offsets, dtype=float):
        report = characterize_beams(constants, (b1, shifted_beam(b2, np.array([0.0, 0.0, off]))))
        ratio = report.depth / ref.depth if report.valid else 0.0
        rows.append({"offset_um": off * 1e6, "depth_ratio": ratio})
    return rows


def shifted_beam(beam, shift: np.ndarray):
    """Copy of a beam with its axis translated by ``shift``."""
    from dataclasses import replace

    return replace(beam, origin=beam.origin + shift)
