"""Trap characterization: minimum, depth, frequencies, volume, thermodynamics.

One damped Newton loop locates the minimum on the closed-form U, grad U and
hess U of a DipolePotential.  Hessian eigenvalues are floored in magnitude,
so indefinite or flat directions (a painted plateau) take gradient steps,
and every step is line-searched inside the search box.  The trap
frequencies omega_i = sqrt(lambda_i / m) come from the Hessian at the
minimum.  Two depth conventions are computed: "escape-saddle" (lowest
barrier along the principal axes and the beam arms) and "peak-to-min"
(optical depth of the minimum, gravity excluded); an escape scan that
finds a deeper basin moves the search there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError, ModelValidityError
from .optics import InputBeam, OpticalLayout, max_displacement
from .potential import DipolePotential, beam_records

DEFAULT_HALF_EXTENTS = (4e-3, 2e-3, 2e-3)
# Newton minimum search: step cap, eigenvalue floor as a share of the largest
# |eigenvalue|, and convergence once a step is below NEWTON_XTOL x ``step``
MAX_NEWTON_ITER = 100
CURVATURE_FLOOR = 1e-6
NEWTON_XTOL = 1e-9
MAX_BASIN_HOPS = 4  # restarts in deeper basins the escape scan finds
# escape scan: scan steps out to this many waists past the farthest record
# origin, then steps growing by this ratio out to this many Rayleigh ranges
# past the farthest focus, where the optical part is 1e-4 of its peak
NEAR_FIELD_WAISTS = 4.0
FAR_FIELD_RATIO = 1.05
FAR_FIELD_RAYLEIGH_RANGES = 100.0

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
    # how the minimum was found: Newton steps from the seed that reached it,
    # seeds tried (the given one, then each deeper basin) and |grad U|, J/m
    newton_iterations: int = 0
    seeds_tried: int = 0
    gradient_norm: float = 0.0

    @classmethod
    def invalid(cls, position, reason: str, constants, **diagnostics) -> "TrapReport":
        """Report for a trap that could not be characterized."""
        return cls(
            **diagnostics,
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
            "newton_iterations": self.newton_iterations,
            "seeds_tried": self.seeds_tried,
            "gradient_norm_uK_per_um": self.gradient_norm / self.constants.boltzmann,
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


def _newton(potential: DipolePotential, seed, domain, step):
    """Damped Newton descent from ``seed`` (clipped into the search box).

    Hessian eigenvalues are replaced by their magnitude, floored at
    ``CURVATURE_FLOOR`` of the largest, so indefinite or flat directions (the
    bottom of a painted trap) take gradient steps.  A step is cut to the box,
    then halved until U decreases (Armijo); a Newton step shorter than
    ``step`` on a positive-definite Hessian skips that test, its decrease
    being at rounding level.  Converged once a step is below ``NEWTON_XTOL *
    step``, or when the line search stalls at a gradient that is small on the
    scale of U over one ``step``.  Returns (x, U, grad, hess, steps, converged).
    """
    def derivatives(x):
        u, grad, hess = (a[0] for a in potential.derivatives(x[None, :]))
        if not np.isfinite(hess).all():  # e.g. a focal waist so small the intensity overflows
            raise ModelValidityError(f"potential derivatives are not finite at {x.tolist()} m")
        return u, grad, hess

    center, half = domain
    lo, hi = center - half, center + half
    x = np.clip(seed, lo, hi)
    u, grad, hess = derivatives(x)
    xtol, diagonal = NEWTON_XTOL * step, float(np.linalg.norm(2 * half))
    for steps in range(MAX_NEWTON_ITER):
        if not grad.any():
            return x, u, grad, hess, steps, True
        lam, vec = np.linalg.eigh(hess)
        # the floor also keeps every step within the box diagonal
        floor = max(CURVATURE_FLOOR * np.abs(lam).max(), np.linalg.norm(grad) / diagonal)
        dx = -vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), floor))
        norm = float(np.linalg.norm(dx))
        if norm <= xtol:
            return x, u, grad, hess, steps, True
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(dx > 0, (hi - x) / dx, np.where(dx < 0, (lo - x) / dx, np.inf))
        t = min(1.0, float(room.min()))
        local = t == 1.0 and norm <= step and lam[0] > floor
        while t * norm > xtol:
            trial = np.clip(x + t * dx, lo, hi)
            u_t, grad_t, hess_t = derivatives(trial)
            if local or u_t <= u + 1e-4 * t * float(grad @ dx):
                x, u, grad, hess = trial, u_t, grad_t, hess_t
                break
            t *= 0.5
        else:
            stalled_at_minimum = float(np.linalg.norm(grad)) * step < 1e-3 * abs(u) + 1e-32
            return x, u, grad, hess, steps, stalled_at_minimum
    return x, u, grad, hess, MAX_NEWTON_ITER, False


def _ray_barrier(f, x0, u0, directions, domain, step):
    """Max potential along each ray until it escapes below the minimum or meets its asymptote.

    Every ray is sampled at multiples of ``step`` out to ``NEAR_FIELD_WAISTS``
    of the widest waist past the farthest record origin, then at steps
    growing by ``FAR_FIELD_RATIO`` out to ``FAR_FIELD_RAYLEIGH_RANGES`` of
    the longest Rayleigh range past the farthest focus, where no record can
    move U any more; a falling ray goes on until gravity alone takes it
    below the escape level.  All samples are evaluated in one call.  A
    ray's barrier is the running maximum (from ``u0``) up to and including
    its first value below the escape level.  A ray that never escapes is
    bounded by its asymptote as well: m g z0 on a level ray, +inf on a
    rising one.  When a record never decays (an infinite Rayleigh range),
    rays end at the edge of the search ``domain`` with no asymptote.  The
    escape test carries a small tolerance so that the flat bottom of a
    painted trap (where the located minimum may sit a fraction of a percent
    above the deepest plateau point) does not read as an escape channel.

    Returns the barriers and the lowest sample inside the domain when it
    lies below the escape level (a deeper basin the trap spills into), else
    None.
    """
    records, constants = f.records, f.constants
    center, half = domain
    d = np.asarray(directions, dtype=float)
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    escape_level = u0 - 1e-2 * abs(u0)
    mg = constants.atom_mass * constants.gravity
    slope = mg * d[:, 2]
    near = np.linalg.norm(records[:, 0:3] - x0, axis=1).max()
    near += NEAR_FIELD_WAISTS * records[:, 12:14].max()
    foci = records[:, None, 0:3] + records[:, 14:16, None] * records[:, None, 3:6]
    reach = np.linalg.norm(foci - x0, axis=2).max()
    reach += FAR_FIELD_RAYLEIGH_RANGES * records[:, 16:18].max()
    if np.isfinite(reach):
        with np.errstate(divide="ignore", invalid="ignore"):
            fall = 2 * (escape_level - mg * x0[2]) / slope  # gravity alone is below escape_level
        t_end = np.where(slope < 0, np.fmax(reach, fall), reach)
        limit = np.where(slope > 0, np.inf, np.where(slope < 0, -np.inf, mg * x0[2]))
    else:
        with np.errstate(divide="ignore"):
            t_exit = np.min(
                np.where(d != 0, (half - (x0 - center) * np.sign(d)) / np.abs(d), np.inf), axis=1
            )
        t_end, limit = np.maximum(t_exit, step), np.full(len(d), -np.inf)
    t_near = np.arange(step, max(near, step) + step, step)
    n_far = max(0, math.ceil(math.log(t_end.max() / t_near[-1], FAR_FIELD_RATIO)))
    samples = np.concatenate([t_near, t_near[-1] * FAR_FIELD_RATIO ** np.arange(1, n_far + 1)])
    ts = [np.minimum(samples[: np.searchsorted(samples, t) + 1], t) for t in t_end]
    counts = [len(t) for t in ts]
    starts = np.cumsum([0] + counts[:-1])
    pts = np.repeat(d, counts, axis=0)
    pts *= np.concatenate(ts)[:, None]
    pts += x0
    vals = f(pts)
    escapes = vals < escape_level  # fell below the trap bottom: escaped over the barrier
    inside = np.all(np.abs(pts - center) <= half, axis=1)
    lowest = int(np.argmin(np.where(inside, vals, np.inf)))
    deeper = pts[lowest] if escapes[lowest] and inside[lowest] else None
    before = np.cumsum(escapes) - escapes  # escapes at earlier samples, all rays so far
    vals[before != np.repeat(before[starts], counts)] = -np.inf  # after an escape on the same ray
    barriers = np.fmax(u0, np.fmax.reduceat(vals, starts))
    escaped = np.logical_or.reduceat(escapes, starts)
    return np.where(escaped, barriers, np.fmax(barriers, limit)), deeper


def characterize(potential: DipolePotential, seed_point, *, domain: tuple) -> TrapReport:
    """Characterize the trap minimum of ``potential`` reached from ``seed_point``.

    Everything but the search box, the axis-aligned (center, half_extents)
    ``domain``, is read off the potential: its constants, its length scale
    (the smallest record waist / 50, which spaces the escape scan and sets
    the margin by which a minimum must clear the box) and its escape arms
    (the record directions, searched next to the principal axes).  When
    the escape scan finds a deeper basin (the coarse phase ripple of a
    painted trap), the search moves there.  No minimum from the seed, a
    flat potential and a saddle give an invalid report.
    """
    constants = potential.constants
    step = float(potential.records[:, 12:14].min()) / 50
    directions = potential.records[:, 3:6]
    arms = directions[np.sort(np.unique(directions, axis=0, return_index=True)[1])]
    center, half = domain
    scan_step = max(10 * step, 2e-6)

    def minimum(start):
        x, u, grad, hess, iterations, ok = _newton(potential, start, domain, step)
        # a descent that ends on the search-box boundary means the potential
        # is open in that direction (e.g. gravity tilting the trap open)
        ok = ok and not np.any(np.abs(x - center) > half - 2 * step)
        return x, u, grad, hess, iterations, ok

    x, u_min, grad, hess, iterations, ok = minimum(np.asarray(seed_point, dtype=float))
    eigvals, eigvecs = np.linalg.eigh(hess)

    def saddle():
        return eigvals[0] < -1e-4 * np.max(np.abs(eigvals))

    hops = 0
    while ok and eigvals[-1] > 0 and not saddle():
        axes = eigvecs.T  # ascending eigenvalues: rows follow the frequencies
        rays = np.concatenate([axes, arms])
        barriers, deeper = _ray_barrier(potential, x, u_min, [*rays, *-rays], domain, scan_step)
        # a ray that escaped below the minimum found a deeper basin: restart there
        if deeper is None or hops == MAX_BASIN_HOPS:
            break
        x_hop, u_hop, grad_hop, hess_hop, iterations_hop, ok_hop = minimum(deeper)
        if not ok_hop or u_hop >= u_min:
            break
        hops += 1
        x, u_min, grad, hess, iterations = x_hop, u_hop, grad_hop, hess_hop, iterations_hop
        eigvals, eigvecs = np.linalg.eigh(hess)
    diagnostics = {
        "newton_iterations": iterations,
        "seeds_tried": 1 + hops,
        "gradient_norm": float(np.linalg.norm(grad)),
    }
    if not ok:
        return TrapReport.invalid(x, "no minimum found in domain", constants, **diagnostics)
    if eigvals[-1] <= 0:
        reason = "flat potential: no positive curvature at the minimum"
        return TrapReport.invalid(x, reason, constants, **diagnostics)
    if saddle():
        reason = "negative Hessian eigenvalue at converged point (saddle)"
        return TrapReport.invalid(x, reason, constants, **diagnostics)
    freqs = np.sqrt(np.clip(eigvals, 0.0, None) / constants.atom_mass) / (2 * math.pi)
    depth_peak = max(0.0, -float(potential.optical(x[None, :])[0]))
    # when the lowest barrier is the asymptote m g z of a level ray that never
    # escapes, it lies exactly the optical depth above the minimum
    barrier = float(barriers.min())
    level = constants.atom_mass * constants.gravity * x[2]
    depth_escape = depth_peak if barrier == level else max(0.0, barrier - u_min)
    return TrapReport(
        minimum_position=x,
        depth_escape=depth_escape,
        depth_peak=depth_peak,
        frequencies=freqs,
        principal_axes=axes,
        mean_frequency=float(np.prod(freqs)) ** (1.0 / 3.0) if np.all(freqs > 0) else 0.0,
        valid=True,
        constants=constants,
        **diagnostics,
    )


def _characterize_pair(
    constants: PhysicalConstants, records, seed_point=None, **kwargs
) -> TrapReport:
    """Characterize the static trap of one beam pair's (2, 19) records.

    The seed defaults to the midpoint of the two record origins and, unless
    given, the search box is ``DEFAULT_HALF_EXTENTS`` around the seed.
    """
    if seed_point is None:
        seed_point = 0.5 * (records[0, 0:3] + records[1, 0:3])
    kwargs.setdefault("domain", (seed_point, np.array(DEFAULT_HALF_EXTENTS)))
    return characterize(DipolePotential(constants, records), seed_point, **kwargs)


def characterize_crossed_trap(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    **kwargs,
) -> TrapReport:
    """Characterize the unmodulated, aligned crossed trap."""
    return _characterize_pair(constants, beam_records(layout, inputs, np.zeros(4))[0], **kwargs)


def reachable_volume(
    layout: OpticalLayout,
    h_half_range: float | None = None,
    v_half_range: float | None = None,
) -> dict:
    """Reachable crossing positions over the four-channel AOD range.

    The crossing is a linear map of the per-beam in-plane offsets
    (:func:`~codtsim.optics.crossing_from_offsets`), so the square
    |h1|, |h2| <= a maps onto the parallelogram with corners (-/+a/sin, 0)
    and (0, -/+a/cos) and area 2 a^2 / (sin cos).  Vertical steering
    decouples from the in-plane map, so the hull volume is the prism volume
    (area x vertical span).
    """
    if h_half_range is None:
        h_half_range = 0.5 * (max_displacement(layout, "h1") + max_displacement(layout, "h2"))
    if v_half_range is None:
        v_half_range = 0.5 * (max_displacement(layout, "v1") + max_displacement(layout, "v2"))
    a = h_half_range
    s = math.sin(layout.half_angle)
    c = math.cos(layout.half_angle)
    area_m2 = 2 * a * a / (s * c)
    span = 2 * v_half_range
    volume_mm3 = area_m2 * span * 1e9
    corners = [[-a / s, 0.0], [0.0, -a / c], [a / s, 0.0], [0.0, a / c]] if a else []
    return {
        "planar_area_mm2": area_m2 * 1e6,
        "vertical_span_mm": span * 1e3,
        "prism_volume_mm3": volume_mm3,
        "hull_volume_mm3": volume_mm3,
        "hull_points_mm": (np.array(corners) * 1e3).tolist(),
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
    constants = constants or report.constants
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


def misalignment_sweep(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    offsets,
) -> list[dict]:
    """Depth ratio vs. the aligned trap for each vertical offset of beam 2 (0 if no trap).

    The offset moves beam 2's axis without an AOD, so no range check applies.
    """
    aligned = beam_records(layout, inputs, np.zeros(4))[0]
    ref = _characterize_pair(constants, aligned)
    if not ref.valid or ref.depth <= 0:
        raise DomainError("reference trap is not valid")
    rows = []
    for off in np.asarray(offsets, dtype=float):
        records = aligned.copy()
        records[1, 2] += off
        # past the crossing the midpoint seed sits on a saddle: an invalid report, ratio 0
        report = _characterize_pair(constants, records)
        rows.append({"offset_um": off * 1e6, "depth_ratio": report.depth / ref.depth if report.valid else 0.0})
    return rows
