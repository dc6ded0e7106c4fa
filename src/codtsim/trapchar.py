"""Trap characterization: minimum, depth, frequencies, volume, thermodynamics.

One damped Newton loop locates the minimum on the closed-form U, grad U and
hess U of a DipolePotential.  Hessian eigenvalues are floored in magnitude,
so indefinite or flat directions (a painted plateau) take gradient steps,
and every step is line-searched inside the search box.  The trap
frequencies omega_i = sqrt(lambda_i / m) come from the Hessian at the
minimum.  Two depth conventions are computed: "escape-saddle" (lowest
barrier along the principal axes and the beam arms) and "peak-to-min"
(optical depth of the minimum, gravity excluded).  A report describes the
well at its seed: when that well spills into a deeper one, its escape depth
is the barrier it spills over.  Every step runs over a batch of traps at
once, one trap being the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .constants import PhysicalConstants
from .errors import DomainError, ModelValidityError
from .optics import InputBeam, OpticalLayout, max_displacement
from .potential import DipolePotential, beam_records

# the search box, m: Newton stays within seed +/- these, and so does an
# escape ray when a record never decays (an infinite Rayleigh range)
SEARCH_HALF_EXTENTS = (4e-3, 2e-3, 2e-3)
# Newton minimum search: step cap, eigenvalue floor as a share of the largest
# |eigenvalue|, and convergence once a step is below NEWTON_XTOL x ``step``
MAX_NEWTON_ITER = 100
CURVATURE_FLOOR = 1e-6
NEWTON_XTOL = 1e-9
# escape scan: scan steps out to this many waists past the farthest record
# origin, then steps growing by this ratio out to this many Rayleigh ranges
# past the farthest focus, where the optical part is 1e-4 of its peak
NEAR_FIELD_WAISTS = 4.0
FAR_FIELD_RATIO = 1.05
FAR_FIELD_RAYLEIGH_RANGES = 100.0
# a ray longer than this many samples is refused (ModelValidityError): its
# points alone would take 1.5 MB, 16 MB for the ten rays of a crossed pair
MAX_RAY_SAMPLES = 1 << 16

DEPTH_CONVENTIONS = ("escape-saddle", "peak-to-min")


@dataclass
class TrapReport:
    """Result of characterizing one potential minimum.

    Both depths are always computed; :attr:`depth` and the ``depth_uK`` of
    :meth:`to_dict` are the escape-saddle one.
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
    # how the minimum was found: Newton steps from the seed and |grad U|, J/m
    newton_iterations: int = 0
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

    def to_dict(self) -> dict:
        return {
            "valid": bool(self.valid),
            "reason": self.reason,
            "minimum_position_um": (self.minimum_position * 1e6).tolist(),
            "depth_uK": self.depth_uk("escape-saddle"),
            "depth_escape_saddle_uK": self.depth_uk("escape-saddle"),
            "depth_peak_to_min_uK": self.depth_uk("peak-to-min"),
            "depth_convention": "escape-saddle",
            "frequencies_hz": self.frequencies.tolist(),
            "principal_axes": self.principal_axes.tolist(),
            "mean_frequency_hz": self.mean_frequency,
            "newton_iterations": self.newton_iterations,
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, 3) arrays, each through BLAS dot as ``a[i] @ b[i]`` computes it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _derivatives(potential: DipolePotential, x: np.ndarray):
    """U, grad U and hess U of each item at its point x (n, 3), and the items where they are not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness mask reports it
        u, grad, hess = (a[:, 0] for a in potential.derivatives(x[:, None, :]))
    # e.g. a focal waist so small the intensity overflows
    return u, grad, hess, ~np.isfinite(hess).all(axis=(1, 2))


def _items(potential: DipolePotential, items) -> DipolePotential:
    """The batch of ``items`` (ascending item indices) of a batched potential."""
    if len(items) == len(potential.records):
        return potential
    return DipolePotential(potential.constants, potential.records[items])


def _newton(potential: DipolePotential, centers, steps):
    """Damped Newton descent of each item from the centre of its search box.

    Item i of the batched ``potential`` starts at ``centers[i]`` and searches
    ``centers[i]`` +/- ``SEARCH_HALF_EXTENTS`` on the length scale ``steps[i]``.  Hessian
    eigenvalues are replaced by their magnitude, floored at
    ``CURVATURE_FLOOR`` of the largest, so indefinite or flat directions (the
    bottom of a painted trap) take gradient steps.  A step is cut to the box,
    then halved until U decreases (Armijo); a Newton step shorter than
    ``step`` on a positive-definite Hessian skips that test, its decrease
    being at rounding level.  Converged once a step is below ``NEWTON_XTOL *
    step``, or when the line search stalls at a gradient that is small on the
    scale of U over one ``step``.  The items step in lockstep, each with its
    own arithmetic: every round evaluates the trial points of all items
    still searching in one call.  Returns per item (x, U, grad, hess, steps,
    converged, failed); an item fails where its derivatives are not finite,
    and its x is then that point.
    """
    half = np.array(SEARCH_HALF_EXTENTS)
    lo, hi = centers - half, centers + half
    x = centers.copy()
    u, grad, hess, failed = _derivatives(potential, x)
    xtol, diagonal = NEWTON_XTOL * steps, float(np.linalg.norm(2 * half))
    iterations = np.full(len(x), MAX_NEWTON_ITER)
    converged = np.zeros(len(x), dtype=bool)
    active = ~failed

    def finish(items, it, ok):
        iterations[items], converged[items], active[items] = it, ok, False

    for it in range(MAX_NEWTON_ITER):
        flat = active & ~grad.any(axis=1)
        if flat.any():
            finish(np.flatnonzero(flat), it, True)
        a = np.flatnonzero(active)
        if not a.size:
            break
        lam, vec = np.linalg.eigh(hess[a])
        # the floor also keeps every step within the box diagonal
        floor = np.maximum(CURVATURE_FLOOR * np.abs(lam).max(axis=1), np.sqrt(_dot(grad[a], grad[a])) / diagonal)
        dx = np.matmul(vec.transpose(0, 2, 1), grad[a, :, None])[..., 0] / np.maximum(np.abs(lam), floor[:, None])
        dx = np.matmul(-vec, dx[..., None])[..., 0]
        norm = np.sqrt(_dot(dx, dx))
        small = norm <= xtol[a]
        if small.any():
            finish(a[small], it, True)
            a, lam, floor, dx, norm = (v[~small] for v in (a, lam, floor, dx, norm))
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(dx > 0, (hi[a] - x[a]) / dx, np.where(dx < 0, (lo[a] - x[a]) / dx, np.inf))
        t = np.minimum(1.0, room.min(axis=1))
        local = (t == 1.0) & (norm <= steps[a]) & (lam[:, 0] > floor)
        slope = _dot(grad[a], dx)
        while a.size:
            stalled = t * norm <= xtol[a]
            if stalled.any():
                s = a[stalled]
                at_minimum = np.sqrt(_dot(grad[s], grad[s])) * steps[s] < 1e-3 * np.abs(u[s]) + 1e-32
                finish(s, it, at_minimum)
                a, dx, norm, t, local, slope = (v[~stalled] for v in (a, dx, norm, t, local, slope))
                if not a.size:
                    break
            trial = np.clip(x[a] + t[:, None] * dx, lo[a], hi[a])
            u_t, grad_t, hess_t, bad = _derivatives(_items(potential, a), trial)
            if bad.any():
                failed[a[bad]], x[a[bad]], active[a[bad]] = True, trial[bad], False
            accept = ~bad & (local | (u_t <= u[a] + 1e-4 * t * slope))
            took = a[accept]
            x[took], u[took], grad[took], hess[took] = trial[accept], u_t[accept], grad_t[accept], hess_t[accept]
            retry = ~bad & ~accept
            if not retry.any():
                break
            a, dx, norm, local, slope = (v[retry] for v in (a, dx, norm, local, slope))
            t = t[retry] * 0.5
    return x, u, grad, hess, iterations, converged, failed


def _ray_barrier(f, x0, u0, directions, domain, steps):
    """Max potential along each ray until it escapes below the minimum or meets its asymptote.

    Item i of the batched potential ``f`` scans the rays ``directions[i]``
    from ``x0[i]``, where U is ``u0[i]``, with sample spacing ``steps[i]``.
    Every ray is sampled at multiples of ``step`` out to
    ``NEAR_FIELD_WAISTS`` of the widest waist past the farthest record
    origin, then at steps growing by ``FAR_FIELD_RATIO`` out to
    ``FAR_FIELD_RAYLEIGH_RANGES`` of the longest Rayleigh range past the
    farthest focus, where no record can move U any more; a falling ray goes
    on until gravity alone takes it below the escape level.  A ray's
    barrier is the running maximum (from ``u0``) up to and including its
    first value below the escape level.  A ray that never escapes is
    bounded by its asymptote as well: m g z0 on a level ray, +inf on a
    rising one.  When a record never decays (an infinite Rayleigh range),
    rays end at the edge of the search ``domain`` (centres (n, 3), half
    extents) with no asymptote.  The escape test carries a small tolerance
    so that the flat bottom of a painted trap (where the located minimum may
    sit a fraction of a percent above the deepest plateau point) does not
    read as an escape channel.

    Consecutive items are evaluated together, padded to the longest scan
    among them, in one kernel call whose points x records stay within one
    kernel block (``kernels._CHUNK``), so an item's samples go through the
    kernel in one piece as in a call of its own; a longer scan is a call of
    its own.

    Returns per item the barriers (None when it failed) and a message per
    failed item: a scan longer than ``MAX_RAY_SAMPLES`` per ray.
    """
    records, constants = f.records, f.constants
    centers, half = domain
    n, n_records = records.shape[0], records.shape[1]
    rays_per_item = [len(d) for d in directions]
    owner = np.repeat(np.arange(n), rays_per_item)
    d = np.concatenate([np.asarray(v, dtype=float) for v in directions])
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    escape_level = u0 - 1e-2 * np.abs(u0)
    mg = constants.atom_mass * constants.gravity
    slope = mg * d[:, 2]
    level = mg * x0[:, 2]
    near = np.linalg.norm(records[:, :, 0:3] - x0[:, None], axis=2).max(axis=1)
    near += NEAR_FIELD_WAISTS * records[:, :, 12:14].max(axis=(1, 2))
    foci = records[:, :, None, 0:3] + records[:, :, 14:16, None] * records[:, :, None, 3:6]
    reach = np.linalg.norm(foci - x0[:, None, None], axis=3).max(axis=(1, 2))
    reach += FAR_FIELD_RAYLEIGH_RANGES * records[:, :, 16:18].max(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        fall = 2 * (escape_level[owner] - level[owner]) / slope  # gravity alone is below escape_level
    t_end = np.where(slope < 0, np.fmax(reach[owner], fall), reach[owner])
    limit = np.where(slope > 0, np.inf, np.where(slope < 0, -np.inf, level[owner]))
    cylinder = ~np.isfinite(reach[owner])
    if cylinder.any():
        c, dc = owner[cylinder], d[cylinder]
        with np.errstate(divide="ignore"):
            t_exit = np.min(
                np.where(dc != 0, (half - (x0[c] - centers[c]) * np.sign(dc)) / np.abs(dc), np.inf), axis=1
            )
        t_end[cylinder], limit[cylinder] = np.maximum(t_exit, steps[c]), -np.inf

    def grid(i):
        """Item i's sample distances: steps of ``steps[i]`` through the near field, then growing."""
        step = float(steps[i])
        t_near = np.arange(step, max(near[i], step) + step, step)
        n_far = max(0, math.ceil(math.log(t_end[rays[i]].max() / t_near[-1], FAR_FIELD_RATIO)))
        return np.concatenate([t_near, t_near[-1] * FAR_FIELD_RATIO ** np.arange(1, n_far + 1)])

    # how far along its item's grid each ray runs, checked before any grid is built
    first_ray = np.cumsum([0] + rays_per_item)
    rays = [slice(first_ray[i], first_ray[i + 1]) for i in range(n)]
    failures = {}
    counts = np.zeros(len(d), dtype=np.intp)
    for i in range(n):
        step = float(steps[i])
        far = math.log(t_end[rays[i]].max() / max(near[i], step), FAR_FIELD_RATIO)
        if not max(near[i], step) / step + far <= MAX_RAY_SAMPLES:
            waists = records[i, :, 12:14]
            failures[i] = (
                f"escape scan would take over {MAX_RAY_SAMPLES} samples per ray between the "
                f"narrowest waist {waists.min():.6g} m and the widest {waists.max():.6g} m"
            )
            continue
        samples = grid(i)
        counts[rays[i]] = np.minimum(np.searchsorted(samples, t_end[rays[i]]) + 1, samples.size)
    totals = np.add.reduceat(counts, first_ray[:-1])

    barriers = [None] * n
    start = 0
    while start < n:
        # the next items whose padded scans fit one kernel block together
        stop, longest = start + 1, totals[start]
        while stop < n and (stop + 1 - start) * max(longest, totals[stop]) * n_records <= kernels._CHUNK:
            longest = max(longest, totals[stop])
            stop += 1
        group = [i for i in range(start, stop) if i not in failures]
        start = stop
        if not group:
            continue
        # sample j of a ray is sample j of its item's grid, cut at the ray's end
        grids = [grid(i) for i in group]
        ray_ids = np.concatenate([np.arange(first_ray[i], first_ray[i + 1]) for i in group])
        cnt, ray_owner = counts[ray_ids], owner[ray_ids]
        begins = np.cumsum(cnt) - cnt
        grid_starts = np.cumsum([0] + [g.size for g in grids[:-1]])
        grid_starts = np.repeat(grid_starts, [rays_per_item[i] for i in group])
        index = np.arange(cnt.sum()) + np.repeat(grid_starts - begins, cnt)
        ts = np.minimum(np.concatenate(grids)[index], np.repeat(t_end[ray_ids], cnt))
        pts = np.repeat(d[ray_ids], cnt, axis=0)
        pts *= ts[:, None]
        pts += np.repeat(x0[ray_owner], cnt, axis=0)
        # one (items, points, 3) block, each item padded with its origin
        size = totals[group]
        ends = np.cumsum(size)
        block = np.repeat(x0[group][:, None], size.max(), axis=1)
        for row, k, end in zip(block, size, ends):
            row[:k] = pts[end - k : end]
        vals = _items(f, group)(block)
        vals = np.concatenate([v[:k] for v, k in zip(vals, size)])
        # fell below the trap bottom: escaped over the barrier
        escapes = vals < np.repeat(escape_level[ray_owner], cnt)
        before = np.cumsum(escapes) - escapes  # escapes at earlier samples, all rays so far
        vals[before != np.repeat(before[begins], cnt)] = -np.inf  # after an escape on the same ray
        ray_max = np.fmax(u0[ray_owner], np.fmax.reduceat(vals, begins))
        escaped = np.logical_or.reduceat(escapes, begins)
        ray_barriers = np.where(escaped, ray_max, np.fmax(ray_max, limit[ray_ids]))
        for i, b in zip(group, np.split(ray_barriers, np.cumsum([rays_per_item[i] for i in group])[:-1])):
            barriers[i] = b
    return barriers, failures


def characterize_batch(potential: DipolePotential, seeds) -> list[TrapReport]:
    """Characterize the trap minimum of every item of a batched ``potential`` from its seed.

    ``potential`` holds records (n, r, 19), one trap per item, and
    ``seeds`` (n, 3) one seed per item.  Item i is read off ``records[i]``
    alone: Newton searches the box ``seeds[i]`` +/- ``SEARCH_HALF_EXTENTS``,
    and everything else comes from the item's records: its length scale (the
    smallest record waist / 50, which spaces the escape scan and sets the
    margin by which a minimum must clear the box) and its escape arms (the
    record directions, searched next to the principal axes).  The report
    describes the well Newton reaches from the seed; when that well spills
    into a deeper one, its escape depth is the barrier it spills over.  No
    minimum from the seed, a flat potential and a saddle give an invalid
    report.

    One Newton pass, one batched ``eigh`` and one escape scan run over the
    whole batch; each report equals the one the item gets in a batch of its
    own.  When items hit a model limit (derivatives that are not finite, an
    escape scan too long), the ``ModelValidityError`` is the one of the
    first such item, as a loop over the items would raise.
    """
    constants, records = potential.constants, potential.records
    n = len(records)
    if not n:
        return []
    centers = np.array(seeds, dtype=float).reshape(n, 3)
    half = np.array(SEARCH_HALF_EXTENTS)
    steps = records[:, :, 12:14].min(axis=(1, 2)) / 50
    scan_steps = np.maximum(10 * steps, 2e-6)
    # escape arms: each item's distinct record directions, in order of first appearance
    directions = records[:, :, 3:6].reshape(-1, 3)
    by_item = np.column_stack([np.repeat(np.arange(n), records.shape[1]), directions])
    first = np.sort(np.unique(by_item, axis=0, return_index=True)[1])
    arms = np.split(directions[first], np.searchsorted(first, np.arange(1, n) * records.shape[1]))

    x, u_min, grad, hess, iterations, ok, failed = _newton(potential, centers, steps)
    errors = {int(i): f"potential derivatives are not finite at {x[i].tolist()} m" for i in np.flatnonzero(failed)}
    # a descent that ends on the search-box boundary means the potential
    # is open in that direction (e.g. gravity tilting the trap open)
    ok &= ~np.any(np.abs(x - centers) > half - 2 * steps[:, None], axis=1)
    eigvals, eigvecs = np.zeros((n, 3)), np.zeros((n, 3, 3))
    eigvals[~failed], eigvecs[~failed] = np.linalg.eigh(hess[~failed])
    valid = np.flatnonzero(ok & (eigvals[:, -1] > 0) & ~(eigvals[:, 0] < -1e-4 * np.abs(eigvals).max(axis=1)))
    # items after the first failing one would not be reached one at a time
    scanned = valid[valid < min(errors, default=n)]
    barriers = [None] * n
    if scanned.size:
        rays = [np.concatenate([eigvecs[i].T, arms[i]]) for i in scanned]
        scan, failures = _ray_barrier(
            _items(potential, scanned), x[scanned], u_min[scanned], [np.concatenate([r, -r]) for r in rays],
            (centers[scanned], half), scan_steps[scanned],
        )
        errors.update((int(scanned[j]), message) for j, message in failures.items())
        for i, b in zip(scanned, scan):
            barriers[i] = b
    if errors:
        raise ModelValidityError(errors[min(errors)])

    depth_peak = np.zeros(n)
    depth_peak[valid] = -_items(potential, valid).optical(x[valid, None, :])[:, 0]
    reports = []
    for i in range(n):
        diagnostics = {
            "newton_iterations": int(iterations[i]),
            "gradient_norm": float(np.linalg.norm(grad[i])),
        }
        lam = eigvals[i]
        if not ok[i]:
            reason = "no minimum found in domain"
        elif lam[-1] <= 0:
            reason = "flat potential: no positive curvature at the minimum"
        elif lam[0] < -1e-4 * np.max(np.abs(lam)):
            reason = "negative Hessian eigenvalue at converged point (saddle)"
        else:
            reports.append(
                _valid_report(constants, x[i], u_min[i], lam, eigvecs[i].T, depth_peak[i], barriers[i], diagnostics)
            )
            continue
        reports.append(TrapReport.invalid(x[i].copy(), reason, constants, **diagnostics))
    return reports


def _valid_report(constants, x, u_min, eigvals, axes, depth_peak, barriers, diagnostics) -> TrapReport:
    """Report of a minimum with positive curvature: frequencies from ``eigvals``, depths from the scan."""
    freqs = np.sqrt(np.clip(eigvals, 0.0, None) / constants.atom_mass) / (2 * math.pi)
    depth_peak = max(0.0, float(depth_peak))
    # when the lowest barrier is the asymptote m g z of a level ray that never
    # escapes, it lies exactly the optical depth above the minimum
    barrier = float(barriers.min())
    level = constants.atom_mass * constants.gravity * x[2]
    depth_escape = depth_peak if barrier == level else max(0.0, barrier - u_min)
    return TrapReport(
        minimum_position=x.copy(),
        depth_escape=depth_escape,
        depth_peak=depth_peak,
        frequencies=freqs,
        principal_axes=axes,
        mean_frequency=float(np.prod(freqs)) ** (1.0 / 3.0) if np.all(freqs > 0) else 0.0,
        valid=True,
        constants=constants,
        **diagnostics,
    )


def characterize(potential: DipolePotential, seed_point) -> TrapReport:
    """Characterize the trap minimum of ``potential`` (records (r, 19)) reached from ``seed_point``.

    The batch of one of :func:`characterize_batch`, which describes the search.
    """
    [report] = characterize_batch(DipolePotential(potential.constants, potential.records[None]), [seed_point])
    return report


def characterize_crossed_trap(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
) -> TrapReport:
    """Characterize the unmodulated, aligned crossed trap from the midpoint of its beam origins."""
    records = beam_records(layout, inputs, np.zeros(4))[0]
    return characterize(DipolePotential(constants, records), 0.5 * (records[0, 0:3] + records[1, 0:3]))


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
) -> ThermoMetrics:
    """Phase-space density and truncation parameter for a characterized trap.

    psd = N (hbar omega_bar / kB T)^3 with omega_bar the geometric-mean
    angular frequency; eta = depth / (kB T), with the report's constants.
    """
    if not report.valid:
        raise DomainError("cannot compute thermodynamic metrics for an invalid trap report")
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    constants = report.constants
    psd = phase_space_density(atom_number, temperature, report.mean_frequency, constants)
    eta = report.depth / (constants.boltzmann * temperature)
    return ThermoMetrics(
        atom_number=atom_number, temperature=temperature, psd=psd, truncation_parameter=eta
    )


def phase_space_density(
    atom_number: float,
    temperature: float,
    mean_frequency_hz: float,
    constants: PhysicalConstants,
) -> float:
    """psd = N (hbar omega_bar / kB T)^3 for a harmonic trap."""
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
    ref = characterize_crossed_trap(constants, layout, inputs)
    if not ref.valid or ref.depth <= 0:
        raise DomainError("reference trap is not valid")
    offsets = np.asarray(offsets, dtype=float)
    records = np.repeat(aligned[None], len(offsets), axis=0)
    records[:, 1, 2] += offsets
    # past the crossing the midpoint seed sits on a saddle: an invalid report, ratio 0
    seeds = 0.5 * (records[:, 0, 0:3] + records[:, 1, 0:3])
    reports = characterize_batch(DipolePotential(constants, records), seeds)
    return [
        {"offset_um": off * 1e6, "depth_ratio": report.depth / ref.depth if report.valid else 0.0}
        for off, report in zip(offsets, reports)
    ]
