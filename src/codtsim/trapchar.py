"""Trap characterization: minimum, depth, frequencies, volume, thermodynamics.

One damped Newton loop locates the minimum on the closed-form U, grad U and
hess U of a DipolePotential.  Hessian eigenvalues are floored in magnitude,
so indefinite or flat directions (a painted plateau) take gradient steps,
and every step is line-searched inside the search box.  The trap
frequencies omega_i = sqrt(lambda_i / m) come from the Hessian at the
minimum.  Two depth conventions are computed: "escape-saddle" (lowest
barrier along the principal axes and the beam arms) and "peak-to-min"
(optical depth of the minimum, gravity excluded).  Each trap describes the
well at its seed: when that well spills into a deeper one, its escape depth
is the barrier it spills over.  Every step runs over a batch of traps at
once, one trap being the batch of one, and a ``TrapReport`` holds the batch
as per-item columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import BOLTZMANN, REDUCED_PLANCK, PhysicalConstants
from .errors import DomainError, ModelValidityError
from .optics import InputBeam, OpticalLayout, max_displacement
from .potential import DipolePotential, beam_records

# the search box, m: Newton stays within seed +/- these
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
# a ray of more than this many samples before its cut is refused
# (ModelValidityError); a falling ray keeps them all, 1.5 MB of points
MAX_RAY_SAMPLES = 1 << 16
# a level or rising ray is cut at the first of these sample indices past
# which U provably stays above its escape level; each is ~1.25 x the last
# (built without np.unique, which here would load numpy.ma on import: 1.6 MB)
_CUT_CANDIDATES = np.array(sorted({int(1.25**k) for k in range(-1, 52)}))


@dataclass
class TrapReport:
    """Characterized traps as per-item columns, item i being the trap of batch item i.

    Both depths are always computed; ``depth_escape`` is the trap's depth.
    An invalid item gives its ``reason`` and has zero depths and
    frequencies and the identity as its axes.
    """

    minimum_position: np.ndarray  # (n, 3), m
    depth_escape: np.ndarray  # (n,), J
    depth_peak: np.ndarray  # (n,), J
    frequencies: np.ndarray  # (n, 3), Hz, ascending with the rows of principal_axes
    principal_axes: np.ndarray  # (n, 3, 3): row j of item i is the axis of frequencies[i, j]
    mean_frequency: np.ndarray  # (n,), Hz, geometric mean
    valid: np.ndarray  # (n,) bool
    reason: np.ndarray  # (n,) str, "" where valid
    seed: np.ndarray  # (n, 3), m, where Newton started
    # how the minimum was found: Newton steps from the seed and |grad U|, J/m
    newton_iterations: np.ndarray  # (n,) int
    gradient_norm: np.ndarray  # (n,)

    def columns(self) -> dict:
        """The artifact columns, one entry per trap, in µm, µK and Hz; ``depth_uK`` is the escape-saddle depth.

        Every site table, timeline and trap report carries these columns.
        """
        return {
            "valid": self.valid.astype(int),
            "reason": self.reason,
            **dict(zip(("min_x_um", "min_y_um", "min_z_um"), (self.minimum_position * 1e6).T)),
            "depth_uK": self.depth_escape / BOLTZMANN * 1e6,
            "depth_peak_to_min_uK": self.depth_peak / BOLTZMANN * 1e6,
            **dict(zip(("f1_hz", "f2_hz", "f3_hz"), self.frequencies.T)),
            "mean_frequency_hz": self.mean_frequency,
            "newton_iterations": self.newton_iterations,
            "gradient_norm_uK_per_um": self.gradient_norm / BOLTZMANN,
            **dict(zip(("seed_x_um", "seed_y_um", "seed_z_um"), (self.seed * 1e6).T)),
        }


@dataclass(frozen=True)
class ThermoMetrics:
    atom_number: float
    temperature: float  # K
    psd: float
    truncation_parameter: float


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


def _sample_distances(j, step, n_near, t_last):
    """Distance along a ray of its sample j: ``step`` apart while j < ``n_near``, then growing from ``t_last``."""
    t = step + j * step
    far = j >= n_near
    t[far] = t_last[far] * FAR_FIELD_RATIO ** (j[far] - n_near[far] + 1)
    return t


def _intensity_ceiling(records, x0, d, t):
    """An upper bound on the summed intensity at every distance past ``t`` along each ray.

    Ray k starts at ``x0[k]`` in direction ``d[k]`` (unit) through the
    records ``records[k]`` (m, r, 19); ``t`` (m, c) holds c distances per
    ray, and the result (m, c) one bound per distance.  Per record, zeta, xi
    and nu are linear in the distance.  Past t each width is at least the
    waist if that axis's focus lies ahead on the ray, else its width at t;
    W is the smaller and W' the larger of these two bounds.  The distance
    to the beam axis is at least R, the minimum of the quadratic
    xi^2 + nu^2 over [t, inf).  So I <= (2P/pi) g(max(W', 2R)) / W, where
    g(w) = exp(-2R^2/w^2)/w peaks at w = 2R: the larger width is at least
    W' and the Gaussian factor at most exp(-2R^2/w^2) for that width w.
    """
    # every (record, ray, distance) array is laid out (r, m, c), each record a contiguous slab
    axes = records[..., 3:12].reshape(*records.shape[:-1], 3, 3)  # rows: direction, h, v
    zeta0, xi0, nu0 = np.einsum("krj,kraj->ark", x0[:, None, :] - records[..., 0:3], axes)[..., None]
    rate, xi1, nu1 = np.einsum("kj,kraj->ark", d, axes)[..., None]
    waist_h, waist_v, focus_h, focus_v, range_h, range_v, power = records[..., 12:19].transpose(2, 1, 0)[..., None]
    zeta = zeta0 + t * rate
    # the width bounds, computed in place: few live arrays
    w_h, w_v = (zeta - focus_h) / range_h, (zeta - focus_v) / range_v
    for w, waist in ((w_h, waist_h), (w_v, waist_v)):
        w[w * rate < 0] = 0.0  # the focus lies ahead
        w *= w
        w += 1.0
        np.sqrt(w, out=w)
        w *= waist
    w_min, w_max = np.minimum(w_h, w_v, out=zeta), np.maximum(w_h, w_v, out=w_h)
    with np.errstate(divide="ignore", invalid="ignore"):  # a ray parallel to the beam axis: nan, then t
        nearest = -(xi0 * xi1 + nu0 * nu1) / (xi1 * xi1 + nu1 * nu1)
    tt = np.fmax(t, nearest)
    r2 = (xi0 + tt * xi1) ** 2 + (nu0 + tt * nu1) ** 2
    w2 = np.maximum(w_max * w_max, 4.0 * r2, out=w_max)
    return (2.0 / np.pi) * np.sum(power * np.exp(-2.0 * r2 / w2) / (np.sqrt(w2) * w_min), axis=0)


def _cut(f, x0, d, owner, escape_level, counts, sample, t_end):
    """How many of its ``counts`` samples each ray of ``_ray_barrier`` keeps.

    A falling ray keeps them all.  A level or rising ray keeps those before
    the first of the ``_CUT_CANDIDATES`` sample indices past which a lower
    bound on U, gravity at that sample minus the ``_intensity_ceiling`` of
    every record, stays at or above its item's escape level.
    """
    records, constants = f.records, f.constants
    mg = constants.atom_mass * constants.gravity
    level, slope = mg * x0[owner, 2], mg * d[:, 2]
    counts = counts.copy()
    cut = np.flatnonzero((slope >= 0) & (counts > 0))
    candidates = _CUT_CANDIDATES[_CUT_CANDIDATES < counts.max()]
    # rays per pass: each (records, rays, candidates) array stays cache-sized, as the kernel's blocks
    chunk = max(1, kernels._CHUNK // (max(1, candidates.size) * records.shape[1]))
    for c in range(0, cut.size, chunk):
        k = cut[c : c + chunk]
        j = candidates[candidates < counts[k].max()]
        jj = np.broadcast_to(j, (k.size, j.size)).ravel()
        t = _sample_distances(jj, *(np.repeat(a[k], j.size) for a in sample)).reshape(k.size, j.size)
        t = np.minimum(t, t_end[k, None])
        ceiling = constants.dipole_coefficient * _intensity_ceiling(records[owner[k]], x0[owner[k]], d[k], t)
        gravity = level[k, None] + slope[k, None] * t
        # rounding in the kernel and in the bound stays far below this margin
        margin = 1e-9 * (np.abs(escape_level[owner[k], None]) + np.abs(gravity) + ceiling)
        holds = (gravity - ceiling - margin >= escape_level[owner[k], None]) & (j < counts[k, None])
        counts[k] = np.where(holds.any(axis=1), j[holds.argmax(axis=1)], counts[k])
    return counts


def _ray_barrier(f, x0, u0, rays, owner, steps):
    """Max potential along each ray until it escapes below the minimum or meets its asymptote.

    Ray k of the table ``rays`` (m, 3) belongs to item ``owner[k]`` of the
    batched potential ``f``; ``owner`` is sorted, and every item owns at
    least one ray.  Item i's rays start at ``x0[i]``, where U is ``u0[i]``,
    and share one set of sample distances: n_near samples ``steps[i]`` apart
    out to ``NEAR_FIELD_WAISTS`` of the widest waist past the farthest
    record origin, then n_far samples growing by ``FAR_FIELD_RATIO`` out to
    ``FAR_FIELD_RAYLEIGH_RANGES`` of the longest Rayleigh range past the
    farthest focus, where no record can move U any more.  A falling ray goes
    on until gravity alone takes it below the escape level.  Each ray takes
    its item's samples up to its own end, the last one cut to that end.  A
    ray's barrier is the running maximum (from ``u0``) up to and including
    its first value below the escape level.  A ray that never escapes is
    bounded by its asymptote as well: m g z0 on a level ray, +inf on a
    rising one.  The escape test carries a small tolerance so that the flat
    bottom of a painted trap (where the located minimum may sit a fraction
    of a percent above the deepest plateau point) does not read as an
    escape channel.

    The optical part of U is never positive, so on a level or rising ray
    every sample lies at or below the asymptote, and only the samples of an
    escaping ray up to its first escape count.  So each ray is evaluated
    only up to its cut (``_cut``), past which U provably stays at or above
    the escape level, and a ray cut at its first sample gets its asymptote.
    A falling ray keeps every sample, since its running maximum needs them.

    The kernel evaluates whole items, longest scan first: each call takes
    as many items as fit one kernel block (``kernels._CHUNK``) padded to the
    longest among them, so an item's samples go through the kernel in one
    piece as in a call of its own, and every call but the last is at least
    half full.  A scan longer than a block is a call of its own.  No kernel
    block may hold a single point, which numpy hands to a different BLAS
    routine: an item of one sample is padded to two, and a long scan whose
    last block would hold one point gets one more.

    Returns one barrier per ray (nan on the rays of a failed item) and a
    message per failed item: more than ``MAX_RAY_SAMPLES`` uncut samples per
    ray, which a record that never decays (an infinite Rayleigh range)
    always takes.
    """
    records, constants = f.records, f.constants
    n, n_records = records.shape[0], records.shape[1]
    first_ray = np.searchsorted(owner, np.arange(n + 1))  # item i owns rays first_ray[i]:first_ray[i + 1]
    d = rays / np.linalg.norm(rays, axis=1, keepdims=True)
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

    # each item's sample counts, as floats: an infinite reach must fail the cap, not overflow.
    # n_near is (stop - start) / step as np.arange counts it, stop = max(near, step) + step,
    # so the near-field grid stays bit-identical to np.arange(step, stop, step)
    n_near = np.ceil((np.maximum(near, steps) + steps - steps) / steps)
    t_last = steps + (n_near - 1) * steps
    n_far = np.ceil(np.log(np.maximum.reduceat(t_end, first_ray[:-1]) / t_last) / math.log(FAR_FIELD_RATIO))
    n_far = np.maximum(n_far, 0.0)
    failed = ~(n_near + n_far <= MAX_RAY_SAMPLES)
    waists, ranges = records[..., 12:14], records[..., 16:18]
    failures = {
        int(i): f"escape scan would take over {MAX_RAY_SAMPLES} samples per ray between the narrowest waist "
        f"{waists[i].min():.6g} m and the widest {waists[i].max():.6g} m, out to the longest Rayleigh range "
        f"{ranges[i].max():.6g} m"
        for i in np.flatnonzero(failed)
    }
    total = np.where(failed, 0, n_near + n_far).astype(np.intp)
    n_near, t_last = np.where(failed, 0, n_near).astype(np.intp), np.where(failed, 0.0, t_last)
    # how many of its item's samples each ray takes: those short of its end, then one cut to its end
    sample = (steps[owner], n_near[owner], t_last[owner])
    lo, hi = np.zeros(len(d), dtype=np.intp), total[owner]
    while (lo < hi).any():
        active, mid = lo < hi, (lo + hi) // 2
        short = _sample_distances(mid, *sample) < t_end
        lo, hi = np.where(active & short, mid + 1, lo), np.where(active & ~short, mid, hi)
    counts = np.minimum(lo + 1, total[owner])

    counts = _cut(f, x0, d, owner, escape_level, counts, sample, t_end)
    totals = np.add.reduceat(counts, first_ray[:-1])
    # a ray left without samples never escapes: its asymptote
    barriers = np.where(failed[owner], np.nan, np.fmax(u0[owner], limit))

    # items by falling scan length, and the rays with samples item by item in that order
    order = np.argsort(-totals, kind="stable")
    order = order[totals[order] > 0]
    rank = np.zeros(n, dtype=np.intp)
    rank[order] = np.arange(order.size)
    scanned = np.flatnonzero(counts)
    scanned = scanned[np.argsort(rank[owner[scanned]], kind="stable")]
    first = np.searchsorted(rank[owner[scanned]], np.arange(order.size + 1))
    start = 0
    while start < order.size:
        # the longest scan left, padded to two points, and the next ones that fit its block
        width = max(2, totals[order[start]])
        fit = kernels._CHUNK // (width * n_records)
        if not fit:  # a call of its own: no kernel block of one point
            fit, width = 1, width + (width % max(1, kernels._CHUNK // n_records) == 1)
        stop = min(start + fit, order.size)
        group, ids = order[start:stop], scanned[first[start] : first[stop]]
        items = np.sort(group)
        start = stop
        cnt, ray_owner = counts[ids], owner[ids]
        begins = np.cumsum(cnt) - cnt
        j = np.arange(cnt.sum()) - np.repeat(begins, cnt)
        ts = _sample_distances(j, *(np.repeat(a[ids], cnt) for a in sample))
        ts = np.minimum(ts, np.repeat(t_end[ids], cnt))
        pts = np.repeat(d[ids], cnt, axis=0)
        pts *= ts[:, None]
        pts += np.repeat(x0[ray_owner], cnt, axis=0)
        # one (items, width, 3) block, each item padded with its origin
        size = totals[group]
        row = np.repeat(np.searchsorted(items, group), size)
        col = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        block = np.repeat(x0[items][:, None], width, axis=1)
        block[row, col] = pts
        vals = _items(f, items)(block)[row, col]
        # fell below the trap bottom: escaped over the barrier
        escapes = vals < np.repeat(escape_level[ray_owner], cnt)
        before = np.cumsum(escapes) - escapes  # escapes at earlier samples, all rays so far
        vals[before != np.repeat(before[begins], cnt)] = -np.inf  # after an escape on the same ray
        ray_max = np.fmax(u0[ray_owner], np.fmax.reduceat(vals, begins))
        escaped = np.logical_or.reduceat(escapes, begins)
        barriers[ids] = np.where(escaped, ray_max, np.fmax(ray_max, limit[ids]))
    return barriers, failures


def characterize_batch(potential: DipolePotential, seeds) -> TrapReport:
    """Characterize the trap minimum of every item of a batched ``potential`` from its seed.

    ``potential`` holds records (n, r, 19), one trap per item, and
    ``seeds`` (n, 3) one seed per item.  Item i is read off ``records[i]``
    alone: Newton searches the box ``seeds[i]`` +/- ``SEARCH_HALF_EXTENTS``,
    and everything else comes from the item's records: its length scale (the
    smallest record waist / 50, which spaces the escape scan and sets the
    margin by which a minimum must clear the box) and its escape arms (the
    record directions, searched next to the principal axes).  The report
    holds one column entry per item, describing the well Newton reaches
    from the seed; when that well spills into a deeper one, its escape
    depth is the barrier it spills over.  No minimum from the seed, a flat
    potential and a saddle make an item invalid.

    One Newton pass, one batched ``eigh`` and one escape scan run over the
    whole batch; each item's entries equal those it gets in a batch of its
    own.  When items hit a model limit (derivatives that are not finite, an
    escape scan too long), the ``ModelValidityError`` is the one of the
    first such item, as a loop over the items would raise.
    """
    constants, records = potential.constants, potential.records
    n = len(records)
    centers = np.array(seeds, dtype=float).reshape(n, 3)
    steps = records[:, :, 12:14].min(axis=(1, 2)) / 50

    x, u_min, grad, hess, iterations, ok, failed = _newton(potential, centers, steps)
    errors = {int(i): f"potential derivatives are not finite at {x[i].tolist()} m" for i in np.flatnonzero(failed)}
    # a descent that ends on the search-box boundary means the potential
    # is open in that direction (e.g. gravity tilting the trap open)
    ok &= ~np.any(np.abs(x - centers) > np.array(SEARCH_HALF_EXTENTS) - 2 * steps[:, None], axis=1)
    eigvals, eigvecs = np.zeros((n, 3)), np.zeros((n, 3, 3))
    eigvals[~failed], eigvecs[~failed] = np.linalg.eigh(hess[~failed])
    reasons = np.select(
        [~ok, eigvals[:, -1] <= 0, eigvals[:, 0] < -1e-4 * np.abs(eigvals).max(axis=1)],
        [
            "no minimum found in domain",
            "flat potential: no positive curvature at the minimum",
            "negative Hessian eigenvalue at converged point (saddle)",
        ],
        "",
    )
    is_valid = reasons == ""
    valid = np.flatnonzero(is_valid)
    # items after the first failing one would not be reached one at a time
    scanned = valid[valid < min(errors, default=n)]
    barriers = np.zeros(n)  # each item's lowest escape barrier
    if scanned.size:
        # escape rays, item by item: the principal axes, then the distinct
        # record directions in order of first appearance, then all reversed
        k = scanned.size
        directions = records[scanned, :, 3:6].reshape(-1, 3)
        by_item = np.column_stack([np.repeat(np.arange(k), records.shape[1]), directions])
        first = np.sort(np.unique(by_item, axis=0, return_index=True)[1])
        rays = np.concatenate([eigvecs[scanned].transpose(0, 2, 1).reshape(-1, 3), directions[first]])
        owner = np.tile(np.concatenate([np.repeat(np.arange(k), 3), first // records.shape[1]]), 2)
        order = np.argsort(owner, kind="stable")
        rays, owner = np.concatenate([rays, -rays])[order], owner[order]
        ray_barriers, failures = _ray_barrier(
            _items(potential, scanned), x[scanned], u_min[scanned], rays, owner, np.maximum(10 * steps[scanned], 2e-6)
        )
        errors.update((int(scanned[j]), message) for j, message in failures.items())
        barriers[scanned] = np.minimum.reduceat(ray_barriers, np.searchsorted(owner, np.arange(k)))
    if errors:
        raise ModelValidityError(errors[min(errors)])

    depth_peak = np.zeros(n)
    depth_peak[valid] = -_items(potential, valid).optical(x[valid, None, :])[:, 0]
    depth_peak = np.where(depth_peak > 0, depth_peak, 0.0)
    # when the lowest barrier is the asymptote m g z of a level ray that never
    # escapes, it lies exactly the optical depth above the minimum
    above = barriers - u_min
    level = constants.atom_mass * constants.gravity * x[:, 2]
    depth_escape = np.where(barriers == level, depth_peak, np.where(above > 0, above, 0.0))
    freqs = np.sqrt(np.clip(eigvals, 0.0, None) / constants.atom_mass) / (2 * math.pi)
    axes = eigvecs.transpose(0, 2, 1).copy()
    depth_escape[~is_valid], freqs[~is_valid], axes[~is_valid] = 0.0, 0.0, np.eye(3)
    # each item's mean with Python's power, as numpy's vector power may round differently
    mean = [p ** (1.0 / 3.0) if p > 0 else 0.0 for p in np.prod(freqs, axis=1).tolist()]
    return TrapReport(
        minimum_position=x,
        depth_escape=depth_escape,
        depth_peak=depth_peak,
        frequencies=freqs,
        principal_axes=axes,
        mean_frequency=np.array(mean),
        valid=is_valid,
        reason=reasons,
        seed=centers,
        newton_iterations=iterations,
        gradient_norm=np.sqrt(_dot(grad, grad)),
    )


def characterize(potential: DipolePotential, seed_point) -> TrapReport:
    """Characterize the trap minimum of ``potential`` (records (r, 19)) reached from ``seed_point``.

    The batch of one of :func:`characterize_batch`, which describes the search.
    """
    return characterize_batch(DipolePotential(potential.constants, potential.records[None]), [seed_point])


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
    decouples from the in-plane map, so the reachable volume is the prism
    volume (area x vertical span).
    """
    reach = max_displacement(layout)
    h_reach, v_reach = (0.5 * (reach[0:2] + reach[2:4])).tolist()  # the mean reach of (h1, h2) and of (v1, v2)
    a = h_reach if h_half_range is None else h_half_range
    s = math.sin(layout.half_angle)
    c = math.cos(layout.half_angle)
    area_m2 = 2 * a * a / (s * c)
    span = 2 * (v_reach if v_half_range is None else v_half_range)
    volume_mm3 = area_m2 * span * 1e9
    corners = [[-a / s, 0.0], [0.0, -a / c], [a / s, 0.0], [0.0, a / c]] if a else []
    return {
        "planar_area_mm2": area_m2 * 1e6,
        "vertical_span_mm": span * 1e3,
        "prism_volume_mm3": volume_mm3,
        "hull_points_mm": (np.array(corners) * 1e3).tolist(),
    }


def thermo_metrics(
    report: TrapReport,
    atom_number: float,
    temperature: float,
) -> ThermoMetrics:
    """Phase-space density and truncation parameter for a characterized trap, a report of one item.

    psd = N (hbar omega_bar / kB T)^3 with omega_bar the geometric-mean
    angular frequency; eta = depth / (kB T), with the escape-saddle depth.
    """
    [valid], [depth], [mean_frequency] = report.valid, report.depth_escape.tolist(), report.mean_frequency.tolist()
    if not valid:
        raise DomainError("cannot compute thermodynamic metrics for an invalid trap report")
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    psd = phase_space_density(atom_number, temperature, mean_frequency)
    eta = depth / (BOLTZMANN * temperature)
    return ThermoMetrics(
        atom_number=atom_number, temperature=temperature, psd=psd, truncation_parameter=eta
    )


def phase_space_density(
    atom_number: float,
    temperature: float,
    mean_frequency_hz: float,
) -> float:
    """psd = N (hbar omega_bar / kB T)^3 for a harmonic trap."""
    omega_bar = 2 * math.pi * mean_frequency_hz
    return atom_number * (REDUCED_PLANCK * omega_bar / (BOLTZMANN * temperature)) ** 3


def misalignment_sweep(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    offsets,
) -> dict:
    """Columns ``offset_um``, each vertical offset of beam 2, and ``depth_ratio``, the depth there vs. the aligned trap.

    The ratio is 0 where there is no trap.  The offset moves beam 2's axis
    without an AOD, so no range check applies.
    The aligned trap, as :func:`characterize_crossed_trap` reports it, is
    item 0 of the sweep's batch.
    """
    aligned = beam_records(layout, inputs, np.zeros(4))[0]
    offsets = np.asarray(offsets, dtype=float)
    records = np.repeat(aligned[None], len(offsets) + 1, axis=0)
    records[1:, 1, 2] += offsets
    # past the crossing the midpoint seed sits on a saddle: an invalid report, ratio 0
    seeds = 0.5 * (records[:, 0, 0:3] + records[:, 1, 0:3])
    report = characterize_batch(DipolePotential(constants, records), seeds)
    valid, depth = report.valid, report.depth_escape
    if not valid[0] or depth[0] <= 0:
        raise DomainError("reference trap is not valid")
    return {"offset_um": offsets * 1e6, "depth_ratio": np.where(valid[1:], depth[1:] / depth[0], 0.0)}
