"""Beam-intensity kernel.

A "beam record" packs one (phase, beam) pair of the time-averaged trap into a
flat float64 row:

    0:3  origin [m]        3:6  direction (unit)
    6:9  h axis (unit)     9:12 v axis (unit)
    12   waist_h [m]       13   waist_v [m]
    14   focus_h [m]       15   focus_v [m]   (axial, relative to origin)
    16   zR_h [m]          17   zR_v [m]
    18   effective power [W]  (beam power x amplitude weight / n_phases,
         summed over the phases a merged record stands for)

``intensity_sum`` returns, per point, the sum over records of the astigmatic
Gaussian intensity 2P/(pi wh(z) wv(z)) exp(-2 xi^2/wh^2 - 2 nu^2/wv^2), for
field sampling and ray scans.  ``intensity_derivatives`` returns that sum with
its closed-form gradient and Hessian at a few points, for minimum search and
trap frequencies.
"""

from __future__ import annotations

import math

import numpy as np

BEAM_RECORD_SIZE = 19

# points x records elements per block: each (block, n_records) temporary
# stays cache-sized (64 KB) and the projection small enough for one BLAS thread
_CHUNK = 1 << 13


def _as_arrays(points, records):
    """Float64 points (..., k, 3) and records (..., r, 19); unbatched input is made at least 2-D."""
    points = np.asarray(points, dtype=np.float64)
    records = np.asarray(records, dtype=np.float64)
    if records.ndim < 3:
        points, records = np.atleast_2d(points), np.atleast_2d(records)
    if records.shape[-1] != BEAM_RECORD_SIZE:
        raise ValueError(f"beam records must have {BEAM_RECORD_SIZE} columns")
    return points, records


def intensity_sum(points: np.ndarray, records: np.ndarray) -> np.ndarray:
    """Summed astigmatic-Gaussian intensity of all beam records at each point.

    Points (k, 3) against records (r, 19) give (k,); a batch, points
    (n, k, 3) against records (n, r, 19), gives (n, k), item i read off
    ``records[i]`` alone.  Each item takes the arithmetic of its own 2-D
    call: the same projection and the same order of summation.  It equals
    that call bit for bit as long as neither splits one point off into a
    block of its own, which numpy hands to a different BLAS routine.
    """
    points, records = _as_arrays(points, records)
    points, records = np.ascontiguousarray(points), np.ascontiguousarray(records)
    lead, k, m = records.shape[:-2], points.shape[-2], records.shape[-2]
    block = max(1, _CHUNK // max(math.prod(lead) * m, 1))
    out = np.empty((*lead, k), dtype=np.float64)
    # every block reuses one set of temporaries: allocated and freed per block
    # (~0.5 MB at a full chunk), they let malloc trim the heap after each block
    # and fault the same pages back in for the next
    rows = min(block, k)
    work = (np.empty((*lead, rows, 3 * m)), np.empty((3, *lead, rows, m)))
    for start in range(0, k, block):
        sl = slice(start, min(start + block, k))
        _intensity_chunk(points[..., sl, :], records, out[..., sl], work)
    return out


def _intensity_chunk(pts: np.ndarray, rec: np.ndarray, out: np.ndarray, work) -> None:
    """Write the intensity sum at ``pts`` (..., k, 3) into ``out`` (..., k), computing in the ``work`` buffers."""
    lead, k, m = rec.shape[:-2], pts.shape[-2], rec.shape[-2]
    axes = rec[..., 3:12].reshape(*lead, m, 3, 3).swapaxes(-3, -2)  # (direction, h, v) x m x 3
    # coordinates along each axis from the record origin: pts @ axis.T - origin . axis
    proj = np.matmul(pts, axes.reshape(*lead, 3 * m, 3).swapaxes(-1, -2), out=work[0][..., :k, :])
    proj -= np.einsum("...jmk,...mk->...jm", axes, rec[..., 0:3]).reshape(*lead, 1, 3 * m)
    proj = proj.reshape(*lead, k, 3, m)
    zeta, xi, nu = proj[..., 0, :], proj[..., 1, :], proj[..., 2, :]
    wh, wv, amp = work[1][..., :k, :]
    if lead:  # each record column broadcasts against (n, k, m); a bare batch axis slows numpy down
        rec = rec[:, None]
    # w = waist * sqrt(1 + ((zeta - focus) / zR)^2)
    for w, waist, focus, z_r in ((wh, 12, 14, 16), (wv, 13, 15, 17)):
        np.subtract(zeta, rec[..., focus], out=w)
        w /= rec[..., z_r]
        np.square(w, out=w)
        w += 1.0
        np.sqrt(w, out=w)
        w *= rec[..., waist]
    # amp = 2P / (pi wh wv)
    np.multiply(wh, np.pi, out=amp)
    amp *= wv
    np.divide(2.0 * rec[..., 18], amp, out=amp)
    # exponent -2 (xi/wh)^2 - 2 (nu/wv)^2, accumulated in wh
    np.divide(xi, wh, out=wh)
    np.square(wh, out=wh)
    wh *= -2.0
    np.divide(nu, wv, out=wv)
    np.square(wv, out=wv)
    wv *= 2.0
    wh -= wv
    np.exp(wh, out=wh)
    wh *= amp
    np.sum(wh, axis=-1, out=out)


def intensity_derivatives(points: np.ndarray, records: np.ndarray):
    """Summed intensity, gradient and Hessian of all beam records at each point.

    Points (k, 3) against records (r, 19) give arrays of shape (k,), (k, 3)
    and (k, 3, 3); a batch, points (n, k, 3) against records (n, r, 19),
    gives (n, k), (n, k, 3) and (n, k, 3, 3), item by item as its own 2-D
    call.  In a record's frame (zeta, xi, nu) the log-intensity L is
    quadratic in xi and nu and depends on zeta through W = w(zeta)^2 =
    waist^2 (1 + s^2), s = (zeta - focus)/zR, so grad I = I grad L and
    hess I = I (hess L + grad L grad L^T); the record's (direction, h, v)
    rows rotate both to lab coordinates.  Meant for a few points per item:
    it holds (n, k, records, 3, 3) temporaries.
    """
    points, records = _as_arrays(points, records)
    lead, m = records.shape[:-2], records.shape[-2]
    axes = records[..., 3:12].reshape(*lead, m, 3, 3)  # rows: direction, h, v
    if lead:  # each record column broadcasts against (n, k, m)
        records = records[:, None]
    coords = np.einsum("...kmj,...maj->...kma", points[..., :, None, :] - records[..., 0:3], axes)
    zeta, x = coords[..., :1], coords[..., 1:]  # x: (xi, nu), paired with the (h, v) widths
    s = (zeta - records[..., 14:16]) / records[..., 16:18]
    grow = 1.0 + s * s
    inv_w2 = 1.0 / (records[..., 12:14] ** 2 * grow)
    q = 2.0 * s / (records[..., 16:18] * grow)  # W'/W
    r = 2.0 / (records[..., 16:18] ** 2 * grow)  # W''/W
    x2w = x * x * inv_w2
    intensity = (
        (2.0 / np.pi) * records[..., 18] * np.sqrt(np.prod(inv_w2, axis=-1))
        * np.exp(-2.0 * np.sum(x2w, axis=-1))
    )
    grad_l = np.empty(coords.shape)
    grad_l[..., 0] = np.sum(q * (2.0 * x2w - 0.5), axis=-1)
    grad_l[..., 1:] = -4.0 * x * inv_w2
    hess_l = np.zeros(coords.shape + (3,))
    hess_l[..., 0, 0] = np.sum(0.5 * (q * q - r) + 2.0 * x2w * (r - 2.0 * q * q), axis=-1)
    hess_l[..., 0, 1:] = hess_l[..., 1:, 0] = 4.0 * x * q * inv_w2
    hess_l[..., 1, 1] = -4.0 * inv_w2[..., 0]
    hess_l[..., 2, 2] = -4.0 * inv_w2[..., 1]
    hess_l += grad_l[..., :, None] * grad_l[..., None, :]
    hess_l *= intensity[..., None, None]
    grad = np.einsum("...km,...kma,...maj->...kj", intensity, grad_l, axes)
    hess = np.einsum("...mai,...kmaj->...kij", axes, hess_l @ (axes[:, None] if lead else axes))
    return intensity.sum(axis=-1), grad, hess
