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
Gaussian intensity 2P/(pi wh(z) wv(z)) exp(-2 xi^2/wh^2 - 2 nu^2/wv^2).
"""

from __future__ import annotations

import numpy as np

BEAM_RECORD_SIZE = 19

# points x records elements per block: each (block, n_records) temporary
# stays cache-sized (64 KB) and the projection small enough for one BLAS thread
_CHUNK = 1 << 13


def intensity_sum(points: np.ndarray, records: np.ndarray) -> np.ndarray:
    """Summed astigmatic-Gaussian intensity of all beam records at each point."""
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    records = np.ascontiguousarray(np.atleast_2d(records), dtype=np.float64)
    if records.shape[1] != BEAM_RECORD_SIZE:
        raise ValueError(f"beam records must have {BEAM_RECORD_SIZE} columns")
    n, m = points.shape[0], records.shape[0]
    block = max(1, _CHUNK // max(m, 1))
    out = np.empty(n, dtype=np.float64)
    # every block reuses one set of temporaries: allocated and freed per block
    # (~0.5 MB at a full chunk), they let malloc trim the heap after each block
    # and fault the same pages back in for the next
    rows = min(block, n)
    work = (np.empty((rows, 3 * m)), np.empty((3, rows, m)))
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        _intensity_chunk(points[sl], records, out[sl], work)
    return out


def _intensity_chunk(pts: np.ndarray, rec: np.ndarray, out: np.ndarray, work) -> None:
    """Write the intensity sum at ``pts`` into ``out``, computing in the ``work`` buffers."""
    k, m = pts.shape[0], rec.shape[0]
    axes = rec[:, 3:12].reshape(m, 3, 3).transpose(1, 0, 2)  # (direction, h, v) x m x 3
    # coordinates along each axis from the record origin: pts @ axis.T - origin . axis
    proj = np.matmul(pts, axes.reshape(3 * m, 3).T, out=work[0][:k])
    proj -= np.einsum("jmk,mk->jm", axes, rec[:, 0:3]).reshape(-1)
    zeta, xi, nu = proj.reshape(k, 3, m).transpose(1, 0, 2)
    wh, wv, amp = work[1][:, :k]
    # w = waist * sqrt(1 + ((zeta - focus) / zR)^2)
    for w, waist, focus, z_r in ((wh, 12, 14, 16), (wv, 13, 15, 17)):
        np.subtract(zeta, rec[:, focus], out=w)
        w /= rec[:, z_r]
        np.square(w, out=w)
        w += 1.0
        np.sqrt(w, out=w)
        w *= rec[:, waist]
    # amp = 2P / (pi wh wv)
    np.multiply(wh, np.pi, out=amp)
    amp *= wv
    np.divide(2.0 * rec[:, 18], amp, out=amp)
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
    np.sum(wh, axis=1, out=out)
