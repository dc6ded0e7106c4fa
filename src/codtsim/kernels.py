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
    n = points.shape[0]
    block = max(1, _CHUNK // max(records.shape[0], 1))
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        out[sl] = _intensity_chunk(points[sl], records)
    return out


def _intensity_chunk(pts: np.ndarray, rec: np.ndarray) -> np.ndarray:
    m = rec.shape[0]
    axes = rec[:, 3:12].reshape(m, 3, 3).transpose(1, 0, 2)  # (direction, h, v) x m x 3
    # coordinates along each axis from the record origin: pts @ axis.T - origin . axis
    proj = pts @ axes.reshape(3 * m, 3).T - np.einsum("jmk,mk->jm", axes, rec[:, 0:3]).reshape(-1)
    zeta, xi, nu = proj.reshape(-1, 3, m).transpose(1, 0, 2)
    wh = rec[:, 12] * np.sqrt(1.0 + ((zeta - rec[:, 14]) / rec[:, 16]) ** 2)
    wv = rec[:, 13] * np.sqrt(1.0 + ((zeta - rec[:, 15]) / rec[:, 17]) ** 2)
    amp = 2.0 * rec[:, 18] / (np.pi * wh * wv)
    return np.sum(amp * np.exp(-2.0 * (xi / wh) ** 2 - 2.0 * (nu / wv) ** 2), axis=1)
