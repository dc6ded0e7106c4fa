"""Beam-intensity kernel.

A "beam record" packs one (phase, beam) pair of the time-averaged trap into a
flat float64 row:

    0:3  origin [m]        3:6  direction (unit)
    6:9  h axis (unit)     9:12 v axis (unit)
    12   waist_h [m]       13   waist_v [m]
    14   focus_h [m]       15   focus_v [m]   (axial, relative to origin)
    16   zR_h [m]          17   zR_v [m]
    18   effective power [W]  (beam power x amplitude weight / n_phases)

``intensity_sum`` returns, per point, the sum over records of the astigmatic
Gaussian intensity 2P/(pi wh(z) wv(z)) exp(-2 xi^2/wh^2 - 2 nu^2/wv^2).
"""

from __future__ import annotations

import numpy as np

BEAM_RECORD_SIZE = 19

_CHUNK = 65536


def intensity_sum(points: np.ndarray, records: np.ndarray) -> np.ndarray:
    """Summed astigmatic-Gaussian intensity of all beam records at each point."""
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    records = np.ascontiguousarray(np.atleast_2d(records), dtype=np.float64)
    if records.shape[1] != BEAM_RECORD_SIZE:
        raise ValueError(f"beam records must have {BEAM_RECORD_SIZE} columns")
    out = np.empty(points.shape[0], dtype=np.float64)
    # chunk over points to bound the (chunk, n_records) temporaries
    for start in range(0, points.shape[0], _CHUNK):
        sl = slice(start, min(start + _CHUNK, points.shape[0]))
        out[sl] = _intensity_chunk(points[sl], records)
    return out


def _intensity_chunk(pts: np.ndarray, rec: np.ndarray) -> np.ndarray:
    rel = pts[:, None, :] - rec[None, :, 0:3]          # (n, m, 3)
    zeta = np.einsum("nmk,mk->nm", rel, rec[:, 3:6])
    xi = np.einsum("nmk,mk->nm", rel, rec[:, 6:9])
    nu = np.einsum("nmk,mk->nm", rel, rec[:, 9:12])
    wh = rec[:, 12] * np.sqrt(1.0 + ((zeta - rec[:, 14]) / rec[:, 16]) ** 2)
    wv = rec[:, 13] * np.sqrt(1.0 + ((zeta - rec[:, 15]) / rec[:, 17]) ** 2)
    amp = 2.0 * rec[:, 18] / (np.pi * wh * wv)
    return np.sum(amp * np.exp(-2.0 * (xi / wh) ** 2 - 2.0 * (nu / wv) ** 2), axis=1)
