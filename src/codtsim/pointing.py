"""Beam-pointing flight analysis: spot detection, tracking, AC/DC statistics.

Frames carry raw camera counts; detection applies a threshold mask at a
fraction of the per-frame maximum, labels 8-connected components and takes
intensity-weighted sub-pixel centroids.  Spot identity across frames uses
nearest-neighbor matching with a gating radius.  Phase boundaries (pre /
launch / microgravity / landing / post) are supplied in the input metadata,
not inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import DomainError

PHASES = ("pre", "launch", "microgravity", "landing", "post")

DEFAULT_THRESHOLD = 0.2
GATE_PITCH_FACTOR = 10.0


@dataclass
class Frame:
    """One camera frame; ``values`` has shape (height, width) in counts."""

    values: np.ndarray
    pixel_pitch: float  # m per pixel
    bit_depth: int = 16
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.bit_depth not in (8, 16):
            raise DomainError("bit depth must be 8 or 16")
        if self.values.ndim != 2:
            raise DomainError("frame values must be 2D")
        if self.values.max(initial=0) >= 2**self.bit_depth:
            raise DomainError("counts exceed the frame bit depth")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


def synth_frame(
    spots,
    shape=(128, 128),
    pixel_pitch: float = 5e-6,
    background: float = 40.0,
    noise: float = 0.0,
    seed: int = 0,
    bit_depth: int = 16,
    timestamp: float = 0.0,
) -> Frame:
    """Render Gaussian spots plus uniform background and seeded Gaussian noise.

    ``spots`` is an iterable of dicts with x_um, y_um (camera plane),
    sigma_um and amplitude (counts).  Deterministic for a fixed seed.
    """
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.full((h, w), float(background))
    for spot in spots:
        cx = spot["x_um"] * 1e-6 / pixel_pitch
        cy = spot["y_um"] * 1e-6 / pixel_pitch
        if not (0 <= cx < w and 0 <= cy < h):
            raise DomainError(f"spot at ({spot['x_um']}, {spot['y_um']}) um lies outside the frame")
        sig = spot["sigma_um"] * 1e-6 / pixel_pitch
        img += spot["amplitude"] * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig**2))
    if noise > 0:
        rng = np.random.default_rng(seed)
        img = img + rng.normal(0.0, noise, size=img.shape)
    img = np.clip(np.rint(img), 0, 2**bit_depth - 1)
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    return Frame(values=img.astype(dtype), pixel_pitch=pixel_pitch, bit_depth=bit_depth, timestamp=timestamp)


@dataclass
class Detection:
    centroid_um: tuple[float, float]
    area_px: int
    total_intensity: float


def detect_spots(
    frame: Frame, threshold_fraction: float = DEFAULT_THRESHOLD, max_spots: int = 2
) -> tuple[list[Detection], bool]:
    """Thresholded connected-component centroids, brightest first.

    Returns (detections, truncated) where ``truncated`` flags that more than
    ``max_spots`` components were found and only the brightest were kept.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise DomainError("threshold fraction must lie in (0, 1)")
    values = frame.values.astype(float)
    mask = values >= threshold_fraction * values.max()
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    detections = []
    for lab in range(1, n + 1):
        sel = labels == lab
        total = float(values[sel].sum())
        ys, xs = np.nonzero(sel)
        weights = values[sel]
        cx = float(np.sum(xs * weights) / total)
        cy = float(np.sum(ys * weights) / total)
        detections.append(
            Detection(
                centroid_um=(cx * frame.pixel_pitch * 1e6, cy * frame.pixel_pitch * 1e6),
                area_px=int(sel.sum()),
                total_intensity=total,
            )
        )
    detections.sort(key=lambda d: d.total_intensity, reverse=True)
    truncated = len(detections) > max_spots
    return detections[:max_spots], truncated


@dataclass
class SpotTrackSeries:
    """Per-frame centroids of two tracked spots with phase labels."""

    timestamps: np.ndarray  # s
    spots_um: np.ndarray  # (n_frames, 2 spots, 2 xy), nan where missing
    detected: np.ndarray  # (n_frames, 2) bool
    phase_boundaries: dict = field(default_factory=dict)  # phase -> (t0, t1)

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.spots_um = np.asarray(self.spots_um, dtype=float)
        self.detected = np.asarray(self.detected, dtype=bool)
        if np.any(np.diff(self.timestamps) <= 0):
            raise DomainError("timestamps must be strictly increasing")
        if self.spots_um.shape != (self.timestamps.size, 2, 2):
            raise DomainError("spots array must have shape (n_frames, 2, 2)")


def track_spots(
    frames,
    threshold_fraction: float = DEFAULT_THRESHOLD,
    phase_boundaries: dict | None = None,
    gate_factor: float = GATE_PITCH_FACTOR,
) -> SpotTrackSeries:
    """Detect two spots per frame and maintain identity by nearest-neighbor gating."""
    times, positions, flags = [], [], []
    previous = None
    for frame in frames:
        dets, _ = detect_spots(frame, threshold_fraction, max_spots=2)
        gate_um = gate_factor * frame.pixel_pitch * 1e6
        pos = np.full((2, 2), np.nan)
        ok = np.zeros(2, dtype=bool)
        if previous is None:
            # first frame: order spots by x for a reproducible identity
            dets = sorted(dets, key=lambda d: d.centroid_um[0])
            for i, d in enumerate(dets[:2]):
                pos[i] = d.centroid_um
                ok[i] = True
        else:
            remaining = list(dets)
            for i in range(2):
                if not np.isfinite(previous[i]).all() or not remaining:
                    continue
                dists = [np.hypot(d.centroid_um[0] - previous[i][0], d.centroid_um[1] - previous[i][1]) for d in remaining]
                j = int(np.argmin(dists))
                if dists[j] <= gate_um:
                    pos[i] = remaining[j].centroid_um
                    ok[i] = True
                    remaining.pop(j)
        if ok.any():
            previous = np.where(ok[:, None], pos, previous if previous is not None else pos)
        times.append(frame.timestamp)
        positions.append(pos)
        flags.append(ok)
    return SpotTrackSeries(
        timestamps=np.array(times),
        spots_um=np.array(positions),
        detected=np.array(flags),
        phase_boundaries=phase_boundaries or {},
    )


def _phase_mask(series: SpotTrackSeries, phase: str) -> np.ndarray:
    if phase not in series.phase_boundaries:
        return np.zeros(series.timestamps.size, dtype=bool)
    t0, t1 = series.phase_boundaries[phase]
    return (series.timestamps >= t0) & (series.timestamps < t1)


def _stats(arr: np.ndarray) -> dict:
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {"n": 0, "mean": float("nan"), "std": float("nan"), "max_abs": float("nan")}
    return {
        "n": int(arr.size),
        "mean": float(np.mean(arr)),
        "std": float(np.std(arr)),
        "max_abs": float(np.max(np.abs(arr))),
    }


def track_stats(series: SpotTrackSeries, inner_fraction: float = 0.75) -> dict:
    """Flight report: displacements, AC jitter and DC inter-spot distance.

    Displacements are measured from the pre-launch mean position per spot and
    axis.  The AC metric is the Euclidean distance between consecutive-frame
    positions of the same spot; the DC metric is the per-frame two-spot
    distance relative to its pre-launch mean.  ``inner_fraction`` selects a
    centered sub-interval of the microgravity phase reported separately.
    """
    valid_frames = np.all(series.detected, axis=1)
    if int(valid_frames.sum()) < 2:
        raise DomainError("need at least two frames with both spots detected")
    skipped = int((~valid_frames).sum())

    pre = _phase_mask(series, "pre") & valid_frames
    if not pre.any():
        raise DomainError("no valid pre-launch frames to define the reference position")
    ref = np.nanmean(series.spots_um[pre], axis=0)  # (2 spots, 2 xy)

    disp = series.spots_um - ref  # (n, 2, 2)
    interspot = np.linalg.norm(series.spots_um[:, 0] - series.spots_um[:, 1], axis=1)
    dc = interspot - float(np.nanmean(interspot[pre]))
    ac = np.full((series.timestamps.size, 2), np.nan)
    valid_idx = np.flatnonzero(valid_frames)
    for a, b in zip(valid_idx[:-1], valid_idx[1:]):
        ac[b] = np.linalg.norm(series.spots_um[b] - series.spots_um[a], axis=1)

    report: dict = {"skipped_frames": skipped, "phases": {}}
    for phase in PHASES:
        mask = _phase_mask(series, phase) & valid_frames
        if not mask.any():
            continue
        entry = {
            "displacement_um": {
                f"spot{i + 1}_{axis}": _stats(disp[mask, i, j])
                for i in range(2)
                for j, axis in enumerate("xy")
            },
            "ac_um": {f"spot{i + 1}": _stats(ac[mask, i]) for i in range(2)},
            "dc_interspot_um": _stats(dc[mask]),
        }
        report["phases"][phase] = entry
    if "microgravity" in series.phase_boundaries:
        t0, t1 = series.phase_boundaries["microgravity"]
        mid = 0.5 * (t0 + t1)
        half = 0.5 * inner_fraction * (t1 - t0)
        inner = (series.timestamps >= mid - half) & (series.timestamps < mid + half) & valid_frames
        if inner.any():
            report["microgravity_inner"] = {
                "window_s": [mid - half, mid + half],
                "dc_interspot_um": _stats(dc[inner]),
                "ac_um": {f"spot{i + 1}": _stats(ac[inner, i]) for i in range(2)},
            }
    report["series"] = {
        "t_s": series.timestamps.tolist(),
        "x1_um": series.spots_um[:, 0, 0].tolist(),
        "y1_um": series.spots_um[:, 0, 1].tolist(),
        "x2_um": series.spots_um[:, 1, 0].tolist(),
        "y2_um": series.spots_um[:, 1, 1].tolist(),
        "ac1_um": ac[:, 0].tolist(),
        "ac2_um": ac[:, 1].tolist(),
        "dc_um": dc.tolist(),
    }
    return report


# --- PGM frame I/O ---------------------------------------------------------


def write_pgm(frame: Frame, path) -> None:
    """Binary P5 PGM; 16-bit frames use big-endian sample order per the format."""
    path = Path(path)
    maxval = 2**frame.bit_depth - 1
    header = f"P5\n{frame.width} {frame.height}\n{maxval}\n".encode()
    data = frame.values.astype(">u2" if frame.bit_depth == 16 else "u1").tobytes()
    path.write_bytes(header + data)


def read_pgm(path, pixel_pitch: float, timestamp: float = 0.0) -> Frame:
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise DomainError("only binary (P5) PGM frames are supported")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    bit_depth = 16 if maxval > 255 else 8
    dtype = ">u2" if bit_depth == 16 else "u1"
    values = np.frombuffer(raw[pos:], dtype=dtype, count=width * height).reshape(height, width)
    return Frame(
        values=values.astype(np.uint16 if bit_depth == 16 else np.uint8),
        pixel_pitch=pixel_pitch,
        bit_depth=bit_depth,
        timestamp=timestamp,
    )
