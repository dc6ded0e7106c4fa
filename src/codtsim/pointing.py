"""Beam-pointing flight analysis: spot detection, tracking, AC/DC statistics.

A frame is a 2-D uint8 or uint16 array of raw camera counts; the pixel
pitch and the timestamps belong to the recording and are passed once for
all its frames.  Detection applies a threshold mask at a fraction of the
per-frame maximum, labels 8-connected components and takes
intensity-weighted sub-pixel centroids.  Detection works on blocks of
``BLOCK_FRAMES`` frames at a time, so a flight is streamed rather than held
in memory.  Spot identity across frames uses nearest-neighbor matching with a
gating radius.  Phase boundaries (pre / launch / microgravity / landing /
post) are supplied in the input metadata, not inferred.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError

PHASES = ("pre", "launch", "microgravity", "landing", "post")

BLOCK_FRAMES = 32  # frames labeled per numpy pass
WRITE_BATCH_FRAMES = 8  # rendered frames handed to the frame writer at a time
WRITE_QUEUE_BATCHES = 4  # batches that may wait for the frame writer
_NO_SPOT = (math.nan, math.nan)  # centroid of a spot not found in a frame


def _spot_centres(spots_um, shape, pixel_pitch: float) -> np.ndarray:
    """Spot centres (..., x y) in pixels; DomainError if one lies outside a ``shape`` (h, w) frame."""
    spots_um = np.asarray(spots_um, dtype=float)
    centres = spots_um * 1e-6 / pixel_pitch
    outside = ~((0 <= centres) & (centres < tuple(shape)[::-1])).all(axis=-1)
    if outside.any():
        x_um, y_um = spots_um[outside][0]
        raise DomainError(f"spot at ({x_um}, {y_um}) um lies outside the frame")
    return centres


def synth_frame(
    spots_um,
    sigma_um: float,
    amplitude: float,
    shape,
    pixel_pitch: float,
    background: float,
    noise: float,
    seed: int = 0,
) -> np.ndarray:
    """Render Gaussian spots plus uniform background and seeded Gaussian noise, as uint16 counts.

    ``spots_um`` is an (s, 2) array of spot centres (x, y) in the camera
    plane; every spot has width ``sigma_um`` and peak ``amplitude`` counts.
    Deterministic for a fixed seed.  Each spot is the outer product of its
    1-D profiles along y and x.  A spot centred outside the frame raises
    DomainError.
    """
    h, w = shape
    centres = _spot_centres(spots_um, shape, pixel_pitch)
    two_sig2 = 2 * (sigma_um * 1e-6 / pixel_pitch) ** 2
    img = np.full((h, w), float(background))
    for cx, cy in centres:
        gx = np.exp(-((np.arange(w) - cx) ** 2) / two_sig2)
        gy = amplitude * np.exp(-((np.arange(h) - cy) ** 2) / two_sig2)
        img += gy[:, None] * gx
    if noise > 0:
        # Generator.normal(0, noise) returns 0 + noise * z for these same draws z
        img += noise * np.random.default_rng(seed).standard_normal(img.shape)
    np.clip(np.rint(img, out=img), 0, 65535, out=img)
    return img.astype(np.uint16)


def label_components(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-connected components of each mask in a (frames, height, width) block.

    Returns (labels, counts): ``labels[k]`` equals
    ``scipy.ndimage.label(masks[k], structure=np.ones((3, 3)))[0]`` (0 off the
    mask, 1..counts[k] in raster order of each component's first pixel).

    The masks are stacked with one blank row after each frame and a blank
    column on each side, so the row runs found by one ``np.diff`` over the
    flattened block never cross a frame or a row edge.  Runs in adjacent rows
    that touch (diagonals included) are joined by label propagation; each
    component keeps its lowest run index, which orders components by their
    first pixel.
    """
    masks = np.asarray(masks, dtype=bool)
    n_frames, h, w = masks.shape
    stride = w + 2
    padded = np.zeros((n_frames, h + 1, stride), dtype=np.int8)
    padded[:, :h, 1:-1] = masks
    step = np.diff(padded.ravel())
    starts = np.flatnonzero(step == 1) + 1  # flat index of a run's first pixel
    ends = np.flatnonzero(step == -1) + 1  # flat index just past its last pixel
    # runs of the row above touching run b: end >= start_b - stride and start <= end_b - stride
    lo = np.searchsorted(ends, starts - stride, side="left")
    hi = np.searchsorted(starts, ends - stride, side="right")
    n_touch = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(starts.size), n_touch)
    above = lo[below] + np.arange(below.size) - np.repeat(np.cumsum(n_touch) - n_touch, n_touch)
    root = np.arange(starts.size)
    while True:
        low = np.minimum(root[above], root[below])
        joined = root.copy()
        np.minimum.at(joined, root[above], low)
        np.minimum.at(joined, root[below], low)
        while not np.array_equal(joined[joined], joined):
            joined = joined[joined]
        if np.array_equal(joined, root):
            break
        root = joined
    first_runs, component = np.unique(root, return_inverse=True)
    frame_of_run = starts // ((h + 1) * stride)
    counts = np.bincount(frame_of_run[first_runs], minlength=n_frames)
    first_label = np.cumsum(counts) - counts
    labels = np.zeros(masks.shape, dtype=np.int32)
    labels[masks] = np.repeat(component - first_label[frame_of_run] + 1, ends - starts)
    return labels, counts


def detect_block(values: np.ndarray, pixel_pitch: float, threshold_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Spot centroids of each frame of a (frames, height, width) block of counts.

    A spot is an 8-connected component of the pixels at or above
    ``threshold_fraction`` of the frame's maximum; its centroid is the
    intensity-weighted pixel mean.  Returns (centroids, counts):
    ``centroids`` is (frames, 2, 2) in um, the two brightest spots of each
    frame with their (x, y), nan where a frame has fewer; ``counts`` holds
    the number of components of each frame.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise DomainError("threshold fraction must lie in (0, 1)")
    values = np.asarray(values)
    n_frames = values.shape[0]
    peak = values.max(axis=(1, 2)).astype(float)
    # a blank frame (peak 0) has no components, not one of total 0
    threshold = np.where(peak > 0, threshold_fraction * peak, np.inf)
    mask = values >= threshold[:, None, None]
    labels, counts = label_components(mask)
    first = np.cumsum(counts) - counts
    pixel = np.flatnonzero(mask)
    frame, ys, xs = np.unravel_index(pixel, values.shape)
    component = labels.ravel()[pixel] - 1 + first[frame]
    weights = values.ravel()[pixel].astype(float)
    n = int(counts.sum())
    total = np.bincount(component, weights=weights, minlength=n)
    sum_x = np.bincount(component, weights=xs * weights, minlength=n)
    sum_y = np.bincount(component, weights=ys * weights, minlength=n)
    xy_um = np.stack([sum_x / total, sum_y / total], axis=1) * pixel_pitch * 1e6  # per component
    # brightest first within each frame; ties keep raster order
    frame_of = np.repeat(np.arange(n_frames), counts)
    order = np.lexsort((-total, frame_of))
    rank = np.arange(n) - first[frame_of]
    kept = rank < 2
    centroids = np.full((n_frames, 2, 2), np.nan)
    centroids[frame_of[kept], rank[kept]] = xy_um[order[kept]]
    return centroids, counts


def _centroid_blocks(frames, pixel_pitch: float, threshold_fraction: float):
    """``detect_block`` of ``frames``, taken ``BLOCK_FRAMES`` frames of one shape at a time."""
    block: list[np.ndarray] = []
    for values in itertools.chain(frames, [None]):  # None flushes the last block
        if block and (values is None or len(block) == BLOCK_FRAMES or values.shape != block[0].shape):
            yield detect_block(np.stack(block), pixel_pitch, threshold_fraction)
            block = []
        if values is not None:
            block.append(values)


def track_spots(frames, pixel_pitch: float, threshold_fraction: float, gate_factor: float) -> np.ndarray:
    """Centroids (n_frames, 2 spots, 2 xy) in um of two spots tracked by nearest-neighbor gating.

    A spot not found in a frame has nan coordinates there.  ``frames`` is
    any iterable of 2-D count arrays with one ``pixel_pitch`` (m); it is
    consumed in blocks of ``BLOCK_FRAMES`` frames of one shape, so a
    generator is never held whole and the shape may change between frames.
    A spot takes the nearest detection within ``gate_factor`` pixel
    pitches of its last centroid.  A spot not yet found takes the
    detections left over by the tracked spots, in x order, so both spots of
    the first frame with detections are ordered by x.
    """
    gate_um = gate_factor * pixel_pitch * 1e6
    positions = []
    previous = [None, None]  # last centroid of each spot; None until the spot is found
    for centroids, counts in _centroid_blocks(frames, pixel_pitch, threshold_fraction):
        for xy, count in zip(centroids.tolist(), counts.tolist()):
            remaining = xy[:count]  # brightest first
            found = [None, None]
            for i, last in enumerate(previous):
                if last is None or not remaining:
                    continue
                dists = [math.hypot(x - last[0], y - last[1]) for x, y in remaining]
                j = min(range(len(dists)), key=dists.__getitem__)  # the first nearest
                if dists[j] <= gate_um:
                    found[i] = remaining.pop(j)
            leftover = iter(sorted(remaining, key=lambda xy: xy[0]))
            found = [next(leftover, None) if p is None else f for f, p in zip(found, previous)]
            previous = [p if f is None else f for f, p in zip(found, previous)]
            positions.append([_NO_SPOT if f is None else f for f in found])
    return np.reshape(positions, (-1, 2, 2))


def _phase_mask(timestamps: np.ndarray, phase_boundaries: dict, phase: str) -> np.ndarray:
    if phase not in phase_boundaries:
        return np.zeros(timestamps.size, dtype=bool)
    t0, t1 = phase_boundaries[phase]
    return (timestamps >= t0) & (timestamps < t1)


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


def track_stats(timestamps, spots_um, phase_boundaries: dict, inner_fraction: float) -> dict:
    """Flight report: displacements, AC jitter and DC inter-spot distance.

    ``spots_um`` holds the (n_frames, 2 spots, 2 xy) centroids taken at
    ``timestamps``, nan where a spot was not found; ``phase_boundaries``
    maps a phase to its (t0, t1).  Displacements are measured from the
    pre-launch mean position per spot and axis.  The AC metric is the
    Euclidean distance between consecutive-frame positions of the same
    spot; the DC metric is the per-frame two-spot distance relative to its
    pre-launch mean.  ``inner_fraction`` selects a centered sub-interval of
    the microgravity phase reported separately.  The ``series`` entry holds
    the per-frame columns as arrays.
    """
    timestamps = np.asarray(timestamps, dtype=float)
    spots_um = np.asarray(spots_um, dtype=float)
    if not np.isfinite(timestamps).all() or np.any(np.diff(timestamps) <= 0):
        raise DomainError("timestamps must be finite and strictly increasing")
    if spots_um.shape != (timestamps.size, 2, 2):
        raise DomainError("spots array must have shape (n_frames, 2, 2)")
    valid_frames = ~np.isnan(spots_um).any(axis=(1, 2))  # both spots found: no nan coordinate
    if int(valid_frames.sum()) < 2:
        raise DomainError("need at least two frames with both spots detected")
    skipped = int((~valid_frames).sum())

    pre = _phase_mask(timestamps, phase_boundaries, "pre") & valid_frames
    if not pre.any():
        raise DomainError("no valid pre-launch frames to define the reference position")
    ref = np.nanmean(spots_um[pre], axis=0)  # (2 spots, 2 xy)

    disp = spots_um - ref  # (n, 2, 2)
    interspot = np.linalg.norm(spots_um[:, 0] - spots_um[:, 1], axis=1)
    dc = interspot - float(np.nanmean(interspot[pre]))
    ac = np.full((timestamps.size, 2), np.nan)
    valid_idx = np.flatnonzero(valid_frames)
    steps = spots_um[valid_idx[1:]] - spots_um[valid_idx[:-1]]
    ac[valid_idx[1:]] = np.linalg.norm(steps, axis=2)

    report: dict = {"skipped_frames": skipped, "phases": {}}
    for phase in PHASES:
        mask = _phase_mask(timestamps, phase_boundaries, phase) & valid_frames
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
    if "microgravity" in phase_boundaries:
        t0, t1 = phase_boundaries["microgravity"]
        mid = 0.5 * (t0 + t1)
        half = 0.5 * inner_fraction * (t1 - t0)
        inner = (timestamps >= mid - half) & (timestamps < mid + half) & valid_frames
        if inner.any():
            report["microgravity_inner"] = {
                "window_s": [mid - half, mid + half],
                "dc_interspot_um": _stats(dc[inner]),
                "ac_um": {f"spot{i + 1}": _stats(ac[inner, i]) for i in range(2)},
            }
    report["series"] = {
        "t_s": timestamps,
        "x1_um": spots_um[:, 0, 0],
        "y1_um": spots_um[:, 0, 1],
        "x2_um": spots_um[:, 1, 0],
        "y2_um": spots_um[:, 1, 1],
        "ac1_um": ac[:, 0],
        "ac2_um": ac[:, 1],
        "dc_um": dc,
    }
    return report


# --- PGM frame I/O ---------------------------------------------------------

# "P5", then width, height and maxval, each a run of digits ending at
# whitespace or at the end of the data; whitespace and "#" comments (to the
# end of their line) come before each of them
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*(?![^\n]))*(\d+)(?!\S)" * 3)


def frame_path(recording: Path, i: int) -> Path:
    """The PGM file of frame ``i`` of the recording in the directory ``recording``."""
    return recording / f"frames/frame_{i:05d}.pgm"


def _write_pgm(values: np.ndarray, path) -> None:
    """A uint8 or uint16 frame as a binary P5 PGM in one write; 16-bit samples are big-endian per the format."""
    height, width = values.shape
    header = f"P5\n{width} {height}\n{np.iinfo(values.dtype).max}\n".encode()
    data = np.ascontiguousarray(values, dtype=values.dtype.newbyteorder(">"))
    with open(path, "wb") as fh:
        fh.write(header + data.tobytes())


def write_frames(recording: Path, frames) -> None:
    """Write ``frames`` (uint8 or uint16 arrays) as frames 0, 1, ... of ``recording``, on one writer thread.

    The frames are drawn from ``frames`` and their files named on the
    calling thread (so a lazy renderer renders the next frame there) and
    handed to the writer thread ``WRITE_BATCH_FRAMES`` at a time, at most
    ``WRITE_QUEUE_BATCHES`` batches ahead of it; batching wakes the writer
    once per batch, not per frame.  A frame that cannot be written raises
    ConfigError naming its file, after the writer has stopped; no thread
    outlives the call.
    """
    import queue  # only flight synth writes frames; kept off the import of the CLI

    frame_path(recording, 0).parent.mkdir(exist_ok=True)
    pending: queue.Queue = queue.Queue(WRITE_QUEUE_BATCHES)
    failure: list[tuple] = []  # (path, exception) of the frame that could not be written

    def writer() -> None:
        while (batch := pending.get()) is not None:
            for values, path in batch:
                if failure:
                    break  # keep draining, so the calling thread never waits on a full queue
                try:
                    _write_pgm(values, path)
                except BaseException as exc:  # re-raised on the calling thread
                    failure.append((path, exc))

    thread = threading.Thread(target=writer, name="pgm-writer")
    thread.start()
    try:
        items = ((values, frame_path(recording, i)) for i, values in enumerate(frames))
        while not failure and (batch := list(itertools.islice(items, WRITE_BATCH_FRAMES))):
            pending.put(batch)
    finally:
        pending.put(None)
        thread.join()
    if failure:
        path, exc = failure[0]
        if isinstance(exc, OSError):
            raise ConfigError(f"{path}: cannot write frame ({exc.strerror or exc})") from exc
        raise exc


def read_pgm(path) -> np.ndarray:
    """A binary PGM frame as a uint8 or uint16 array; a missing, malformed or truncated file is a DomainError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DomainError(f"{path}: cannot read frame ({exc.strerror})") from exc
    if not raw.startswith(b"P5"):
        raise DomainError(f"{path}: only binary (P5) PGM frames are supported")
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise DomainError(f"{path}: malformed PGM header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise DomainError(f"{path}: PGM header {width}x{height}, maxval {maxval} is out of range")
    pos = header.end() + 1  # single whitespace after maxval
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    if len(raw) - pos < width * height * dtype.itemsize:
        raise DomainError(f"{path}: truncated PGM frame")
    values = np.frombuffer(raw, dtype=dtype, count=width * height, offset=pos).reshape(height, width)
    return values.astype(dtype.newbyteorder("="))


def read_frames(recording: Path, count: int):
    """Frames 0 .. ``count`` - 1 of the recording in ``recording``, each read by ``read_pgm`` as it is drawn."""
    return (read_pgm(frame_path(recording, i)) for i in range(count))
