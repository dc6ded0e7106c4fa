import sys
import threading
import time

import numpy as np
import pytest

from codtsim import pointing
from codtsim.config import load_config
from codtsim.errors import ConfigError, DomainError
from codtsim.pointing import (
    BLOCK_FRAMES,
    detect_block,
    frame_path,
    label_components,
    read_frames,
    read_pgm,
    synth_frame,
    track_spots,
    track_stats,
    write_frames,
)

PITCH = 5e-6
# the analysis settings of the bundled config
FLIGHT = load_config()["flight"]
THRESHOLD, GATE, INNER = (FLIGHT[k] for k in ("threshold_fraction", "gate_pitch_factor", "inner_fraction"))


def two_spot_frame(x1=200.0, x2=260.0, y=240.0, noise=0.0, seed=0, amp=3000.0):
    return synth_frame([[x1, y], [x2, y]], 12.0, amp, shape=(96, 96), pixel_pitch=PITCH, background=40.0, noise=noise, seed=seed)


def detect(values, threshold_fraction=THRESHOLD):
    """(centroids, count) of one frame: its two brightest spots, nan-padded, and its number of components."""
    centroids, counts = detect_block(values[None], PITCH, threshold_fraction)
    return centroids[0], counts[0]


def found(values):
    """The detected centroids of one frame as (x, y) tuples, sorted."""
    centroids, count = detect(values)
    return sorted(map(tuple, centroids[:count].tolist()))


class TestSynthFrame:
    def test_peak_pixel_at_spot_center(self):
        frame = synth_frame([[200.0, 150.0]], 10.0, 1000.0, shape=(80, 80), pixel_pitch=PITCH, background=40.0, noise=0.0)
        assert frame.dtype == np.uint16
        iy, ix = np.unravel_index(np.argmax(frame), frame.shape)
        assert ix == 40 and iy == 30

    def test_rendered_separation_in_pixels(self):
        centroids, _ = detect(two_spot_frame())
        sep = abs(centroids[0, 0] - centroids[1, 0])
        assert sep == pytest.approx(60.0, abs=1.0)

    def test_seeded_determinism_byte_for_byte(self):
        a = two_spot_frame(noise=5.0, seed=42)
        b = two_spot_frame(noise=5.0, seed=42)
        assert a.tobytes() == b.tobytes()
        c = two_spot_frame(noise=5.0, seed=43)
        assert a.tobytes() != c.tobytes()

    def test_matches_two_dimensional_exponential_byte_for_byte(self):
        # the reference renders each spot as one 2-D exponential over the pixel grid
        rng = np.random.default_rng(7)
        yy, xx = np.mgrid[0:96, 0:96]
        for seed in range(40):
            spots = rng.uniform(20, 460, size=(2, 2))
            sigma = rng.uniform(5, 20)
            img = np.full((96, 96), 40.0)
            for x_um, y_um in spots:
                cx, cy = x_um * 1e-6 / PITCH, y_um * 1e-6 / PITCH
                sig = sigma * 1e-6 / PITCH
                img += 3000.0 * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig**2))
            img = img + np.random.default_rng(seed).normal(0.0, 6.0, size=img.shape)
            reference = np.clip(np.rint(img), 0, 65535).astype(np.uint16)
            frame = synth_frame(spots, sigma, 3000.0, shape=(96, 96), pixel_pitch=PITCH, background=40.0, noise=6.0, seed=seed)
            assert frame.tobytes() == reference.tobytes()

    def test_spot_outside_frame_rejected(self):
        with pytest.raises(DomainError):
            synth_frame([[9000.0, 0.0]], 5.0, 10.0, shape=(64, 64), pixel_pitch=PITCH, background=40.0, noise=0.0)


class TestDetectSpots:
    def test_uniform_square_centroid_exact(self):
        values = np.zeros((40, 40), dtype=np.uint16)
        values[10:20, 14:24] = 1000  # rows 10..19, cols 14..23
        centroids, count = detect(values, 0.5)
        assert count == 1
        cx, cy = centroids[0]
        assert cx == pytest.approx(18.5 * PITCH * 1e6, abs=1e-9)
        assert cy == pytest.approx(14.5 * PITCH * 1e9 * 1e-3, abs=1e-9)
        assert np.isnan(centroids[1]).all()

    def test_subpixel_accuracy_at_high_snr(self):
        frame = synth_frame(
            [[201.7, 148.2]], 12.0, 3000.0, shape=(96, 96), pixel_pitch=PITCH, background=40.0, noise=3000.0 / 50, seed=11
        )
        centroids, _ = detect(frame)
        cx, cy = centroids[0]
        assert abs(cx - 201.7) < 0.1 * PITCH * 1e6
        assert abs(cy - 148.2) < 0.1 * PITCH * 1e6

    def test_two_spot_separation_within_micron(self):
        centroids, _ = detect(two_spot_frame(noise=6.0, seed=3))
        xs = sorted(centroids[:, 0])
        assert xs[1] - xs[0] == pytest.approx(60.0, abs=1.0)

    def test_empty_result_below_threshold(self):
        values = np.zeros((32, 32), dtype=np.uint16)
        values[5, 5] = 10
        _, count = detect(values, 0.9)
        assert count == 1  # the single bright pixel is its own component
        values2 = np.full((32, 32), 7, dtype=np.uint16)
        # flat frame: everything is one component, centroid at the center
        assert detect(values2, 0.5)[1] == 1
        # a blank frame has none (not one of total 0, whose centroid is 0/0)
        centroids, count = detect(np.zeros((32, 32), dtype=np.uint16), 0.5)
        assert count == 0 and np.isnan(centroids).all()

    def test_more_than_two_spots_keep_the_two_brightest(self):
        values = np.zeros((32, 32), dtype=np.uint16)
        values[4, 4], values[4, 20], values[20, 12] = 300, 900, 600  # raster order: dim, bright, middle
        centroids, count = detect(values, 0.1)
        assert count == 3
        np.testing.assert_array_equal(centroids, [[20 * PITCH * 1e6, 4 * PITCH * 1e6], [12 * PITCH * 1e6, 20 * PITCH * 1e6]])

    def test_integer_shift_equivariance(self):
        frame = two_spot_frame(noise=6.0, seed=5)
        shifted = np.roll(frame, (3, 7), axis=(0, 1))
        d0, _ = detect(frame)
        d1, _ = detect(shifted)
        np.testing.assert_allclose(d1 - d0, [[7 * PITCH * 1e6, 3 * PITCH * 1e6]] * 2, rtol=0, atol=1e-9)

    def test_intensity_scale_invariance(self):
        frame = two_spot_frame(noise=0.0, amp=800.0)
        scaled = (frame.astype(np.uint32) * 3).astype(np.uint16) if frame.max() * 3 < 65536 else frame
        d0, _ = detect(frame)
        d1, _ = detect(scaled)
        np.testing.assert_allclose(d0, d1, rtol=0, atol=1e-9)

    def test_threshold_fraction_validated(self):
        with pytest.raises(DomainError):
            detect(two_spot_frame(), 1.5)


def ndimage_labels(mask):
    from scipy import ndimage

    return ndimage.label(mask, structure=np.ones((3, 3), dtype=int))


class TestLabelComponents:
    def assert_matches_ndimage(self, masks):
        labels, counts = label_components(masks)
        assert labels.shape == masks.shape
        for k, mask in enumerate(masks):
            expected, n = ndimage_labels(mask)
            assert counts[k] == n
            np.testing.assert_array_equal(labels[k], expected)

    def test_random_masks(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 24)), int(rng.integers(1, 24)))
            self.assert_matches_ndimage(rng.random(shape) < rng.uniform(0.05, 0.9))

    def test_diagonal_contact_joins(self):
        mask = np.zeros((1, 6, 6), dtype=bool)
        mask[0, 0, 0] = mask[0, 1, 1] = mask[0, 2, 2] = True  # a diagonal chain
        mask[0, 0, 5] = mask[0, 1, 4] = True  # an anti-diagonal pair
        mask[0, 4, 0] = mask[0, 5, 2] = True  # a knight's step apart: separate
        self.assert_matches_ndimage(mask)
        assert label_components(mask)[1][0] == 4

    def test_u_shape_merges_late(self):
        # two arms seen first as separate runs, joined only by the bottom row
        mask = np.zeros((1, 8, 9), dtype=bool)
        mask[0, 0:7, 1] = mask[0, 0:7, 7] = True
        mask[0, 7, 1:8] = True
        mask[0, 2, 4] = True  # an island between the arms
        self.assert_matches_ndimage(mask)
        labels, counts = label_components(mask)
        assert counts[0] == 2 and labels[0, 0, 7] == 1 and labels[0, 2, 4] == 2

    def test_components_on_all_four_edges(self):
        mask = np.zeros((1, 7, 7), dtype=bool)
        mask[0, 0, 2:5] = True  # top
        mask[0, 6, 1:3] = True  # bottom
        mask[0, 2:5, 0] = True  # left
        mask[0, 3:6, 6] = True  # right
        mask[0, 0, 6] = True  # top-right corner, diagonal to nothing
        self.assert_matches_ndimage(mask)
        # a row end must not wrap onto the start of the next row
        wrap = np.zeros((1, 3, 4), dtype=bool)
        wrap[0, 0, 3] = wrap[0, 1, 0] = True
        self.assert_matches_ndimage(wrap)
        assert label_components(wrap)[1][0] == 2

    def test_frames_of_one_block_do_not_merge(self):
        masks = np.zeros((3, 5, 6), dtype=bool)
        masks[0, 4, 1:4] = True  # last row of frame 0 ...
        masks[1, 0, 2:5] = True  # ... over the first row of frame 1
        masks[1, 4, :] = True
        masks[2, 0, :] = True
        self.assert_matches_ndimage(masks)
        np.testing.assert_array_equal(label_components(masks)[1], [1, 2, 1])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_timestamp_rejected(value):
    # a nan timestamp lies in no phase, so its frame once dropped out unnoticed
    ts = np.arange(10) / 24.0
    ts[4] = value
    with pytest.raises(DomainError, match="timestamps must be finite and strictly increasing"):
        track_stats(ts, np.zeros((10, 2, 2)), {}, INNER)


def test_spots_not_matching_the_timestamps_rejected():
    ts = np.arange(10) / 24.0
    for spots in (np.zeros((9, 2, 2)), np.zeros((10, 2))):
        with pytest.raises(DomainError, match=r"spots array must have shape \(n_frames, 2, 2\)"):
            track_stats(ts, spots, {}, INNER)


def constant_series(n=40, dt=1.0 / 24):
    """(timestamps, spots_um, phase_boundaries) of two spots at rest."""
    ts = np.arange(n) * dt
    spots = np.tile(np.array([[100.0, 120.0], [160.0, 120.0]]), (n, 1, 1))
    phases = {
        "pre": (0.0, 0.5),
        "launch": (0.5, 0.8),
        "microgravity": (0.8, 1.4),
        "landing": (1.4, 1.6),
        "post": (1.6, 2.0),
    }
    return ts, spots, phases


class TestTrackStats:
    def test_constant_series_all_zero(self):
        report = track_stats(*constant_series(), INNER)
        for phase in report["phases"].values():
            for stats in phase["displacement_um"].values():
                assert stats["max_abs"] == pytest.approx(0.0, abs=1e-12)
            assert phase["dc_interspot_um"]["max_abs"] == pytest.approx(0.0, abs=1e-12)
        micro_ac = report["phases"]["microgravity"]["ac_um"]["spot1"]
        assert micro_ac["max_abs"] == pytest.approx(0.0, abs=1e-12)

    def test_constructed_step_series_reports_exact_maxima(self):
        # 75 um excursion during launch, settled 12 um offset in microgravity
        t, spots, phases = constant_series(n=48)
        disp = np.zeros_like(t)
        launch = (t >= 0.5) & (t < 0.8)
        micro = (t >= 0.8) & (t < 1.4)
        disp[launch] = 75.0
        disp[micro] = 12.0
        spots[:, :, 0] += disp[:, None]
        report = track_stats(t, spots, phases, INNER)
        assert report["phases"]["launch"]["displacement_um"]["spot1_x"]["max_abs"] == pytest.approx(75.0)
        assert report["phases"]["microgravity"]["displacement_um"]["spot1_x"]["max_abs"] == pytest.approx(12.0)
        assert report["phases"]["microgravity"]["dc_interspot_um"]["max_abs"] == pytest.approx(0.0, abs=1e-12)

    def test_ac_invariant_under_global_offset(self):
        ts, spots_a, phases = constant_series(n=48)
        rng = np.random.default_rng(2)
        jitter = rng.normal(0, 1.0, size=spots_a.shape)
        report_a = track_stats(ts, spots_a + jitter, phases, INNER)
        report_b = track_stats(ts, spots_a + jitter + 50.0, phases, INNER)  # constant offset of every position
        for phase in report_a["phases"]:
            for spot in ("spot1", "spot2"):
                assert report_a["phases"][phase]["ac_um"][spot]["mean"] == pytest.approx(
                    report_b["phases"][phase]["ac_um"][spot]["mean"], rel=1e-12
                )

    def test_report_determinism(self):
        a = track_stats(*constant_series(), INNER)
        b = track_stats(*constant_series(), INNER)
        import json

        for report in (a, b):
            report["series"] = {name: column.tolist() for name, column in report["series"].items()}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_jitter_std_recovered(self):
        ts, spots, _ = constant_series(n=200)
        phases = {
            "pre": (0.0, 2.0),
            "microgravity": (2.0, 8.0),
        }
        rng = np.random.default_rng(30)
        micro = (ts >= 2.0) & (ts < 8.0)
        spots[micro, 1, 0] += rng.normal(0, 1.2, int(micro.sum()))
        report = track_stats(ts, spots, phases, INNER)
        assert report["phases"]["microgravity"]["dc_interspot_um"]["std"] == pytest.approx(
            1.2, rel=0.10
        )

    def test_missing_detections_skipped(self):
        ts, spots, phases = constant_series(n=40)
        spots[10:12, 0] = np.nan  # spot 1 not found
        report = track_stats(ts, spots, phases, INNER)
        assert report["skipped_frames"] == 2

    def test_two_valid_frames_required(self):
        ts, spots, phases = constant_series(n=5)
        spots[1:] = np.nan  # both spots found in the first frame only
        with pytest.raises(DomainError):
            track_stats(ts, spots, phases, INNER)


class TestTracking:
    def test_track_spots_keeps_identity(self):
        frames = [
            two_spot_frame(x1=200.0 + i, x2=262.0 + i, noise=4.0, seed=i)
            for i in range(8)
        ]
        spots = track_spots(frames, PITCH, THRESHOLD, GATE)
        assert not np.isnan(spots).any()
        x1 = spots[:, 0, 0]
        assert np.all(np.diff(x1) > 0)  # spot 1 moves right monotonically

    def test_generator_and_list_give_identical_series(self):
        n = 2 * BLOCK_FRAMES + 5  # the last block is partial

        def frames():
            for i in range(n):
                yield two_spot_frame(x1=200.0 + 0.1 * i, x2=262.0 + 0.2 * i, noise=4.0, seed=i)

        from_list = track_spots(list(frames()), PITCH, THRESHOLD, GATE)
        from_generator = track_spots(frames(), PITCH, THRESHOLD, GATE)
        assert from_list.shape == (n, 2, 2) and not np.isnan(from_list).any()
        assert from_list.tobytes() == from_generator.tobytes()
        # each frame is detected as it would be alone
        for i, frame in enumerate(frames()):
            assert found(frame) == sorted(map(tuple, from_list[i]))

    def test_frame_shape_may_change_mid_stream(self):
        small = synth_frame(
            [[100.0, 100.0], [150.0, 100.0]], 10.0, 3000.0, shape=(48, 48), pixel_pitch=PITCH, background=40.0, noise=0.0
        )
        frames = [two_spot_frame(), small, two_spot_frame()]
        spots = track_spots(frames, PITCH, THRESHOLD, gate_factor=1000.0)
        assert not np.isnan(spots).any()
        for i, frame in enumerate(frames):
            assert found(frame) == sorted(map(tuple, spots[i]))

    @pytest.mark.parametrize("missing", [0, 1])
    def test_spot_missing_from_the_first_frame_is_tracked_once_it_appears(self, missing):
        # the first frame lacks spot ``missing`` of the pair at x = 200 and 260 um; it joins from frame 1 on
        old, new = (200.0, 260.0) if missing == 1 else (260.0, 200.0)
        first = synth_frame([[old, 240.0]], 12.0, 3000.0, shape=(96, 96), pixel_pitch=PITCH, background=40.0, noise=0.0)
        frames = [first] + [two_spot_frame(x1=200.0 + i, x2=260.0 + i, noise=4.0, seed=i) for i in range(1, 6)]
        spots = track_spots(frames, PITCH, THRESHOLD, GATE)
        # the spot of the first frame is spot 1 and keeps its identity; the newcomer is spot 2
        found_spots = ~np.isnan(spots).any(axis=-1)
        np.testing.assert_array_equal(found_spots, [[True, False]] + [[True, True]] * 5)
        np.testing.assert_allclose(spots[:, 0, 0] - np.arange(6), old, atol=1.0)
        np.testing.assert_allclose(spots[1:, 1, 0] - np.arange(1, 6), new, atol=1.0)


class TestPgmIO:
    def test_round_trip_16_bit(self, tmp_path):
        frame = two_spot_frame(noise=5.0, seed=9)
        path = tmp_path / "frame.pgm"
        pointing._write_pgm(frame, path)
        loaded = read_pgm(path)
        assert loaded.dtype == np.uint16
        np.testing.assert_array_equal(loaded, frame)

    def test_round_trip_8_bit(self, tmp_path):
        counts = synth_frame([[100.0, 100.0]], 10.0, 180.0, shape=(48, 48), pixel_pitch=PITCH, background=40.0, noise=0.0)
        frame = counts.astype(np.uint8)
        np.testing.assert_array_equal(frame, counts)  # 40 + 180 counts fit in 8 bits
        path = tmp_path / "frame8.pgm"
        pointing._write_pgm(frame, path)
        assert path.read_bytes().startswith(b"P5\n48 48\n255\n")
        loaded = read_pgm(path)
        assert loaded.dtype == np.uint8
        np.testing.assert_array_equal(loaded, frame)

    def test_writer_thread_writes_the_bytes_of_write_pgm(self, tmp_path):
        frames = [two_spot_frame(x1=150.0 + i, noise=6.0, seed=3 + i) for i in range(37)]
        frames[5] = np.minimum(frames[5], 255).astype(np.uint8)
        before = threading.active_count()
        write_frames(tmp_path, frames)
        assert threading.active_count() == before
        assert sorted(frame_path(tmp_path, 0).parent.iterdir()) == [frame_path(tmp_path, i) for i in range(37)]
        for i, frame in enumerate(frames):
            pointing._write_pgm(frame, tmp_path / f"f{i}.pgm")
            assert frame_path(tmp_path, i).read_bytes() == (tmp_path / f"f{i}.pgm").read_bytes(), i
        assert frame_path(tmp_path, 5).read_bytes().startswith(b"P5\n96 96\n255\n")
        for i, loaded in enumerate(read_frames(tmp_path, 37)):
            assert loaded.dtype == frames[i].dtype
            np.testing.assert_array_equal(loaded, frames[i])

    @pytest.mark.parametrize("failing", [0, 5, 39])
    def test_failed_write_stops_the_writer_and_names_the_file(self, tmp_path, monkeypatch, failing):
        # one-frame batches and a one-batch queue: after the writer fails the
        # renderer must not wait on a full queue, and no thread may outlive the call
        real = pointing._write_pgm

        def write(values, path):
            if path == frame_path(tmp_path, failing):
                time.sleep(0.2)  # the renderer fills the queue and waits on it meanwhile
                raise OSError(28, "No space left on device")
            real(values, path)

        monkeypatch.setattr(pointing, "_write_pgm", write)
        monkeypatch.setattr(pointing, "WRITE_BATCH_FRAMES", 1)
        monkeypatch.setattr(pointing, "WRITE_QUEUE_BATCHES", 1)
        rendered = []

        def frames():
            for i in range(40):
                rendered.append(i)
                yield np.full((8, 8), i, dtype=np.uint16)

        before = threading.active_count()
        errors = []

        def run():
            try:
                write_frames(tmp_path, frames())
            except ConfigError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            caller = threading.Thread(target=run, daemon=True)
            caller.start()
            caller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive(), "the frame writer hung after a failed write"
        assert threading.active_count() == before
        assert len(errors) == 1
        assert f"{frame_path(tmp_path, failing)}: cannot write frame (No space left on device)" in str(errors[0])
        written = sorted(frame_path(tmp_path, 0).parent.iterdir())
        assert written == [frame_path(tmp_path, i) for i in range(failing)]
        assert len(rendered) <= min(40, failing + 4)  # rendering stops soon after the failure

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_header_comments_are_skipped(self, tmp_path, dtype):
        # a camera tool names itself after the magic number; the digits of a comment are not header fields
        frame = two_spot_frame(noise=5.0, seed=9, amp=180.0 if dtype == np.uint8 else 3000.0).astype(dtype)
        samples = np.ascontiguousarray(frame, dtype=frame.dtype.newbyteorder(">")).tobytes()
        maxval = np.iinfo(dtype).max
        path = frame_path(tmp_path, 0)
        path.parent.mkdir()
        path.write_bytes(b"P5\n# CREATOR: camera dump 2.1\n96 96\n# exposure 120 us, gain 4\n%d\n" % maxval + samples)
        for loaded in (read_pgm(path), *read_frames(tmp_path, 1)):
            assert loaded.dtype == dtype
            np.testing.assert_array_equal(loaded, frame)

    def test_malformed_or_truncated_frame_is_domain_error(self, tmp_path):
        frame = two_spot_frame(noise=5.0, seed=9)
        path = tmp_path / "frame.pgm"
        pointing._write_pgm(frame, path)
        good = path.read_bytes()
        for raw in (
            good[:-1],  # one byte short of the payload
            good[:20],  # payload missing
            b"P5\n96 96",  # header cut before maxval
            b"P5\n96 x6\n65535\n" + bytes(2 * 96 * 96),  # non-numeric field
            b"P5\n0 96\n65535\n",  # empty frame
            b"P5\n96 96\n70000\n" + bytes(2 * 96 * 96),  # maxval beyond 16 bit
        ):
            path.write_bytes(raw)
            with pytest.raises(DomainError):
                read_pgm(path)
        with pytest.raises(DomainError):
            read_pgm(tmp_path / "missing.pgm")
