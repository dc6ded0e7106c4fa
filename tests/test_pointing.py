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
    Frame,
    SpotTrackSeries,
    detect_spots,
    label_components,
    read_pgm,
    synth_frame,
    track_spots,
    track_stats,
    write_pgm,
    write_pgm_frames,
)

PITCH = 5e-6
# the analysis settings of the bundled config
FLIGHT = load_config()["flight"]
THRESHOLD, GATE, INNER = (FLIGHT[k] for k in ("threshold_fraction", "gate_pitch_factor", "inner_fraction"))


def two_spot_frame(x1=200.0, x2=260.0, y=240.0, noise=0.0, seed=0, amp=3000.0):
    spots = [
        {"x_um": x1, "y_um": y, "sigma_um": 12.0, "amplitude": amp},
        {"x_um": x2, "y_um": y, "sigma_um": 12.0, "amplitude": amp},
    ]
    return synth_frame(spots, shape=(96, 96), pixel_pitch=PITCH, background=40.0, noise=noise, seed=seed)


class TestSynthFrame:
    def test_peak_pixel_at_spot_center(self):
        frame = synth_frame(
            [{"x_um": 200.0, "y_um": 150.0, "sigma_um": 10.0, "amplitude": 1000.0}],
            shape=(80, 80),
            pixel_pitch=PITCH,
            background=40.0,
            noise=0.0,
        )
        iy, ix = np.unravel_index(np.argmax(frame.values), frame.values.shape)
        assert ix == 40 and iy == 30

    def test_rendered_separation_in_pixels(self):
        frame = two_spot_frame()
        dets, _ = detect_spots(frame, THRESHOLD)
        sep = abs(dets[0].centroid_um[0] - dets[1].centroid_um[0])
        assert sep == pytest.approx(60.0, abs=1.0)

    def test_seeded_determinism_byte_for_byte(self):
        a = two_spot_frame(noise=5.0, seed=42)
        b = two_spot_frame(noise=5.0, seed=42)
        assert a.values.tobytes() == b.values.tobytes()
        c = two_spot_frame(noise=5.0, seed=43)
        assert a.values.tobytes() != c.values.tobytes()

    def test_matches_two_dimensional_exponential_byte_for_byte(self):
        # the reference renders each spot as one 2-D exponential over the pixel grid
        rng = np.random.default_rng(7)
        yy, xx = np.mgrid[0:96, 0:96]
        for seed in range(40):
            spots = [
                {"x_um": rng.uniform(20, 460), "y_um": rng.uniform(20, 460), "sigma_um": rng.uniform(5, 20), "amplitude": 3000.0}
                for _ in range(2)
            ]
            img = np.full((96, 96), 40.0)
            for spot in spots:
                cx, cy = spot["x_um"] * 1e-6 / PITCH, spot["y_um"] * 1e-6 / PITCH
                sig = spot["sigma_um"] * 1e-6 / PITCH
                img += spot["amplitude"] * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig**2))
            img = img + np.random.default_rng(seed).normal(0.0, 6.0, size=img.shape)
            reference = np.clip(np.rint(img), 0, 65535).astype(np.uint16)
            frame = synth_frame(spots, shape=(96, 96), pixel_pitch=PITCH, background=40.0, noise=6.0, seed=seed)
            assert frame.values.tobytes() == reference.tobytes()

    def test_spot_outside_frame_rejected(self):
        with pytest.raises(DomainError):
            synth_frame(
                [{"x_um": 9000.0, "y_um": 0.0, "sigma_um": 5.0, "amplitude": 10.0}],
                shape=(64, 64),
                pixel_pitch=PITCH,
                background=40.0,
                noise=0.0,
            )


class TestDetectSpots:
    def test_uniform_square_centroid_exact(self):
        values = np.zeros((40, 40), dtype=np.uint16)
        values[10:20, 14:24] = 1000  # rows 10..19, cols 14..23
        frame = Frame(values=values, pixel_pitch=PITCH)
        dets, truncated = detect_spots(frame, 0.5, max_spots=1)
        assert not truncated
        cx, cy = dets[0].centroid_um
        assert cx == pytest.approx(18.5 * PITCH * 1e6, abs=1e-9)
        assert cy == pytest.approx(14.5 * PITCH * 1e9 * 1e-3, abs=1e-9)

    def test_subpixel_accuracy_at_high_snr(self):
        frame = synth_frame(
            [{"x_um": 201.7, "y_um": 148.2, "sigma_um": 12.0, "amplitude": 3000.0}],
            shape=(96, 96),
            pixel_pitch=PITCH,
            background=40.0,
            noise=3000.0 / 50,
            seed=11,
        )
        dets, _ = detect_spots(frame, THRESHOLD, max_spots=1)
        cx, cy = dets[0].centroid_um
        assert abs(cx - 201.7) < 0.1 * PITCH * 1e6
        assert abs(cy - 148.2) < 0.1 * PITCH * 1e6

    def test_two_spot_separation_within_micron(self):
        frame = two_spot_frame(noise=6.0, seed=3)
        dets, _ = detect_spots(frame, THRESHOLD)
        xs = sorted(d.centroid_um[0] for d in dets)
        assert xs[1] - xs[0] == pytest.approx(60.0, abs=1.0)

    def test_empty_result_below_threshold(self):
        values = np.zeros((32, 32), dtype=np.uint16)
        values[5, 5] = 10
        frame = Frame(values=values, pixel_pitch=PITCH)
        dets, truncated = detect_spots(frame, 0.9)
        assert len(dets) == 1  # the single bright pixel is its own component
        values2 = np.full((32, 32), 7, dtype=np.uint16)
        dets2, _ = detect_spots(Frame(values=values2, pixel_pitch=PITCH), 0.5)
        # flat frame: everything is one component, centroid at the center
        assert len(dets2) == 1
        # a blank frame has none (not one of total 0, whose centroid is 0/0)
        blank = Frame(values=np.zeros((32, 32), dtype=np.uint16), pixel_pitch=PITCH)
        assert detect_spots(blank, 0.5) == ([], False)

    def test_integer_shift_equivariance(self):
        frame = two_spot_frame(noise=6.0, seed=5)
        shifted = Frame(
            values=np.roll(frame.values, (3, 7), axis=(0, 1)), pixel_pitch=PITCH
        )
        d0, _ = detect_spots(frame, THRESHOLD)
        d1, _ = detect_spots(shifted, THRESHOLD)
        for a, b in zip(d0, d1):
            assert b.centroid_um[0] - a.centroid_um[0] == pytest.approx(7 * PITCH * 1e6, abs=1e-9)
            assert b.centroid_um[1] - a.centroid_um[1] == pytest.approx(3 * PITCH * 1e6, abs=1e-9)

    def test_intensity_scale_invariance(self):
        frame = two_spot_frame(noise=0.0, amp=800.0)
        scaled = Frame(values=(frame.values.astype(np.uint32) * 3).astype(np.uint16) if frame.values.max() * 3 < 65536 else frame.values, pixel_pitch=PITCH)
        d0, _ = detect_spots(frame, THRESHOLD)
        d1, _ = detect_spots(scaled, THRESHOLD)
        for a, b in zip(d0, d1):
            assert a.centroid_um == pytest.approx(b.centroid_um, abs=1e-9)

    def test_threshold_fraction_validated(self):
        frame = two_spot_frame()
        with pytest.raises(DomainError):
            detect_spots(frame, 1.5)


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


def constant_series(n=40, dt=1.0 / 24):
    ts = np.arange(n) * dt
    spots = np.tile(np.array([[100.0, 120.0], [160.0, 120.0]]), (n, 1, 1))
    phases = {
        "pre": (0.0, 0.5),
        "launch": (0.5, 0.8),
        "microgravity": (0.8, 1.4),
        "landing": (1.4, 1.6),
        "post": (1.6, 2.0),
    }
    return SpotTrackSeries(
        timestamps=ts,
        spots_um=spots,
        detected=np.ones((n, 2), dtype=bool),
        phase_boundaries=phases,
    )


class TestTrackStats:
    def test_constant_series_all_zero(self):
        report = track_stats(constant_series(), INNER)
        for phase in report["phases"].values():
            for stats in phase["displacement_um"].values():
                assert stats["max_abs"] == pytest.approx(0.0, abs=1e-12)
            assert phase["dc_interspot_um"]["max_abs"] == pytest.approx(0.0, abs=1e-12)
        micro_ac = report["phases"]["microgravity"]["ac_um"]["spot1"]
        assert micro_ac["max_abs"] == pytest.approx(0.0, abs=1e-12)

    def test_constructed_step_series_reports_exact_maxima(self):
        # 75 um excursion during launch, settled 12 um offset in microgravity
        series = constant_series(n=48)
        t = series.timestamps
        disp = np.zeros_like(t)
        launch = (t >= 0.5) & (t < 0.8)
        micro = (t >= 0.8) & (t < 1.4)
        disp[launch] = 75.0
        disp[micro] = 12.0
        series.spots_um[:, :, 0] += disp[:, None]
        report = track_stats(series, INNER)
        assert report["phases"]["launch"]["displacement_um"]["spot1_x"]["max_abs"] == pytest.approx(75.0)
        assert report["phases"]["microgravity"]["displacement_um"]["spot1_x"]["max_abs"] == pytest.approx(12.0)
        assert report["phases"]["microgravity"]["dc_interspot_um"]["max_abs"] == pytest.approx(0.0, abs=1e-12)

    def test_ac_invariant_under_global_offset(self):
        series_a = constant_series(n=48)
        rng = np.random.default_rng(2)
        jitter = rng.normal(0, 1.0, size=series_a.spots_um.shape)
        series_a.spots_um += jitter
        report_a = track_stats(series_a, INNER)
        series_b = constant_series(n=48)
        series_b.spots_um += jitter + 50.0  # constant offset of every position
        report_b = track_stats(series_b, INNER)
        for phase in report_a["phases"]:
            for spot in ("spot1", "spot2"):
                assert report_a["phases"][phase]["ac_um"][spot]["mean"] == pytest.approx(
                    report_b["phases"][phase]["ac_um"][spot]["mean"], rel=1e-12
                )

    def test_report_determinism(self):
        a = track_stats(constant_series(), INNER)
        b = track_stats(constant_series(), INNER)
        import json

        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_jitter_std_recovered(self):
        series = constant_series(n=200)
        series.phase_boundaries = {
            "pre": (0.0, 2.0),
            "microgravity": (2.0, 8.0),
        }
        rng = np.random.default_rng(30)
        micro = (series.timestamps >= 2.0) & (series.timestamps < 8.0)
        series.spots_um[micro, 1, 0] += rng.normal(0, 1.2, int(micro.sum()))
        report = track_stats(series, INNER)
        assert report["phases"]["microgravity"]["dc_interspot_um"]["std"] == pytest.approx(
            1.2, rel=0.10
        )

    def test_missing_detections_skipped(self):
        series = constant_series(n=40)
        series.detected[10:12, 0] = False
        report = track_stats(series, INNER)
        assert report["skipped_frames"] == 2

    def test_two_valid_frames_required(self):
        series = constant_series(n=5)
        series.detected[:, :] = False
        series.detected[0] = True
        with pytest.raises(DomainError):
            track_stats(series, INNER)


class TestTracking:
    def test_track_spots_keeps_identity(self):
        frames = [
            two_spot_frame(x1=200.0 + i, x2=262.0 + i, noise=4.0, seed=i)
            for i in range(8)
        ]
        for i, f in enumerate(frames):
            f.timestamp = i / 24
        series = track_spots(frames, THRESHOLD, GATE)
        assert np.all(series.detected)
        x1 = series.spots_um[:, 0, 0]
        assert np.all(np.diff(x1) > 0)  # spot 1 moves right monotonically

    def test_generator_and_list_give_identical_series(self):
        n = 2 * BLOCK_FRAMES + 5  # the last block is partial

        def frames():
            for i in range(n):
                frame = two_spot_frame(x1=200.0 + 0.1 * i, x2=262.0 + 0.2 * i, noise=4.0, seed=i)
                frame.timestamp = i / 24
                yield frame

        from_list = track_spots(list(frames()), THRESHOLD, GATE)
        from_generator = track_spots(frames(), THRESHOLD, GATE)
        assert from_list.spots_um.shape == (n, 2, 2) and np.all(from_list.detected)
        for name in ("timestamps", "spots_um", "detected"):
            assert getattr(from_list, name).tobytes() == getattr(from_generator, name).tobytes()
        # each frame is detected as it would be alone
        for i, frame in enumerate(frames()):
            dets, _ = detect_spots(frame, THRESHOLD)
            assert sorted(d.centroid_um for d in dets) == sorted(map(tuple, from_list.spots_um[i]))

    def test_frame_shape_may_change_mid_stream(self):
        small = synth_frame(
            [{"x_um": 100.0, "y_um": 100.0, "sigma_um": 10.0, "amplitude": 3000.0},
             {"x_um": 150.0, "y_um": 100.0, "sigma_um": 10.0, "amplitude": 3000.0}],
            shape=(48, 48),
            pixel_pitch=PITCH,
            background=40.0,
            noise=0.0,
        )
        frames = [two_spot_frame(), small, two_spot_frame()]
        for i, f in enumerate(frames):
            f.timestamp = float(i)
        series = track_spots(frames, THRESHOLD, gate_factor=1000.0)
        assert np.all(series.detected)
        for i, frame in enumerate(frames):
            dets, _ = detect_spots(frame, THRESHOLD)
            assert sorted(d.centroid_um for d in dets) == sorted(map(tuple, series.spots_um[i]))


class TestPgmIO:
    def test_round_trip_16_bit(self, tmp_path):
        frame = two_spot_frame(noise=5.0, seed=9)
        path = tmp_path / "frame.pgm"
        write_pgm(frame, path)
        loaded = read_pgm(path, PITCH)
        assert loaded.bit_depth == 16
        np.testing.assert_array_equal(loaded.values, frame.values)

    def test_round_trip_8_bit(self, tmp_path):
        frame = synth_frame(
            [{"x_um": 100.0, "y_um": 100.0, "sigma_um": 10.0, "amplitude": 180.0}],
            shape=(48, 48),
            pixel_pitch=PITCH,
            background=40.0,
            noise=0.0,
            bit_depth=8,
        )
        path = tmp_path / "frame8.pgm"
        write_pgm(frame, path)
        loaded = read_pgm(path, PITCH)
        assert loaded.bit_depth == 8
        np.testing.assert_array_equal(loaded.values, frame.values)

    def test_writer_thread_writes_the_bytes_of_write_pgm(self, tmp_path):
        frames = [two_spot_frame(x1=150.0 + i, noise=6.0, seed=3 + i) for i in range(37)]
        frames[5] = Frame(values=np.minimum(frames[5].values, 255).astype(np.uint8), pixel_pitch=PITCH, bit_depth=8)
        before = threading.active_count()
        write_pgm_frames(frames, (tmp_path / f"t{i}.pgm" for i in range(37)))
        assert threading.active_count() == before
        for i, frame in enumerate(frames):
            write_pgm(frame, tmp_path / f"f{i}.pgm")
            assert (tmp_path / f"t{i}.pgm").read_bytes() == (tmp_path / f"f{i}.pgm").read_bytes(), i
        assert (tmp_path / "t5.pgm").read_bytes().startswith(b"P5\n96 96\n255\n")

    @pytest.mark.parametrize("failing", [0, 5, 39])
    def test_failed_write_stops_the_writer_and_names_the_file(self, tmp_path, monkeypatch, failing):
        # one-frame batches and a one-batch queue: after the writer fails the
        # renderer must not wait on a full queue, and no thread may outlive the call
        real = pointing._write_pgm_file

        def write(frame, path):
            if path.name == f"f{failing}.pgm":
                time.sleep(0.2)  # the renderer fills the queue and waits on it meanwhile
                raise OSError(28, "No space left on device")
            real(frame, path)

        monkeypatch.setattr(pointing, "_write_pgm_file", write)
        monkeypatch.setattr(pointing, "WRITE_BATCH_FRAMES", 1)
        monkeypatch.setattr(pointing, "WRITE_QUEUE_BATCHES", 1)
        rendered = []

        def frames():
            for i in range(40):
                rendered.append(i)
                yield Frame(values=np.full((8, 8), i, dtype=np.uint16), pixel_pitch=PITCH)

        before = threading.active_count()
        errors = []

        def run():
            try:
                write_pgm_frames(frames(), (tmp_path / f"f{i}.pgm" for i in range(40)))
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
        assert f"f{failing}.pgm: cannot write frame (No space left on device)" in str(errors[0])
        written = sorted(int(p.stem[1:]) for p in tmp_path.iterdir())
        assert written == list(range(failing))
        assert len(rendered) <= min(40, failing + 4)  # rendering stops soon after the failure

    def test_malformed_or_truncated_frame_is_domain_error(self, tmp_path):
        frame = two_spot_frame(noise=5.0, seed=9)
        path = tmp_path / "frame.pgm"
        write_pgm(frame, path)
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
                read_pgm(path, PITCH)
        with pytest.raises(DomainError):
            read_pgm(tmp_path / "missing.pgm", PITCH)
