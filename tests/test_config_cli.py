import csv
import json
import math

import numpy as np
import pytest

from codtsim.cli import main
from codtsim.config import (
    DEFAULT_CONFIG,
    SPEC,
    _validate,
    beams_from_config,
    constants_from_config,
    layout_from_config,
    load_config,
)
from codtsim.constants import PhysicalConstants
from codtsim.errors import ConfigError, DomainError
from codtsim.pointing import frame_path
from codtsim.trapchar import characterize_crossed_trap


class TestConfig:
    def test_defaults_validate_and_build(self):
        cfg = load_config()
        layout = layout_from_config(cfg)
        constants = constants_from_config(cfg)
        beams = beams_from_config(cfg)
        assert layout.focal_length == pytest.approx(60e-3)
        assert constants.gravity == 0.0
        # the library and the config share one set of defaults, gravity included
        assert constants == PhysicalConstants()
        assert beams[0].power == 10.0

    def test_unknown_key_reports_field_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"layout": {"focal_len_mm": 60}}))
        with pytest.raises(ConfigError, match="layout.focal_len_mm"):
            load_config(path)

    def test_type_error_reports_field_path(self, tmp_path):
        path = tmp_path / "bad.json"
        for bad, field in (
            ({"beams": {"power_w": "ten"}}, "beams.power_w"),
            ({"beams": {"power_w": float("nan")}}, "beams.power_w"),
            ({"beams": {"power_w": float("inf")}}, "beams.power_w"),
            ({"tof": {"times_ms": [0.0, float("-inf")]}}, "tof.times_ms"),
            ({"paint": {"grid_counts": [1.5, 3, 3]}}, "paint.grid_counts"),
            ({"paint": {"grid_counts": [3, 3]}}, "paint.grid_counts"),
            ({"paint": {"grid_spacing_um": [0.0, 480.0]}}, "paint.grid_spacing_um"),
            ({"paint": {"transport_end_um": [[330.0, 0.0]]}}, r"paint.transport_end_um\[0\]"),
            ({"layout": {"aod_aperture_mm": [7.5, 7.5, 7.5]}}, "layout.aod_aperture_mm"),
            ({"trap": {"field_dims": [96.0, 96, 96]}}, "trap.field_dims"),
            ({"flight": {"frame_shape": [96]}}, "flight.frame_shape"),
            ({"paint": {"objective": "bogus"}}, "paint.objective"),
            ({"paint": {"transport_profile": "bogus"}}, "paint.transport_profile"),
            ({"layout": {"deflection_mode": "bogus"}}, "layout.deflection_mode"),
        ):
            path.write_text(json.dumps(bad))
            with pytest.raises(ConfigError, match=field):
                load_config(path)

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for bad, field in (
            ({"layout": {"focal_length_mm": -1}}, "layout.focal_length_mm"),
            ({"paint": {"grid_counts": [1, 0, 3]}}, "paint.grid_counts"),
            # tof expand once hit a numpy warning, wrote negative radii or NaN aspect ratios
            ({"tof": {"frequencies_hz": [0, 35, 350]}}, "tof.frequencies_hz"),
            ({"tof": {"tf_radii_um": [-4, -14, -1.4]}}, "tof.tf_radii_um"),
            ({"tof": {"tf_radii_um": [0, 0, 0]}}, "tof.tf_radii_um"),
            # the detector thresholds at a fraction strictly inside (0, 1)
            ({"flight": {"threshold_fraction": 0}}, "flight.threshold_fraction"),
            ({"flight": {"threshold_fraction": 1}}, "flight.threshold_fraction"),
        ):
            path.write_text(json.dumps(bad))
            with pytest.raises(ConfigError, match=field):
                load_config(path)
        with pytest.raises(DomainError):
            PhysicalConstants(atom_mass=0.0)

    def test_set_override_dotted_path(self):
        cfg = load_config(overrides=["beams.power_w=5.5", "seed=99"])
        assert cfg["beams"]["power_w"] == 5.5
        assert cfg["seed"] == 99

    def test_set_override_unknown_path_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration"):
            load_config(overrides=["beams.powerw=5.5"])

    def test_defaults_pass_spec_validation(self):
        _validate(DEFAULT_CONFIG, SPEC)

    def test_set_object_merged_like_a_file(self):
        cfg = load_config(overrides=['evap={"hold_s":0.1}'])
        assert cfg["evap"] == {**DEFAULT_CONFIG["evap"], "hold_s": 0.1}
        cfg = load_config(overrides=['layout.calibration_um_per_mhz={"h1":90}'])
        assert cfg["layout"]["calibration_um_per_mhz"] == {"h1": 90, "v1": 86.0, "h2": 92.0, "v2": 86.0}

    def test_set_path_through_a_leaf_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(overrides=["seed.x=1"])

    def test_user_file_merged_over_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"constants": {"gravity_m_s2": 9.81}}))
        cfg = load_config(path)
        assert cfg["constants"]["gravity_m_s2"] == 9.81
        assert cfg["layout"]["focal_length_mm"] == DEFAULT_CONFIG["layout"]["focal_length_mm"]


# a flight_meta.json that flight analyze accepts; cases below spoil one key
_FLIGHT_META = {
    "pixel_pitch_um": 5.0,
    "fps": 24.0,
    "phase_boundaries_s": {"pre": [0.0, 1.0]},
    "n_frames": 1,
}


class TestWriteCsv:
    def test_header_follows_the_column_order(self, tmp_path):
        from codtsim.cli import write_csv

        path = tmp_path / "table.csv"
        write_csv(path, {"z": np.array([1.5, 2.0]), "a": [3, 4], "m": np.array(["x", ""])})
        assert path.read_bytes() == b"z,a,m\r\n1.5,3,x\r\n2,4,\r\n"

    def test_table_without_rows_is_an_empty_file(self, tmp_path):
        from codtsim.cli import write_csv

        path = tmp_path / "table.csv"
        write_csv(path, {"t_ms": np.zeros(0), "tf_rx_um": []})
        assert path.read_bytes() == b""

    def test_columns_of_unequal_length_raise(self, tmp_path):
        from codtsim.cli import write_csv

        with pytest.raises(ValueError):
            write_csv(tmp_path / "table.csv", {"a": [1, 2, 3], "b": np.array([1.0, 2.0])})


class TestCli:
    def test_trap_report_artifact(self, tmp_path):
        out = tmp_path / "run"
        assert main(["trap", "report", "--out", str(out)]) == 0
        report = json.loads((out / "trap_report.json").read_text())
        assert report["valid"] == 1
        # depth lands at the 11.9 mK scale, both conventions present
        assert 5e3 < report["depth_peak_to_min_uK"] < 2e4
        assert report["depth_uK"] <= report["depth_peak_to_min_uK"]
        # depth_uK is the escape-saddle depth, and the report names no other
        cfg = load_config()
        crossed = characterize_crossed_trap(constants_from_config(cfg), layout_from_config(cfg), beams_from_config(cfg))
        assert report["depth_uK"] == crossed.columns()["depth_uK"][0]
        assert not {"depth_escape_saddle_uK", "depth_convention", "minimum_position_um", "frequencies_hz"} & set(report)
        # how the minimum was found
        assert report["newton_iterations"] >= 1 and "seeds_tried" not in report
        assert 0 <= report["gradient_norm_uK_per_um"] < 1e-6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "trap report"
        assert "config_sha256" in manifest and "versions" in manifest

    def test_flat_potential_reported_invalid(self, tmp_path):
        out = tmp_path / "run"
        assert main(["trap", "report", "--out", str(out), "--set", "beams.power_w=0"]) == 0
        report = json.loads((out / "trap_report.json").read_text())
        assert report["valid"] == 0
        assert "curvature" in report["reason"]
        assert [report["f1_hz"], report["f2_hz"], report["f3_hz"]] == [0.0, 0.0, 0.0]

    def test_trap_volume_artifact(self, tmp_path):
        out = tmp_path / "vol"
        code = main(
            [
                "trap",
                "volume",
                "--out",
                str(out),
                "--set",
                "volume.h_half_range_mm=1.38",
                "--set",
                "volume.v_half_range_mm=1.32",
            ]
        )
        assert code == 0
        vol = json.loads((out / "volume.json").read_text())
        assert vol["vertical_span_mm"] == pytest.approx(2.64)
        assert vol["planar_area_mm2"] == pytest.approx(15.2, rel=0.01)

    def test_config_error_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # the last five keys were removed: nothing reads them
        for content in (
            {"nope": 1},
            {"layout": {"lens_diameter_mm": 75.0}},
            {"trap": {"n_phases": 256}},
            {"trap": {"fd_step_um": 0.2}},
            {"evap": {"timeline_phases": 128}},
            {"trap": {"depth_convention": "escape-saddle"}},
        ):
            bad.write_text(json.dumps(content))
            assert main(["trap", "volume", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        # a file that is not UTF-8, one with an integer past the int-string limit, and a directory
        bad.write_bytes(b"\xff\xfe{")
        assert main(["trap", "volume", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        bad.write_text('{"seed": ' + "1" * 5000 + "}")
        assert main(["trap", "volume", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert main(["trap", "volume", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        for override in (
            "beams.power_w=NaN",
            "beams.power_w=Infinity",
            "beams.power_w=-Infinity",
            "paint.grid_counts=[1.5,3,3]",
            "paint.line_amplitude_um=370",
            "trap.fd_step_um=0.2",
            "volume.n_grid=1",
            "beams.power_w=1" + "0" * 400,  # an int beyond the float range
            "beams.power_w=1" + "0" * 5000,  # past the int-string limit: read as a string
            "paint=[]",
        ):
            assert main(["paint", "grid", "--out", str(tmp_path / "o"), "--set", override]) == 2
        # enumerated strings are checked at load time, not when a command reads them
        for command, field in (
            ("paint compensate", "paint.objective"),
            ("paint transport", "paint.transport_profile"),
            ("trap volume", "layout.deflection_mode"),
        ):
            argv = command.split() + ["--out", str(tmp_path / "o"), "--set", f"{field}=bogus"]
            assert main(argv) == 2, field
            assert field in capsys.readouterr().err

    def test_wrong_array_length_exit_code_2(self, tmp_path, capsys):
        for command, override, field in (
            ("paint grid", "paint.grid_spacing_um=[0,480]", "paint.grid_spacing_um"),
            ("paint grid", "paint.grid_center_um=[0,0,0,0]", "paint.grid_center_um"),
            ("tof expand", "tof.frequencies_hz=[100,200]", "tof.frequencies_hz"),
            ("tof expand", "tof.tf_radii_um=[4]", "tof.tf_radii_um"),
            ("trap report", "trap.field_dims=[8.7,8,8]", "trap.field_dims"),
            ("trap volume", "layout.aod_aperture_mm=[7.5]", "layout.aod_aperture_mm"),
            ("flight synth", "flight.frame_shape=[96,96.5]", "flight.frame_shape"),
        ):
            argv = command.split() + ["--out", str(tmp_path / "o"), "--set", override]
            assert main(argv) == 2, override
            assert field in capsys.readouterr().err

    def test_unreadable_profile_csv_exit_code_2(self, tmp_path, capsys):
        garbled = tmp_path / "garbled.csv"
        garbled.write_text("position_um,counts\n1.0,many\n")
        for path in (tmp_path / "missing.csv", garbled):
            argv = ["tof", "fit", "--out", str(tmp_path / "o"), "--set", f"tof.profile_csv={path}"]
            assert main(argv) == 2
            assert "tof.profile_csv" in capsys.readouterr().err

    def test_truncated_frame_exit_code_3(self, tmp_path, capsys):
        out = tmp_path / "flight"
        frame_path(out, 0).parent.mkdir(parents=True)
        (out / "flight_meta.json").write_text(json.dumps(_FLIGHT_META))
        frame_path(out, 0).write_bytes(b"P5\n96 96\n65535\n" + bytes(100))
        assert main(["flight", "analyze", "--out", str(out), "--frames", str(out)]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_late_truncated_frame_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "flight"
        assert main(["flight", "synth", "--out", str(out)]) == 0
        frame = frame_path(out, 150)
        frame.write_bytes(frame.read_bytes()[:-1])
        assert main(["flight", "analyze", "--out", str(out), "--frames", str(out)]) == 3
        assert f"{frame}: truncated" in capsys.readouterr().err
        assert not (out / "flight_report.json").exists()
        assert not (out / "flight_series.csv").exists()

    def test_spot_leaving_the_frame_writes_no_frame(self, tmp_path, capsys, monkeypatch):
        # the launch excursion carries the spots out of the frame from frame 51
        # on; every spot is checked before the first frame is drawn
        from codtsim import cli

        drawn = []
        monkeypatch.setattr(cli, "synth_frame", lambda *args, **kwargs: drawn.append(args))
        out = tmp_path / "flight"
        assert main(["flight", "synth", "--out", str(out), "--set", "flight.launch_displacement_um=1000"]) == 3
        assert "outside the frame" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert drawn == []

    @pytest.mark.parametrize(
        "content, setting, message",
        [
            ('{"pixel_pitch_um": 5.0, "fps"', None, "cannot read"),  # cut short
            (json.dumps({"pixel_pitch_um": 5.0, "fps": 24.0, "n_frames": 1}), None, "phase_boundaries_s"),
            (json.dumps([1, 2]), None, "must be an object"),
            (json.dumps(_FLIGHT_META | {"fps": 0}), None, "fps"),
            (json.dumps(_FLIGHT_META | {"n_frames": "3"}), None, "n_frames"),
            (json.dumps(_FLIGHT_META | {"pixel_pitch_um": "5"}), None, "pixel_pitch_um"),
            # the analysis settings are the run's own, named by their field path
            (json.dumps(_FLIGHT_META), "flight.threshold_fraction=1.5", "flight.threshold_fraction"),
            (json.dumps(_FLIGHT_META), "flight.gate_pitch_factor=-1.0", "flight.gate_pitch_factor"),
            (json.dumps(_FLIGHT_META), "flight.inner_fraction=null", "flight.inner_fraction"),
            (json.dumps(_FLIGHT_META | {"phase_boundaries_s": [[0.0, 1.0]]}), None, "phase_boundaries_s"),
            (json.dumps(_FLIGHT_META | {"phase_boundaries_s": {"pre": [0.0]}}), None, "phase_boundaries_s.pre"),
        ],
        ids=[
            "truncated",
            "missing-key",
            "not-an-object",
            "zero-fps",
            "string-n_frames",
            "string-pixel_pitch",
            "threshold-above-1",
            "negative-gate",
            "null-inner_fraction",
            "boundaries-list",
            "boundary-one-number",
        ],
    )
    def test_broken_flight_meta_exit_code_2(self, tmp_path, capsys, content, setting, message):
        out = tmp_path / "flight"
        out.mkdir()
        meta_path = out / "flight_meta.json"
        meta_path.write_text(content)
        argv = ["flight", "analyze", "--out", str(out), "--frames", str(out)]
        assert main(argv + (["--set", setting] if setting else [])) == 2
        err = capsys.readouterr().err
        assert message in err
        # a bad setting is the config's fault, a bad recording the file's
        assert (str(meta_path) in err) == (setting is None)

    def test_flight_analyze_reads_its_own_inner_fraction(self, tmp_path):
        out = tmp_path / "flight"
        assert main(["flight", "synth", "--out", str(out)]) == 0
        argv = ["flight", "analyze", "--out", str(out), "--frames", str(out), "--set", "flight.inner_fraction=0.1"]
        assert main(argv) == 0
        report = json.loads((out / "flight_report.json").read_text())
        # microgravity spans 3-7 s, so a tenth of it centred is 4.8-5.2 s
        assert report["microgravity_inner"]["window_s"] == pytest.approx([4.8, 5.2])

    def test_flight_meta_settings_are_not_read(self, tmp_path):
        out = tmp_path / "flight"
        assert main(["flight", "synth", "--out", str(out)]) == 0
        meta_path = out / "flight_meta.json"
        meta = json.loads(meta_path.read_text())
        assert not {"threshold_fraction", "gate_pitch_factor", "inner_fraction"} & set(meta)
        argv = ["flight", "analyze", "--frames", str(out)]
        assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
        # a recording written when the metadata carried the settings, even bad ones
        legacy = meta | {"threshold_fraction": 1.5, "gate_pitch_factor": -1.0, "inner_fraction": 0.1}
        meta_path.write_text(json.dumps(legacy))
        assert main([*argv, "--out", str(tmp_path / "old")]) == 0
        fresh, old = ((tmp_path / run / "flight_report.json").read_bytes() for run in ("fresh", "old"))
        assert fresh == old
        assert json.loads(old)["microgravity_inner"]["window_s"] == pytest.approx([3.5, 6.5])

    def test_domain_error_exit_code_3(self, tmp_path, capsys):
        no_deflection = ['layout.deflection_mode="geometric"', "layout.aod_full_deflection_deg=0"]
        for command, overrides, message in (
            # a waypoint beyond the reachable range surfaces as a domain error
            ("paint transport", ["paint.transport_end_um=[[0.0, 0.0, 5000.0]]"], "unreachable"),
            ("paint grid", ["beams.power_w=0"], "central site"),
            # a paint on AODs that do not deflect once divided by zero
            ("evap timeline", no_deflection, "h1, whose AOD does not deflect"),
        ):
            out = tmp_path / command.replace(" ", "-")
            argv = command.split() + ["--out", str(out)] + [a for o in overrides for a in ("--set", o)]
            assert main(argv) == 3, overrides
            assert message in capsys.readouterr().err
            # the failure leaves no partial artifact (paint grid once left sites.csv)
            assert list(out.iterdir()) == [], overrides

    def test_failed_run_leaves_out_empty(self, tmp_path, capsys):
        # each of these once exited 1 with a traceback, trap.field_dims after writing trap_report.json
        for argv, code, field in (
            (["paint", "transport", "--set", "paint.transport_start_um=[]", "--set", "paint.transport_end_um=[]"],
             2, "paint.transport_start_um"),
            (["trap", "report", "--set", "layout.window_index=0.2"], 3, "window_index"),
            (["paint", "grid", "--set", "layout.window_index=0.2"], 3, "window_index"),
            (["trap", "report", "--set", "layout.focal_length_mm=10"], 3, "beam_separation"),
            (["trap", "report", "--set", "trap.save_field=true", "--set", "trap.field_dims=[2097152,2097152,2097152]"],
             3, "trap.field_dims"),
            (["tof", "fit", "--set", "seed=-3"], 2, "seed"),
            # the geometric map divides by the AOD range
            (["trap", "report", "--set", "layout.deflection_mode=geometric", "--set", "layout.aod_freq_range_mhz=0"],
             2, "layout.aod_freq_range_mhz"),
            (["flight", "synth", "--seed", "-3"], 2, "--seed"),
            (["evap", "timeline", "--set", "evap.timeline_samples=1" + "0" * 400], 2, "evap.timeline_samples"),
            # values whose SI form underflows or overflows the float range
            (["evap", "schedule", "--set", "evap.power_end_w=5e-324"], 3, "time constant"),
            # finite parts whose sum overflows: the sample times once read nan, then inf
            (["evap", "schedule", "--set", "evap.hold_s=1e308", "--set", "evap.reopen_duration_s=1e308"],
             3, "total schedule duration"),
            (["evap", "timeline", "--set", "evap.hold_s=1e308", "--set", "evap.reopen_duration_s=1e308"],
             3, "total schedule duration"),
            (["paint", "transport", "--set", "layout.focal_length_mm=5e-324", "--set", "layout.beam_separation_mm=5e-324"],
             3, "beam_separation"),
            (["trap", "report", "--set", "beams.collimated_radius_mm=1e-300"], 4, "paraxial"),
            (["trap", "report", "--set", "beams.wavelength_um=3e-114"], 4, "not finite"),
        ):
            out = tmp_path / "-".join(argv[:2])
            out.mkdir(exist_ok=True)
            assert main([*argv, "--out", str(out)]) == code, argv
            assert field in capsys.readouterr().err
            assert list(out.iterdir()) == [], argv

    def test_failed_rerun_leaves_earlier_run_untouched(self, tmp_path):
        out = tmp_path / "run"
        assert main(["trap", "report", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        argv = ["trap", "report", "--out", str(out), "--set", "trap.save_field=true"]
        assert main([*argv, "--set", "trap.field_dims=[2097152,2097152,2097152]"]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_flight_synth_rerun_is_byte_identical(self, tmp_path):
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(["flight", "synth", "--out", str(out), "--seed", "5", "--set", "flight.n_frames=37"]) == 0
        files = [{p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()} for out in runs]
        assert len([name for name in files[0] if name.startswith("frames/")]) == 37
        assert "manifest.json" in files[0]
        assert files[0] == files[1]

    @pytest.mark.parametrize("failing", [0, 12, 36])
    def test_failed_frame_write_exit_code_2(self, tmp_path, capsys, monkeypatch, failing):
        import threading

        from codtsim import pointing

        out = tmp_path / "flight"
        assert main(["flight", "synth", "--out", str(out), "--set", "flight.n_frames=24"]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        real = pointing._write_pgm
        name = frame_path(out, failing).name  # the run writes into a stage inside out

        def write(values, path):
            if path.name == name:
                raise OSError(28, "No space left on device")
            real(values, path)

        monkeypatch.setattr(pointing, "_write_pgm", write)
        threads = threading.active_count()
        codes = []
        argv = ["flight", "synth", "--out", str(out), "--seed", "3", "--set", "flight.n_frames=37"]
        caller = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "flight synth hung after a failed frame write"
        assert threading.active_count() == threads
        assert codes == [2]
        err = capsys.readouterr().err
        assert f"{name}: cannot write frame (No space left on device)" in err
        assert "Traceback" not in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_out_naming_a_file_is_a_config_error(self, tmp_path, capsys):
        # it once exited 1 with a FileExistsError traceback
        afile = tmp_path / "afile"
        afile.write_text("keep")
        for out in (afile, afile / "sub"):
            assert main(["trap", "volume", "--out", str(out)]) == 2
            assert "--out" in capsys.readouterr().err
        assert afile.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_unexpected_error_leaves_no_file(self, tmp_path, monkeypatch):
        from codtsim import cli

        def write_then_fail(cfg, out):
            (out / "schedule.json").write_text("{}")
            raise RuntimeError("late failure")

        monkeypatch.setitem(cli.COMMANDS, ("evap", "schedule"), write_then_fail)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="late failure"):
            main(["evap", "schedule", "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_rerun_replaces_frames_of_an_earlier_synth(self, tmp_path):
        # the second run merges its frames into the existing frames directory
        settings = ["--set", "flight.n_frames=24"]
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        assert main(["flight", "synth", "--out", str(fresh), "--seed", "2", *settings]) == 0
        assert main(["flight", "synth", "--out", str(rerun), "--seed", "1", *settings]) == 0
        assert main(["flight", "synth", "--out", str(rerun), "--seed", "2", *settings]) == 0

        def files(root):
            return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(rerun) == files(fresh)
        assert [p.name for p in rerun.iterdir() if p.name.startswith(".")] == []

    def test_calibrated_deflection_scales_are_the_config_constants(self, tmp_path):
        # the scales are the map at 1 MHz, also where 1 MHz lies outside the AOD range
        for name, settings in (("run", []), ("range-0.5", ["--set", "layout.aod_freq_range_mhz=0.5"])):
            out = tmp_path / name
            assert main(["trap", "report", "--out", str(out), *settings]) == 0
            report = json.loads((out / "trap_report.json").read_text())
            assert report["deflection_scales_um_per_mhz"] == DEFAULT_CONFIG["layout"]["calibration_um_per_mhz"]

    def test_partial_overrides_and_single_site_exit_code_0(self, tmp_path):
        argv = ["evap", "schedule", "--out", str(tmp_path / "sched"), "--set", 'evap={"hold_s":0.1}']
        assert main(argv) == 0
        argv = ["trap", "volume", "--out", str(tmp_path / "vol"), "--set", 'layout.calibration_um_per_mhz={"h1":90}']
        assert main(argv) == 0
        out = tmp_path / "grid"
        assert main(["paint", "grid", "--out", str(out), "--set", "paint.grid_counts=[1,1,1]"]) == 0
        summary = json.loads((out / "grid_summary.json").read_text())
        assert summary["frequency_spread"] == 0.0 and summary["depth_spread"] == 0.0
        # drives inside a 0.5 MHz range, and a geometric waypoint whose 1336.65 um
        # h1 displacement lies inside the 1336.75 um geometric range
        for command, settings in (
            ("paint grid", ["layout.aod_freq_range_mhz=0.5", "paint.grid_counts=[1,3,1]", "paint.grid_spacing_um=[0,30,0]"]),
            ("paint transport", ["layout.deflection_mode=geometric", "paint.transport_end_um=[[0,1383.8,0]]"]),
        ):
            argv = command.split() + ["--out", str(tmp_path / command.replace(" ", "-"))]
            assert main(argv + [a for o in settings for a in ("--set", o)]) == 0, settings

    def test_misalign_sweep_past_the_crossing_reads_zero(self, tmp_path):
        # from ~1.15 waists of offset the beams no longer cross: no trap, ratio 0
        out = tmp_path / "misalign"
        assert main(["trap", "misalign-sweep", "--out", str(out), "--set", "misalign.max_offset_um=20"]) == 0
        rows = np.loadtxt(out / "misalign_sweep.csv", delimiter=",", skiprows=1)
        far = np.abs(rows[:, 0]) >= 12
        np.testing.assert_array_equal(rows[:, 0], np.linspace(-20, 20, 11))
        assert np.all(rows[far, 1] == 0) and np.all(rows[~far, 1] > 0)

    def test_model_validity_error_exit_code_4(self, tmp_path):
        # an extreme off-axis slope drives a waist non-positive at the grid edge
        code = main(
            [
                "paint",
                "grid",
                "--out",
                str(tmp_path / "o"),
                "--set",
                "layout.off_axis_size_slope_per_mm=2.0",
                "--set",
                "paint.grid_counts=[1,3,1]",
                "--set",
                "paint.grid_spacing_um=[0.0,1400.0,0.0]",
            ]
        )
        assert code == 4

    def test_rayleigh_range_past_the_float_range_exit_code_4(self, tmp_path, capsys):
        # a subnormal wavelength keeps the 1 mm waists above lambda/2 while
        # pi w^2 / lambda overflows: a beam that never decays has no far
        # field to scan, so its escape scan exceeds the sample cap
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        settings = (
            "beams.wavelength_um=1e-309",
            "beams.collimated_radius_mm=1e-307",
            "layout.focal_length_mm=314159.2653589793",
            "layout.beam_separation_mm=162620.80214064088",
        )
        assert main(["trap", "report", "--out", str(out), *(a for s in settings for a in ("--set", s))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "longest Rayleigh range inf m" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_escape_scan_too_long_exit_code_4(self, tmp_path, capsys):
        # the off-axis slope drives beam 1's waist to 2e13 m against beam 2's
        # 1.1 mm: the near-field scan would take ~3.6e17 samples per ray
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        settings = (
            "beams.wavelength_um=1e-277",
            "beams.collimated_radius_mm=1e-280",
            "layout.focal_length_mm=3.141592653589793e16",
            "layout.beam_separation_mm=1.6262080214064088e16",
            "layout.off_axis_size_slope_per_mm=2.0705523608201655",
            "paint.grid_counts=[1,1,1]",
            "paint.grid_center_um=[0,-500,0]",
        )
        assert main(["paint", "grid", "--out", str(out), *(a for s in settings for a in ("--set", s))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "narrowest waist" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_unknown_command_rejected(self, tmp_path):
        assert main(["trap", "nonsense", "--out", str(tmp_path / "o")]) == 2

    def test_reproducibility_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["tof", "fit", "--out", str(out), "--seed", "77"]) == 0
            assert main(["trap", "report", "--out", str(out / "trap"), "--seed", "77"]) == 0
        for name in ("tof_fit.json", "manifest.json", "trap/trap_report.json", "trap/manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_tof_expand_artifact(self, tmp_path):
        out = tmp_path / "tof"
        assert main(["tof", "expand", "--out", str(out)]) == 0
        rows = (out / "expansion.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t_ms,")
        assert len(rows) == 1 + len(DEFAULT_CONFIG["tof"]["times_ms"])

    def test_tof_expand_at_zero_temperature(self, tmp_path, capsys):
        # no thermal cloud: widths 0 at every time and a nan (0/0) aspect, with nothing printed
        out = tmp_path / "tof"
        assert main(["tof", "expand", "--out", str(out), "--set", "tof.temperature_uK=0"]) == 0
        with (out / "expansion.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(DEFAULT_CONFIG["tof"]["times_ms"])
        for row in rows:
            assert [row[f"thermal_s{a}_um"] for a in "xyz"] == ["0", "0", "0"]
            assert row["thermal_aspect_zy"] == "nan" and float(row["tf_rx_um"]) > 0
        assert capsys.readouterr().err == ""

    def test_tof_expand_without_times_writes_an_empty_table(self, tmp_path):
        out = tmp_path / "tof"
        assert main(["tof", "expand", "--out", str(out), "--set", "tof.times_ms=[]"]) == 0
        assert (out / "expansion.csv").read_bytes() == b""

    def test_evap_schedule_artifact(self, tmp_path):
        out = tmp_path / "sched"
        assert main(["evap", "schedule", "--out", str(out)]) == 0
        sched = json.loads((out / "schedule.json").read_text())
        assert sched["power_tau_s"] == pytest.approx(0.181, abs=1e-3)

    def test_tof_fit_reads_profile_csv(self, tmp_path):
        from codtsim.evap import bimodal_profile

        x = np.linspace(-250, 250, 101)  # um
        counts = bimodal_profile(x * 1e-6, 500.0, 70e-6, 900.0, 40e-6, 0.0, 20.0)
        profile = tmp_path / "profile.csv"
        profile.write_text(
            "position_um,counts\n" + "\n".join(f"{a},{b}" for a, b in zip(x, counts))
        )
        out = tmp_path / "fit"
        code = main(
            ["tof", "fit", "--out", str(out), "--set", f"tof.profile_csv={profile}"]
        )
        assert code == 0
        fit = json.loads((out / "tof_fit.json").read_text())
        assert fit["tf_radius_um"] == pytest.approx(40.0, rel=0.02)
        assert fit["thermal_sigma_um"] == pytest.approx(70.0, rel=0.02)

    def test_paint_compensate_artifacts(self, tmp_path):
        out = tmp_path / "comp"
        assert main(["paint", "compensate", "--out", str(out)]) == 0
        summary = json.loads((out / "compensate.json").read_text())
        assert summary["converged"]
        assert summary["frequency_spread_before"] <= 0.05
        assert summary["frequency_spread_after"] <= 0.02
        assert (out / "sites_before.csv").exists()
        assert (out / "sites_after.csv").exists()

    def test_paint_compensate_equal_mean_frequency(self, tmp_path):
        # the other objective balances each site's geometric-mean frequency:
        # on the bundled 1x3x3 grid every site ends at the same 16,558.2839 Hz,
        # and the power weights stay at or below 1
        out = tmp_path / "comp"
        argv = ["paint", "compensate", "--out", str(out), "--set", "paint.objective=equal-mean-frequency"]
        assert main(argv) == 0
        summary = json.loads((out / "compensate.json").read_text())
        assert summary["converged"] and summary["objective"] == "equal-mean-frequency"
        with open(out / "sites_after.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 9 and all(row["valid"] == "1" for row in rows)
        assert {row["mean_frequency_hz"] for row in rows} == {"16558.2839"}
        assert np.mean(summary["weights"]) == pytest.approx(0.977, abs=5e-4)
        assert max(summary["weights"]) <= 1.0

    def test_flight_round_trip_constant_positions(self, tmp_path):
        out = tmp_path / "flight"
        args = [
            "--out",
            str(out),
            "--set",
            "flight.n_frames=72",
            "--set",
            "flight.launch_displacement_um=0",
            "--set",
            "flight.microgravity_offset_um=0",
            "--set",
            "flight.interspot_jitter_um=0",
            "--set",
            "flight.noise=0",
            "--set",
            'flight.phase_durations_s={"pre":0.5,"launch":0.5,"microgravity":1.0,"landing":0.5,"post":0.5}',
        ]
        assert main(["flight", "synth"] + args) == 0
        assert main(["flight", "analyze", "--out", str(out), "--frames", str(out)]) == 0
        report = json.loads((out / "flight_report.json").read_text())
        for phase in report["phases"].values():
            assert phase["dc_interspot_um"]["max_abs"] < 1e-6
            for stats in phase["displacement_um"].values():
                assert stats["max_abs"] < 1e-6

    def test_spot_missing_from_the_first_frame_is_tracked_from_the_next(self, tmp_path):
        # spot 2 once stayed untracked for the whole flight, and the run exited 3
        from codtsim import pointing

        out = tmp_path / "flight"
        assert main(["flight", "synth", "--out", str(out)]) == 0
        first = frame_path(out, 0)
        values = pointing.read_pgm(first)
        values[:, values.shape[1] // 2 :] = 0  # blank the right half, where spot 2 lies
        pointing._write_pgm(values, first)
        assert main(["flight", "analyze", "--out", str(out), "--frames", str(out)]) == 0
        report = json.loads((out / "flight_report.json").read_text())
        assert report["skipped_frames"] == 1
        phases = report["phases"]
        assert phases["launch"]["displacement_um"]["spot1_x"]["max_abs"] == pytest.approx(75.0, rel=0.10)
        assert phases["microgravity"]["displacement_um"]["spot1_x"]["mean"] == pytest.approx(12.0, rel=0.10)
        assert phases["microgravity"]["dc_interspot_um"]["std"] == pytest.approx(1.2, rel=0.10)

    def test_bad_flight_inputs_print_no_numpy_warning(self, tmp_path, capsys):
        import warnings

        from codtsim import pointing

        frames = tmp_path / "frames"
        assert main(["flight", "synth", "--out", str(frames), "--set", "flight.n_frames=24"]) == 0
        for i in (0, 10):  # a blank first frame once lost spot 1 to a NaN centroid
            pointing._write_pgm(np.zeros((96, 96), dtype=np.uint16), frame_path(frames, i))
        centroids = tmp_path / "centroids.csv"
        centroids.write_text("t_s,x1_um,y1_um,x2_um,y2_um\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["flight", "analyze", "--out", str(tmp_path / "a"), "--frames", str(frames)]) == 0
            report = json.loads((tmp_path / "a" / "flight_report.json").read_text())
            assert report["skipped_frames"] == 2
            argv = ["flight", "analyze", "--out", str(tmp_path / "b"), "--frames", str(frames)]
            assert main([*argv, "--centroids", str(centroids)]) == 2
            assert "--centroids" in capsys.readouterr().err
            argv = ["tof", "fit", "--out", str(tmp_path / "c"), "--set", f'tof.profile_csv="{centroids}"']
            assert main(argv) == 2
        assert capsys.readouterr().err == f"error: tof.profile_csv: {centroids} has no data rows\n"

    @pytest.mark.parametrize("where, value", [("counts", "nan"), ("counts", "inf"), ("position", "nan")])
    def test_tof_fit_non_finite_profile_is_a_domain_error(self, tmp_path, capsys, where, value):
        from codtsim.evap import bimodal_profile

        x = np.linspace(-200, 200, 41)  # um
        counts = bimodal_profile(x * 1e-6, 500.0, 70e-6, 900.0, 40e-6, 0.0, 20.0)
        rows = [[f"{a}", f"{b}"] for a, b in zip(x, counts)]
        rows[20][0 if where == "position" else 1] = value
        profile = tmp_path / "profile.csv"
        profile.write_text("position_um,counts\n" + "\n".join(",".join(row) for row in rows))
        argv = ["tof", "fit", "--out", str(tmp_path / "fit"), "--set", f"tof.profile_csv={profile}"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: positions and counts must be finite\n"
        assert not (tmp_path / "fit" / "tof_fit.json").exists()

    def test_tof_fit_of_a_flat_profile_with_one_low_sample_is_a_domain_error(self, tmp_path, capsys):
        # the 5th percentile is the maximum, so the start centre and width are 0/0:
        # scipy once raised "Initial guess is outside of provided bounds"
        profile = tmp_path / "profile.csv"
        rows = [f"{x},{0 if x == 12 else 1000}" for x in range(25)]
        profile.write_text("position_um,counts\n" + "\n".join(rows))
        out = tmp_path / "fit"
        out.mkdir()
        assert main(["tof", "fit", "--out", str(out), "--set", f"tof.profile_csv={profile}"]) == 3
        assert capsys.readouterr().err == "error: degenerate profile width\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("setting", ["tof.times_ms=[1e300]", "tof.frequencies_hz=[1e-300,1,1]"])
    def test_tof_expand_widths_past_the_range_of_their_squares(self, tmp_path, capsys, setting):
        # sigma(0)^2 + (kB T/m) t^2 and the Castin-Dum product once overflowed with numpy
        # warnings and wrote inf thermal widths
        import warnings

        out = tmp_path / "tof"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tof", "expand", "--out", str(out), "--set", setting]) == 0
        with (out / "expansion.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.values())
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_centroid_row_with_a_non_finite_time_is_a_domain_error(self, tmp_path, capsys, value):
        out = tmp_path / "bypass"
        out.mkdir()
        meta = {"phase_boundaries_s": {"pre": [0.0, 0.5], "microgravity": [0.5, 1.5]}}
        (out / "flight_meta.json").write_text(json.dumps(meta))
        rows = ["t_s,x1_um,y1_um,x2_um,y2_um"]
        rows += [f"{value if i == 35 else i / 24.0},100.0,120.0,160.0,120.0" for i in range(36)]
        centroids = out / "centroids.csv"
        centroids.write_text("\n".join(rows))
        argv = ["flight", "analyze", "--out", str(out), "--frames", str(out), "--centroids", str(centroids)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: timestamps must be finite and strictly increasing\n"
        assert not (out / "flight_report.json").exists()

    def test_flight_analyze_centroid_bypass(self, tmp_path):
        out = tmp_path / "bypass"
        out.mkdir()
        meta = {
            "pixel_pitch_um": 5.0,
            "fps": 24.0,
            "phase_boundaries_s": {"pre": [0.0, 0.5], "microgravity": [0.5, 1.5]},
            "n_frames": 36,
        }
        (out / "flight_meta.json").write_text(json.dumps(meta))
        ts = np.arange(36) / 24.0
        rows = ["t_s,x1_um,y1_um,x2_um,y2_um"]
        for t in ts:
            rows.append(f"{t},100.0,120.0,160.0,120.0")
        centroids = out / "centroids.csv"
        centroids.write_text("\n".join(rows))
        code = main(
            [
                "flight",
                "analyze",
                "--out",
                str(out),
                "--frames",
                str(out),
                "--centroids",
                str(centroids),
            ]
        )
        assert code == 0
        report = json.loads((out / "flight_report.json").read_text())
        assert report["phases"]["microgravity"]["dc_interspot_um"]["max_abs"] == 0.0

    def test_centroid_row_with_a_nan_coordinate_is_a_skipped_frame(self, tmp_path):
        # every CSV row once counted as a frame with both spots found
        out = tmp_path / "bypass"
        out.mkdir()
        meta = {"phase_boundaries_s": {"pre": [0.0, 0.5], "microgravity": [0.5, 1.5]}}
        (out / "flight_meta.json").write_text(json.dumps(meta))
        rows = ["t_s,x1_um,y1_um,x2_um,y2_um"]
        for i in range(36):
            rows.append(f"{i / 24.0},100.0,120.0,{'nan' if i == 20 else 160.0},120.0")
        centroids = out / "centroids.csv"
        centroids.write_text("\n".join(rows))
        argv = ["flight", "analyze", "--out", str(out), "--frames", str(out), "--centroids", str(centroids)]
        assert main(argv) == 0
        report = json.loads((out / "flight_report.json").read_text())
        assert report["skipped_frames"] == 1
        assert report["phases"]["microgravity"]["dc_interspot_um"]["n"] == 23

    def test_evap_timeline_open_row_keeps_every_column(self, tmp_path):
        # gravity opens the 1 mW reopened trap: that row is reported invalid,
        # with its reason, in the same columns as the valid rows
        out = tmp_path / "timeline"
        argv = ["evap", "timeline", "--out", str(out)]
        for override in ("constants.gravity_m_s2=9.81", "evap.timeline_samples=3", "evap.reopen_power_w=0.001"):
            argv += ["--set", override]
        assert main(argv) == 0
        with (out / "timeline.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 3 and all(len(row) == len(header) for row in rows)
        assert "depth_uK" in header and "reason" in header
        reopened = dict(zip(header, rows[-1]))
        assert reopened["valid"] == "0" and reopened["depth_uK"] == "0"
        assert reopened["reason"] != ""

    def test_evap_timeline_wide_paint_is_converged(self, tmp_path):
        # a 740 um paint derives 512 phases; at the paint's 128 knots it was a
        # comb of wells reading 192.94 uK.  121.666 uK is the depth at 2,048 phases.
        out = tmp_path / "timeline"
        argv = ["evap", "timeline", "--out", str(out)]
        for override in ("evap.amplitude_start_um=740", "evap.timeline_samples=1"):
            argv += ["--set", override]
        assert main(argv) == 0
        with (out / "timeline.csv").open(newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["t_s"] == "0" and row["amplitude_h_um"] == "740" and row["valid"] == "1"
        assert float(row["depth_uK"]) == pytest.approx(121.666, rel=1e-4)

    def test_evap_timeline_wide_paint_at_1g(self, tmp_path):
        # from the origin a 1 mm paint's report sits on its central ridge with
        # an escape depth of 0; the timeline seeds it again at the sweep start
        out = tmp_path / "timeline"
        argv = ["evap", "timeline", "--out", str(out)]
        for override in ("evap.amplitude_start_um=1000", "constants.gravity_m_s2=9.81", "evap.timeline_samples=3"):
            argv += ["--set", override]
        assert main(argv) == 0
        with (out / "timeline.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 and all(row["valid"] == "1" for row in rows)
        assert rows[0]["amplitude_h_um"] == "1000"
        assert float(rows[0]["depth_uK"]) == pytest.approx(88.92, rel=1e-3)

    def test_paint_grid_sites_sag_at_1g(self, tmp_path):
        # each site is seeded at its crossing, and gravity pulls its minimum below it
        out = tmp_path / "grid"
        assert main(["paint", "grid", "--out", str(out), "--set", "constants.gravity_m_s2=9.81"]) == 0
        with (out / "sites.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9 and all(row["valid"] == "1" for row in rows)
        for row in rows:
            assert [row[f"seed_{a}_um"] for a in "xyz"] == [row[f"{a}_um"] for a in "xyz"]
            assert float(row["min_z_um"]) < float(row["z_um"])

    def test_paint_grid_waveform_artifact(self, tmp_path):
        out = tmp_path / "grid"
        assert main(["paint", "grid", "--out", str(out)]) == 0
        wf = json.loads((out / "grid_waveform.json").read_text())
        assert wf["period_s"] == 0.001 and wf["interpolation"] == "linear"
        channels = wf["channels"]
        assert all(channels[ch]["t_s"] == channels["h1"]["t_s"] for ch in ("v1", "h2", "v2"))
        # each site's dwell opens its segment of 7 knots (hold start and end, 5 ramp steps)
        sites = [(j, k) for j in range(3) for k in range(3)]
        assert len(channels["h1"]["t_s"]) == 7 * len(sites)
        cos15 = math.cos(math.radians(15.0))
        for n, (j, k) in enumerate(sites):
            y, z = (j - 1) * 480.0, (k - 1) * 480.0
            for knot in (7 * n, 7 * n + 1):
                assert channels["h1"]["freq_offset_mhz"][knot] == pytest.approx(y * cos15 / 92.0, rel=1e-12)
                assert channels["v1"]["freq_offset_mhz"][knot] == pytest.approx(z / 86.0, rel=1e-12)

    def test_paint_transport_waveform_artifact(self, tmp_path):
        from codtsim.painting import minimum_jerk

        out = tmp_path / "transport"
        assert main(["paint", "transport", "--out", str(out)]) == 0
        steps = json.loads((out / "transport_waveforms.json").read_text())["steps"]
        assert len(steps) == 21 and all(s["interpolation"] == "hold" for s in steps)
        fractions = minimum_jerk(np.linspace(0.0, 1.0, 21))
        sin15 = math.sin(math.radians(15.0))
        for step, s in zip(steps, fractions):
            (h1,) = step["channels"]["h1"]["freq_offset_mhz"]
            (h2,) = step["channels"]["h2"]["freq_offset_mhz"]
            assert h1 == pytest.approx(-330.0 * sin15 / 92.0 * s, rel=1e-12, abs=1e-15)
            assert h2 == pytest.approx(-h1, rel=1e-12, abs=1e-15)

    def test_trap_report_field_artifact(self, tmp_path):
        out = tmp_path / "field"
        argv = ["trap", "report", "--out", str(out), "--set", "trap.save_field=true"]
        assert main(argv + ["--set", "trap.field_dims=[21,21,21]"]) == 0
        header = json.loads((out / "trap_field.json").read_text())
        axes = np.array(header["axes_m"])
        np.testing.assert_array_equal(axes, np.diag(np.diag(axes)))
        # centred on the crossing, at least 4 focal waists (10.4 um) on every side
        half = 0.5 * (np.array(header["dims"]) - 1) * np.diag(axes)
        np.testing.assert_allclose(header["origin_m"], -half, rtol=1e-12)
        assert np.all(half >= 4 * 10.4e-6)
        values = np.fromfile(out / header["data_file"], dtype=header["dtype"]).reshape(header["dims"])
        deepest = np.array(header["origin_m"]) + np.array(np.unravel_index(np.argmin(values), values.shape)) @ axes
        report = json.loads((out / "trap_report.json").read_text())
        minimum = np.array([report["min_x_um"], report["min_y_um"], report["min_z_um"]]) * 1e-6
        assert np.linalg.norm(deepest - minimum) <= np.max(np.diag(axes))


# one small run per subcommand; flight analyze reads the frames of a flight synth run
SMALL_RUNS = {
    "trap report": [],
    "trap volume": [],
    "trap misalign-sweep": ["misalign.n_steps=3"],
    "paint grid": [],
    "paint compensate": ["paint.grid_counts=[1,1,3]", "paint.grid_spacing_um=[0,0,300]"],
    "paint transport": ["paint.transport_steps=3"],
    "evap schedule": [],
    "evap timeline": ["evap.timeline_samples=3"],
    "tof expand": [],
    "tof fit": [],
    "flight synth": ["flight.n_frames=24"],
    "flight analyze": ["flight.n_frames=24"],
}


def _run_subcommand(command, overrides, tmp_path):
    """Run ``command`` with ``overrides`` into ``tmp_path / "out"``, which it returns."""
    settings = [arg for override in overrides for arg in ("--set", override)]
    extra = []
    if command == "flight analyze":
        frames = tmp_path / "frames"
        assert main(["flight", "synth", "--out", str(frames), *settings]) == 0
        extra = ["--frames", str(frames)]
    out = tmp_path / "out"
    assert main([*command.split(), "--out", str(out), *settings, *extra]) == 0
    return out


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_every_subcommand_writes_exactly_its_artifacts(command, tmp_path):
    from codtsim.cli import COMMANDS

    assert len(SMALL_RUNS) == len(COMMANDS)
    out = _run_subcommand(command, SMALL_RUNS[command], tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == sorted(manifest["artifacts"] + ["manifest.json"])
    assert list(out.glob(".partial-*")) == []


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_every_subcommand_runs_at_1g(command, tmp_path):
    # ground/flight parity: the bundled config at lab gravity, fewer frames only
    out = _run_subcommand(command, ["constants.gravity_m_s2=9.81", "flight.n_frames=24"], tmp_path)
    assert json.loads((out / "manifest.json").read_text())["command"] == command


@pytest.mark.parametrize("command", sorted(set(SMALL_RUNS) - {"flight analyze"}))
def test_frames_and_centroids_refused_outside_flight_analyze(command, tmp_path, capsys):
    out = tmp_path / "out"
    for flag in ("--frames", "--centroids"):
        assert main([*command.split(), "--out", str(out), flag, str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err == f"error: {flag}: only flight analyze reads it, not {command}\n"
    assert not out.exists()
