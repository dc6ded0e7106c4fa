import json

import numpy as np
import pytest

from codtsim.cli import main
from codtsim.config import (
    DEFAULT_CONFIG,
    beams_from_config,
    constants_from_config,
    layout_from_config,
    load_config,
)
from codtsim.constants import PhysicalConstants
from codtsim.errors import ConfigError, DomainError


class TestConfig:
    def test_defaults_validate_and_build(self):
        cfg = load_config()
        layout = layout_from_config(cfg)
        constants = constants_from_config(cfg)
        beams = beams_from_config(cfg)
        assert layout.focal_length == pytest.approx(60e-3)
        assert constants.gravity == 0.0
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
        ):
            path.write_text(json.dumps(bad))
            with pytest.raises(ConfigError, match=field):
                load_config(path)

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for bad, field in (
            ({"layout": {"focal_length_mm": -1}}, "layout.focal_length_mm"),
            ({"paint": {"grid_counts": [1, 0, 3]}}, "paint.grid_counts"),
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

    def test_user_file_merged_over_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"constants": {"gravity_m_s2": 9.81}}))
        cfg = load_config(path)
        assert cfg["constants"]["gravity_m_s2"] == 9.81
        assert cfg["layout"]["focal_length_mm"] == DEFAULT_CONFIG["layout"]["focal_length_mm"]


class TestCli:
    def test_trap_report_artifact(self, tmp_path):
        out = tmp_path / "run"
        assert main(["trap", "report", "--out", str(out)]) == 0
        report = json.loads((out / "trap_report.json").read_text())
        assert report["valid"]
        # depth lands at the 11.9 mK scale, both conventions present
        assert 5e3 < report["depth_peak_to_min_uK"] < 2e4
        assert report["depth_escape_saddle_uK"] <= report["depth_peak_to_min_uK"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "trap report"
        assert "config_sha256" in manifest and "versions" in manifest

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

    def test_config_error_exit_code_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        # the last two keys were removed: nothing read them
        for content in (
            {"nope": 1},
            {"layout": {"lens_diameter_mm": 75.0}},
            {"trap": {"n_phases": 256}},
        ):
            bad.write_text(json.dumps(content))
            assert main(["trap", "volume", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        for override in (
            "beams.power_w=NaN",
            "beams.power_w=Infinity",
            "beams.power_w=-Infinity",
            "paint.grid_counts=[1.5,3,3]",
            "paint.line_amplitude_um=370",
        ):
            assert main(["paint", "grid", "--out", str(tmp_path / "o"), "--set", override]) == 2

    def test_domain_error_exit_code_3(self, tmp_path):
        # grid spacing beyond the reachable range surfaces as a domain error
        code = main(
            [
                "paint",
                "transport",
                "--out",
                str(tmp_path / "o"),
                "--set",
                "paint.transport_end_um=[[0.0, 0.0, 5000.0]]",
            ]
        )
        assert code == 3

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

    def test_unknown_command_rejected(self, tmp_path):
        assert main(["trap", "nonsense", "--out", str(tmp_path / "o")]) == 2

    def test_reproducibility_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["tof", "fit", "--out", str(out), "--seed", "77"]) == 0
        assert (out1 / "tof_fit.json").read_bytes() == (out2 / "tof_fit.json").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_tof_expand_artifact(self, tmp_path):
        out = tmp_path / "tof"
        assert main(["tof", "expand", "--out", str(out)]) == 0
        rows = (out / "expansion.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t_ms,")
        assert len(rows) == 1 + len(DEFAULT_CONFIG["tof"]["times_ms"])

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

    def test_flight_analyze_centroid_bypass(self, tmp_path):
        out = tmp_path / "bypass"
        out.mkdir()
        meta = {
            "pixel_pitch_um": 5.0,
            "fps": 24.0,
            "threshold_fraction": 0.2,
            "inner_fraction": 0.75,
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
