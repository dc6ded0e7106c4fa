"""Run configuration: schema-validated JSON with unit-suffixed keys.

User files are deep-merged over the documented defaults; dotted-path
overrides (``--set section.key=value``) apply last.  Validation errors carry
the full field path.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .constants import ATOMIC_POLARIZABILITY_SI, RB87_MASS_KG, RB87_POLARIZABILITY_AU, PhysicalConstants
from .errors import ConfigError
from .optics import DEFAULT_CALIBRATION_UM_PER_MHZ, InputBeam, OpticalLayout

DEFAULT_CONFIG: dict = {
    "seed": 13,
    "layout": {
        "focal_length_mm": 60.0,
        "beam_separation_mm": 30.0,
        "crossing_full_angle_deg": 30.0,
        "window_thickness_mm": 10.0,
        "window_index": 1.45,
        "window_tilt_deg": None,  # null -> half the crossing angle
        "aod_freq_range_mhz": 15.0,
        "aod_full_deflection_deg": 1.4,
        "aod_aperture_mm": [7.5, 7.5],
        "power_throughput": 0.75,
        "calibration_um_per_mhz": dict(DEFAULT_CALIBRATION_UM_PER_MHZ),
        "off_axis_size_slope_per_mm": 0.165,
        "deflection_mode": "calibrated",
    },
    "constants": {
        "atom_mass_kg": RB87_MASS_KG,
        "polarizability_au": RB87_POLARIZABILITY_AU,
        "gravity_m_s2": 0.0,
    },
    "beams": {
        "power_w": 10.0,
        "wavelength_um": 1.064,
        "collimated_radius_mm": 1.95,
    },
    "trap": {
        "depth_convention": "escape-saddle",
        "fd_step_um": None,  # null -> waist / 50
        "field_dims": [96, 96, 96],
        "save_field": False,
    },
    "paint": {
        "grid_counts": [1, 3, 3],
        "grid_spacing_um": [0.0, 480.0, 480.0],
        "grid_center_um": [0.0, 0.0, 0.0],
        "objective": "equal-depth",
        "transport_start_um": [[0.0, 0.0, 0.0]],
        "transport_end_um": [[330.0, 0.0, 0.0]],
        "transport_duration_s": 0.1,
        "transport_steps": 21,
        "transport_profile": "minimum-jerk",
    },
    "misalign": {"max_offset_um": 10.0, "n_steps": 11},
    "volume": {"h_half_range_mm": None, "v_half_range_mm": None, "n_grid": 61},
    "evap": {
        "power_start_w": 10.0,
        "power_end_w": 0.04,
        "power_duration_s": 1.0,
        "amplitude_start_um": 230.0,
        "amplitude_end_um": 0.0,
        "amplitude_duration_s": 1.0,
        "amplitude_tau_s": 0.2,
        "hold_s": 0.3,
        "reopen_amplitude_um": 70.0,
        "reopen_power_w": 5.0,
        "reopen_duration_s": 0.2,
        "timeline_samples": 25,
        "timeline_phases": 128,
    },
    "tof": {
        "frequencies_hz": [120.0, 35.0, 350.0],
        "tf_radii_um": [4.0, 14.0, 1.4],
        "temperature_uK": 0.05,
        "times_ms": [0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0],
        "profile_csv": None,
    },
    "flight": {
        "n_frames": 240,
        "fps": 24.0,
        "frame_shape": [96, 96],
        "pixel_pitch_um": 5.0,
        "spot_separation_um": 60.0,
        "spot_sigma_um": 12.0,
        "spot_amplitude": 3000.0,
        "background": 40.0,
        "noise": 6.0,
        "threshold_fraction": 0.2,
        "launch_displacement_um": 75.0,
        "microgravity_offset_um": 12.0,
        "interspot_jitter_um": 1.2,
        "gate_pitch_factor": 10.0,
        "phase_durations_s": {"pre": 2.0, "launch": 1.0, "microgravity": 4.0, "landing": 1.0, "post": 2.0},
        "inner_fraction": 0.75,
    },
}

_NUMBER = (int, float)


def _is_number(value) -> bool:
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _check(value, spec, path):
    kind = spec[0]
    if value is None:
        if "nullable" in spec:
            return
        raise ConfigError(f"{path}: must not be null")
    if kind == "number":
        if not _is_number(value):
            raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite")
        if "positive" in spec and value <= 0:
            raise ConfigError(f"{path}: must be > 0")
        if "nonnegative" in spec and value < 0:
            raise ConfigError(f"{path}: must be >= 0")
        if "unit" in spec and not 0.0 <= value <= 1.0:
            raise ConfigError(f"{path}: must lie in [0, 1]")
    elif kind == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected an integer")
        if "positive" in spec and value <= 0:
            raise ConfigError(f"{path}: must be > 0")
    elif kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
    elif kind == "boolean":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
    elif kind == "numarray":
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise ConfigError(f"{path}: expected an array of numbers")
        if not all(math.isfinite(v) for v in value):
            raise ConfigError(f"{path}: entries must be finite")
    elif kind == "counts":
        if not isinstance(value, list) or len(value) != spec[1] or not all(
            isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value
        ):
            raise ConfigError(f"{path}: expected {spec[1]} positive integers")
    else:  # pragma: no cover - schema bug
        raise ConfigError(f"{path}: unknown schema kind {kind}")


SCHEMA: dict = {
    "seed": ("integer",),
    "layout": {
        "focal_length_mm": ("number", "positive"),
        "beam_separation_mm": ("number", "positive"),
        "crossing_full_angle_deg": ("number", "positive"),
        "window_thickness_mm": ("number", "nonnegative"),
        "window_index": ("number", "positive"),
        "window_tilt_deg": ("number", "nullable", "nonnegative"),
        "aod_freq_range_mhz": ("number", "nonnegative"),
        "aod_full_deflection_deg": ("number", "nonnegative"),
        "aod_aperture_mm": ("numarray",),
        "power_throughput": ("number", "unit"),
        "calibration_um_per_mhz": {
            "h1": ("number", "positive"),
            "v1": ("number", "positive"),
            "h2": ("number", "positive"),
            "v2": ("number", "positive"),
        },
        "off_axis_size_slope_per_mm": ("number", "nonnegative"),
        "deflection_mode": ("string",),
    },
    "constants": {
        "atom_mass_kg": ("number", "positive"),
        "polarizability_au": ("number", "positive"),
        "gravity_m_s2": ("number", "nonnegative"),
    },
    "beams": {
        "power_w": ("number", "nonnegative"),
        "wavelength_um": ("number", "positive"),
        "collimated_radius_mm": ("number", "positive"),
    },
    "trap": {
        "depth_convention": ("string",),
        "fd_step_um": ("number", "nullable", "positive"),
        "field_dims": ("numarray",),
        "save_field": ("boolean",),
    },
    "paint": {
        "grid_counts": ("counts", 3),
        "grid_spacing_um": ("numarray",),
        "grid_center_um": ("numarray",),
        "objective": ("string",),
        "transport_start_um": ("numarray", "nested"),
        "transport_end_um": ("numarray", "nested"),
        "transport_duration_s": ("number", "positive"),
        "transport_steps": ("integer", "positive"),
        "transport_profile": ("string",),
    },
    "misalign": {"max_offset_um": ("number", "positive"), "n_steps": ("integer", "positive")},
    "volume": {
        "h_half_range_mm": ("number", "nullable", "nonnegative"),
        "v_half_range_mm": ("number", "nullable", "nonnegative"),
        "n_grid": ("integer", "positive"),
    },
    "evap": {
        "power_start_w": ("number", "positive"),
        "power_end_w": ("number", "positive"),
        "power_duration_s": ("number", "positive"),
        "amplitude_start_um": ("number", "nonnegative"),
        "amplitude_end_um": ("number", "nonnegative"),
        "amplitude_duration_s": ("number", "positive"),
        "amplitude_tau_s": ("number", "positive"),
        "hold_s": ("number", "nonnegative"),
        "reopen_amplitude_um": ("number", "nonnegative"),
        "reopen_power_w": ("number", "positive"),
        "reopen_duration_s": ("number", "nonnegative"),
        "timeline_samples": ("integer", "positive"),
        "timeline_phases": ("integer", "positive"),
    },
    "tof": {
        "frequencies_hz": ("numarray",),
        "tf_radii_um": ("numarray",),
        "temperature_uK": ("number", "nonnegative"),
        "times_ms": ("numarray",),
        "profile_csv": ("string", "nullable"),
    },
    "flight": {
        "n_frames": ("integer", "positive"),
        "fps": ("number", "positive"),
        "frame_shape": ("numarray",),
        "pixel_pitch_um": ("number", "positive"),
        "spot_separation_um": ("number", "positive"),
        "spot_sigma_um": ("number", "positive"),
        "spot_amplitude": ("number", "positive"),
        "background": ("number", "nonnegative"),
        "noise": ("number", "nonnegative"),
        "threshold_fraction": ("number", "unit"),
        "launch_displacement_um": ("number", "nonnegative"),
        "microgravity_offset_um": ("number", "nonnegative"),
        "interspot_jitter_um": ("number", "nonnegative"),
        "gate_pitch_factor": ("number", "positive"),
        "phase_durations_s": {
            "pre": ("number", "positive"),
            "launch": ("number", "positive"),
            "microgravity": ("number", "positive"),
            "landing": ("number", "positive"),
            "post": ("number", "positive"),
        },
        "inner_fraction": ("number", "unit"),
    },
}


def _validate(data, schema, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"{here}: unknown configuration key")
        spec = schema[key]
        if isinstance(spec, dict):
            _validate(value, spec, here)
        elif spec[0] == "numarray" and "nested" in spec:
            if not isinstance(value, list):
                raise ConfigError(f"{here}: expected an array")
            for i, row in enumerate(value):
                _check(row, ("numarray",), f"{here}[{i}]")
        else:
            _check(value, spec, here)


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None, overrides=None) -> dict:
    """Defaults, merged with an optional JSON file and dotted-path overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file does not parse as JSON: {exc}") from exc
        _validate(user, SCHEMA)
        cfg = _deep_merge(cfg, user)
    for dotted in overrides or []:
        if "=" not in dotted:
            raise ConfigError(f"--set expects dotted.path=value, got {dotted!r}")
        key_path, raw = dotted.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key_path.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"{key_path}: unknown configuration path")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"{key_path}: unknown configuration key")
        node[parts[-1]] = value
    _validate(cfg, SCHEMA)
    return cfg


def layout_from_config(cfg: dict) -> OpticalLayout:
    lay = cfg["layout"]
    tilt = lay["window_tilt_deg"]
    return OpticalLayout(
        focal_length=lay["focal_length_mm"] * 1e-3,
        beam_separation=lay["beam_separation_mm"] * 1e-3,
        crossing_full_angle=math.radians(lay["crossing_full_angle_deg"]),
        window_thickness=lay["window_thickness_mm"] * 1e-3,
        window_index=lay["window_index"],
        window_tilt=None if tilt is None else math.radians(tilt),
        aod_freq_range_mhz=lay["aod_freq_range_mhz"],
        aod_full_deflection=math.radians(lay["aod_full_deflection_deg"]),
        aod_aperture=tuple(v * 1e-3 for v in lay["aod_aperture_mm"]),
        power_throughput=lay["power_throughput"],
        calibration_um_per_mhz=dict(lay["calibration_um_per_mhz"]),
        off_axis_size_slope=lay["off_axis_size_slope_per_mm"] * 1e3,
        deflection_mode=lay["deflection_mode"],
    )


def constants_from_config(cfg: dict) -> PhysicalConstants:
    con = cfg["constants"]
    return PhysicalConstants(
        atom_mass=con["atom_mass_kg"],
        polarizability=con["polarizability_au"] * ATOMIC_POLARIZABILITY_SI,
        gravity=con["gravity_m_s2"],
    )


def beams_from_config(cfg: dict) -> tuple[InputBeam, InputBeam]:
    b = cfg["beams"]
    beam = InputBeam(
        power=b["power_w"],
        wavelength=b["wavelength_um"] * 1e-6,
        collimated_radius=b["collimated_radius_mm"] * 1e-3,
    )
    return beam, beam
