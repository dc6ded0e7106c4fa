"""Run configuration: JSON with unit-suffixed keys, declared once in ``SPEC``.

Each ``SPEC`` leaf is ``(default, kind, *flags)``; ``DEFAULT_CONFIG`` is read
off it.  A user file and each dotted-path override (``--set section.key=value``,
which stands for ``{"section": {"key": value}}``) are layers: every layer is
checked against ``SPEC`` and deep-merged over the defaults, overrides last.
Validation errors carry the full field path.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .constants import ATOMIC_POLARIZABILITY_SI, RB87_MASS_KG, RB87_POLARIZABILITY_AU, PhysicalConstants
from .errors import ConfigError
from .optics import DEFAULT_CALIBRATION_UM_PER_MHZ, DEFLECTION_MODES, InputBeam, OpticalLayout
from .painting import OBJECTIVES, TRANSPORT_PROFILES

SPEC: dict = {
    "seed": (13, "integer", "nonnegative"),
    "layout": {
        "focal_length_mm": (60.0, "number", "positive"),
        "beam_separation_mm": (30.0, "number", "positive"),
        "crossing_full_angle_deg": (30.0, "number", "positive"),
        "window_thickness_mm": (10.0, "number", "nonnegative"),
        "window_index": (1.45, "number", "positive"),
        "window_tilt_deg": (None, "number", "nullable", "nonnegative"),  # null -> half the crossing angle
        "aod_freq_range_mhz": (15.0, "number", "positive"),
        "aod_full_deflection_deg": (1.4, "number", "nonnegative"),
        "aod_aperture_mm": ([7.5, 7.5], "numarray", 2),
        "power_throughput": (0.75, "number", "unit"),
        "calibration_um_per_mhz": {
            ch: (scale, "number", "positive") for ch, scale in DEFAULT_CALIBRATION_UM_PER_MHZ.items()
        },
        "off_axis_size_slope_per_mm": (0.165, "number", "nonnegative"),
        "deflection_mode": ("calibrated", "string", DEFLECTION_MODES),
    },
    "constants": {
        "atom_mass_kg": (RB87_MASS_KG, "number", "positive"),
        "polarizability_au": (RB87_POLARIZABILITY_AU, "number", "positive"),
        "gravity_m_s2": (PhysicalConstants.gravity, "number", "nonnegative"),
    },
    "beams": {
        "power_w": (10.0, "number", "nonnegative"),
        "wavelength_um": (1.064, "number", "positive"),
        "collimated_radius_mm": (1.95, "number", "positive"),
    },
    "trap": {
        "field_dims": ([96, 96, 96], "counts", 3),
        "save_field": (False, "boolean"),
    },
    "paint": {
        "grid_counts": ([1, 3, 3], "counts", 3),
        "grid_spacing_um": ([0.0, 480.0, 480.0], "numarray", 3),
        "grid_center_um": ([0.0, 0.0, 0.0], "numarray", 3),
        "objective": ("equal-depth", "string", OBJECTIVES),
        "transport_start_um": ([[0.0, 0.0, 0.0]], "positions"),
        "transport_end_um": ([[330.0, 0.0, 0.0]], "positions"),
        "transport_duration_s": (0.1, "number", "positive"),
        "transport_steps": (21, "integer", "positive"),
        "transport_profile": ("minimum-jerk", "string", TRANSPORT_PROFILES),
    },
    "misalign": {"max_offset_um": (10.0, "number", "positive"), "n_steps": (11, "integer", "positive")},
    "volume": {
        "h_half_range_mm": (None, "number", "nullable", "nonnegative"),
        "v_half_range_mm": (None, "number", "nullable", "nonnegative"),
    },
    "evap": {
        "power_start_w": (10.0, "number", "positive"),
        "power_end_w": (0.04, "number", "positive"),
        "power_duration_s": (1.0, "number", "positive"),
        "amplitude_start_um": (230.0, "number", "nonnegative"),
        "amplitude_end_um": (0.0, "number", "nonnegative"),
        "amplitude_duration_s": (1.0, "number", "positive"),
        "amplitude_tau_s": (0.2, "number", "positive"),
        "hold_s": (0.3, "number", "nonnegative"),
        "reopen_amplitude_um": (70.0, "number", "nonnegative"),
        "reopen_power_w": (5.0, "number", "positive"),
        "reopen_duration_s": (0.2, "number", "nonnegative"),
        "timeline_samples": (25, "integer", "positive"),
    },
    "tof": {
        "frequencies_hz": ([120.0, 35.0, 350.0], "numarray", 3, "positive"),
        "tf_radii_um": ([4.0, 14.0, 1.4], "numarray", 3, "positive"),
        "temperature_uK": (0.05, "number", "nonnegative"),
        "times_ms": ([0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0], "numarray"),
        "profile_csv": (None, "string", "nullable"),
    },
    "flight": {
        "n_frames": (240, "integer", "positive"),
        "fps": (24.0, "number", "positive"),
        "frame_shape": ([96, 96], "counts", 2),
        "pixel_pitch_um": (5.0, "number", "positive"),
        "spot_separation_um": (60.0, "number", "positive"),
        "spot_sigma_um": (12.0, "number", "positive"),
        "spot_amplitude": (3000.0, "number", "positive"),
        "background": (40.0, "number", "nonnegative"),
        "noise": (6.0, "number", "nonnegative"),
        "threshold_fraction": (0.2, "number", "open-unit"),
        "launch_displacement_um": (75.0, "number", "nonnegative"),
        "microgravity_offset_um": (12.0, "number", "nonnegative"),
        "interspot_jitter_um": (1.2, "number", "nonnegative"),
        "gate_pitch_factor": (10.0, "number", "positive"),
        "phase_durations_s": {
            "pre": (2.0, "number", "positive"),
            "launch": (1.0, "number", "positive"),
            "microgravity": (4.0, "number", "positive"),
            "landing": (1.0, "number", "positive"),
            "post": (2.0, "number", "positive"),
        },
        "inner_fraction": (0.75, "number", "unit"),
    },
}


def _defaults(spec: dict) -> dict:
    return {k: _defaults(v) if isinstance(v, dict) else copy.deepcopy(v[0]) for k, v in spec.items()}


DEFAULT_CONFIG: dict = _defaults(SPEC)

_NUMBER = (int, float)


def _is_number(value) -> bool:
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_value(value, leaf: tuple, path: str) -> None:
    """Raise ConfigError naming ``path`` unless ``value`` fits ``leaf`` (a ``SPEC`` leaf)."""
    _, kind, *flags = leaf
    if value is None:
        if "nullable" in flags:
            return
        raise ConfigError(f"{path}: must not be null")
    if kind in ("number", "integer"):
        if kind == "integer" and (not isinstance(value, int) or isinstance(value, bool)):
            raise ConfigError(f"{path}: expected an integer")
        if not _is_number(value):
            raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
        if not _is_finite(value):
            raise ConfigError(f"{path}: must be finite")
        if "positive" in flags and value <= 0:
            raise ConfigError(f"{path}: must be > 0")
        if "nonnegative" in flags and value < 0:
            raise ConfigError(f"{path}: must be >= 0")
        if "unit" in flags and not 0.0 <= value <= 1.0:
            raise ConfigError(f"{path}: must lie in [0, 1]")
        if "open-unit" in flags and not 0.0 < value < 1.0:
            raise ConfigError(f"{path}: must lie in (0, 1)")
    elif kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        if flags and isinstance(flags[0], tuple) and value not in flags[0]:
            raise ConfigError(f"{path}: expected one of {', '.join(flags[0])}, got {value!r}")
    elif kind == "boolean":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
    elif kind == "numarray":
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise ConfigError(f"{path}: expected an array of numbers")
        if not all(_is_finite(v) for v in value):
            raise ConfigError(f"{path}: entries must be finite")
        if flags and len(value) != flags[0]:
            raise ConfigError(f"{path}: expected {flags[0]} numbers, got {len(value)}")
        if "positive" in flags and not all(v > 0 for v in value):
            raise ConfigError(f"{path}: entries must be > 0")
    elif kind == "counts":
        if not isinstance(value, list) or len(value) != flags[0] or not all(
            isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value
        ):
            raise ConfigError(f"{path}: expected {flags[0]} positive integers")
    elif kind == "positions":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty array")
        for i, row in enumerate(value):
            check_value(row, (None, "numarray", 3), f"{path}[{i}]")
    else:  # pragma: no cover - spec bug
        raise ConfigError(f"{path}: unknown spec kind {kind}")


def _validate(data, spec: dict, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in spec:
            raise ConfigError(f"{here}: unknown configuration key")
        if isinstance(spec[key], dict):
            _validate(value, spec[key], here)
        else:
            check_value(value, spec[key], here)


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _file_layer(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, an over-long integer
        raise ConfigError(f"config file does not parse as JSON: {exc}") from exc


def _override_layer(dotted: str) -> dict:
    """``a.b=value`` as the layer ``{"a": {"b": value}}``; a value that is not JSON is a string."""
    if "=" not in dotted:
        raise ConfigError(f"--set expects dotted.path=value, got {dotted!r}")
    key_path, raw = dotted.split("=", 1)
    try:
        layer = json.loads(raw)
    except ValueError:
        layer = raw
    for key in reversed(key_path.split(".")):
        layer = {key: layer}
    return layer


def load_config(path=None, overrides=None) -> dict:
    """Defaults, merged with an optional JSON file and then each dotted-path override."""
    layers = [] if path is None else [_file_layer(path)]
    layers += [_override_layer(dotted) for dotted in overrides or []]
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for layer in layers:
        _validate(layer, SPEC)
        cfg = _deep_merge(cfg, layer)
    _validate(cfg, SPEC)
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
