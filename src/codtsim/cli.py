"""Batch command-line front end.

Every workflow is a subcommand driven by a JSON config file; artifacts are
CSV/JSON (and PGM frames for flight synthesis) written to the output
directory together with a manifest carrying the config hash, package
versions and seed.  Identical config and seed produce identical artifacts.
A run writes into a hidden stage inside the output directory and is moved
into it only on success, manifest last; a failed run leaves it as found.

Exit codes: 0 success, 2 config error, 3 domain error, 4 model-validity error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod
from .errors import CodtsimError, ConfigError, DomainError
from .evap import RampSchedule, bimodal_profile, expand, fit_bimodal, timeline
from .optics import CHANNELS, displacement_scale, focus_input_beam
from .painting import (
    GridSpec,
    characterize_sites,
    compensate_powers,
    grid_waveform,
    site_table_columns,
    transport_ramp,
)
from .pointing import PHASES, _spot_centres, read_frames, synth_frame, track_spots, track_stats, write_frames
from .potential import WAVEFORM_PERIOD, DipolePotential, beam_records, write_field
from .trapchar import characterize_crossed_trap, misalignment_sweep, reachable_volume

# hashlib loads OpenSSL's libcrypto (~3.5 MB resident) into every process; the
# interpreter's builtin sha256 gives the same digest, as in CPython's random.py
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256


FIELD_WAIST_MARGIN = 4.0  # trap field half-extent, in waists


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_csv(path: Path, columns: dict) -> None:
    """A table of equal-length ``columns`` (arrays or lists): a header of their names, then one line per entry.

    A table without rows is a 0-byte file; columns of unequal length raise ValueError.
    """
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()), strict=True))
    if not rows:
        path.write_text("")
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def waveform_export(wf) -> dict:
    """Per-channel knots of a waveform; a one-knot drive is labelled "hold"."""
    channels = {}
    for i, ch in enumerate(CHANNELS):
        channels[ch] = {
            "t_s": wf.times.tolist(),
            "freq_offset_mhz": wf.freq_offsets_mhz[:, i].tolist(),
            "weight": wf.weights[:, i].tolist(),
        }
    interpolation = "hold" if wf.times.size == 1 else "linear"
    return {"period_s": WAVEFORM_PERIOD, "interpolation": interpolation, "channels": channels}


def _publish(stage: Path, out: Path) -> None:
    """Move every entry of ``stage`` into ``out``, merging into a directory ``out`` already has."""
    for entry in stage.iterdir():
        target = out / entry.name
        if entry.is_dir() and target.is_dir():
            _publish(entry, target)
        else:
            os.replace(entry, target)


def _write_manifest(out: Path, command: str, cfg: dict, artifacts: list[str]) -> None:
    blob = json.dumps(cfg, sort_keys=True).encode()
    versions = {"codtsim": __version__, "numpy": np.__version__}
    if command.startswith("tof "):  # the only commands that run scipy code
        import scipy

        versions["scipy"] = scipy.__version__
    write_json(
        out / "manifest.json",
        {
            "command": command,
            "config_sha256": sha256(blob).hexdigest(),
            "seed": cfg["seed"],
            "versions": versions,
            "artifacts": artifacts,
        },
    )


def _context(cfg):
    constants = cfgmod.constants_from_config(cfg)
    layout = cfgmod.layout_from_config(cfg)
    inputs = cfgmod.beams_from_config(cfg)
    return constants, layout, inputs


# --- subcommand implementations --------------------------------------------


def cmd_trap_report(cfg, out: Path) -> None:
    constants, layout, inputs = _context(cfg)
    report = characterize_crossed_trap(constants, layout, inputs)
    payload = {
        **{name: column[0].item() for name, column in report.columns().items()},
        "principal_axes": report.principal_axes[0].tolist(),
        "deflection_scales_um_per_mhz": dict(zip(CHANNELS, (displacement_scale(layout) / 1e-6).tolist())),
    }
    write_json(out / "trap_report.json", payload)
    if cfg["trap"]["save_field"]:
        # the crossed trap on a grid centred on the crossing, FIELD_WAIST_MARGIN
        # of the widest line-focus radius of beam 1 on every side
        beam = focus_input_beam(layout, inputs[0])
        split = abs(beam.focus_h - beam.focus_v)
        half = FIELD_WAIST_MARGIN * max(beam.width_h(0.0), beam.width_h(split), beam.width_v(split))
        potential = DipolePotential(constants, beam_records(layout, inputs, np.zeros(4))[0])
        try:
            write_field(out / "trap_field", potential, np.zeros(3), half, cfg["trap"]["field_dims"])
        except (ValueError, MemoryError) as exc:  # numpy: "array is too big"
            raise DomainError(f"trap.field_dims: the field grid cannot be allocated: {exc}") from exc


def cmd_trap_volume(cfg, out: Path) -> None:
    _, layout, _ = _context(cfg)
    vol = cfg["volume"]
    h = None if vol["h_half_range_mm"] is None else vol["h_half_range_mm"] * 1e-3
    v = None if vol["v_half_range_mm"] is None else vol["v_half_range_mm"] * 1e-3
    result = reachable_volume(layout, h, v)
    write_json(out / "volume.json", result)


def cmd_trap_misalign(cfg, out: Path) -> None:
    constants, layout, inputs = _context(cfg)
    mis = cfg["misalign"]
    offsets = np.linspace(-mis["max_offset_um"], mis["max_offset_um"], mis["n_steps"]) * 1e-6
    write_csv(out / "misalign_sweep.csv", misalignment_sweep(constants, layout, inputs, offsets))


def _grid_from_config(cfg) -> GridSpec:
    p = cfg["paint"]
    return GridSpec(
        counts=tuple(p["grid_counts"]),
        spacing=tuple(s * 1e-6 for s in p["grid_spacing_um"]),
        center=tuple(c * 1e-6 for c in p["grid_center_um"]),
    )


def cmd_paint_grid(cfg, out: Path) -> None:
    constants, layout, inputs = _context(cfg)
    spec = _grid_from_config(cfg)
    wf = grid_waveform(layout, spec)
    table = characterize_sites(constants, layout, inputs, spec)
    dev = table.deviations()
    summary = {
        "frequency_spread": table.frequency_spread(),
        "depth_spread": table.depth_spread(),
        "max_radius_deviation_beam1": float(np.max(np.abs(dev["radius_beam1"]))),
        "max_radius_deviation_beam2": float(np.max(np.abs(dev["radius_beam2"]))),
    }
    write_csv(out / "sites.csv", site_table_columns(table))
    write_json(out / "grid_waveform.json", waveform_export(wf))
    write_json(out / "grid_summary.json", summary)


def cmd_paint_compensate(cfg, out: Path) -> None:
    constants, layout, inputs = _context(cfg)
    spec = _grid_from_config(cfg)
    before = characterize_sites(constants, layout, inputs, spec)
    after = compensate_powers(
        constants, layout, inputs, spec, table=before, objective=cfg["paint"]["objective"]
    )
    write_csv(out / "sites_before.csv", site_table_columns(before))
    write_csv(out / "sites_after.csv", site_table_columns(after))
    write_json(
        out / "compensate.json",
        {
            "objective": cfg["paint"]["objective"],
            "converged": after.converged,
            "frequency_spread_before": before.frequency_spread(),
            "frequency_spread_after": after.frequency_spread(),
            "depth_spread_before": before.depth_spread(),
            "depth_spread_after": after.depth_spread(),
            "weights": after.weights.mean(axis=1).tolist(),
        },
    )


def cmd_paint_transport(cfg, out: Path) -> None:
    _, layout, _ = _context(cfg)
    p = cfg["paint"]
    ramps = transport_ramp(
        layout,
        np.asarray(p["transport_start_um"]) * 1e-6,
        np.asarray(p["transport_end_um"]) * 1e-6,
        steps=p["transport_steps"],
        profile=p["transport_profile"],
    )
    write_json(
        out / "transport_waveforms.json",
        {
            "duration_s": p["transport_duration_s"],
            "profile": p["transport_profile"],
            "steps": [waveform_export(wf) for wf in ramps],
        },
    )


def cmd_evap_schedule(cfg, out: Path) -> None:
    schedule = RampSchedule.from_config(cfg["evap"])
    write_json(
        out / "schedule.json",
        {
            "power_tau_s": schedule.power_tau,
            "total_duration_s": schedule.total_duration,
            "ramp_duration_s": schedule.ramp_duration,
            "evap": cfg["evap"],
        },
    )
    write_csv(out / "schedule.csv", schedule.drive(201))


def cmd_evap_timeline(cfg, out: Path) -> None:
    constants, layout, inputs = _context(cfg)
    schedule = RampSchedule.from_config(cfg["evap"])
    write_csv(out / "timeline.csv", timeline(constants, layout, inputs, schedule, cfg["evap"]["timeline_samples"]))


def cmd_tof_expand(cfg, out: Path) -> None:
    constants, _, _ = _context(cfg)
    t = cfg["tof"]
    tf_radii = np.asarray(t["tf_radii_um"]) * 1e-6
    times = np.asarray(t["times_ms"]) * 1e-3
    write_csv(out / "expansion.csv", expand(t["frequencies_hz"], tf_radii, t["temperature_uK"] * 1e-6, times, constants))


def _read_table(path, name: str, columns: int) -> np.ndarray:
    """Numeric CSV rows below a header line; ConfigError naming ``name`` if unreadable or empty."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data"
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name}: cannot read {path}: {exc}") from exc
    if data.shape[0] == 0:
        raise ConfigError(f"{name}: {path} has no data rows")
    if data.shape[1] < columns:
        raise ConfigError(f"{name}: {path} needs at least {columns} numeric columns")
    return data


def cmd_tof_fit(cfg, out: Path) -> None:
    t = cfg["tof"]
    if t["profile_csv"] is not None:
        data = _read_table(t["profile_csv"], "tof.profile_csv", 2)
        positions = data[:, 0] * 1e-6
        counts = data[:, 1]
        sigma = None
    else:
        # self-test profile: known bimodal shape plus seeded 2% noise
        rng = np.random.default_rng(cfg["seed"])
        positions = np.linspace(-300, 300, 201) * 1e-6
        truth = dict(a_th=600.0, sigma=80e-6, a_tf=1200.0, radius=45e-6, center=5e-6, offset=150.0)
        clean = bimodal_profile(positions, *truth.values())
        noise_sigma = 0.02 * clean.max()
        counts = np.clip(clean + rng.normal(0, noise_sigma, positions.size), 0, None)
        sigma = np.full(positions.size, noise_sigma)
    write_json(out / "tof_fit.json", fit_bimodal(positions, counts, sigma))


def flight_truth_trajectory(cfg) -> dict:
    """Deterministic spot trajectories for the synthetic flight."""
    f = cfg["flight"]
    durations = f["phase_durations_s"]
    edges = np.cumsum([0.0, *(durations[phase] for phase in PHASES)]).tolist()
    boundaries = {phase: (t0, t1) for phase, t0, t1 in zip(PHASES, edges, edges[1:])}
    times = np.arange(f["n_frames"]) / f["fps"]
    shape = tuple(int(v) for v in f["frame_shape"])
    pitch = f["pixel_pitch_um"]
    cx = 0.5 * shape[1] * pitch
    cy = 0.5 * shape[0] * pitch
    sep = f["spot_separation_um"]
    base = np.array([[cx - 0.5 * sep, cy], [cx + 0.5 * sep, cy]])  # two spots along x

    launch_t0, launch_t1 = boundaries["launch"]
    micro_t0, micro_t1 = boundaries["microgravity"]
    d_launch = f["launch_displacement_um"]
    d_micro = f["microgravity_offset_um"]
    # a common displacement along x: a plateau at the full excursion in the
    # middle of the launch, settling to the microgravity offset by its end
    frac = (times - launch_t0) / (launch_t1 - launch_t0)
    sub = (frac - 2 / 3) * 3
    displacement = np.select(
        [times < launch_t0, frac < 1 / 3, frac < 2 / 3, times < launch_t1, times < micro_t1],
        [
            0.0,
            d_launch * 0.5 * (1 - np.cos(3 * math.pi * frac)),
            d_launch,
            d_micro + (d_launch - d_micro) * 0.5 * (1 + np.cos(math.pi * sub)),
            d_micro,
        ],
        0.0,
    )
    positions = np.repeat(base[None], times.size, axis=0)
    positions[:, :, 0] += displacement[:, None]
    micro = (micro_t0 <= times) & (times < micro_t1)
    if f["interspot_jitter_um"] > 0:
        rng = np.random.default_rng(cfg["seed"])
        positions[micro, 1, 0] += rng.normal(0.0, f["interspot_jitter_um"], int(micro.sum()))
    return {"times": times, "positions": positions, "boundaries": boundaries}


def cmd_flight_synth(cfg, out: Path) -> None:
    f = cfg["flight"]
    truth = flight_truth_trajectory(cfg)
    shape = tuple(int(v) for v in f["frame_shape"])
    pitch = f["pixel_pitch_um"] * 1e-6
    _spot_centres(truth["positions"], shape, pitch)  # every spot of the flight, before any frame is drawn
    frames = (
        synth_frame(
            spots_um,
            f["spot_sigma_um"],
            f["spot_amplitude"],
            shape=shape,
            pixel_pitch=pitch,
            background=f["background"],
            noise=f["noise"],
            seed=cfg["seed"] + i,
        )
        for i, spots_um in enumerate(truth["positions"])
    )
    write_frames(out, frames)  # frames are rendered here while one writer thread creates the files of earlier ones
    meta = {
        "pixel_pitch_um": f["pixel_pitch_um"],
        "fps": f["fps"],
        "phase_boundaries_s": {k: list(v) for k, v in truth["boundaries"].items()},
        "n_frames": int(len(truth["times"])),
        "truth": {
            "launch_displacement_um": f["launch_displacement_um"],
            "microgravity_offset_um": f["microgravity_offset_um"],
            "interspot_jitter_um": f["interspot_jitter_um"],
        },
    }
    write_json(out / "flight_meta.json", meta)


def _read_flight_meta(path: Path, keys) -> dict:
    """Checked ``keys`` of ``flight_meta.json``; ConfigError naming the file and key if one is bad.

    A ``flight`` config key of the same name gives the check.
    """
    if not path.exists():
        raise ConfigError(f"flight metadata not found at {path}")
    try:
        meta = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot read flight metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: flight metadata must be an object")
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ConfigError(f"{path}: flight metadata lacks {', '.join(missing)}")
    for key in keys:
        if key == "phase_boundaries_s":
            if not isinstance(meta[key], dict):
                raise ConfigError(f"{path}: {key}: expected an object")
            for phase, span in meta[key].items():
                cfgmod.check_value(span, (None, "numarray", 2), f"{path}: {key}.{phase}")
        else:
            cfgmod.check_value(meta[key], cfgmod.SPEC["flight"][key], f"{path}: {key}")
    return meta


def cmd_flight_analyze(cfg, out: Path, frames_dir: Path, centroids: Path | None = None) -> None:
    """Analyze the recording that ``frames_dir/flight_meta.json`` describes, with this run's ``flight`` settings."""
    f = cfg["flight"]
    keys = ["phase_boundaries_s"]
    if centroids is None:
        keys += ["n_frames", "pixel_pitch_um", "fps"]
    meta = _read_flight_meta(frames_dir / "flight_meta.json", keys)
    boundaries = {k: tuple(v) for k, v in meta["phase_boundaries_s"].items()}
    if centroids is not None:
        data = _read_table(centroids, "--centroids", 5)
        timestamps, spots_um = data[:, 0], data[:, 1:5].reshape(-1, 2, 2)
    else:
        n = meta["n_frames"]
        timestamps = np.arange(n) / meta["fps"]
        spots_um = track_spots(
            read_frames(frames_dir, n),  # read as they are tracked
            meta["pixel_pitch_um"] * 1e-6,
            threshold_fraction=f["threshold_fraction"],
            gate_factor=f["gate_pitch_factor"],
        )
    report = track_stats(timestamps, spots_um, boundaries, inner_fraction=f["inner_fraction"])
    write_csv(out / "flight_series.csv", report.pop("series"))
    write_json(out / "flight_report.json", report)


COMMANDS = {
    ("trap", "report"): cmd_trap_report,
    ("trap", "volume"): cmd_trap_volume,
    ("trap", "misalign-sweep"): cmd_trap_misalign,
    ("paint", "grid"): cmd_paint_grid,
    ("paint", "compensate"): cmd_paint_compensate,
    ("paint", "transport"): cmd_paint_transport,
    ("evap", "schedule"): cmd_evap_schedule,
    ("evap", "timeline"): cmd_evap_timeline,
    ("tof", "expand"): cmd_tof_expand,
    ("tof", "fit"): cmd_tof_fit,
    ("flight", "synth"): cmd_flight_synth,
    ("flight", "analyze"): cmd_flight_analyze,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codtsim", description=__doc__)
    parser.add_argument("group", choices=sorted({g for g, _ in COMMANDS}))
    parser.add_argument("command")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="dotted.path=value",
        help="override a config value",
    )
    parser.add_argument("--frames", type=Path, default=None, help="flight frames directory")
    parser.add_argument(
        "--centroids", type=Path, default=None, help="centroid CSV bypassing detection"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        key = (args.group, args.command)
        if key not in COMMANDS:
            raise ConfigError(
                f"unknown command {args.group} {args.command}; available: "
                + ", ".join(f"{g} {c}" for g, c in sorted(COMMANDS))
            )
        if key != ("flight", "analyze"):
            for flag, value in (("--frames", args.frames), ("--centroids", args.centroids)):
                if value is not None:
                    raise ConfigError(f"{flag}: only flight analyze reads it, not {args.group} {args.command}")
        cfg = cfgmod.load_config(args.config, args.overrides)
        if args.seed is not None:
            cfgmod.check_value(args.seed, cfgmod.SPEC["seed"], "--seed")
            cfg["seed"] = args.seed
        out = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
            # a hidden stage on the same filesystem: only a command that returns reaches --out
            stage = Path(tempfile.mkdtemp(prefix=".partial-", dir=out))
        except OSError as exc:  # e.g. --out names a file
            raise ConfigError(f"--out: cannot create the output directory {out}: {exc}") from exc
        try:
            if key == ("flight", "analyze"):
                cmd_flight_analyze(cfg, stage, frames_dir=args.frames or out, centroids=args.centroids)
            else:
                COMMANDS[key](cfg, stage)
            prefix = len(str(stage)) + 1  # os.walk roots are the stage path, then a separator
            artifacts = sorted(
                os.path.join(root[prefix:], name).replace(os.sep, "/")
                for root, _, files in os.walk(stage)
                for name in files
            )
            _publish(stage, out)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        _write_manifest(out, f"{args.group} {args.command}", cfg, artifacts)
        return 0
    except CodtsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
