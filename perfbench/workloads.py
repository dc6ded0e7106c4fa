"""Workload passes and their output checks.

A pass is a list of operations. Each operation is one ``codtsim`` CLI call
(argv without the program name) writing into its own directory, plus a check
that reads the artifacts back and returns ``None`` when they meet the
acceptance bounds, or a message saying what is wrong. The checks use the
acceptance bounds rather than exact values, because planned changes to the
saddle scan move reported depths on purpose.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# evap.timeline_samples is lowered from the bundled 25 so that a run of a few
# tens of seconds holds several passes; 9 samples still cover six points of
# the ramp (t <= 1 s) and two after the reopen step. timeline_phases stays 128.
TIMELINE_SAMPLES = 9
# Reopen time of the bundled schedule: 1.0 s ramp plus 0.3 s hold.
T_REOPEN_S = 1.3
FLIGHT_FPS = 240
FLIGHT_FRAMES = 2400


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` for ``codtsim.cli.main`` and the check of its output."""

    label: str  # "<group>.<command>"
    argv: list[str]
    out: Path
    check: Callable[[Path], str | None]


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def check_timeline(out: Path) -> str | None:
    rows = _read_csv(out / "timeline.csv")
    if len(rows) != TIMELINE_SAMPLES:
        return f"expected {TIMELINE_SAMPLES} timeline rows, got {len(rows)}"
    if any(r["valid"] != "1" for r in rows):
        return "a timeline row is not valid"
    ramp = [float(r["depth_uK"]) for r in rows if float(r["t_s"]) <= 1.0]
    if len(ramp) < 6 or any(b >= a for a, b in zip(ramp, ramp[1:])):
        return f"depth does not decrease monotonically over the ramp: {ramp}"
    pre = [r for r in rows if float(r["t_s"]) <= T_REOPEN_S][-1]
    post = [r for r in rows if float(r["t_s"]) > T_REOPEN_S][-1]
    if not float(post["depth_uK"]) > float(pre["depth_uK"]):
        return "depth does not rise after the reopen step"
    if not float(post["mean_frequency_hz"]) < float(pre["mean_frequency_hz"]):
        return "mean frequency does not fall after the reopen step"
    return None


def check_grid(out: Path) -> str | None:
    rows = _read_csv(out / "sites.csv")
    if len(rows) != 9 or any(r["valid"] != "1" for r in rows):
        return "expected 9 valid sites"
    summary = json.loads((out / "grid_summary.json").read_text())
    if not summary["depth_spread"] < 0.03:
        return f"depth_spread {summary['depth_spread']} >= 0.03"
    if not summary["frequency_spread"] < 0.05:
        return f"frequency_spread {summary['frequency_spread']} >= 0.05"
    return None


def check_compensate(out: Path) -> str | None:
    result = json.loads((out / "compensate.json").read_text())
    if result["converged"] is not True:
        return "compensation did not converge"
    if not result["frequency_spread_after"] < 0.02:
        return f"frequency_spread_after {result['frequency_spread_after']} >= 0.02"
    return None


def check_misalign(out: Path) -> str | None:
    ratios = [float(r["depth_ratio"]) for r in _read_csv(out / "misalign_sweep.csv")]
    if len(ratios) % 2 != 1:
        return "expected an odd number of offsets centred on zero"
    mid = len(ratios) // 2
    if abs(ratios[mid] - 1.0) > 1e-6:
        return f"ratio at zero offset is {ratios[mid]}, not 1"
    if any(abs(a - b) > 1e-4 * abs(b) for a, b in zip(ratios, reversed(ratios))):
        return "ratio is not even in offset"
    right = ratios[mid:]
    if any(b >= a for a, b in zip(right, right[1:])):
        return "ratio does not fall away from the centre"
    return None


def check_synth(out: Path) -> str | None:
    meta = json.loads((out / "flight_meta.json").read_text())
    if meta["n_frames"] != FLIGHT_FRAMES:
        return f"flight_meta.json lists {meta['n_frames']} frames, not {FLIGHT_FRAMES}"
    written = sum(1 for _ in (out / "frames").glob("frame_*.pgm"))
    if written != FLIGHT_FRAMES:
        return f"{written} frames written, not {FLIGHT_FRAMES}"
    return None


def check_analyze(out: Path) -> str | None:
    report = json.loads((out / "flight_report.json").read_text())
    if report["skipped_frames"] != 0:
        return f"{report['skipped_frames']} frames skipped"
    phases = report["phases"]
    recovered = {
        "launch excursion": (phases["launch"]["displacement_um"]["spot1_x"]["max_abs"], 75.0),
        "microgravity offset": (phases["microgravity"]["displacement_um"]["spot1_x"]["mean"], 12.0),
        "inter-spot std": (phases["microgravity"]["dc_interspot_um"]["std"], 1.2),
    }
    for name, (value, target) in recovered.items():
        if not (math.isfinite(value) and _within(value, target, 0.10)):
            return f"{name} {value} um is not within 10% of {target} um"
    return None


def painted_ramp(seed: int, work: Path) -> list[Op]:
    out = work / "timeline"
    argv = ["evap", "timeline", "--out", str(out), "--seed", str(seed),
            "--set", f"evap.timeline_samples={TIMELINE_SAMPLES}"]
    return [Op("evap.timeline", argv, out, check_timeline)]


def site_array(seed: int, work: Path) -> list[Op]:
    ops = []
    for label, check in (
        ("paint.grid", check_grid),
        ("paint.compensate", check_compensate),
        ("trap.misalign-sweep", check_misalign),
    ):
        out = work / label
        ops.append(Op(label, [*label.split("."), "--out", str(out), "--seed", str(seed)], out, check))
    return ops


def flight_frames(seed: int, work: Path) -> list[Op]:
    out = work / "flight"
    common = ["--out", str(out), "--seed", str(seed),
              "--set", f"flight.fps={FLIGHT_FPS}", "--set", f"flight.n_frames={FLIGHT_FRAMES}"]
    return [
        Op("flight.synth", ["flight", "synth", *common], out, check_synth),
        Op("flight.analyze", ["flight", "analyze", *common, "--frames", str(out)], out, check_analyze),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "painted-ramp": painted_ramp,
    "site-array": site_array,
    "flight-frames": flight_frames,
}


def run_check(op: Op) -> str | None:
    """The op's check result; a missing or malformed artifact is a failure too."""
    try:
        return op.check(op.out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
