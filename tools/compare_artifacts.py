"""Check that the working tree writes the same artifacts as a git revision, byte for byte.

    python3 tools/compare_artifacts.py REV

Exports ``src/`` of ``REV`` with ``git archive``, runs the artifact matrix
below with each tree's ``src/`` on ``PYTHONPATH`` (the revision's and the
working tree's), and lists every file that differs or exists on one side
only, ``manifest.json`` included, and every run whose exit code differs.
Where a CSV or JSON file differs, it also names the columns (CSV) or
top-level keys (JSON) that were added, removed or changed.
Exits 0 when everything is identical, 1 on any difference, and 2 when git
cannot export ``REV``.

The matrix: all twelve subcommands at ``--seed 13`` (``flight analyze`` on
the ``flight synth`` output, once more with an inner window of half the
microgravity phase), a 3x3x3 and a 5x5x5 ``paint compensate`` at 480 um
(the latter groups the most escape scans into kernel calls), ``paint
compensate`` with the equal-mean-frequency objective on the bundled grid
and on the 3x3x3 grid, a 41-step
``trap misalign-sweep`` out to 20 um, a 740 um ``evap timeline`` at three
samples, ``trap report`` writing an 8x8x8 trap field, ``trap report``,
``paint grid`` and ``paint transport`` with the geometric deflection map,
a ``paint transport`` of three sites at once with each deflection map,
a ``flight synth`` plus ``flight analyze`` of 64x128-pixel frames at
3.5 um (height and width differ, so a swap of the two shows), a ``flight
synth`` whose 400 um launch excursion carries a spot out of the 480 um
frame (exit 3 before any frame is drawn, ``--out`` left empty), ``tof
expand`` with no times (a table without rows), at 0 K (no thermal
cloud) and at 1e300 ms (widths whose squares overflow), ``evap
schedule`` with an amplitude ramp that ends first and holds its endpoint,
a constant amplitude, no reopen step, and a total duration that
overflows (exit 3), and a ``flight analyze --centroids`` of the first
``flight analyze`` run's ``flight_series.csv``, each at 0 g and at 9.81
m/s^2: 72 runs. Each tree runs ``JOBS`` runs at a time.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = "13"
COMMANDS = [
    ("trap", "report"),
    ("trap", "volume"),
    ("trap", "misalign-sweep"),
    ("paint", "grid"),
    ("paint", "compensate"),
    ("paint", "transport"),
    ("evap", "schedule"),
    ("evap", "timeline"),
    ("tof", "expand"),
    ("tof", "fit"),
    ("flight", "synth"),
]
# three sites moving at once, so that each waveform maps rows of several sites
TRANSPORT_3_SITES = [
    "paint.transport_start_um=[[0,0,0],[0,480,0],[0,-480,-480]]",
    "paint.transport_end_um=[[330,0,0],[330,480,480],[-330,-480,0]]",
]
# name, subcommand, --set overrides
EXTRA = [
    ("paint-compensate-3x3x3", ("paint", "compensate"),
     ["paint.grid_counts=[3,3,3]", "paint.grid_spacing_um=[480,480,480]"]),
    ("paint-compensate-5x5x5", ("paint", "compensate"),
     ["paint.grid_counts=[5,5,5]", "paint.grid_spacing_um=[480,480,480]"]),
    ("paint-compensate-mean-frequency", ("paint", "compensate"), ["paint.objective=equal-mean-frequency"]),
    ("paint-compensate-3x3x3-mean-frequency", ("paint", "compensate"),
     ["paint.grid_counts=[3,3,3]", "paint.grid_spacing_um=[480,480,480]", "paint.objective=equal-mean-frequency"]),
    ("trap-misalign-sweep-20um", ("trap", "misalign-sweep"), ["misalign.max_offset_um=20", "misalign.n_steps=41"]),
    ("evap-timeline-740um", ("evap", "timeline"), ["evap.amplitude_start_um=740", "evap.timeline_samples=3"]),
    ("trap-report-field", ("trap", "report"), ["trap.save_field=true", "trap.field_dims=[8,8,8]"]),
    ("trap-report-geometric", ("trap", "report"), ["layout.deflection_mode=geometric"]),
    ("paint-grid-geometric", ("paint", "grid"), ["layout.deflection_mode=geometric"]),
    ("paint-transport-geometric", ("paint", "transport"), ["layout.deflection_mode=geometric"]),
    ("paint-transport-3-sites", ("paint", "transport"), TRANSPORT_3_SITES),
    ("paint-transport-3-sites-geometric", ("paint", "transport"),
     [*TRANSPORT_3_SITES, "layout.deflection_mode=geometric"]),
    ("flight-synth-64x128", ("flight", "synth"), ["flight.frame_shape=[64,128]", "flight.pixel_pitch_um=3.5"]),
    ("flight-synth-launch-400um", ("flight", "synth"), ["flight.launch_displacement_um=400"]),
    ("tof-expand-no-times", ("tof", "expand"), ["tof.times_ms=[]"]),
    ("tof-expand-0K", ("tof", "expand"), ["tof.temperature_uK=0"]),
    ("tof-expand-1e300ms", ("tof", "expand"), ["tof.times_ms=[1e300]"]),
    ("evap-schedule-amplitude-first", ("evap", "schedule"),
     ["evap.amplitude_end_um=10", "evap.amplitude_duration_s=0.5"]),
    ("evap-schedule-constant-amplitude", ("evap", "schedule"), ["evap.amplitude_end_um=230"]),
    ("evap-schedule-no-reopen", ("evap", "schedule"), ["evap.reopen_duration_s=0"]),
    ("evap-schedule-overflow", ("evap", "schedule"), ["evap.hold_s=1e308", "evap.reopen_duration_s=1e308"]),
]
# name, --set overrides, the flight synth run whose output is --frames
ANALYZE = [
    ("flight-analyze", [], "flight-synth"),
    ("flight-analyze-inner-0.5", ["flight.inner_fraction=0.5"], "flight-synth"),
    ("flight-analyze-64x128", [], "flight-synth-64x128"),
]
GRAVITIES = {"0g": [], "1g": ["constants.gravity_m_s2=9.81"]}
JOBS = 2  # runs at a time; each is a fresh interpreter of ~40 MB


def runs() -> list[tuple[str, list[str], list[tuple[str, str]]]]:
    """(name, CLI arguments without --out, input flags with paths below the output root) of the matrix."""
    cases = [("-".join(c), c, []) for c in COMMANDS] + EXTRA
    matrix = []
    for g, gravity in GRAVITIES.items():
        analyze = ["flight", "analyze", "--seed", SEED]
        for name, command, settings in cases:
            sets = [a for s in gravity + settings for a in ("--set", s)]
            matrix.append((f"{g}/{name}", [*command, "--seed", SEED, *sets], []))
        for name, settings, synth in ANALYZE:
            sets = [a for s in gravity + settings for a in ("--set", s)]
            matrix.append((f"{g}/{name}", [*analyze, *sets], [("--frames", f"{g}/{synth}")]))
        # the flight-analyze series read back as --centroids
        sets = [a for s in gravity for a in ("--set", s)]
        inputs = [("--frames", f"{g}/flight-synth"), ("--centroids", f"{g}/flight-analyze/flight_series.csv")]
        matrix.append((f"{g}/flight-analyze-centroids", [*analyze, *sets], inputs))
    return matrix


def run_tree(src: Path, out: Path) -> dict[str, int]:
    """Run the matrix with ``src`` on PYTHONPATH into ``out``; the exit code of each run."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def one(case):
        name, args, inputs = case
        extra = [a for flag, path in inputs for a in (flag, str(out / path))]
        cmd = [sys.executable, "-m", "codtsim.cli", *args, "--out", str(out / name), *extra]
        return name, subprocess.run(cmd, env=env, capture_output=True).returncode

    matrix = runs()
    codes = {}
    with ThreadPoolExecutor(JOBS) as pool:
        # a run reads the output of runs with fewer inputs: those go first
        for stage in sorted({len(c[2]) for c in matrix}):
            codes.update(pool.map(one, [c for c in matrix if len(c[2]) == stage]))
    return codes


def differences(a: Path, b: Path) -> list[str]:
    """Relative paths of files that differ between the trees ``a`` and ``b``, or exist in one only."""
    files = {
        tree: {p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()} for tree in (a, b)
    }
    shared = files[a] & files[b]
    _, mismatch, errors = filecmp.cmpfiles(a, b, sorted(shared), shallow=False)
    return sorted(set(mismatch) | set(errors) | (files[a] ^ files[b]))


def _fields(path: Path) -> dict | None:
    """A CSV's columns or a JSON object's top-level keys, each name with its values as text; None for other files.

    JSON values are compared as their JSON text, so that ``true`` differs from ``1``.
    """
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
        return {name: [row[i : i + 1] for row in rows] for i, name in enumerate(header)}
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        return {k: json.dumps(v, sort_keys=True) for k, v in data.items()} if isinstance(data, dict) else None
    return None


def field_changes(a: Path, b: Path) -> str:
    """The columns or keys added, removed or changed from the file ``a`` to the file ``b``, for CSV and JSON."""
    old, new = _fields(a), _fields(b)
    if old is None or new is None:
        return ""
    groups = {
        "added": [k for k in new if k not in old],
        "removed": [k for k in old if k not in new],
        "changed": [k for k in old if k in new and old[k] != new[k]],
    }
    return "; ".join(f"{label} {', '.join(names)}" for label, names in groups.items() if names) or "same fields"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.rev, "src"], capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(), end="", file=sys.stderr)
            return 2
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive.stdout, check=True)
        codes = {
            "rev": run_tree(tmp / "rev" / "src", tmp / "out-rev"),
            "tree": run_tree(REPO / "src", tmp / "out-tree"),
        }
        changed_codes = sorted(n for n in codes["rev"] if codes["rev"][n] != codes["tree"][n])
        for name in changed_codes:
            print(f"exit code {name}: {codes['rev'][name]} at {args.rev}, {codes['tree'][name]} in the tree")
        diff = differences(tmp / "out-rev", tmp / "out-tree")
        for path in diff:
            a, b = tmp / "out-rev" / path, tmp / "out-tree" / path
            changes = field_changes(a, b) if a.is_file() and b.is_file() else ""
            print(f"differs: {path}" + (f" ({changes})" if changes else ""))
        total = sum(1 for p in (tmp / "out-tree").rglob("*") if p.is_file())
        print(f"{len(codes['tree'])} runs, {total} files, {len(diff)} differ")
    return int(bool(changed_codes or diff))


if __name__ == "__main__":
    sys.exit(main())
