"""Property test of ``cli.main``: any override or corrupted input ends in a
known exit code, and ``--out`` holds either a complete run or what it held
before the call."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from codtsim.cli import main
from codtsim.config import SPEC
from codtsim.pointing import frame_path

# the leaves each command reads, as dotted-path prefixes; of its flight keys,
# flight analyze reads threshold_fraction, gate_pitch_factor and
# inner_fraction, which change its output, and takes the recording's pixel
# pitch, frame rate and frame count from flight_meta.json, so overrides of
# the other flight keys only exercise validation
READS = {
    "evap schedule": ("seed", "evap."),
    "trap volume": ("layout.", "volume."),
    "trap report": ("seed", "constants.", "layout.", "beams.", "trap."),
    "paint transport": ("layout.", "paint.transport_"),
    "tof fit": ("seed", "tof.profile_csv"),
    "flight analyze": ("seed", "flight."),
}
CORRUPTIONS = ("none", "truncated-frame", "garbled-frame", "junk-meta", "junk-centroids")
N_FRAMES = 24
# tof.profile_csv values; {inputs} is replaced by the inputs fixture's directory
PROFILES = [f"{{inputs}}/{name}" for name in ("profile.csv", "garbled.csv", "missing.csv", ".")]


def _leaves(spec, prefix=""):
    for key, node in spec.items():
        if isinstance(node, dict):
            yield from _leaves(node, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", node


LEAVES = dict(_leaves(SPEC))

# step and frame counts cost work in proportion to their value, so drawn
# numbers are bounded; NaN and the infinities are drawn as well
ints = st.integers(-3, 64)
numbers = ints | st.floats(-1e4, 1e4) | st.sampled_from([float("nan"), float("inf"), float("-inf")])
junk = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _values(leaf):
    """Values of the leaf's kind, about half the time, else null or junk."""
    _, kind, *flags = leaf
    size = flags[0] if flags and isinstance(flags[0], int) else None
    if kind == "number":
        fit = numbers
    elif kind == "integer":
        fit = ints
    elif kind == "boolean":
        fit = st.booleans()
    elif kind == "string":
        fit = st.sampled_from(flags[0]) if flags and isinstance(flags[0], tuple) else st.sampled_from(PROFILES)
    elif kind == "positions":
        fit = st.lists(st.lists(numbers, min_size=3, max_size=3), max_size=3)
    else:  # numarray and counts
        length = st.just(size) if size else st.integers(0, 6)
        item = ints if kind == "counts" else numbers
        fit = length.flatmap(lambda n: st.lists(item, min_size=n, max_size=n))
    return fit | (st.none() | junk)


junk_paths = st.lists(st.text(alphabet="abfz_.0", max_size=6), min_size=1, max_size=3).map(".".join)


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(READS)))
    names = [name for name in LEAVES if name.startswith(READS[command])]
    overrides = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 9)) == 0:
            overrides.append(f"{draw(junk_paths)}={json.dumps(draw(junk))}")
        else:
            name = draw(st.sampled_from(names))
            overrides.append(f"{name}={json.dumps(draw(_values(LEAVES[name])))}")
    corruption = None
    if command == "flight analyze":
        kind = draw(st.sampled_from(CORRUPTIONS))
        corruption = (kind, draw(st.integers(0, N_FRAMES - 1)), draw(st.binary(max_size=48)), draw(junk))
    return command, overrides, corruption


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 24-frame flight synth run, a readable and a garbled profile CSV."""
    base = tmp_path_factory.mktemp("inputs")
    assert main(["flight", "synth", "--out", str(base / "flight"), "--set", f"flight.n_frames={N_FRAMES}"]) == 0
    (base / "profile.csv").write_text("position_um,counts\n" + "".join(f"{x},{100 + x * x}\n" for x in range(-20, 21)))
    (base / "garbled.csv").write_text("position_um,counts\n1.0,many\n")
    return base


def _corrupt(frames: Path, corruption) -> list[str]:
    """Spoil one input file of a copied flight run; the extra argv it needs."""
    kind, index, blob, value = corruption
    frame = frame_path(frames, index)
    if kind == "truncated-frame":
        data = frame.read_bytes()
        frame.write_bytes(data[: len(data) * index // N_FRAMES])
    elif kind == "garbled-frame":
        data = frame.read_bytes()
        frame.write_bytes(blob + data[len(blob) :])
    elif kind == "junk-meta":
        meta_path = frames / "flight_meta.json"
        meta = json.loads(meta_path.read_text())
        key = sorted(meta)[index % len(meta)]
        meta[key] = value
        meta_path.write_text(json.dumps(meta) if index % 3 else json.dumps(meta)[: 10 * index])
    elif kind == "junk-centroids":
        csv_path = frames / "centroids.csv"
        csv_path.write_bytes(b"t_s,x1_um,y1_um,x2_um,y2_um\n" + blob)
        return ["--centroids", str(csv_path)]
    return []


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _check_run(inputs, run):
    command, overrides, corruption = run
    with tempfile.TemporaryDirectory(dir=inputs) as scratch:
        scratch = Path(scratch)
        out = scratch / "out"
        argv = [*command.split(), "--out", str(out)]
        for override in overrides:
            argv += ["--set", override]
        if corruption is not None:
            frames = scratch / "frames"
            shutil.copytree(inputs / "flight", frames)
            argv += ["--frames", str(frames), *_corrupt(frames, corruption)]
        before = _files(out) if out.exists() else {}
        code = main(argv)
        assert code in (0, 2, 3, 4)
        entries = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert not [name for name in entries if name.startswith(".partial-")]
        after = _files(out) if out.exists() else {}
        if code == 0:
            manifest = json.loads(after["manifest.json"])
            assert sorted(after) == sorted(manifest["artifacts"] + ["manifest.json"])
        else:
            assert after == before


@settings(max_examples=50, deadline=None)
@given(run=runs())
# the three repros that once exited 1 with a traceback
@example(run=("paint transport", ["paint.transport_start_um=[]", "paint.transport_end_um=[]"], None))
@example(run=("trap report", ["layout.window_index=0.2"], None))
@example(run=("trap report", ["trap.save_field=true", "trap.field_dims=[2097152,2097152,2097152]"], None))
# a paint on AODs that do not deflect once divided 0 um by 0 um/MHz
@example(run=("paint transport", ['layout.deflection_mode="geometric"', "layout.aod_full_deflection_deg=0"], None))
# found by this test: a beam so narrow that no escape-scan sample fits before the first step
@example(run=("trap report", ["beams.wavelength_um=1e-30"], None))
def test_main_exits_cleanly_and_out_is_complete_or_untouched(inputs, run):
    command, overrides, corruption = run
    overrides = [o.replace("{inputs}", str(inputs)) for o in overrides]
    _check_run(inputs, (command, overrides, corruption))
