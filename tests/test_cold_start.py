"""Import contract of the CLI: no scipy subpackage on the import path, one BLAS thread.

Every subcommand runs as a fresh process, so whatever ``codtsim.cli`` imports
at module level is paid on every call. The subpackages below are imported
inside the functions that use them, and BLAS runs on one thread.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codtsim.constants as cc

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_SUBPACKAGES = (
    "scipy.constants",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.ndimage",
    "scipy.spatial",
    "scipy.special",
    "scipy.linalg",
)


def test_cli_import_loads_no_scipy_subpackage():
    code = (
        "import codtsim.cli, sys; "
        f"print(' '.join(m for m in {LAZY_SUBPACKAGES!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == []


def test_flight_analyze_loads_no_scipy_subpackage(tmp_path):
    from codtsim.cli import main

    out = tmp_path / "flight"
    assert main(["flight", "synth", "--out", str(out), "--set", "flight.n_frames=48"]) == 0
    argv = ["flight", "analyze", "--out", str(out), "--frames", str(out), "--set", "flight.n_frames=48"]
    code = (
        "import sys; from codtsim.cli import main; "
        f"rc = main({argv!r}); "
        f"print(rc, *(m for m in {LAZY_SUBPACKAGES!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["0"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc (Linux)")
def test_cli_import_runs_one_thread():
    # numpy's OpenBLAS would start a worker thread for the second BLAS thread
    code = "import codtsim.cli, os; print(len(os.listdir('/proc/self/task')))"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["1"]


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # one BLAS thread (codtsim imported first) against two (numpy imported first)
    runs = (
        ["trap", "report", "--set", "trap.save_field=true", "--set", "trap.field_dims=[8,8,8]"],
        ["paint", "grid"],
        ["evap", "timeline", "--set", "evap.timeline_samples=3"],
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    for first, threads in (("codtsim", "1"), ("numpy", "2")):
        argvs = [[*argv, "--out", str(tmp_path / first / argv[1])] for argv in runs]
        code = (
            f"import os, {first}; from codtsim.cli import main; "
            f"assert os.environ['OPENBLAS_NUM_THREADS'] == {threads!r}; "
            f"assert not any(map(main, {argvs!r}))"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
    for argv in runs:
        one, two = tmp_path / "codtsim" / argv[1], tmp_path / "numpy" / argv[1]
        names = sorted(p.name for p in one.iterdir())
        assert "manifest.json" in names and names == sorted(p.name for p in two.iterdir())
        _, mismatch, errors = filecmp.cmpfiles(one, two, names, shallow=False)
        assert mismatch == errors == [], argv


def test_constants_equal_scipy_codata():
    import scipy.constants as sc

    assert cc.ATOMIC_MASS_KG == sc.atomic_mass
    assert cc.VACUUM_PERMITTIVITY == sc.epsilon_0
    assert cc.SPEED_OF_LIGHT == sc.c
    assert cc.BOLTZMANN == sc.k
    assert cc.REDUCED_PLANCK == sc.hbar
    assert cc.RB87_MASS_KG == 86.909180527 * sc.atomic_mass
